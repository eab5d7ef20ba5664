// SPICE-flavoured netlist reader/writer.
//
// The extractor emits parasitic-annotated netlists in this format and the
// test suite round-trips circuits through it.  Supported cards:
//
//   * comment lines, .end
//   M<name> d g s b <nmos|pmos> W= L= [NF= AD= AS= PD= PS= M=]
//   R<name> a b <ohms>
//   C<name> a b <farads>
//   V<name> p n [DC <v>] [AC <mag> [phase]] [PULSE(v1 v2 td tr tf pw per)]
//            [SIN(off ampl freq)]
//   I<name> p n [DC <v>] [AC <mag>]
//   E<name> p n cp cn <gain>
//
// Numbers accept the usual SI suffixes (f p n u m k meg g t).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "circuit/circuit.hpp"

namespace lo::circuit {

class NetlistParseError : public std::runtime_error {
 public:
  explicit NetlistParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Parse a netlist; throws NetlistParseError on malformed input.
[[nodiscard]] Circuit parseNetlist(std::string_view text);

/// Serialise a circuit to netlist text (round-trippable through
/// parseNetlist).
[[nodiscard]] std::string writeNetlist(const Circuit& circuit);

/// Parse one SPICE number with optional SI suffix ("2.5u", "3MEG", "10k"),
/// case-insensitively.  The suffix must match exactly: trailing characters
/// after a recognised suffix ("10megx", "1m5") throw NetlistParseError
/// instead of silently parsing as the prefix.  Non-finite values ("nan",
/// "inf", or a suffix that overflows) throw NetlistParseError too.
[[nodiscard]] double parseSpiceNumber(std::string_view token);

/// Format a value in engineering notation with SI suffix (e.g. "2.5u").
[[nodiscard]] std::string formatSpiceNumber(double value);

}  // namespace lo::circuit
