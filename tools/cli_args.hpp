// Numeric command-line flag parsing shared by the tools.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>

namespace lo::tools {

/// The whole of `text` as a non-negative number of type T.  Junk, trailing
/// characters, a sign, overflow or a non-finite value print "bad value for
/// FLAG", call `usage()` and exit 2.
template <typename T, typename Usage>
T parseNonNegative(const std::string& flag, const std::string& text, Usage&& usage) {
  T out{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, out);
  bool ok = !text.empty() && ec == std::errc() && ptr == last;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(out) && out >= 0.0;
  if constexpr (std::is_signed_v<T>) ok = ok && out >= 0;
  if (!ok) {
    std::fprintf(stderr, "bad value for %s: '%s'\n", flag.c_str(), text.c_str());
    usage();
    std::exit(2);
  }
  return out;
}

}  // namespace lo::tools
