// lo_verify: the post-layout verification tier.
//
// After sizing and layout converge the engine has two netlists for the
// same cell: the schematic-level sized design and the extracted design
// (fold-quantised junctions, drawn passives) annotated with the routing /
// coupling / well parasitics the layout tool reported.  This library
// re-simulates both sides and turns the comparison into a structured
// VerificationReport: per-spec pre- vs post-layout deltas plus a pass /
// fail verdict against the user's tolerances -- the closed-loop check the
// paper calls verification-by-simulation, widened to the extended spec
// surface (THD, PSRR, output swing, ICMR, input-referred offset).
//
// Measurement definitions:
//  * THD -- hard unity-feedback buffer driven by a sine at the verify
//    tone; an integer number of steady-state cycles is sampled at a
//    power-of-two rate and handed to sim::fft (exact bin alignment, no
//    leakage), THD = RMS(harmonics 2..N) / fundamental.
//  * Output swing -- inverting gain stage (R1 in, 4*R1 feedback, inp held
//    at the input common mode) swept at DC; the swing is the output range
//    over which the stage tracks its ideal line within the tracking
//    tolerance.
//  * ICMR -- unity buffer swept rail to rail; the window where the output
//    tracks the input within the tracking tolerance.  For a buffer this is
//    the intersection of the input common-mode range and the output swing
//    (the two range specs of the paper's Table 1 caption).
//  * Offset -- DC unity feedback forces out = inp - Voffset at the
//    operating point.
//  * PSRR -- AC solve with the excitation moved onto the supply branch
//    (Simulator::acFrom) against the differential gain.
//
// The library sits between lo_sizing and lo_core: it reuses the sizing
// testbenches (measureAmplifier, AmpInstantiateFn) and is driven by the
// engine through core::Topology::verificationSetup().
#pragma once

#include <string>
#include <vector>

#include "layout/extract.hpp"
#include "sizing/ota_spec.hpp"
#include "sizing/verify.hpp"

namespace lo::verify {

/// Knobs of the post-layout verification stage.  Everything here is part
/// of a job's identity (the result-cache key covers it when enabled).
struct VerificationOptions {
  bool enabled = false;
  /// Relative slack applied to every constrained spec when judging
  /// pass/fail (a post-layout GBW within (1 - tol) of the target passes).
  double relTolerance = 0.10;
  double thdFundamentalHz = 1e6;  ///< Verify tone frequency.
  double thdAmplitudeV = 0.05;    ///< Verify tone amplitude [V].
  int thdSettleCycles = 2;        ///< Cycles discarded before analysis.
  int thdCycles = 4;              ///< Analysed steady-state cycles.
  int thdSamplesPerCycle = 64;    ///< thdCycles * thdSamplesPerCycle must be 2^k.
  int harmonics = 5;              ///< Highest harmonic included in THD.
  int sweepPoints = 41;           ///< DC sweep resolution (swing / ICMR).
  double trackingTolerance = 0.02;  ///< Tracking window for swing / ICMR [V].
  /// Run the measurements on the simulator's pre-optimization reference
  /// solve path.  Bit-identical to the fast path by construction, so --
  /// unlike every knob above -- it is NOT part of a job's identity and is
  /// excluded from serialization and the result-cache key.
  bool referenceSolver = false;
};

/// The measurements beyond the Table 1 core that the verification tier
/// adds (offset and PSRR are re-stated here from the core record so the
/// report is self-contained).
struct ExtendedMeasures {
  double thdPercent = 0.0;
  double psrrDb = 0.0;
  double outputSwingLow = 0.0;   ///< Lowest tracked output voltage [V].
  double outputSwingHigh = 0.0;  ///< Highest tracked output voltage [V].
  double icmrLow = 0.0;          ///< Input common-mode window [V].
  double icmrHigh = 0.0;
  double offsetMv = 0.0;
};

/// One spec row of the report: what the schematic promised, what the
/// extracted layout delivers, and whether the post-layout figure clears
/// the limit (within VerificationOptions::relTolerance).
struct SpecDelta {
  std::string name;
  double preLayout = 0.0;
  double postLayout = 0.0;
  double limit = 0.0;
  bool constrained = false;  ///< The spec carries a user limit.
  bool pass = true;          ///< Always true for unconstrained rows.

  [[nodiscard]] double delta() const { return postLayout - preLayout; }
};

struct VerificationReport {
  bool ran = false;
  bool pass = false;  ///< Every constrained spec row passed.
  sizing::OtaPerformance preLayout;   ///< Core measures, schematic netlist.
  sizing::OtaPerformance postLayout;  ///< Core measures, extracted netlist.
  ExtendedMeasures preExtended;
  ExtendedMeasures postExtended;
  std::vector<SpecDelta> deltas;

  [[nodiscard]] const SpecDelta* find(const std::string& name) const {
    for (const SpecDelta& d : deltas) {
      if (d.name == name) return &d;
    }
    return nullptr;
  }
};

/// What a topology hands the verification stage: how to instantiate the
/// schematic-level and extracted netlists, and the generation-mode
/// parasitic report to annotate the extracted side with.
struct VerificationSetup {
  bool supported = false;
  sizing::AmpInstantiateFn preLayout;   ///< Sized (schematic) design.
  sizing::AmpInstantiateFn postLayout;  ///< Extracted design.
  const layout::ParasiticReport* parasitics = nullptr;  ///< Post-layout only.
  double inputCm = 0.0;
  double vdd = 0.0;
};

/// The THD testbench (exposed for tests): a hard unity buffer driven by
/// the verify tone about `inputCm`.
[[nodiscard]] circuit::Circuit buildThdTestbench(const sizing::AmpInstantiateFn& instantiate,
                                                 double inputCm,
                                                 const layout::ParasiticReport* parasitics,
                                                 const VerificationOptions& options);

/// Measure THD, output swing and ICMR for one netlist (offset and PSRR
/// come from sizing::measureAmplifier's core record).  Exposed for tests.
[[nodiscard]] ExtendedMeasures measureExtended(
    const tech::Technology& t, const device::MosModel& model,
    const sizing::AmpInstantiateFn& instantiate, double inputCm, double vdd,
    const layout::ParasiticReport* parasitics, const VerificationOptions& options);

/// Run the full pre- vs post-layout comparison.  `postLayoutCore` is the
/// engine's existing extracted-netlist measurement (reused instead of
/// re-simulated); pass nullptr to measure it here.  Throws
/// std::invalid_argument on an unusable setup or options.
[[nodiscard]] VerificationReport runVerification(
    const tech::Technology& t, const device::MosModel& model,
    const VerificationSetup& setup, const sizing::OtaSpecs& specs,
    const sizing::VerifyOptions& simOptions, const VerificationOptions& options,
    const sizing::OtaPerformance* postLayoutCore = nullptr);

}  // namespace lo::verify
