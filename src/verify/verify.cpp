#include "verify/verify.hpp"

#include <cmath>
#include <stdexcept>

#include "sim/fft.hpp"
#include "sim/measure.hpp"
#include "sim/simulator.hpp"

namespace lo::verify {

using circuit::Circuit;
using circuit::NodeId;
using circuit::Waveform;

Circuit buildThdTestbench(const sizing::AmpInstantiateFn& instantiate, double inputCm,
                          const layout::ParasiticReport* parasitics,
                          const VerificationOptions& options) {
  Circuit c;
  c.title = "thd testbench";
  instantiate(c);
  const NodeId out = *c.findNode("out");
  const NodeId inn = *c.findNode("inn");
  const NodeId inp = *c.findNode("inp");
  c.addVSource("VSHORT", out, inn, Waveform::makeDc(0.0));
  c.addVSource("VIN", inp, circuit::kGround,
               Waveform::makeSin(inputCm, options.thdAmplitudeV,
                                 options.thdFundamentalHz));
  if (parasitics) layout::annotateCircuit(c, *parasitics);
  return c;
}

namespace {

void requireUsable(const VerificationSetup& setup, const VerificationOptions& options) {
  if (!setup.supported || !setup.preLayout || !setup.postLayout) {
    throw std::invalid_argument(
        "runVerification: topology does not supply a verification setup");
  }
  if (options.thdCycles <= 0 || options.thdSettleCycles < 0 ||
      options.thdSamplesPerCycle <= 0 || options.thdFundamentalHz <= 0.0) {
    throw std::invalid_argument("runVerification: bad THD options");
  }
  const std::size_t n = static_cast<std::size_t>(options.thdCycles) *
                        static_cast<std::size_t>(options.thdSamplesPerCycle);
  if (!sim::isPowerOfTwo(n)) {
    throw std::invalid_argument(
        "runVerification: thdCycles * thdSamplesPerCycle (" + std::to_string(n) +
        ") must be a power of two");
  }
  if (options.sweepPoints < 3) {
    throw std::invalid_argument("runVerification: sweepPoints must be >= 3");
  }
}

sim::SimOptions simOptionsFor(const tech::Technology& t,
                              const VerificationOptions& options) {
  sim::SimOptions opt;
  opt.tempK = t.temperature;
  opt.solver = options.referenceSolver ? sim::SolverMode::kReference
                                       : sim::SolverMode::kFast;
  return opt;
}

/// Returns the steady-state THD of the output waveform of the
/// buildThdTestbench buffer.
double measureThd(const tech::Technology& t, const device::MosModel& model,
                  const sizing::AmpInstantiateFn& instantiate, double inputCm,
                  const layout::ParasiticReport* parasitics,
                  const VerificationOptions& options) {
  const Circuit c = buildThdTestbench(instantiate, inputCm, parasitics, options);
  const NodeId out = *c.findNode("out");

  const double period = 1.0 / options.thdFundamentalHz;
  const double dt = period / options.thdSamplesPerCycle;
  const double tStop = period * (options.thdSettleCycles + options.thdCycles);
  sim::Simulator sim(c, t, model, simOptionsFor(t, options));
  const auto tran = sim.transient(tStop, dt);

  const std::size_t n = static_cast<std::size_t>(options.thdCycles) *
                        static_cast<std::size_t>(options.thdSamplesPerCycle);
  const std::vector<double> samples = sim::tailSamples(tran, out, n);
  // The capture holds exactly thdCycles periods, so the fundamental falls
  // on bin thdCycles and every harmonic on an exact multiple -- no leakage.
  return sim::thdPercent(samples, static_cast<std::size_t>(options.thdCycles),
                         options.harmonics);
}

/// Inverting gain stage: inp pinned at the common mode, input through R1,
/// feedback through 4*R1.  The output swing is the range of output
/// voltages over which the stage tracks its ideal line.
void measureSwing(const tech::Technology& t, const device::MosModel& model,
                  const sizing::AmpInstantiateFn& instantiate, double inputCm,
                  double vdd, const layout::ParasiticReport* parasitics,
                  const VerificationOptions& options, ExtendedMeasures& m) {
  constexpr double kGain = 4.0;
  constexpr double kR1 = 100e3;
  Circuit c;
  c.title = "swing testbench";
  instantiate(c);
  const NodeId out = *c.findNode("out");
  const NodeId inn = *c.findNode("inn");
  const NodeId inp = *c.findNode("inp");
  const NodeId nin = c.node("swing_in");
  c.addVSource("VCM", inp, circuit::kGround, Waveform::makeDc(inputCm));
  c.addVSource("VIN", nin, circuit::kGround, Waveform::makeDc(inputCm));
  c.addResistor("R1", nin, inn, kR1);
  c.addResistor("RFB", out, inn, kGain * kR1);
  if (parasitics) layout::annotateCircuit(c, *parasitics);

  // Sweep the input so the ideal output covers a bit beyond both rails.
  const double vLo = inputCm - (vdd + 0.2 - inputCm) / kGain;
  const double vHi = inputCm + (inputCm + 0.2) / kGain;
  sim::Simulator sim(c, t, model, simOptionsFor(t, options));
  const auto sweep = sim.dcSweep("VIN", vLo, vHi, options.sweepPoints);

  bool any = false;
  for (const auto& pt : sweep) {
    const double ideal = inputCm - kGain * (pt.value - inputCm);
    const double v = pt.solution.voltage(out);
    if (std::abs(v - ideal) >= options.trackingTolerance) continue;
    if (!any || v < m.outputSwingLow) m.outputSwingLow = v;
    if (!any || v > m.outputSwingHigh) m.outputSwingHigh = v;
    any = true;
  }
  if (!any) {
    // The stage never tracked: report a collapsed swing at the common mode.
    m.outputSwingLow = m.outputSwingHigh = inputCm;
  }
}

/// Unity buffer swept rail to rail; the ICMR is the window where the
/// output tracks the input.
void measureIcmr(const tech::Technology& t, const device::MosModel& model,
                 const sizing::AmpInstantiateFn& instantiate, double vdd,
                 const layout::ParasiticReport* parasitics,
                 const VerificationOptions& options, ExtendedMeasures& m) {
  Circuit c;
  c.title = "icmr testbench";
  instantiate(c);
  const NodeId out = *c.findNode("out");
  const NodeId inn = *c.findNode("inn");
  const NodeId inp = *c.findNode("inp");
  c.addVSource("VSHORT", out, inn, Waveform::makeDc(0.0));
  c.addVSource("VIN", inp, circuit::kGround, Waveform::makeDc(vdd / 2));
  if (parasitics) layout::annotateCircuit(c, *parasitics);

  sim::Simulator sim(c, t, model, simOptionsFor(t, options));
  const auto sweep = sim.dcSweep("VIN", 0.05, vdd - 0.05, options.sweepPoints);

  bool inRange = false;
  for (const auto& pt : sweep) {
    const bool tracks =
        std::abs(pt.solution.voltage(out) - pt.value) < options.trackingTolerance;
    if (tracks && !inRange) {
      m.icmrLow = pt.value;
      inRange = true;
    }
    if (tracks) m.icmrHigh = pt.value;
  }
}

}  // namespace

ExtendedMeasures measureExtended(const tech::Technology& t,
                                 const device::MosModel& model,
                                 const sizing::AmpInstantiateFn& instantiate,
                                 double inputCm, double vdd,
                                 const layout::ParasiticReport* parasitics,
                                 const VerificationOptions& options) {
  ExtendedMeasures m;
  m.thdPercent = measureThd(t, model, instantiate, inputCm, parasitics, options);
  measureSwing(t, model, instantiate, inputCm, vdd, parasitics, options, m);
  measureIcmr(t, model, instantiate, vdd, parasitics, options, m);
  return m;
}

VerificationReport runVerification(const tech::Technology& t,
                                   const device::MosModel& model,
                                   const VerificationSetup& setup,
                                   const sizing::OtaSpecs& specs,
                                   const sizing::VerifyOptions& simOptions,
                                   const VerificationOptions& options,
                                   const sizing::OtaPerformance* postLayoutCore) {
  requireUsable(setup, options);

  VerificationReport report;
  report.ran = true;
  report.preLayout = sizing::measureAmplifier(t, model, setup.preLayout,
                                              setup.inputCm, setup.vdd,
                                              /*parasitics=*/nullptr, simOptions);
  report.postLayout = postLayoutCore != nullptr
                          ? *postLayoutCore
                          : sizing::measureAmplifier(t, model, setup.postLayout,
                                                     setup.inputCm, setup.vdd,
                                                     setup.parasitics, simOptions);
  report.preExtended = measureExtended(t, model, setup.preLayout, setup.inputCm,
                                       setup.vdd, /*parasitics=*/nullptr, options);
  report.postExtended = measureExtended(t, model, setup.postLayout, setup.inputCm,
                                        setup.vdd, setup.parasitics, options);
  // Offset and PSRR are already part of the core record; restate them so
  // the extended block carries the full new-spec surface on its own.
  report.preExtended.offsetMv = report.preLayout.offsetMv;
  report.preExtended.psrrDb = report.preLayout.psrrDb;
  report.postExtended.offsetMv = report.postLayout.offsetMv;
  report.postExtended.psrrDb = report.postLayout.psrrDb;

  const double tol = options.relTolerance;
  enum class Judge { kAtLeast, kAtMost, kAbsAtMost };
  const auto row = [&](const char* name, double pre, double post, double limit,
                       bool constrained, Judge judge) {
    SpecDelta d;
    d.name = name;
    d.preLayout = pre;
    d.postLayout = post;
    d.limit = limit;
    d.constrained = constrained;
    if (constrained) {
      switch (judge) {
        case Judge::kAtLeast: d.pass = post >= limit * (1.0 - tol); break;
        case Judge::kAtMost: d.pass = post <= limit * (1.0 + tol); break;
        case Judge::kAbsAtMost: d.pass = std::abs(post) <= limit * (1.0 + tol); break;
      }
    }
    report.deltas.push_back(std::move(d));
  };

  row("gbw_hz", report.preLayout.gbwHz, report.postLayout.gbwHz, specs.gbw, true,
      Judge::kAtLeast);
  row("phase_margin_deg", report.preLayout.phaseMarginDeg,
      report.postLayout.phaseMarginDeg, specs.phaseMarginDeg, true, Judge::kAtLeast);
  row("output_swing_low", report.preExtended.outputSwingLow,
      report.postExtended.outputSwingLow, specs.outputLow, true, Judge::kAtMost);
  row("output_swing_high", report.preExtended.outputSwingHigh,
      report.postExtended.outputSwingHigh, specs.outputHigh, true, Judge::kAtLeast);
  row("icmr_low", report.preExtended.icmrLow, report.postExtended.icmrLow,
      specs.inputCmLow, true, Judge::kAtMost);
  row("icmr_high", report.preExtended.icmrHigh, report.postExtended.icmrHigh,
      specs.inputCmHigh, true, Judge::kAtLeast);
  row("thd_percent", report.preExtended.thdPercent, report.postExtended.thdPercent,
      specs.thdMaxPercent, specs.thdMaxPercent > 0.0, Judge::kAtMost);
  row("psrr_db", report.preExtended.psrrDb, report.postExtended.psrrDb,
      specs.psrrMinDb, specs.psrrMinDb > 0.0, Judge::kAtLeast);
  row("offset_mv", report.preExtended.offsetMv, report.postExtended.offsetMv,
      specs.offsetMaxMv, specs.offsetMaxMv > 0.0, Judge::kAbsAtMost);

  report.pass = true;
  for (const SpecDelta& d : report.deltas) {
    if (d.constrained && !d.pass) report.pass = false;
  }
  return report;
}

}  // namespace lo::verify
