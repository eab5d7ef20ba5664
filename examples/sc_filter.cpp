// First-order switched-capacitor low-pass filter -- the paper's future work
// ("synthesis of larger systems as switched capacitor filters", section 6),
// built from the synthesised OTA.
//
// A damped (lossy) SC integrator: the input branch Cs1 samples Vin - VCM on
// phase 1 and dumps it into Cf on phase 2; the damping branch Cs2 is
// discharged on phase 1 and placed across the integrator on phase 2,
// draining charge proportional to the output.  In the z-domain this is a
// first-order low-pass with
//     DC gain  = Cs1 / Cs2
//     time constant tau ~= Cf / (fclk * Cs2)
// The example steps the input and checks both numbers against the measured
// staircase.
//
//   $ ./sc_filter
#include <cmath>
#include <cstdio>

#include "core/engine.hpp"
#include "core/ota_topology.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace lo;
  using circuit::Waveform;

  const tech::Technology tech = tech::Technology::generic060();
  core::EngineOptions options;
  const core::SynthesisEngine engine(tech, options);
  core::FoldedCascodeOtaTopology topology(tech, engine.model());
  const core::EngineResult ota = engine.run(topology, sizing::OtaSpecs{});
  std::printf("OTA ready: %.1f dB, %.1f MHz GBW\n", ota.measured.dcGainDb,
              ota.measured.gbwHz / 1e6);

  circuit::Circuit c;
  c.title = "switched-capacitor first-order low-pass";
  circuit::FoldedCascodeOtaDesign d = topology.extractedDesign();
  d.cload = 1e-12;
  const circuit::OtaNodes nodes = circuit::instantiateOta(c, d);

  const double vcm = d.inputCm;
  const double step = -0.05;  // 50 mV input step below the reference.
  const double cs1 = 1e-12, cs2 = 0.5e-12, cf = 4e-12;
  const double period = 500e-9;
  const double fclk = 1.0 / period;

  const auto nIn = c.node("vin"), nCm = c.node("vcm");
  const auto s1l = c.node("s1l"), s1r = c.node("s1r");
  const auto s2l = c.node("s2l"), s2r = c.node("s2r");
  const auto ph1 = c.node("ph1"), ph2 = c.node("ph2");

  // The filter starts from the OTA's open-loop equilibrium and first has to
  // settle to the reference (~5 tau of idling) before the step is applied.
  const int idlePeriods = 40;
  c.addVSource("VIN", nIn, circuit::kGround,
               Waveform::makePulse(vcm, vcm + step, idlePeriods * period, 2e-9, 2e-9,
                                   1.0, 2.0));
  c.addVSource("VCMR", nCm, circuit::kGround, Waveform::makeDc(vcm));
  c.addVSource("PH1", ph1, circuit::kGround,
               Waveform::makePulse(0, 3.3, 10e-9, 2e-9, 2e-9, 0.44 * period, period));
  c.addVSource("PH2", ph2, circuit::kGround,
               Waveform::makePulse(0, 3.3, 10e-9 + period / 2, 2e-9, 2e-9,
                                   0.44 * period, period));

  c.addCapacitor("CS1", s1l, s1r, cs1);
  c.addCapacitor("CS2", s2l, s2r, cs2);
  c.addCapacitor("CF", nodes.inn, nodes.out, cf);
  c.addResistor("RLEAK", nodes.inn, nCm, 1e9);
  c.addVSource("VINP", nodes.inp, circuit::kGround, Waveform::makeDc(vcm));

  device::MosGeometry sw;
  sw.w = 10e-6;
  sw.l = 0.6e-6;
  device::applyUnfoldedGeometry(tech.rules, sw);
  auto nmosSwitch = [&](const char* name, circuit::NodeId a, circuit::NodeId gate,
                        circuit::NodeId b) {
    c.addMos(name, a, gate, b, circuit::kGround, tech::MosType::kNmos, sw);
  };
  // Input branch (non-inverting phasing).
  nmosSwitch("S1", nIn, ph1, s1l);
  nmosSwitch("S2", s1r, ph1, nCm);
  nmosSwitch("S3", s1l, ph2, nCm);
  nmosSwitch("S4", s1r, ph2, nodes.inn);
  // Damping branch: discharged on ph1, across the integrator on ph2.
  nmosSwitch("S5", s2l, ph1, nCm);
  nmosSwitch("S6", s2r, ph1, nCm);
  nmosSwitch("S7", s2l, ph2, nodes.inn);
  nmosSwitch("S8", s2r, ph2, nodes.out);

  const auto model = device::MosModel::create("ekv");
  sim::Simulator sim(c, tech, *model);
  const int periods = 40 + 48;  // Idle + six time constants after the step.
  std::printf("running transient (%.1f us)...\n", periods * period * 1e6);
  const auto tran = sim.transient(periods * period, 1e-9);

  // Sample the settled output at the end of each phase-1 window.
  std::printf("\n%8s %10s\n", "period", "V(out)");
  double v0 = 0.0, vInf = 0.0;
  std::vector<double> samples;
  for (int k = 0; k < periods; ++k) {
    const double tSample = 10e-9 + k * period + 0.40 * period;
    double vout = 0.0;
    for (const sim::TranPoint& p : tran) {
      if (p.time <= tSample) vout = p.nodeV[nodes.out];
    }
    samples.push_back(vout);
    if (k % 8 == 0) std::printf("%8d %10.4f\n", k, vout);
  }
  v0 = samples[idlePeriods - 1];  // Rest level just before the step.
  vInf = samples.back();          // Settled level.

  const double gainMeas = (vInf - v0) / step;
  const double gainIdeal = cs1 / cs2;
  // 63% crossing after the step (applied at the end of the idle run).
  const double target = v0 + 0.632 * (vInf - v0);
  double tau = 0.0;
  for (std::size_t k = idlePeriods; k < samples.size(); ++k) {
    const bool crossed = (vInf > v0) ? samples[k] >= target : samples[k] <= target;
    if (crossed) {
      tau = (static_cast<double>(k) - idlePeriods) * period;
      break;
    }
  }
  const double tauIdeal = cf / (fclk * cs2);

  std::printf("\nDC gain: measured %.2f, ideal Cs1/Cs2 = %.2f (error %.1f%%)\n",
              gainMeas, gainIdeal, 100.0 * std::fabs(gainMeas / gainIdeal - 1.0));
  std::printf("time constant: measured %.2f us, ideal Cf/(fclk Cs2) = %.2f us "
              "(error %.1f%%)\n",
              tau * 1e6, tauIdeal * 1e6, 100.0 * std::fabs(tau / tauIdeal - 1.0));
  std::printf("equivalent -3 dB corner: %.1f kHz\n", 1.0 / (2 * M_PI * tauIdeal) / 1e3);

  const bool ok = std::fabs(gainMeas / gainIdeal - 1.0) < 0.3 &&
                  std::fabs(tau / tauIdeal - 1.0) < 0.4;
  return ok ? 0 : 1;
}
