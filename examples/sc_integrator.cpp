// Switched-capacitor integrator built from the synthesised OTA -- the
// paper's stated future work ("synthesis of larger systems as switched
// capacitor filters ... using the same methodology", section 6).
//
// A parasitic-insensitive non-inverting SC integrator: during phase 1 the
// sampling capacitor Cs charges to (Vin - VCM); during phase 2 it is flipped
// into the virtual ground, dumping its charge into the feedback capacitor
// Cf.  With a DC input the output walks by +(Cs/Cf)(Vin - VCM) every clock
// period.  The OTA has no DC feedback here, so the staircase starts from
// the amplifier's open-loop equilibrium and integrates from there.
//
//   $ ./sc_integrator
#include <cmath>
#include <cstdio>

#include "core/engine.hpp"
#include "core/ota_topology.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace lo;
  using circuit::Waveform;

  const tech::Technology tech = tech::Technology::generic060();

  // Synthesise the OTA first (case 4, the full methodology).
  core::EngineOptions options;
  options.sizingCase = core::SizingCase::kCase4;
  const core::SynthesisEngine engine(tech, options);
  core::FoldedCascodeOtaTopology topology(tech, engine.model());
  const core::EngineResult ota = engine.run(topology, sizing::OtaSpecs{});
  std::printf("OTA ready: %.1f dB, %.1f MHz GBW\n", ota.measured.dcGainDb,
              ota.measured.gbwHz / 1e6);

  // --- Build the integrator around the extracted OTA. ---
  circuit::Circuit c;
  c.title = "switched-capacitor integrator";
  circuit::FoldedCascodeOtaDesign d = topology.extractedDesign();
  d.cload = 1e-12;  // The integrator provides its own loading.
  const circuit::OtaNodes nodes = circuit::instantiateOta(c, d);

  const double vcm = d.inputCm;
  const double vin = vcm - 0.10;  // 100 mV below the reference: the
                                  // non-inverting integrator steps downward.
  const double cs = 1e-12, cf = 4e-12;
  const double period = 500e-9;

  const auto nIn = c.node("vin"), nCm = c.node("vcm");
  const auto csl = c.node("csl"), csr = c.node("csr");
  const auto ph1 = c.node("ph1"), ph2 = c.node("ph2");

  c.addVSource("VIN", nIn, circuit::kGround, Waveform::makeDc(vin));
  c.addVSource("VCMR", nCm, circuit::kGround, Waveform::makeDc(vcm));
  c.addVSource("PH1", ph1, circuit::kGround,
               Waveform::makePulse(0, 3.3, 10e-9, 2e-9, 2e-9, 0.44 * period, period));
  c.addVSource("PH2", ph2, circuit::kGround,
               Waveform::makePulse(0, 3.3, 10e-9 + period / 2, 2e-9, 2e-9,
                                   0.44 * period, period));

  c.addCapacitor("CS", csl, csr, cs);
  c.addCapacitor("CF", nodes.inn, nodes.out, cf);
  c.addResistor("RLEAK", nodes.inn, nCm, 1e9);  // DC definition of the virtual node.

  // Four NMOS switches (phase 1: sample; phase 2: transfer).
  device::MosGeometry sw;
  sw.w = 10e-6;
  sw.l = 0.6e-6;
  device::applyUnfoldedGeometry(tech.rules, sw);
  c.addMos("S1", nIn, ph1, csl, circuit::kGround, tech::MosType::kNmos, sw);
  c.addMos("S2", csr, ph1, nCm, circuit::kGround, tech::MosType::kNmos, sw);
  c.addMos("S3", csl, ph2, nCm, circuit::kGround, tech::MosType::kNmos, sw);
  c.addMos("S4", csr, ph2, nodes.inn, circuit::kGround, tech::MosType::kNmos, sw);

  // The OTA's positive input sits at the reference.
  c.addVSource("VINP", nodes.inp, circuit::kGround, Waveform::makeDc(vcm));

  // --- Transient: 8 clock periods. ---
  const auto model = device::MosModel::create("ekv");
  sim::Simulator sim(c, tech, *model);
  const double tStop = 8.5 * period;
  std::printf("running transient (%.1f us, this takes a moment)...\n", tStop * 1e6);
  const auto tran = sim.transient(tStop, 1e-9);

  // Sample the output at the end of each phase-1 window (out settled).
  std::printf("\n%8s %10s %10s\n", "period", "V(out)", "step [mV]");
  const double expectedStep = cs / cf * (vin - vcm);
  double prev = 0.0;
  double stepSum = 0.0;
  int steps = 0;
  for (int k = 0; k < 8; ++k) {  // Average from period 2 on (settled region).
    const double tSample = 10e-9 + k * period + 0.40 * period;
    double vout = 0.0;
    for (const sim::TranPoint& p : tran) {
      if (p.time <= tSample) vout = p.nodeV[nodes.out];
    }
    std::printf("%8d %10.4f %10.2f\n", k, vout, k ? (vout - prev) * 1e3 : 0.0);
    if (k >= 2) {
      stepSum += vout - prev;
      ++steps;
    }
    prev = vout;
  }
  const double meanStep = stepSum / steps;
  // The residual deficit against the ideal step is dominated by the Meyer
  // gate-capacitance model in the transient engine (it is not charge
  // conserving, the classic limitation for switched-capacitor simulation)
  // plus switch charge injection; a Ward-Dutton charge formulation would
  // close the gap.
  std::printf("\nmean step %.2f mV, ideal (Cs/Cf)(Vin-VCM) = %.2f mV (error %.1f%%)\n",
              meanStep * 1e3, expectedStep * 1e3,
              100.0 * std::fabs(meanStep / expectedStep - 1.0));
  return std::fabs(meanStep / expectedStep - 1.0) < 0.25 ? 0 : 1;
}
