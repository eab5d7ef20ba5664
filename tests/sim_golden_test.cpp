// Golden-value harness for the simulator hot-path rewrite.
//
// SolverMode::kReference keeps the pre-optimization solve path alive
// verbatim; every test here proves the fast path (factor reuse, AC
// skeleton re-stamping, batched excitations, workspace reuse, batched
// device evaluation) reproduces it BIT FOR BIT -- full double precision,
// byte-identical, across DC operating points, sweeps, AC curves, noise
// integrals and transients, on both amplifier topologies.  The companion
// system-level proof is the differential oracle's engine_reference_solver
// path (testkit), which byte-compares whole engine runs over the 50-point
// corpus.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "circuit/ota.hpp"
#include "circuit/two_stage.hpp"
#include "core/engine.hpp"
#include "core/ota_topology.hpp"
#include "core/two_stage_topology.hpp"
#include "device/folding.hpp"
#include "sim/measure.hpp"
#include "sim/simulator.hpp"
#include "sizing/ota_sizer.hpp"
#include "sizing/two_stage.hpp"
#include "sizing/verify.hpp"
#include "tech/technology.hpp"
#include "verify/verify.hpp"

namespace lo::sim {
namespace {

using circuit::Circuit;
using circuit::NodeId;
using circuit::Waveform;

const tech::Technology kTech = tech::Technology::generic060();

// ---------------------------------------------------------------------------
// Bit-level comparison plumbing.  EXPECT_EQ on doubles would call -0.0 and
// +0.0 equal; the golden contract is byte identity, so compare the bits.

[[nodiscard]] std::uint64_t bitsOf(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

#define EXPECT_BIT_EQ(a, b) \
  EXPECT_EQ(bitsOf(a), bitsOf(b)) << #a " = " << (a) << " vs " #b " = " << (b)

/// FNV-1a over raw double bytes: the "digest" half of the byte-identity
/// proof -- two solution sets agree iff their digests agree.
class Fnv1a {
 public:
  void add(double v) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (unsigned char byte : bytes) {
      h_ ^= byte;
      h_ *= 1099511628211ULL;
    }
  }
  void add(const std::complex<double>& v) {
    add(v.real());
    add(v.imag());
  }
  template <typename T>
  void add(const std::vector<T>& vs) {
    for (const T& v : vs) add(v);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

void digestSolution(Fnv1a& h, const DcSolution& sol) {
  h.add(static_cast<double>(sol.iterations));
  h.add(sol.nodeVoltages);
  h.add(sol.vsourceCurrents);
  for (const device::MosOpPoint& op : sol.mosOps) {
    h.add(op.id);
    h.add(op.vgs);
    h.add(op.vds);
    h.add(op.vbs);
    h.add(op.vth);
    h.add(op.veff);
    h.add(op.vdsat);
    h.add(op.gm);
    h.add(op.gds);
    h.add(op.gmb);
    h.add(op.cgs);
    h.add(op.cgd);
    h.add(op.cgb);
    h.add(op.cdb);
    h.add(op.csb);
    h.add(op.thermalNoisePsd);
    h.add(op.flickerCoeff);
  }
}

void expectSolutionBitEqual(const DcSolution& a, const DcSolution& b) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.nodeVoltages.size(), b.nodeVoltages.size());
  for (std::size_t i = 0; i < a.nodeVoltages.size(); ++i) {
    EXPECT_BIT_EQ(a.nodeVoltages[i], b.nodeVoltages[i]);
  }
  ASSERT_EQ(a.vsourceCurrents.size(), b.vsourceCurrents.size());
  for (std::size_t i = 0; i < a.vsourceCurrents.size(); ++i) {
    EXPECT_BIT_EQ(a.vsourceCurrents[i], b.vsourceCurrents[i]);
  }
  ASSERT_EQ(a.mosOps.size(), b.mosOps.size());
  Fnv1a ha, hb;
  digestSolution(ha, a);
  digestSolution(hb, b);
  EXPECT_EQ(ha.value(), hb.value()) << "mos op digests diverge";
}

void expectAcBitEqual(const std::vector<AcPoint>& a, const std::vector<AcPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_BIT_EQ(a[i].freq, b[i].freq);
    ASSERT_EQ(a[i].nodeV.size(), b[i].nodeV.size());
    for (std::size_t n = 0; n < a[i].nodeV.size(); ++n) {
      EXPECT_BIT_EQ(a[i].nodeV[n].real(), b[i].nodeV[n].real());
      EXPECT_BIT_EQ(a[i].nodeV[n].imag(), b[i].nodeV[n].imag());
    }
    ASSERT_EQ(a[i].vsourceI.size(), b[i].vsourceI.size());
    for (std::size_t n = 0; n < a[i].vsourceI.size(); ++n) {
      EXPECT_BIT_EQ(a[i].vsourceI[n].real(), b[i].vsourceI[n].real());
      EXPECT_BIT_EQ(a[i].vsourceI[n].imag(), b[i].vsourceI[n].imag());
    }
  }
}

void expectNoiseBitEqual(const std::vector<NoisePoint>& a,
                         const std::vector<NoisePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_BIT_EQ(a[i].freq, b[i].freq);
    EXPECT_BIT_EQ(a[i].outputPsd, b[i].outputPsd);
    EXPECT_BIT_EQ(a[i].inputRefPsd, b[i].inputRefPsd);
    EXPECT_BIT_EQ(a[i].gainMag, b[i].gainMag);
  }
}

void expectTranBitEqual(const std::vector<TranPoint>& a,
                        const std::vector<TranPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_BIT_EQ(a[i].time, b[i].time);
    ASSERT_EQ(a[i].nodeV.size(), b[i].nodeV.size());
    for (std::size_t n = 0; n < a[i].nodeV.size(); ++n) {
      EXPECT_BIT_EQ(a[i].nodeV[n], b[i].nodeV[n]);
    }
  }
}

// ---------------------------------------------------------------------------
// Shared sized designs (sizing is deterministic; one run serves the suite).

struct Designs {
  std::unique_ptr<device::MosModel> model = device::MosModel::create("ekv");
  sizing::SizingResult ota;
  sizing::TwoStageSizingResult twoStage;
  Designs() {
    sizing::OtaSizer sizer(kTech, *model);
    ota = sizer.size(sizing::OtaSpecs{}, sizing::SizingPolicy::case2());
    sizing::TwoStageSizer ts(kTech, *model);
    twoStage = ts.size(sizing::OtaSpecs{}, sizing::SizingPolicy::case2());
  }
};

const Designs& designs() {
  static Designs d;
  return d;
}

[[nodiscard]] SimOptions optionsFor(SolverMode mode) {
  SimOptions opt;
  opt.tempK = kTech.temperature;
  opt.solver = mode;
  return opt;
}

/// The full golden sweep for one amplifier AC testbench: every analysis the
/// verification tier runs, fast vs reference, bit for bit.  `c` carries the
/// differential excitation (VDIFF acMag=1); `quiet` is the same testbench
/// with every acMag zeroed, for the probe-circuit comparison.  Both must
/// expose "out" and V sources "VDIFF" / "VDD" / "VCM".
void runGoldenSuite(const Circuit& c, const Circuit& quiet,
                    const device::MosModel& model) {
  const NodeId out = *c.findNode("out");
  Simulator fast(c, kTech, model, optionsFor(SolverMode::kFast));
  Simulator ref(c, kTech, model, optionsFor(SolverMode::kReference));

  // DC operating point, including the full per-device small-signal set.
  const DcSolution opF = fast.dcOperatingPoint();
  const DcSolution opR = ref.dcOperatingPoint();
  expectSolutionBitEqual(opF, opR);

  // Full-band differential AC via the circuit's own sources.
  expectAcBitEqual(fast.ac(opF, 10.0, 1e9, 6), ref.ac(opR, 10.0, 1e9, 6));

  // Excitation moved onto a branch at solve time.
  expectAcBitEqual(fast.acFrom(opF, "VDD", 10.0, 1e4, 4),
                   ref.acFrom(opR, "VDD", 10.0, 1e4, 4));

  // A whole excitation block against the equivalent individual reference
  // calls: one factorization per frequency must not change a single bit
  // of any curve.
  const std::vector<AcExcitation> block = {
      AcExcitation::circuitSources(),
      AcExcitation::unitVsource("VCM"),
      AcExcitation::unitVsource("VDD"),
      AcExcitation::unitCurrent(circuit::kGround, out),
  };
  const auto batch = fast.acBatch(opF, block, 10.0, 1e4, 4);
  ASSERT_EQ(batch.size(), block.size());
  expectAcBitEqual(batch[0], ref.ac(opR, 10.0, 1e4, 4));
  expectAcBitEqual(batch[1], ref.acFrom(opR, "VCM", 10.0, 1e4, 4));
  expectAcBitEqual(batch[2], ref.acFrom(opR, "VDD", 10.0, 1e4, 4));
  // Reference rout probe: the pre-PR idiom was a dedicated IPROBE current
  // source baked into an otherwise quiet netlist; unitCurrent replaces it.
  // The current injection ignores the circuit's own acMags, so it must
  // match a reference run over the quiet copy with the probe baked in.
  Circuit probed = quiet;
  probed.addISource("IPROBE", circuit::kGround, out, Waveform::makeDc(0.0), 1.0);
  Simulator refProbe(probed, kTech, model, optionsFor(SolverMode::kReference));
  const DcSolution opP = refProbe.dcOperatingPoint();
  const auto routRef = refProbe.ac(opP, 10.0, 1e4, 4);
  ASSERT_EQ(batch[3].size(), routRef.size());
  for (std::size_t i = 0; i < routRef.size(); ++i) {
    EXPECT_BIT_EQ(std::abs(batch[3][i].at(out)), std::abs(routRef[i].at(out)));
  }

  // Noise (adjoint method) and its band integral.
  const auto nzF = fast.noise(opF, out, "VDIFF", 1.0, 1e8, 8);
  const auto nzR = ref.noise(opR, out, "VDIFF", 1.0, 1e8, 8);
  expectNoiseBitEqual(nzF, nzR);
  EXPECT_BIT_EQ(integratePsd(nzF, 1.0, 1e7, true), integratePsd(nzR, 1.0, 1e7, true));
  EXPECT_BIT_EQ(integratePsd(nzF, 1.0, 1e7, false), integratePsd(nzR, 1.0, 1e7, false));

  // Transient (trapezoidal, DC-op initial condition).
  expectTranBitEqual(fast.transient(50e-9, 0.5e-9), ref.transient(50e-9, 0.5e-9));

  // The fast path must actually have taken the fast path.
  EXPECT_GT(fast.stats().luFactorizations, 0);
  EXPECT_GT(fast.stats().luSolves, fast.stats().luFactorizations);
  EXPECT_EQ(ref.stats().luFactorizations, 0);
}

TEST(SimGolden, FoldedCascodeSuiteBitIdenticalAcrossSolverModes) {
  sizing::OtaVerifier v(kTech, *designs().model);
  const Circuit c = v.buildAcTestbench(designs().ota.design, nullptr, 1.0, 0.0, 0.0);
  const Circuit quiet = v.buildAcTestbench(designs().ota.design, nullptr, 0.0, 0.0, 0.0);
  runGoldenSuite(c, quiet, *designs().model);
}

TEST(SimGolden, TwoStageSuiteBitIdenticalAcrossSolverModes) {
  const circuit::TwoStageOtaDesign& d = designs().twoStage.design;
  const sizing::AmpInstantiateFn instantiate = [&](Circuit& cc) {
    circuit::instantiateTwoStage(cc, d);
  };
  const Circuit c =
      sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 1.0, 0.0, 0.0);
  const Circuit quiet =
      sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 0.0, 0.0, 0.0);
  runGoldenSuite(c, quiet, *designs().model);
}

TEST(SimGolden, DcSweepBitIdenticalAcrossSolverModes) {
  // CMOS inverter transfer curve: the sweep exercises the warm-start
  // continuation on the fast side against the fresh-simulator-per-point
  // reference implementation.
  Circuit c;
  const auto in = c.node("in"), out = c.node("out"), vdd = c.node("vdd");
  device::MosGeometry gn, gp;
  gn.w = 10e-6;
  gn.l = 0.6e-6;
  device::applyUnfoldedGeometry(kTech.rules, gn);
  gp = gn;
  gp.w = 25e-6;
  device::applyUnfoldedGeometry(kTech.rules, gp);
  c.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(3.3));
  c.addVSource("VIN", in, circuit::kGround, Waveform::makeDc(0.0));
  c.addMos("MN", out, in, circuit::kGround, circuit::kGround, tech::MosType::kNmos, gn);
  c.addMos("MP", out, in, vdd, vdd, tech::MosType::kPmos, gp);

  for (const char* modelName : {"level1", "ekv"}) {
    const auto model = device::MosModel::create(modelName);
    Simulator fast(c, kTech, *model, optionsFor(SolverMode::kFast));
    Simulator ref(c, kTech, *model, optionsFor(SolverMode::kReference));
    const auto sweepF = fast.dcSweep("VIN", 0.0, 3.3, 34);
    const auto sweepR = ref.dcSweep("VIN", 0.0, 3.3, 34);
    ASSERT_EQ(sweepF.size(), sweepR.size());
    for (std::size_t i = 0; i < sweepF.size(); ++i) {
      EXPECT_BIT_EQ(sweepF[i].value, sweepR[i].value);
      expectSolutionBitEqual(sweepF[i].solution, sweepR[i].solution);
    }
  }
}

TEST(SimGolden, DeviceBatchEvaluationMatchesScalarBitwise) {
  // The batched device inner loop hoists bias-independent card terms; the
  // contract is per-point bit identity with the scalar path, including
  // reverse-mode (vds < 0) points where the source/drain flip engages.
  std::mt19937 rng(2024);
  std::uniform_real_distribution<double> uVgs(-0.5, 3.0);
  std::uniform_real_distribution<double> uVds(-2.0, 2.0);
  std::uniform_real_distribution<double> uVbs(-2.0, 0.0);

  device::MosGeometry geo;
  geo.w = 40e-6;
  geo.l = 1.2e-6;
  device::applyUnfoldedGeometry(kTech.rules, geo);

  for (const char* modelName : {"level1", "ekv"}) {
    const auto model = device::MosModel::create(modelName);
    for (const tech::MosModelCard* card : {&kTech.nmos, &kTech.pmos}) {
      // Cover the stack-buffer (n <= 8) and heap (n > 8) code paths.
      for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                                  std::size_t{9}, std::size_t{64}}) {
        std::vector<double> vgs(n), vds(n), vbs(n), batch(n);
        for (std::size_t i = 0; i < n; ++i) {
          vgs[i] = uVgs(rng);
          vds[i] = uVds(rng);
          vbs[i] = uVbs(rng);
        }
        model->currentNormalizedBatch(*card, geo, vgs.data(), vds.data(), vbs.data(),
                                      batch.data(), n, 300.15);
        for (std::size_t i = 0; i < n; ++i) {
          const double scalar =
              model->currentNormalized(*card, geo, vgs[i], vds[i], vbs[i], 300.15);
          EXPECT_BIT_EQ(scalar, batch[i])
              << modelName << " n=" << n << " i=" << i << " vgs=" << vgs[i]
              << " vds=" << vds[i] << " vbs=" << vbs[i];
        }
      }
    }
  }
}

TEST(SimGolden, MeasureAmplifierMatchesLegacyFourCircuitStructure) {
  // measureAmplifier used to bake each excitation into its own testbench
  // copy (diff acMag=1, cm acMag=1, acFrom supply, IPROBE rout circuit) and
  // solve a fresh DC op for every one.  The restructured single-testbench /
  // acBatch flow must reproduce those numbers exactly.  This replays the
  // legacy structure inline on the reference solver and compares against
  // measureAmplifier in BOTH solver modes.
  const auto& d = designs().ota.design;
  const device::MosModel& model = *designs().model;
  const sizing::AmpInstantiateFn instantiate = [&](Circuit& c) {
    circuit::instantiateOta(c, d);
  };
  const sizing::VerifyOptions vOpt;
  const double fLow = vOpt.fStart;

  double legacyGainDb = 0.0, legacyGbw = 0.0, legacyPm = 0.0, legacyOffset = 0.0;
  double legacyPower = 0.0, legacyCmrr = 0.0, legacyPsrr = 0.0, legacyRout = 0.0;
  {  // Differential open-loop circuit with acMag baked onto VDIFF.
    const Circuit c =
        sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 1.0, 0.0, 0.0);
    Simulator sim(c, kTech, model, optionsFor(SolverMode::kReference));
    const DcSolution op = sim.dcOperatingPoint();
    const NodeId out = *c.findNode("out");
    legacyOffset = (op.voltage(*c.findNode("inp")) - op.voltage(out)) * 1e3;
    for (std::size_t i = 0; i < c.vsources.size(); ++i) {
      if (c.vsources[i].name == "VDD") {
        legacyPower = std::abs(op.vsourceCurrents[i]) * d.vdd * 1e3;
      }
    }
    const auto ac = sim.ac(op, fLow, vOpt.fStop, vOpt.pointsPerDecade);
    const AcCurve adm = curveAt(ac, out);
    legacyGainDb = toDb(dcGain(adm));
    legacyGbw = unityGainFrequency(adm);
    legacyPm = phaseMarginDeg(adm);
  }
  {  // Common-mode circuit with acMag baked onto VCM.
    const Circuit c =
        sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 0.0, 1.0, 0.0);
    Simulator sim(c, kTech, model, optionsFor(SolverMode::kReference));
    const DcSolution op = sim.dcOperatingPoint();
    const auto ac = sim.ac(op, fLow, 10.0 * fLow, 4);
    const double acm = dcGain(curveAt(ac, *c.findNode("out")));
    legacyCmrr = toDb(std::pow(10.0, legacyGainDb / 20.0) / std::max(acm, 1e-12));
  }
  {  // Supply rejection via acFrom on a quiet circuit.
    const Circuit c =
        sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 0.0, 0.0, 0.0);
    Simulator sim(c, kTech, model, optionsFor(SolverMode::kReference));
    const DcSolution op = sim.dcOperatingPoint();
    const auto ac = sim.acFrom(op, "VDD", fLow, 10.0 * fLow, 4);
    const double avdd = dcGain(curveAt(ac, *c.findNode("out")));
    legacyPsrr = toDb(std::pow(10.0, legacyGainDb / 20.0) / std::max(avdd, 1e-12));
  }
  {  // Output resistance via the baked-in IPROBE current source.
    const Circuit c =
        sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 0.0, 0.0, 1.0);
    Simulator sim(c, kTech, model, optionsFor(SolverMode::kReference));
    const DcSolution op = sim.dcOperatingPoint();
    const auto ac = sim.ac(op, fLow, 10.0 * fLow, 4);
    legacyRout = std::abs(ac.front().at(*c.findNode("out"))) / 1e6;
  }

  for (const bool reference : {false, true}) {
    sizing::VerifyOptions opt;
    opt.referenceSolver = reference;
    const sizing::OtaPerformance p = sizing::measureAmplifier(
        kTech, model, instantiate, d.inputCm, d.vdd, nullptr, opt);
    SCOPED_TRACE(reference ? "referenceSolver" : "fastSolver");
    EXPECT_BIT_EQ(p.dcGainDb, legacyGainDb);
    EXPECT_BIT_EQ(p.gbwHz, legacyGbw);
    EXPECT_BIT_EQ(p.phaseMarginDeg, legacyPm);
    EXPECT_BIT_EQ(p.offsetMv, legacyOffset);
    EXPECT_BIT_EQ(p.powerMw, legacyPower);
    EXPECT_BIT_EQ(p.cmrrDb, legacyCmrr);
    EXPECT_BIT_EQ(p.psrrDb, legacyPsrr);
    EXPECT_BIT_EQ(p.outputResistanceMOhm, legacyRout);
  }
}

// ---------------------------------------------------------------------------
// Transient fast path: the post-layout verification testbenches, a netlist
// touching every stamp kind of the transient skeleton, and workspace reuse
// across analyses.

/// Fast and reference transients of `c` must agree bit for bit, and take
/// the same Newton trajectory (equal step and iteration counts).
void expectTransientModesBitEqual(const Circuit& c, const device::MosModel& model,
                                  double tStop, double dt) {
  Simulator fast(c, kTech, model, optionsFor(SolverMode::kFast));
  Simulator ref(c, kTech, model, optionsFor(SolverMode::kReference));
  const auto tranF = fast.transient(tStop, dt);
  const auto tranR = ref.transient(tStop, dt);
  expectTranBitEqual(tranF, tranR);
  EXPECT_EQ(fast.stats().tranSteps, static_cast<long>(tranF.size()) - 1);
  EXPECT_EQ(fast.stats().tranSteps, ref.stats().tranSteps);
  EXPECT_EQ(fast.stats().tranNewtonIterations, ref.stats().tranNewtonIterations);
  // Every fast-path Newton iteration (DC ladder and transient) factors once.
  EXPECT_EQ(fast.stats().luFactorizations,
            fast.stats().newtonIterations + fast.stats().tranNewtonIterations);
  EXPECT_EQ(ref.stats().luFactorizations, 0);
}

/// Case-4 engine runs of both topologies; each adapter keeps its extracted
/// netlist and layout parasitics for the verification setup.
struct PostLayoutDesigns {
  std::unique_ptr<device::MosModel> model = device::MosModel::create("ekv");
  core::FoldedCascodeOtaTopology ota{kTech, *model};
  core::TwoStageTopology twoStage{kTech, *model};
  PostLayoutDesigns() {
    const core::SynthesisEngine engine(kTech, core::EngineOptions{});
    (void)engine.run(ota, sizing::OtaSpecs{});
    sizing::OtaSpecs twoStageSpecs;
    twoStageSpecs.gbw = 30e6;
    (void)engine.run(twoStage, twoStageSpecs);
  }
};

PostLayoutDesigns& postLayoutDesigns() {
  static PostLayoutDesigns d;
  return d;
}

void expectPostLayoutTransientsBitEqual(core::Topology& topology) {
  const verify::VerificationSetup setup = topology.verificationSetup();
  ASSERT_TRUE(setup.supported);
  ASSERT_NE(setup.parasitics, nullptr);
  const device::MosModel& model = *postLayoutDesigns().model;

  const sizing::VerifyOptions slew;
  const Circuit slewBench =
      sizing::buildSlewTestbench(setup.postLayout, setup.inputCm, setup.parasitics, slew);
  {
    SCOPED_TRACE("slew");
    expectTransientModesBitEqual(slewBench, model, slew.tranStop, slew.tranStep);
  }

  const verify::VerificationOptions thd;
  const Circuit thdBench =
      verify::buildThdTestbench(setup.postLayout, setup.inputCm, setup.parasitics, thd);
  const double period = 1.0 / thd.thdFundamentalHz;
  {
    SCOPED_TRACE("thd");
    expectTransientModesBitEqual(thdBench, model,
                                 period * (thd.thdSettleCycles + thd.thdCycles),
                                 period / thd.thdSamplesPerCycle);
  }
}

TEST(SimGolden, FoldedCascodePostLayoutTransientsBitIdentical) {
  expectPostLayoutTransientsBitEqual(postLayoutDesigns().ota);
}

TEST(SimGolden, TwoStagePostLayoutTransientsBitIdentical) {
  expectPostLayoutTransientsBitEqual(postLayoutDesigns().twoStage);
}

/// A small amplifier that exercises every kind of stamp the transient
/// skeleton, RHS base and companion replay carry: gmin, resistors, V-source
/// and VCVS incidence, a time-varying I-source and V-source, floating and
/// grounded capacitors, and MOS devices with mismatch knobs and mult > 1.
Circuit everyStampKindCircuit() {
  Circuit c;
  const auto vdd = c.node("vdd"), in = c.node("in"), gate = c.node("gate");
  const auto out = c.node("out"), pbias = c.node("pbias"), buf = c.node("buf");
  device::MosGeometry gn, gp;
  gn.w = 8e-6;
  gn.l = 0.8e-6;
  device::applyUnfoldedGeometry(kTech.rules, gn);
  gp = gn;
  gp.w = 12e-6;
  device::applyUnfoldedGeometry(kTech.rules, gp);
  c.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(3.3));
  c.addVSource("VBP", pbias, circuit::kGround, Waveform::makeDc(2.2));
  c.addVSource("VIN", in, circuit::kGround,
               Waveform::makePulse(0.9, 1.1, 5e-9, 1e-9, 1e-9, 20e-9, 50e-9));
  c.addResistor("RG", in, gate, 20e3);
  c.addCapacitor("CM", gate, out, 0.2e-12);             // Floating.
  c.addCapacitor("CL", out, circuit::kGround, 1e-12);   // Grounded.
  circuit::Mos& mn =
      c.addMos("MN", out, gate, circuit::kGround, circuit::kGround, tech::MosType::kNmos,
               gn, 2.0);
  mn.vtoDelta = 4e-3;
  mn.kpScale = 1.03;
  c.addMos("MP", out, pbias, vdd, vdd, tech::MosType::kPmos, gp, 3.0);
  c.addISource("IB", out, circuit::kGround, Waveform::makeSin(0.0, 2e-6, 40e6));
  c.addVcvs("EBUF", buf, circuit::kGround, out, circuit::kGround, 0.5);
  c.addResistor("RL", buf, circuit::kGround, 10e3);
  c.addCapacitor("CB", buf, circuit::kGround, 0.1e-12);
  return c;
}

TEST(SimGolden, EveryTransientStampKindBitIdentical) {
  const Circuit c = everyStampKindCircuit();
  for (const char* modelName : {"level1", "ekv"}) {
    SCOPED_TRACE(modelName);
    const auto model = device::MosModel::create(modelName);
    expectTransientModesBitEqual(c, *model, 60e-9, 0.25e-9);
  }
}

TEST(SimGolden, ReusedSimulatorTransientsMatchFreshReference) {
  // One fast Simulator carried through DC, sweep, AC and three transients
  // at two step sizes: no workspace state may leak from one analysis into
  // the next.  Each result is compared with a fresh reference Simulator.
  const Circuit c = everyStampKindCircuit();
  const auto model = device::MosModel::create("ekv");
  Simulator fast(c, kTech, *model, optionsFor(SolverMode::kFast));
  auto freshRef = [&] {
    return std::make_unique<Simulator>(c, kTech, *model, optionsFor(SolverMode::kReference));
  };

  const auto sweepF = fast.dcSweep("VIN", 0.5, 1.5, 11);
  const auto sweepR = freshRef()->dcSweep("VIN", 0.5, 1.5, 11);
  ASSERT_EQ(sweepF.size(), sweepR.size());
  for (std::size_t i = 0; i < sweepF.size(); ++i) {
    expectSolutionBitEqual(sweepF[i].solution, sweepR[i].solution);
  }
  const DcSolution opF = fast.dcOperatingPoint();
  const DcSolution opR = freshRef()->dcOperatingPoint();
  expectSolutionBitEqual(opF, opR);
  expectAcBitEqual(fast.ac(opF, 1e3, 1e9, 4), freshRef()->ac(opR, 1e3, 1e9, 4));

  const double dt = 0.5e-9;
  const auto first = fast.transient(40e-9, dt);
  expectTranBitEqual(first, freshRef()->transient(40e-9, dt));
  expectTranBitEqual(fast.transient(40e-9, dt / 2), freshRef()->transient(40e-9, dt / 2));
  expectTranBitEqual(fast.transient(40e-9, dt), first);
}

TEST(SimGolden, DigestOfFullAnalysisSetMatchesAcrossModes) {
  // The digest form of the byte-identity proof: hash every byte of every
  // solution the verification tier consumes, in both modes, and require
  // the digests -- not just spot-checked fields -- to collide.
  sizing::OtaVerifier v(kTech, *designs().model);
  const Circuit c = v.buildAcTestbench(designs().ota.design, nullptr, 1.0, 0.0, 0.0);
  const NodeId out = *c.findNode("out");

  std::uint64_t digest[2] = {0, 0};
  for (const SolverMode mode : {SolverMode::kFast, SolverMode::kReference}) {
    Simulator sim(c, kTech, *designs().model, optionsFor(mode));
    Fnv1a h;
    const DcSolution op = sim.dcOperatingPoint();
    digestSolution(h, op);
    for (const auto& pt : sim.ac(op, 10.0, 1e9, 8)) {
      h.add(pt.freq);
      h.add(pt.nodeV);
      h.add(pt.vsourceI);
    }
    for (const auto& pt : sim.noise(op, out, "VDIFF", 1.0, 1e8, 6)) {
      h.add(pt.freq);
      h.add(pt.outputPsd);
      h.add(pt.inputRefPsd);
      h.add(pt.gainMag);
    }
    for (const auto& pt : sim.transient(40e-9, 0.5e-9)) {
      h.add(pt.time);
      h.add(pt.nodeV);
    }
    digest[mode == SolverMode::kFast ? 0 : 1] = h.value();
  }
  EXPECT_EQ(digest[0], digest[1]);
}

}  // namespace
}  // namespace lo::sim
