// Tests for the extension features: GDSII output, wiring resistance,
// process corners, and Monte-Carlo statistical verification.
#include <gtest/gtest.h>

#include <cstring>

#include "core/engine.hpp"
#include "core/ota_topology.hpp"
#include "layout/writers.hpp"
#include "sizing/montecarlo.hpp"
#include "sizing/ota_sizer.hpp"
#include "layout/drc.hpp"
#include "sim/op_report.hpp"
#include "sizing/two_stage.hpp"
#include "verify/verify.hpp"

namespace lo {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

/// One folded-cascode engine run on a caller-owned adapter, which then
/// holds the layout, the extracted design and the bias generator.  The
/// engine owns the model the adapter was built against.
struct OtaRun {
  explicit OtaRun(core::EngineOptions options = {}) : engine(kTech, std::move(options)) {}

  core::SynthesisEngine engine;
  core::FoldedCascodeOtaTopology topology{kTech, engine.model()};
  core::EngineResult result = engine.run(topology, sizing::OtaSpecs{});

  [[nodiscard]] const device::MosModel& model() const { return engine.model(); }
  [[nodiscard]] const circuit::FoldedCascodeOtaDesign& extracted() const {
    return topology.extractedDesign();
  }
  [[nodiscard]] const layout::OtaLayoutResult& layout() const { return topology.layout(); }
};

// --- GDSII writer. ---

TEST(Gds, StreamStructure) {
  geom::ShapeList shapes;
  shapes.add(tech::Layer::kMetal1, geom::Rect(0, 0, 1000, 2000));
  shapes.add(tech::Layer::kPoly, geom::Rect(-500, 0, 100, 600));
  const std::string gds = layout::toGds(shapes, "CELL");

  // HEADER record: length 6, type 0x00, data type 0x02, version 600.
  ASSERT_GE(gds.size(), 6u);
  EXPECT_EQ(static_cast<unsigned char>(gds[0]), 0x00);
  EXPECT_EQ(static_cast<unsigned char>(gds[1]), 0x06);
  EXPECT_EQ(static_cast<unsigned char>(gds[2]), 0x00);
  EXPECT_EQ(static_cast<unsigned char>(gds[3]), 0x02);
  // Ends with ENDLIB (0x04).
  EXPECT_EQ(static_cast<unsigned char>(gds[gds.size() - 2]), 0x04);

  // Walk the records: count BOUNDARY (0x08) elements == shapes.
  std::size_t pos = 0;
  int boundaries = 0;
  bool sawUnits = false, sawStrname = false;
  while (pos + 4 <= gds.size()) {
    const std::size_t len = (static_cast<unsigned char>(gds[pos]) << 8) |
                            static_cast<unsigned char>(gds[pos + 1]);
    const unsigned char type = gds[pos + 2];
    if (type == 0x08) ++boundaries;
    if (type == 0x03) sawUnits = true;
    if (type == 0x06) {
      sawStrname = true;
      EXPECT_EQ(gds.substr(pos + 4, 4), "CELL");
    }
    ASSERT_GE(len, 4u);
    pos += len;
  }
  EXPECT_EQ(pos, gds.size());  // Records tile the stream exactly.
  EXPECT_EQ(boundaries, 2);
  EXPECT_TRUE(sawUnits);
  EXPECT_TRUE(sawStrname);
}

TEST(Gds, Real8EncodingOfUnits) {
  // The UNITS record must carry 1e-3 and 1e-9 in GDS real8.  Spot-check the
  // canonical encoding of 1e-3: 0x3E 0x41 0x89 0x37 0x4B 0xC6 0xA7 0xEF.
  geom::ShapeList shapes;
  shapes.add(tech::Layer::kMetal1, geom::Rect(0, 0, 10, 10));
  const std::string gds = layout::toGds(shapes);
  const std::size_t unitsPos = gds.find(std::string("\x00\x14\x03\x05", 4));
  ASSERT_NE(unitsPos, std::string::npos);
  const unsigned char* u =
      reinterpret_cast<const unsigned char*>(gds.data()) + unitsPos + 4;
  EXPECT_EQ(u[0], 0x3e);
  EXPECT_EQ(u[1], 0x41);
  EXPECT_EQ(u[2], 0x89);
}

TEST(Gds, LayerNumbersAreUniqueAndStable) {
  std::set<int> seen;
  for (tech::Layer l : tech::kAllLayers) {
    EXPECT_TRUE(seen.insert(layout::gdsLayerNumber(l)).second);
  }
  EXPECT_EQ(layout::gdsLayerNumber(tech::Layer::kMetal1), 7);
}

// --- Wiring resistance extraction. ---

TEST(Resistance, TrunkResistanceScalesWithLength) {
  layout::Cell c;
  for (int i = 0; i < 2; ++i) {
    c.addPort("a", tech::Layer::kMetal1,
              geom::Rect(i * 100000, 0, i * 100000 + 1000, 1000));
    c.addPort("b", tech::Layer::kMetal1,
              geom::Rect(i * 400000, 5000, i * 400000 + 1000, 6000));
  }
  const auto r = layout::routeCell(kTech, c, {{"a", 0.0}, {"b", 0.0}}, false);
  const auto* a = r.find("a");
  const auto* b = r.find("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // 4x the span; the constant via-stack term dilutes the ratio.
  EXPECT_GT(b->resistanceOhm, 2.0 * a->resistanceOhm);
  // 100 um of 1 um metal1 at 0.07 ohm/sq is about 7 ohm.
  EXPECT_GT(a->resistanceOhm, 2.0);
  EXPECT_LT(a->resistanceOhm, 30.0);
}

TEST(Resistance, ReportCarriesRoutingResistance) {
  const OtaRun r;
  for (const char* net : {"x1", "out", "tail"}) {
    ASSERT_TRUE(r.layout().parasitics.nets.count(net)) << net;
    EXPECT_GT(r.layout().parasitics.nets.at(net).routingRes, 0.1) << net;
    EXPECT_LT(r.layout().parasitics.nets.at(net).routingRes, 500.0) << net;
  }
}

// --- Process corners. ---

TEST(Corners, ShiftDirections) {
  const tech::Technology ss = kTech.atCorner(tech::ProcessCorner::kSlow);
  const tech::Technology ff = kTech.atCorner(tech::ProcessCorner::kFast);
  EXPECT_GT(ss.nmos.vto, kTech.nmos.vto);
  EXPECT_LT(ss.nmos.kp, kTech.nmos.kp);
  EXPECT_LT(ff.pmos.vto, kTech.pmos.vto);
  EXPECT_GT(ff.pmos.kp, kTech.pmos.kp);
  const tech::Technology sf = kTech.atCorner(tech::ProcessCorner::kSlowNFastP);
  EXPECT_GT(sf.nmos.vto, kTech.nmos.vto);
  EXPECT_LT(sf.pmos.vto, kTech.pmos.vto);
  EXPECT_EQ(sf.name, "generic060_sf");
}

TEST(Corners, DesignSurvivesAllCorners) {
  // Design at typical, verify the extracted netlist at every corner: the
  // amplifier must stay functional (this is the statistical-reliability
  // angle of the paper's verification interface).
  const OtaRun r;
  const auto model = device::MosModel::create("ekv");

  // Same-direction corners keep the branch currents balanced, so the fixed
  // (ideal) bias voltages still hold the amplifier together.  Cross corners
  // (sf/fs) unbalance the PMOS sources against the NMOS sinks and need a
  // tracking bias generator -- with ideal ground-referenced biases the
  // output saturates, which we assert below as the documented limitation.
  double gbwSlow = 0.0, gbwFast = 0.0;
  for (tech::ProcessCorner c : {tech::ProcessCorner::kSlow, tech::ProcessCorner::kTypical,
                                tech::ProcessCorner::kFast}) {
    const tech::Technology corner = kTech.atCorner(c);
    sizing::OtaVerifier verifier(corner, *model);
    const auto m = verifier.verify(r.extracted(), &r.layout().parasitics);
    EXPECT_GT(m.dcGainDb, 55.0) << tech::cornerName(c);
    EXPECT_GT(m.phaseMarginDeg, 45.0) << tech::cornerName(c);
    EXPECT_GT(m.gbwHz, 30e6) << tech::cornerName(c);
    if (c == tech::ProcessCorner::kSlow) gbwSlow = m.gbwHz;
    if (c == tech::ProcessCorner::kFast) gbwFast = m.gbwHz;
  }
  EXPECT_LT(gbwSlow, gbwFast);
  // Cross corners still simulate (no convergence failure), even though the
  // fixed biases cannot keep the output in range.
  for (tech::ProcessCorner c :
       {tech::ProcessCorner::kSlowNFastP, tech::ProcessCorner::kFastNSlowP}) {
    const tech::Technology corner = kTech.atCorner(c);
    sizing::OtaVerifier verifier(corner, *model);
    EXPECT_NO_THROW((void)verifier.verify(r.extracted(), &r.layout().parasitics))
        << tech::cornerName(c);
  }
}

TEST(Corners, BiasGeneratorRescuesCrossCorners) {
  // With the transistor-level bias generator the bias voltages track the
  // process, so even the cross corners that break fixed ideal biases keep
  // the amplifier healthy.
  const OtaRun r;
  const auto bias = sizing::designOtaBias(kTech, r.model(), r.extracted());
  for (tech::ProcessCorner c :
       {tech::ProcessCorner::kTypical, tech::ProcessCorner::kSlow,
        tech::ProcessCorner::kFast, tech::ProcessCorner::kSlowNFastP,
        tech::ProcessCorner::kFastNSlowP}) {
    const tech::Technology corner = kTech.atCorner(c);
    const auto m = sizing::measureAmplifier(
        corner, r.model(),
        [&](circuit::Circuit& ck) {
          circuit::instantiateOtaWithBias(ck, r.extracted(), bias);
        },
        r.extracted().inputCm, r.extracted().vdd, &r.layout().parasitics);
    EXPECT_GT(m.dcGainDb, 60.0) << tech::cornerName(c);
    EXPECT_GT(m.phaseMarginDeg, 55.0) << tech::cornerName(c);
    EXPECT_NEAR(m.gbwHz, 65e6, 65e6 * 0.12) << tech::cornerName(c);
  }
}

TEST(Corners, BiasGeneratorMatchesIdealBiasAtTypical) {
  const OtaRun r;
  const auto bias = sizing::designOtaBias(kTech, r.model(), r.extracted());
  const auto m = sizing::measureAmplifier(
      kTech, r.model(),
      [&](circuit::Circuit& ck) {
        circuit::instantiateOtaWithBias(ck, r.extracted(), bias);
      },
      r.extracted().inputCm, r.extracted().vdd, &r.layout().parasitics);
  // Within a few percent of the ideal-bias measurement.
  EXPECT_NEAR(m.gbwHz, r.result.measured.gbwHz, r.result.measured.gbwHz * 0.06);
  EXPECT_NEAR(m.dcGainDb, r.result.measured.dcGainDb, 1.5);
  // The generator's four reference legs cost a little extra power.
  EXPECT_GT(m.powerMw, r.result.measured.powerMw);
  EXPECT_LT(m.powerMw, r.result.measured.powerMw + 4.0 * bias.biasCurrent * 3.3 * 1e3 + 0.05);
}

TEST(Corners, FlowDrawsTheBiasGenerator) {
  core::EngineOptions opt;
  opt.includeBiasGenerator = true;
  const OtaRun r(opt);
  // Bias devices drawn and DRC-clean.
  EXPECT_TRUE(r.layout().floorplan.leaves.count("MNB1"));
  EXPECT_TRUE(r.layout().floorplan.leaves.count("MPB2"));
  const auto violations = layout::runDrc(kTech, r.layout().cell.shapes);
  std::size_t shorts = 0;
  for (const auto& v : violations) {
    if (v.detail.find("short") != std::string::npos) ++shorts;
  }
  EXPECT_EQ(shorts, 0u);
  // Verified with the generator in the loop; bias nets now carry routing
  // parasitics.
  EXPECT_NEAR(r.result.measured.gbwHz, 65e6, 65e6 * 0.06);
  EXPECT_GT(r.layout().parasitics.capOn("vbn"), 1e-15);
  EXPECT_GT(r.topology.bias().biasCurrent, 1e-6);
}

// --- Monte Carlo. ---

TEST(MonteCarlo, OffsetSpreadScalesWithMismatch) {
  const OtaRun r;

  sizing::MonteCarloOptions small;
  small.samples = 25;
  small.avt = 5e-9;
  sizing::MonteCarloOptions big = small;
  big.avt = 20e-9;
  const auto rs = sizing::runMonteCarlo(kTech, r.model(), r.extracted(),
                                        &r.layout().parasitics, small);
  const auto rb = sizing::runMonteCarlo(kTech, r.model(), r.extracted(),
                                        &r.layout().parasitics, big);
  EXPECT_EQ(rs.failures, 0);
  EXPECT_EQ(static_cast<int>(rs.offsetsMv.size()), small.samples);
  EXPECT_GT(rb.offsetSigmaMv, 2.0 * rs.offsetSigmaMv);
  // Random offset sigma in a sane band for these device areas.
  EXPECT_GT(rs.offsetSigmaMv, 0.01);
  EXPECT_LT(rs.offsetSigmaMv, 10.0);
}

TEST(MonteCarlo, Deterministic) {
  const OtaRun r;
  sizing::MonteCarloOptions mc;
  mc.samples = 10;
  const auto a = sizing::runMonteCarlo(kTech, r.model(), r.extracted(), nullptr, mc);
  const auto b = sizing::runMonteCarlo(kTech, r.model(), r.extracted(), nullptr, mc);
  ASSERT_EQ(a.offsetsMv.size(), b.offsetsMv.size());
  for (std::size_t i = 0; i < a.offsetsMv.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.offsetsMv[i], b.offsetsMv[i]);
  }
}

// --- Usable range (input CM range / output swing intersection). ---

/// The unity-buffer window from the verification tier's ICMR sweep: 66
/// points from 0.05 V to vdd - 0.05 V, 0.02 V tracking tolerance.
verify::ExtendedMeasures bufferWindow(const device::MosModel& model,
                                      const sizing::AmpInstantiateFn& instantiate,
                                      double inputCm, double vdd) {
  verify::VerificationOptions options;
  options.sweepPoints = 66;
  options.trackingTolerance = 0.02;
  return verify::measureExtended(kTech, model, instantiate, inputCm, vdd,
                                 /*parasitics=*/nullptr, options);
}

TEST(Range, BufferTracksInsideTheDesignWindow) {
  const OtaRun r;
  const auto range = bufferWindow(
      r.model(),
      [&](circuit::Circuit& ck) { circuit::instantiateOta(ck, r.extracted()); },
      r.extracted().inputCm, r.extracted().vdd);
  // A healthy window around the design common mode.
  EXPECT_LT(range.icmrLow, 1.0);
  EXPECT_GT(range.icmrHigh, 1.6);
  EXPECT_GT(range.icmrHigh - range.icmrLow, 0.8);
  // The design common mode sits inside it.
  EXPECT_GT(r.extracted().inputCm, range.icmrLow);
  EXPECT_LT(r.extracted().inputCm, range.icmrHigh);
}

TEST(Range, TwoStageBufferHasItsOwnWindow) {
  const auto model = device::MosModel::create("ekv");
  sizing::TwoStageSizer sizer(kTech, *model);
  sizing::OtaSpecs specs;
  specs.gbw = 30e6;
  const auto r = sizer.size(specs, sizing::SizingPolicy::case2());
  const auto range = bufferWindow(
      *model,
      [&](circuit::Circuit& ck) { circuit::instantiateTwoStage(ck, r.design); },
      r.design.inputCm, r.design.vdd);
  EXPECT_GT(range.icmrHigh - range.icmrLow, 0.5);
  EXPECT_GT(r.design.inputCm, range.icmrLow);
  EXPECT_LT(r.design.inputCm, range.icmrHigh);
}

// --- Temperature dependence. ---

TEST(Temperature, StrongInversionCurrentDropsWithHeat) {
  // Mobility degradation dominates at high gate drive.
  const auto model = device::MosModel::create("ekv");
  device::MosGeometry geo;
  geo.w = 20e-6;
  geo.l = 1e-6;
  device::applyUnfoldedGeometry(kTech.rules, geo);
  const double cold = model->currentNormalized(kTech.nmos, geo, 2.0, 2.0, 0.0, 273.15);
  const double hot = model->currentNormalized(kTech.nmos, geo, 2.0, 2.0, 0.0, 398.15);
  EXPECT_LT(hot, cold * 0.75);
}

TEST(Temperature, SubthresholdCurrentRisesWithHeat) {
  // Threshold reduction wins near/below threshold.
  const auto model = device::MosModel::create("ekv");
  device::MosGeometry geo;
  geo.w = 20e-6;
  geo.l = 1e-6;
  device::applyUnfoldedGeometry(kTech.rules, geo);
  const double cold = model->currentNormalized(kTech.nmos, geo, 0.6, 2.0, 0.0, 273.15);
  const double hot = model->currentNormalized(kTech.nmos, geo, 0.6, 2.0, 0.0, 398.15);
  EXPECT_GT(hot, cold * 1.5);
}

TEST(Temperature, VerificationFollowsTechnologyTemperature) {
  const OtaRun r;
  tech::Technology hot = kTech;
  hot.temperature = 273.15 + 125.0;
  sizing::OtaVerifier hotVerifier(hot, r.model());
  const auto m = hotVerifier.verify(r.extracted(), &r.layout().parasitics);
  // The amplifier must survive 125 C with degraded but sane numbers, and the
  // hot run must differ measurably from nominal.
  EXPECT_GT(m.dcGainDb, 55.0);
  EXPECT_GT(m.gbwHz, 30e6);
  // The fixed gate biases sit near the zero-temperature-coefficient point
  // (mobility loss compensates the threshold drop), so the GBW shift is
  // small but must be nonzero.
  EXPECT_GT(std::abs(m.gbwHz - r.result.measured.gbwHz), 1e5);
  // Thermal noise grows roughly as sqrt(T).
  EXPECT_GT(m.thermalNoiseDensityNv, r.result.measured.thermalNoiseDensityNv);
}

// --- Operating-point report. ---

TEST(OpReport, ListsEveryDeviceAndNode) {
  const OtaRun r;
  sizing::OtaVerifier v(kTech, r.model());
  const circuit::Circuit c =
      v.buildAcTestbench(r.extracted(), &r.layout().parasitics, 1, 0, 0);
  sim::Simulator sim(c, kTech, r.model());
  const auto op = sim.dcOperatingPoint();
  const std::string report = sim::opReport(c, op);
  for (const char* token : {"MP1", "MN2C", "saturation", "node voltages", "VDD", "out"}) {
    EXPECT_NE(report.find(token), std::string::npos) << token;
  }
  // One line per device.
  std::size_t count = 0, pos = 0;
  while ((pos = report.find("MP", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_GE(count, 7u);  // MP1/2/3/4/5/3C/4C.
}

// --- PSRR / settling (measured vs analytic). ---

TEST(Psrr, MeasuredAndPredictedAgreeOnScale) {
  const OtaRun r;
  EXPECT_GT(r.result.measured.psrrDb, 55.0);
  // The analytic PSRR is an order-of-magnitude figure (the tail and mirror
  // supply paths partially cancel in ways the closed form cannot see), and
  // it errs conservative: predicted rejection <= measured.
  EXPECT_GT(r.result.predicted.psrrDb, 40.0);
  EXPECT_LE(r.result.predicted.psrrDb, r.result.measured.psrrDb + 5.0);
  EXPECT_NEAR(r.result.measured.psrrDb, r.result.predicted.psrrDb, 25.0);
  EXPECT_GT(r.result.measured.settlingTimeNs, 1.0);
  EXPECT_LT(r.result.measured.settlingTimeNs, 200.0);
  // Settling estimate within a factor of ~2.5 of the simulation.
  EXPECT_LT(std::abs(std::log(r.result.measured.settlingTimeNs / r.result.predicted.settlingTimeNs)),
            std::log(2.5));
}

}  // namespace
}  // namespace lo
