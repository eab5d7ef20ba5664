// The folded-cascode synthesis loop (paper Fig. 1b) end to end: Table 1
// behaviour, parasitic convergence and the generated geometry, driven
// through SynthesisEngine with a caller-owned topology so the adapter's
// sizing, layout and extracted design stay inspectable.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "core/ota_topology.hpp"

namespace lo::core {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

/// One engine run on a caller-owned adapter.  The engine owns the model
/// the adapter was built against, so it lives as long as the adapter.
struct CaseRun {
  explicit CaseRun(SizingCase c, layout::OtaLayoutOptions layoutOptions = {})
      : engine(kTech, optionsFor(c)), topology(kTech, engine.model(), layoutOptions) {}

  static EngineOptions optionsFor(SizingCase c) {
    EngineOptions options;
    options.sizingCase = c;
    return options;
  }

  SynthesisEngine engine;
  FoldedCascodeOtaTopology topology;
  EngineResult result = engine.run(topology, sizing::OtaSpecs{});
};

/// All four cases, computed once (deterministic, ~0.2 s total).
const CaseRun& caseRun(SizingCase c) {
  static const std::map<SizingCase, CaseRun> runs = [] {
    std::map<SizingCase, CaseRun> m;
    for (SizingCase k : {SizingCase::kCase1, SizingCase::kCase2, SizingCase::kCase3,
                         SizingCase::kCase4}) {
      m.try_emplace(k, k);
    }
    return m;
  }();
  return runs.at(c);
}

const EngineResult& caseResult(SizingCase c) { return caseRun(c).result; }

/// Position of `net` in the run's critical-net list (the netCaps index);
/// criticalNets.size() when the net is not watched.
std::size_t netIndex(const EngineResult& r, const std::string& net) {
  const auto it = std::find(r.criticalNets.begin(), r.criticalNets.end(), net);
  return static_cast<std::size_t>(it - r.criticalNets.begin());
}

TEST(Flow, Case4ConvergesInFewLayoutCalls) {
  // Paper section 5: "Three calls of the layout tool were needed before
  // parasitic convergence."
  const EngineResult& r = caseResult(SizingCase::kCase4);
  EXPECT_TRUE(r.parasiticConverged);
  EXPECT_GE(r.layoutCalls, 2);
  EXPECT_LE(r.layoutCalls, 5);
  EXPECT_EQ(static_cast<int>(r.iterations.size()), r.layoutCalls);
}

TEST(Flow, Case4MeetsGbwInExtractedSimulation) {
  const sizing::OtaSpecs specs;
  const EngineResult& r = caseResult(SizingCase::kCase4);
  // Synthesised value on target, extracted simulation within a few percent.
  EXPECT_NEAR(r.predicted.gbwHz, specs.gbw, specs.gbw * 0.01);
  EXPECT_NEAR(r.measured.gbwHz, specs.gbw, specs.gbw * 0.04);
}

TEST(Flow, Case1MissesGbwWithoutLayoutKnowledge) {
  // Paper Table 1 case 1: GBW of the extracted netlist falls clearly below
  // the target when no layout capacitance was considered during sizing.
  const sizing::OtaSpecs specs;
  const EngineResult& r = caseResult(SizingCase::kCase1);
  EXPECT_LT(r.measured.gbwHz, specs.gbw * 0.96);
  EXPECT_EQ(r.layoutCalls, 0);  // No parasitic feedback in case 1.
}

TEST(Flow, Case4IsClosestToTarget) {
  const sizing::OtaSpecs specs;
  const double err4 =
      std::abs(caseResult(SizingCase::kCase4).measured.gbwHz - specs.gbw);
  for (SizingCase c : {SizingCase::kCase1, SizingCase::kCase2, SizingCase::kCase3}) {
    EXPECT_LT(err4, std::abs(caseResult(c).measured.gbwHz - specs.gbw) + 1e3)
        << sizingCaseName(c);
  }
}

TEST(Flow, Case2OverEstimationCostsGainAndCmrr) {
  // Paper: "other specifications like the input noise, the dc gain and the
  // output resistance could not be optimized" under the pessimistic cap
  // assumption.
  const EngineResult& r1 = caseResult(SizingCase::kCase1);
  const EngineResult& r2 = caseResult(SizingCase::kCase2);
  EXPECT_LT(r2.measured.dcGainDb, r1.measured.dcGainDb);
  EXPECT_LT(r2.measured.cmrrDb, r1.measured.cmrrDb);
  EXPECT_LT(r2.measured.outputResistanceMOhm, r1.measured.outputResistanceMOhm);
  EXPECT_GT(r2.measured.powerMw, r1.measured.powerMw);
}

TEST(Flow, PredictionTracksSimulationForCase4) {
  // The whole point: when sizing knows everything the layout will do, the
  // synthesised numbers match the extracted simulation.
  const EngineResult& r = caseResult(SizingCase::kCase4);
  EXPECT_NEAR(r.measured.dcGainDb, r.predicted.dcGainDb, 1.5);
  EXPECT_NEAR(r.measured.gbwHz, r.predicted.gbwHz, r.predicted.gbwHz * 0.04);
  EXPECT_NEAR(r.measured.powerMw, r.predicted.powerMw, r.predicted.powerMw * 0.03);
  EXPECT_NEAR(r.measured.outputResistanceMOhm, r.predicted.outputResistanceMOhm,
              r.predicted.outputResistanceMOhm * 0.06);
}

TEST(Flow, ExtractedDesignCarriesQuantisedFoldedGeometry) {
  const FoldedCascodeOtaTopology& ota = caseRun(SizingCase::kCase4).topology;
  for (circuit::OtaGroup g : circuit::kAllOtaGroups) {
    const device::MosGeometry& geo = ota.extractedDesign().geometry(g);
    EXPECT_GT(geo.nf, 1) << circuit::otaGroupName(g);
    EXPECT_GT(geo.ad, 0.0) << circuit::otaGroupName(g);
    // Fold-quantised width differs slightly from the designed width (the
    // paper's grid-snapping effect) but stays within one grid per finger.
    const double designed = ota.sizingResult().design.geometry(g).w;
    EXPECT_NEAR(geo.w, designed, geo.nf * 60e-9) << circuit::otaGroupName(g);
  }
}

TEST(Flow, IterationHistoryShowsParasiticSettling) {
  const EngineResult& r = caseResult(SizingCase::kCase4);
  ASSERT_GE(r.iterations.size(), 2u);
  const std::size_t x1 = netIndex(r, "x1");
  const std::size_t tail = netIndex(r, "tail");
  ASSERT_LT(x1, r.criticalNets.size());
  ASSERT_LT(tail, r.criticalNets.size());
  // Later iterations change less than the first step.
  const auto& it = r.iterations;
  const double first = std::abs(it[1].netCaps[x1] - it[0].netCaps[x1]);
  const double last = std::abs(it.back().netCaps[x1] - it[it.size() - 2].netCaps[x1]);
  EXPECT_LE(last, first + 1e-18);
  for (const EngineIteration& i : it) {
    EXPECT_GT(i.netCaps[x1], 0.0);
    EXPECT_GT(i.netCaps[tail], 0.0);
    EXPECT_GT(i.primaryCurrent, 0.0);
  }
}

TEST(Flow, FoldPolicyAblationChangesLayoutStyle) {
  layout::OtaLayoutOptions alternating;
  alternating.foldStyle = device::FoldStyle::kAlternating;
  const CaseRun ri(SizingCase::kCase4);
  const CaseRun ra(SizingCase::kCase4, alternating);
  // Internal-drain policy: even folds everywhere.
  for (const auto& [g, plan] : ri.topology.layout().foldPlans) {
    EXPECT_EQ(plan.nf % 2, 0) << circuit::otaGroupName(g);
  }
  // Both still meet GBW after compensation -- the methodology absorbs the
  // style change; the drain capacitance differs.
  const sizing::OtaSpecs specs;
  EXPECT_NEAR(ri.result.measured.gbwHz, specs.gbw, specs.gbw * 0.05);
  EXPECT_NEAR(ra.result.measured.gbwHz, specs.gbw, specs.gbw * 0.05);
}

}  // namespace
}  // namespace lo::core
