// The benchmark's own tests: the request generator is deterministic per
// seed, stays inside the stated spec ranges, is stratified as documented,
// and never repeats a sweep point within a run.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "service/json.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using lo::service::Json;

constexpr Workload kAll[] = {Workload::kSweepCold, Workload::kSweepVerify,
                             Workload::kServiceHot};

TEST(PerfbenchWorkload, SameSeedGivesIdenticalLines) {
  for (const Workload w : kAll) {
    EXPECT_EQ(requestLines(w, 42, 500), requestLines(w, 42, 500)) << workloadName(w);
    EXPECT_NE(requestLines(w, 42, 50), requestLines(w, 43, 50)) << workloadName(w);
  }
}

TEST(PerfbenchWorkload, PointsStayInsideStatedRanges) {
  for (const Workload w : kAll) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
      int folded = 0;
      int cases[5] = {};
      for (std::uint64_t i = 0; i < 2000; ++i) {
        const DesignPoint p = pointAt(w, seed, i);
        const bool isFolded = p.topology == "folded_cascode_ota";
        ASSERT_TRUE(isFolded || p.topology == "two_stage") << p.topology;
        folded += isFolded ? 1 : 0;
        EXPECT_TRUE((isFolded ? kFoldedGbwHz : kTwoStageGbwHz).contains(p.gbwHz)) << p.gbwHz;
        EXPECT_TRUE(kPhaseMarginDeg.contains(p.phaseMarginDeg)) << p.phaseMarginDeg;
        EXPECT_TRUE(kCloadF.contains(p.cloadF)) << p.cloadF;
        ASSERT_GE(p.sizingCase, 1);
        ASSERT_LE(p.sizingCase, 4);
        ++cases[p.sizingCase];
        EXPECT_EQ(p.postLayoutVerify, w == Workload::kSweepVerify);
        if (w == Workload::kSweepVerify) {
          EXPECT_EQ(p.sizingCase, 4);
        }

        // The line carries exactly these values to the service.
        const Json line = Json::parse(requestLine(p));
        EXPECT_EQ(line.at("op").asString(), "synthesize");
        EXPECT_EQ(line.at("topology").asString(), p.topology);
        EXPECT_EQ(line.at("case").asInt(), p.sizingCase);
        EXPECT_EQ(line.at("spec").at("gbw").asDouble(), p.gbwHz);
        EXPECT_EQ(line.at("spec").at("phase_margin_deg").asDouble(), p.phaseMarginDeg);
        EXPECT_EQ(line.at("spec").at("cload").asDouble(), p.cloadF);
      }
      EXPECT_EQ(folded, 1000);  // 50/50 topologies in every even prefix.
      if (w != Workload::kSweepVerify) {
        for (int c = 1; c <= 4; ++c) EXPECT_EQ(cases[c], 500);  // Uniform cases.
      }
    }
  }
}

TEST(PerfbenchWorkload, SweepPointsAreDistinctWithinARun) {
  for (const Workload w : {Workload::kSweepCold, Workload::kSweepVerify}) {
    const std::vector<std::string> lines = requestLines(w, 5, 20000);
    EXPECT_EQ(std::set<std::string>(lines.begin(), lines.end()).size(), lines.size());
  }
  // The service_hot working set is kHotSetSize distinct points.
  const std::vector<std::string> hot = requestLines(Workload::kServiceHot, 5, kHotSetSize);
  EXPECT_EQ(std::set<std::string>(hot.begin(), hot.end()).size(), hot.size());
}

TEST(PerfbenchWorkload, EachBlockIsALatinHypercube) {
  // Within every block of kStrata same-topology points, each spec range is
  // hit once in each of its kStrata strata.
  const auto stratum = [](Range r, double v) {
    return std::min(kStrata - 1, static_cast<int>((v - r.lo) / (r.hi - r.lo) * kStrata));
  };
  for (std::uint64_t topology = 0; topology < 2; ++topology) {
    for (std::uint64_t block = 0; block < 20; ++block) {
      std::set<int> gbw, pm, cload;
      for (std::uint64_t slot = 0; slot < kStrata; ++slot) {
        const DesignPoint p =
            pointAt(Workload::kSweepCold, 11, 2 * (block * kStrata + slot) + topology);
        gbw.insert(stratum(topology == 0 ? kFoldedGbwHz : kTwoStageGbwHz, p.gbwHz));
        pm.insert(stratum(kPhaseMarginDeg, p.phaseMarginDeg));
        cload.insert(stratum(kCloadF, p.cloadF));
      }
      EXPECT_EQ(gbw.size(), static_cast<std::size_t>(kStrata));
      EXPECT_EQ(pm.size(), static_cast<std::size_t>(kStrata));
      EXPECT_EQ(cload.size(), static_cast<std::size_t>(kStrata));
    }
  }
}

TEST(PerfbenchWorkload, TraceExtrasDoNotChangeThePoint) {
  const DesignPoint p = pointAt(Workload::kSweepCold, 3, 11);
  const Json plain = Json::parse(requestLine(p));
  const Json traced = Json::parse(requestLine(p, "r7", true));
  EXPECT_EQ(traced.at("label").asString(), "r7");
  EXPECT_TRUE(traced.at("trace").asBool());
  EXPECT_EQ(traced.at("spec").dump(), plain.at("spec").dump());
  EXPECT_EQ(traced.at("case").dump(), plain.at("case").dump());
}

}  // namespace
}  // namespace perfbench
