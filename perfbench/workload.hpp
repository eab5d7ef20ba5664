// Seeded request generator for the synthesize-job benchmark.
//
// A workload is a stream of losynthd `synthesize` request lines.  Point i
// of a stream is a pure function of (seed, i), so the same seed always
// yields byte-identical lines whatever order the client threads consume
// them in.  Every field is stratified so that a run's cost mix barely
// depends on the seed: the topology alternates, the sizing case cycles
// 1..4 within each topology, and each block of kStrata points of one
// topology is a Latin hypercube over GBW, phase margin and load (every
// stratum of every range drawn once, uniformly within the stratum).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { kSweepCold, kSweepVerify, kServiceHot };

[[nodiscard]] const char* workloadName(Workload w);
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload workloadFromName(const std::string& name);

/// The stated spec ranges (closed intervals).
struct Range {
  double lo = 0.0;
  double hi = 0.0;
  [[nodiscard]] bool contains(double v) const { return lo <= v && v <= hi; }
};
inline constexpr Range kFoldedGbwHz{30e6, 80e6};
inline constexpr Range kTwoStageGbwHz{15e6, 40e6};
inline constexpr Range kPhaseMarginDeg{60.0, 70.0};
inline constexpr Range kCloadF{2e-12, 4e-12};

/// Points per Latin-hypercube block (and strata per spec range).
inline constexpr int kStrata = 8;

/// Size of the service_hot working set (the result cache holds 64).
inline constexpr int kHotSetSize = 96;

/// A seed never used while the benchmark was written, kept for validating
/// later performance claims on unseen inputs.
inline constexpr std::uint64_t kHeldOutSeed = 90210;

struct DesignPoint {
  std::string topology;  ///< "folded_cascode_ota" or "two_stage".
  int sizingCase = 4;    ///< 1..4.
  double gbwHz = 0.0;
  double phaseMarginDeg = 0.0;
  double cloadF = 0.0;
  bool postLayoutVerify = false;
};

/// Point `index` of the workload's stream.  service_hot draws its hot set
/// from the sweep_cold stream (indices 0..kHotSetSize-1).
[[nodiscard]] DesignPoint pointAt(Workload w, std::uint64_t seed, std::uint64_t index);

/// The synthesize request line for `point`.  `label` (empty = none) and
/// `trace` are the traced run's extras: a per-request id the scheduler's
/// pre-run hook can see, and the scheduler's own stage timings in the
/// response.  Neither enters the result-cache key.
[[nodiscard]] std::string requestLine(const DesignPoint& point,
                                      const std::string& label = {},
                                      bool trace = false);

/// The first `count` request lines of a stream.
[[nodiscard]] std::vector<std::string> requestLines(Workload w, std::uint64_t seed,
                                                    std::uint64_t count);

/// splitmix64 step: the benchmark's only source of randomness.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);
/// Uniform double in [0, 1) from the next splitmix64 output.
[[nodiscard]] double uniform01(std::uint64_t& state);

}  // namespace perfbench
