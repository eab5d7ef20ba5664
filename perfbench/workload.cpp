#include "workload.hpp"

#include <stdexcept>
#include <utility>

#include "core/topology.hpp"
#include "service/json.hpp"

namespace perfbench {

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::kSweepCold: return "sweep_cold";
    case Workload::kSweepVerify: return "sweep_verify";
    case Workload::kServiceHot: return "service_hot";
  }
  return "?";
}

Workload workloadFromName(const std::string& name) {
  for (const Workload w :
       {Workload::kSweepCold, Workload::kSweepVerify, Workload::kServiceHot}) {
    if (name == workloadName(w)) return w;
  }
  throw std::invalid_argument("unknown workload \"" + name +
                              "\" (sweep_cold, sweep_verify, service_hot)");
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

namespace {

/// Stratum of `slot` in a seeded permutation of 0..kStrata-1, one
/// permutation per (seed, topology, block, dimension).
int stratumOf(std::uint64_t seed, std::uint64_t topology, std::uint64_t block, int dim,
              std::uint64_t slot) {
  std::uint64_t state = seed;
  state = splitmix64(state) ^ (topology << 56) ^ (block * 0x9fb21c651e98df25ULL) ^
          (static_cast<std::uint64_t>(dim) << 48);
  int perm[kStrata];
  for (int i = 0; i < kStrata; ++i) perm[i] = i;
  for (int i = kStrata - 1; i > 0; --i) {
    const auto j = static_cast<int>(splitmix64(state) % static_cast<std::uint64_t>(i + 1));
    std::swap(perm[i], perm[j]);
  }
  return perm[slot];
}

}  // namespace

DesignPoint pointAt(Workload w, std::uint64_t seed, std::uint64_t index) {
  // One independent generator per (seed, index): mix both through
  // splitmix64 so neighbouring seeds do not share streams.
  std::uint64_t state = seed;
  state = splitmix64(state) ^ (index * 0xd1b54a32d192ed03ULL);

  const std::uint64_t topology = index % 2;
  const std::uint64_t j = index / 2;  // Position in this topology's stream.
  const std::uint64_t block = j / kStrata;
  const std::uint64_t slot = j % kStrata;
  // Latin-hypercube draw: within a block, each spec takes every stratum of
  // its range exactly once, so a run's cost mix barely depends on the seed.
  const auto draw = [&](Range r, int dim) {
    const double u = (stratumOf(seed, topology, block, dim, slot) + uniform01(state)) / kStrata;
    return r.lo + (r.hi - r.lo) * u;
  };

  DesignPoint p;
  p.topology = topology == 0 ? lo::core::kFoldedCascodeOtaTopologyName
                             : lo::core::kTwoStageTopologyName;
  p.gbwHz = draw(topology == 0 ? kFoldedGbwHz : kTwoStageGbwHz, 0);
  p.phaseMarginDeg = draw(kPhaseMarginDeg, 1);
  p.cloadF = draw(kCloadF, 2);
  if (w == Workload::kSweepVerify) {
    p.sizingCase = 4;
    p.postLayoutVerify = true;
  } else {
    p.sizingCase = static_cast<int>(j % 4) + 1;
  }
  return p;
}

std::string requestLine(const DesignPoint& point, const std::string& label,
                        bool trace) {
  using lo::service::Json;
  Json spec = Json::object();
  spec.set("gbw", point.gbwHz);
  spec.set("phase_margin_deg", point.phaseMarginDeg);
  spec.set("cload", point.cloadF);
  Json req = Json::object();
  req.set("op", "synthesize");
  req.set("topology", point.topology);
  req.set("case", point.sizingCase);
  req.set("spec", std::move(spec));
  if (point.postLayoutVerify) req.set("post_layout_verify", true);
  if (!label.empty()) req.set("label", label);
  if (trace) req.set("trace", true);
  return req.dump();
}

std::vector<std::string> requestLines(Workload w, std::uint64_t seed,
                                      std::uint64_t count) {
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) lines.push_back(requestLine(pointAt(w, seed, i)));
  return lines;
}

}  // namespace perfbench
