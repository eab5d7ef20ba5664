// Per-layer measurements for the traced run, and the reference re-run the
// output checks use.
//
// Everything here calls a layer's public functions directly -- the
// simulator analyses on the verifier's own testbenches, device evaluation
// at their bias points, dense LU at their MNA size, the protocol's request
// parser, the cache key, the journal, the JSON writer -- and times the call
// from outside.  Nothing here is on the measured request path.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "service/json.hpp"
#include "tech/technology.hpp"

namespace perfbench {

/// Samples per layer metric; each is reported as its median.
using Samples = std::map<std::string, std::vector<double>>;

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// One job re-run directly on the engine with the reference solver in both
/// verification paths.  Keeps the technology, engine (which owns the device
/// model) and topology alive, so the extracted design stays measurable.
struct ReferenceRun {
  std::unique_ptr<lo::tech::Technology> tech;
  std::unique_ptr<lo::core::SynthesisEngine> engine;
  std::unique_ptr<lo::core::Topology> topology;
  lo::core::EngineResult result;
};

/// Parse `requestLine` with the protocol's own request parser and run it.
[[nodiscard]] ReferenceRun runReference(const std::string& requestLine,
                                        const lo::tech::Technology& base);

/// Compare a served result (the protocol's JSON "result" body) against a
/// reference run within the stated per-spec tolerances; returns "" when
/// they agree, otherwise the first mismatch.
[[nodiscard]] std::string compareToReference(const lo::service::Json& served,
                                             const lo::core::EngineResult& reference);

/// The per-spec tolerance table compareToReference() applies, for the docs
/// and the result: {spec name, absolute tolerance in the spec's unit}.  A
/// value also passes within a relative 1e-9.
[[nodiscard]] const std::map<std::string, double>& specTolerances();

/// sizing / verify / sim / device / linear measurements on one reference
/// run's extracted design, with VerifyOptions / VerificationOptions
/// defaults.
void measureDesign(ReferenceRun& run, std::uint64_t seed, Samples& out);

/// protocol / cache-key / JSON measurements over request lines and served
/// results.
void measureRequestPath(const std::vector<std::string>& lines,
                        const std::vector<lo::core::EngineResult>& results,
                        const lo::tech::Technology& base, Samples& out);

/// Durable JobJournal appends of the lines' jobs, replayed into a fresh
/// journal under `dir`.
void measureJournal(const std::vector<std::string>& lines, const std::string& dir,
                    Samples& out);

}  // namespace perfbench
