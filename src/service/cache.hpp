// Content-addressed result cache for synthesis jobs.
//
// A job's identity is the canonical text of everything that influences its
// numbers -- topology name, sizing case, model, engine knobs, verify
// options, every spec field, process corner and a fingerprint of the full
// technology description -- hashed with 64-bit FNV-1a.  Anything that does
// not change the result (hooks, labels, priorities, deadlines) is
// deliberately excluded, so a re-submitted sweep point is a hit no matter
// how it is scheduled.
//
// Canonicalisation notes:
//  * fields are emitted in one fixed order, so construction order of the
//    caller's structs cannot matter;
//  * doubles are formatted with the exact-round-trip formatter
//    (Json::formatNumber), so 65e6 and 6.5e7 -- the same IEEE value --
//    produce the same key, while genuinely different values never collide
//    on formatting;
//  * a schema version is baked into the text so a layout change of the
//    cached record invalidates old disk entries instead of misparsing.
//
// Storage is a mutex-guarded in-memory LRU plus an optional on-disk JSON
// store (one file per key) for cross-process reuse: a miss falls through
// to disk before counting as a real miss, and every insert is written
// through.  The store is safe to share between daemons started on one
// --cache-dir: staging files are pid/counter-uniquified before the
// fsync+rename, so concurrent writers of the same key can never
// interleave into one file, and the atomic rename means readers only ever
// see complete entries whichever writer publishes last.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/engine.hpp"

namespace lo::service {

struct CacheStats {
  std::uint64_t hits = 0;        ///< Served from memory or disk.
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;   ///< LRU evictions from memory.
  std::uint64_t diskHits = 0;    ///< Subset of hits that came from disk.
  std::uint64_t diskWrites = 0;
  /// On-disk entries that failed to parse during lookup and were treated
  /// as misses (corrupt / truncated / stale-schema files).
  std::uint64_t diskCorrupt = 0;
  /// Store writes that failed (I/O error or an injected fault).
  std::uint64_t diskWriteFailures = 0;
};

struct CacheOptions {
  std::size_t capacity = 256;  ///< In-memory entries before LRU eviction.
  /// Directory for the write-through JSON store; empty disables disk.
  std::string diskDir;
  /// Test seam (testkit fault plans): consulted once per attempted disk
  /// store write with the entry's key.  Returning true makes the write
  /// fail the way a crashed writer would -- a truncated file lands at the
  /// final path without the atomic tmp-rename -- so the corrupt-entry
  /// tolerance of lookup() is exercised deterministically.
  std::function<bool(const std::string& key)> diskWriteFault;

  /// XDG-style default store location: $LOS_CACHE_DIR, else
  /// $XDG_CACHE_HOME/lo_service, else $HOME/.cache/lo_service, else
  /// ".lo_service_cache" when no environment is available.
  [[nodiscard]] static std::string defaultDiskDir();
};

class ResultCache {
 public:
  explicit ResultCache(CacheOptions options = {});

  /// 64-bit FNV-1a over `text`.
  [[nodiscard]] static std::uint64_t fnv1a(std::string_view text);

  /// Fingerprint of a full technology description (hash of its
  /// round-trippable text form), as fixed-width hex.
  [[nodiscard]] static std::string techFingerprint(const tech::Technology& t);

  /// The canonical pre-hash text for a job (exposed for tests; keys are
  /// its hash).  `techPrint` is techFingerprint() of the *base*
  /// technology; the corner is part of the text itself.
  [[nodiscard]] static std::string canonicalText(const core::EngineOptions& options,
                                                 const sizing::OtaSpecs& specs,
                                                 tech::ProcessCorner corner,
                                                 const std::string& techPrint);

  /// Content-addressed key (fixed-width hex of the canonical text's hash).
  [[nodiscard]] static std::string keyFor(const core::EngineOptions& options,
                                          const sizing::OtaSpecs& specs,
                                          tech::ProcessCorner corner,
                                          const std::string& techPrint);

  /// Look up a key, refreshing its LRU position; falls through to the disk
  /// store when configured.  std::nullopt counts one miss.
  [[nodiscard]] std::optional<core::EngineResult> lookup(const std::string& key);

  /// Insert (or refresh) a result; writes through to disk when configured.
  void insert(const std::string& key, const core::EngineResult& result);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  void clear();  ///< Drops the memory tier only; disk entries survive.

  [[nodiscard]] const CacheOptions& options() const { return options_; }

 private:
  using LruList = std::list<std::pair<std::string, core::EngineResult>>;

  void insertLocked(const std::string& key, const core::EngineResult& result);

  CacheOptions options_;
  mutable std::mutex mutex_;
  LruList lru_;  ///< Front = most recently used.
  std::unordered_map<std::string, LruList::iterator> index_;
  CacheStats stats_;
};

}  // namespace lo::service
