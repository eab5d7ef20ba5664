// SessionJournal: the explore-session write-ahead log -- what makes a
// long-running exploration survive the death of the process that was
// driving it.
//
// It reuses service::FramedLog, so the on-disk format is exactly the job
// journal's: checksummed frames, durable appends, torn-tail truncation to
// the last good frame boundary.  The record types are:
//
//   started   the full explore request (space + options, request-shaped
//             JSON) -- appended durably *before* the exploration launches,
//             so an acknowledged session is never lost;
//   progress  evaluated count, front size and a front digest -- appended
//             non-durably after each evaluation batch (cheap breadcrumbs
//             for health/stats, not needed for recovery);
//   finished  terminal verdict (ok/error) plus the final front digest --
//             appended durably when the session completes.
//
// Recovery leans on the explorer's core determinism property: a
// trajectory is a pure function of (space, options), and every evaluated
// point lives in the content-addressed result cache.  So "restoring" a
// session is simply re-running its started record -- all completed
// evaluations replay as cache hits (fast-forward), and the re-run front
// is byte-identical to what the dead process would have produced.  The
// progress/finished digests exist to *prove* that equality, not to seed
// state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/journal.hpp"

namespace lo::explore {

enum class SessionRecordType { kStarted, kProgress, kFinished };

[[nodiscard]] constexpr const char* sessionRecordTypeName(SessionRecordType t) {
  switch (t) {
    case SessionRecordType::kStarted: return "started";
    case SessionRecordType::kProgress: return "progress";
    case SessionRecordType::kFinished: return "finished";
  }
  return "?";
}

/// Inverse of sessionRecordTypeName; throws std::invalid_argument.
[[nodiscard]] SessionRecordType sessionRecordTypeFromName(const std::string& name);

struct SessionRecord {
  SessionRecordType type = SessionRecordType::kStarted;
  std::uint64_t id = 0;       ///< Manager exploration id; stable across restarts.
  service::Json request;      ///< The explore request (kStarted only).
  int evaluated = 0;          ///< Points evaluated so far (kProgress/kFinished).
  int frontSize = 0;          ///< Archive front size (kProgress/kFinished).
  std::uint64_t frontDigest = 0;  ///< FNV-1a over the front's point keys.
  bool ok = false;            ///< Terminal verdict (kFinished only).
  std::string error;          ///< Failure text when !ok (kFinished only).

  [[nodiscard]] service::Json toJson() const;
  [[nodiscard]] static SessionRecord fromJson(const service::Json& j);
};

/// Digest of the archive front for progress/finished records: FNV-1a over
/// the sorted point keys.  Two runs of the same (space, options) produce
/// the same digest -- the failover smoke's byte-identity check in hash form.
[[nodiscard]] std::uint64_t frontDigestOf(const std::vector<std::string>& frontKeys);

struct SessionJournalOptions {
  /// Directory holding the log (created if missing).  Must be non-empty;
  /// shares the job journal's directory in the daemon (explore.wal next to
  /// journal.wal).
  std::string dir;
  bool fsyncEachRecord = true;
};

/// What a replay found.  `pending` holds the started records with no
/// finished counterpart -- the sessions a dead process still owed results
/// for, each carrying the request needed to re-run it.
struct SessionReplay {
  std::vector<SessionRecord> records;
  std::vector<SessionRecord> pending;
  std::uint64_t finished = 0;
  std::uint64_t maxId = 0;
  bool tornTail = false;
  std::uint64_t truncatedBytes = 0;
};

class SessionJournal {
 public:
  explicit SessionJournal(SessionJournalOptions options);

  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;

  /// Read the log, truncating a torn tail, and return the digest.  Same
  /// contract as JobJournal::replay().
  [[nodiscard]] SessionReplay replay();

  /// Parse a session journal read-only (no truncation, no side effects).
  [[nodiscard]] static SessionReplay replayFile(const std::string& path);

  /// Append one record; durable appends fsync before returning.
  void append(const SessionRecord& record, bool durable = true);

  /// Rewrite the log to exactly `live` (the started records of sessions
  /// still running), dropping finished history.
  void compact(const std::vector<SessionRecord>& live);

  /// Test seam: drop every subsequent append, as if the process died now.
  void simulateCrash() { log_.freeze(); }

  [[nodiscard]] std::string logPath() const { return log_.path(); }
  [[nodiscard]] std::uint64_t recordsInLog() const { return log_.recordsInLog(); }
  [[nodiscard]] std::uint64_t appended() const { return log_.appended(); }
  [[nodiscard]] std::uint64_t compactions() const { return log_.compactions(); }

 private:
  service::FramedLog log_;
};

}  // namespace lo::explore
