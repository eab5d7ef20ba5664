// JobScheduler: the request-serving shell over SynthesisEngine.
//
// A bounded submission queue feeds a worker pool.  Every job runs in
// isolation: a private Technology shifted to the job's corner and a
// private MosModel inside its engine, so workers share no mutable engine
// state and a batch gives bit-identical results at any thread count.  On
// top of the plain pool the scheduler adds what a service needs:
//
//  * priorities -- higher runs first, FIFO within a priority class;
//  * per-job deadlines -- expired jobs are dropped before they run, and a
//    running job polls its deadline through EngineHooks::cancelRequested;
//  * cancellation -- queued jobs die immediately, running jobs abort at
//    the next engine cancellation poll;
//  * retry-on-transient-failure -- a TransientError re-runs the job in
//    place up to JobRequest::maxRetries times;
//  * the content-addressed ResultCache -- a popped job first consults the
//    cache, and identical jobs already running are *coalesced*: followers
//    park until the leader finishes and then share its result, so a
//    duplicate-heavy batch runs each distinct point exactly once;
//  * metrics + per-job traces (metrics.hpp) for the `stats` op and the
//    optional trace log.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "service/cache.hpp"
#include "service/journal.hpp"
#include "service/metrics.hpp"

namespace lo::service {

/// Thrown by backends for failures worth retrying (and by test hooks to
/// exercise the retry path); any other exception fails the job at once.
class TransientError : public std::runtime_error {
 public:
  explicit TransientError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown by submit() when the queue is at SchedulerOptions::maxQueueDepth.
class QueueFullError : public std::runtime_error {
 public:
  explicit QueueFullError(std::size_t depth)
      : std::runtime_error("job queue is full (" + std::to_string(depth) +
                           " jobs queued)"),
        depth_(depth) {}

  [[nodiscard]] std::size_t queueDepth() const { return depth_; }

 protected:
  QueueFullError(const std::string& what, std::size_t depth)
      : std::runtime_error(what), depth_(depth) {}

 private:
  std::size_t depth_ = 0;
};

/// The admission-control rejection: the queue is past its shed watermark
/// and the incoming job's priority cannot displace anything queued.
/// Carries a retry hint so clients back off instead of hammering; derives
/// from QueueFullError so callers catching the old error keep working.
class OverloadedError : public QueueFullError {
 public:
  OverloadedError(std::size_t depth, int retryAfterMs)
      : QueueFullError("scheduler overloaded (" + std::to_string(depth) +
                           " jobs queued); retry in " +
                           std::to_string(retryAfterMs) + " ms",
                       depth),
        retryAfterMs_(retryAfterMs) {}

  [[nodiscard]] int retryAfterMs() const { return retryAfterMs_; }

 private:
  int retryAfterMs_ = 0;
};

/// Thrown by submit() while a topology's circuit breaker is open: the
/// engine failed non-transiently N times in a row for this topology, so
/// new work is refused until the half-open probe succeeds.
class CircuitOpenError : public std::runtime_error {
 public:
  CircuitOpenError(const std::string& topology, int retryAfterMs)
      : std::runtime_error("circuit breaker open for topology \"" + topology +
                           "\"; retry in " + std::to_string(retryAfterMs) +
                           " ms"),
        topology_(topology),
        retryAfterMs_(retryAfterMs) {}

  [[nodiscard]] const std::string& topology() const { return topology_; }
  [[nodiscard]] int retryAfterMs() const { return retryAfterMs_; }

 private:
  std::string topology_;
  int retryAfterMs_ = 0;
};

enum class JobState {
  kQueued, kRunning, kDone, kFailed, kCancelled, kExpired,
  kShed,  ///< Displaced from the queue by admission control under overload.
};

[[nodiscard]] constexpr const char* jobStateName(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kExpired: return "expired";
    case JobState::kShed: return "shed";
  }
  return "?";
}

[[nodiscard]] constexpr bool isTerminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled || s == JobState::kExpired ||
         s == JobState::kShed;
}

struct JobRequest {
  std::string label;  ///< Free-form tag echoed into status and traces.
  core::EngineOptions options;
  sizing::OtaSpecs specs;
  tech::ProcessCorner corner = tech::ProcessCorner::kTypical;
  int priority = 0;            ///< Higher runs first; FIFO within a class.
  double deadlineSeconds = 0;  ///< From submission; 0 = no deadline.
  /// Re-runs after a TransientError.  Clamped at submit() to
  /// SchedulerOptions::maxRetryLimit, so a hostile or buggy client cannot
  /// pin a worker on a permanently-flaky job.
  int maxRetries = 0;
  bool bypassCache = false;    ///< Force a fresh engine run (still inserts).
};

/// Snapshot of one job, returned by status()/wait().
struct JobStatus {
  std::uint64_t id = 0;
  std::string label;
  JobState state = JobState::kQueued;
  /// Content-addressed result-cache key ("" for bypass-cache jobs); the
  /// protocol surfaces it so clients address results without re-deriving
  /// the canonical hash.
  std::string cacheKey;
  bool cacheHit = false;   ///< Served from the cache (or a coalesced leader).
  bool coalesced = false;  ///< Waited on an identical in-flight job.
  int attempts = 0;        ///< Engine runs performed (0 for pure hits).
  int retries = 0;         ///< Transient-failure re-runs (attempts - 1 when > 0).
  std::string error;       ///< Exception text for kFailed.
  bool recovered = false;  ///< Re-enqueued from the journal at boot.
  core::EngineResult result;  ///< Valid for kDone.
  JobTrace trace;
};

struct SchedulerOptions {
  int threads = 0;  ///< Worker cap; 0 picks hardware_concurrency().
  std::size_t maxQueueDepth = 256;
  /// Hard ceiling on JobRequest::maxRetries (requests asking for more are
  /// clamped), bounding the worker time one flaky job can consume.
  int maxRetryLimit = 8;
  CacheOptions cache;
  /// Write-ahead job journal (journal.hpp).  journal.dir empty = off; set,
  /// the scheduler replays the log at construction, re-enqueues unfinished
  /// jobs under their original ids, and compacts once they drain.
  JournalOptions journal;
  /// Admission control: fraction of maxQueueDepth past which new work must
  /// displace a strictly-lower-priority queued job or be rejected with
  /// OverloadedError.  1.0 = shed only at the hard limit (legacy behaviour).
  double shedWatermark = 1.0;
  /// Per-topology circuit breaker: open after this many *consecutive*
  /// non-transient engine failures for one topology.  0 = disabled.
  int breakerFailureThreshold = 0;
  /// Seconds an open breaker waits before letting one half-open probe
  /// through.
  double breakerResetSeconds = 30.0;
  /// Append one JSON line per finished job to this path (empty = off).
  std::string traceLogPath;
  /// Test seam: runs before every engine attempt (outside the scheduler
  /// lock); may throw TransientError to exercise the retry path.
  std::function<void(const JobRequest&, int attempt)> preRunHook;
};

/// One topology's circuit-breaker state, for health().
struct BreakerSnapshot {
  std::string topology;
  std::string state;  ///< "closed" / "open" / "half_open".
  int consecutiveFailures = 0;
  std::uint64_t opens = 0;
  std::uint64_t rejections = 0;
};

/// Liveness/durability summary served by the `health` protocol op.
struct HealthSnapshot {
  std::size_t queueDepth = 0;
  std::size_t queueLimit = 0;
  std::size_t shedDepth = 0;  ///< Watermark in jobs; >= here sheds/rejects.
  std::size_t running = 0;
  int workers = 0;
  bool overloaded = false;  ///< queueDepth >= shedDepth right now.
  std::vector<BreakerSnapshot> breakers;
  struct Journal {
    bool enabled = false;
    std::uint64_t recordsInLog = 0;  ///< Frames since the last compaction.
    std::uint64_t liveJobs = 0;      ///< Non-terminal jobs in the scheduler.
    std::uint64_t lag = 0;           ///< recordsInLog - liveJobs: compaction debt.
    std::uint64_t replayedRecords = 0;  ///< Frames read at boot.
    std::uint64_t recoveredJobs = 0;    ///< Unfinished jobs re-enqueued at boot.
    std::uint64_t recoveredRemaining = 0;  ///< Recovered jobs not yet terminal.
    std::uint64_t compactions = 0;
    bool tornTailRecovered = false;  ///< Boot replay truncated a torn frame.
  } journal;
};

class JobScheduler {
 public:
  explicit JobScheduler(tech::Technology baseTech, SchedulerOptions options = {});
  /// Cancels queued jobs and joins the workers.  With a journal attached,
  /// acknowledged-but-unfinished jobs stay live in the log (compacted to
  /// exactly that set), so the next boot recovers them.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueue a job; throws QueueFullError at maxQueueDepth.
  std::uint64_t submit(JobRequest request);

  /// Block until the job reaches a terminal state.
  [[nodiscard]] JobStatus wait(std::uint64_t id) const;

  /// Non-blocking snapshot; nullopt for an unknown id.
  [[nodiscard]] std::optional<JobStatus> status(std::uint64_t id) const;

  /// Request cancellation.  Queued and parked jobs finish as kCancelled
  /// immediately; a running job aborts at its next cancellation poll.
  /// Returns false when the job is unknown or already terminal.
  bool cancel(std::uint64_t id);

  /// The batch path: submit everything, wait for everything, return
  /// statuses in request order.  A job whose engine run throws ends
  /// kFailed with the exception text; the rest of the batch still runs.
  [[nodiscard]] std::vector<JobStatus> runBatch(const std::vector<JobRequest>& requests);

  /// The cache key submit() would assign to `request` ("" when it bypasses
  /// the cache): ResultCache::keyFor against this scheduler's technology.
  [[nodiscard]] std::string cacheKeyFor(const JobRequest& request) const;

  [[nodiscard]] MetricsSnapshot metrics() const { return metrics_.snapshot(); }
  [[nodiscard]] CacheStats cacheStats() const { return cache_.stats(); }
  [[nodiscard]] ResultCache& cache() { return cache_; }
  [[nodiscard]] std::size_t queueDepth() const;
  [[nodiscard]] std::size_t runningCount() const;
  [[nodiscard]] int workerCount() const { return static_cast<int>(workers_.size()); }
  [[nodiscard]] const tech::Technology& baseTechnology() const { return baseTech_; }

  /// Queue, breaker and journal liveness, for the `health` protocol op.
  [[nodiscard]] HealthSnapshot health() const;
  /// The write-ahead journal, or nullptr when journalling is off.  Exposed
  /// for the fault-injection seams (testkit) and tests.
  [[nodiscard]] JobJournal* journal() { return journal_.get(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct JobRecord {
    std::uint64_t id = 0;
    JobRequest request;
    std::string cacheKey;
    JobState state = JobState::kQueued;
    bool cacheHit = false;
    bool coalesced = false;
    bool cancelRequested = false;  ///< Guarded by mutex_; polled via hooks.
    int attempts = 0;
    int retries = 0;
    std::string error;
    core::EngineResult result;
    JobTrace trace;
    Clock::time_point submitted;
    Clock::time_point deadline;  ///< == time_point() when none.
    bool hasDeadline = false;
    bool recovered = false;        ///< Re-enqueued from the journal at boot.
    bool transientFailure = false;  ///< kFailed caused by a TransientError.
    bool breakerProbe = false;      ///< The half-open probe for its topology.
    /// Shutdown interrupted this acknowledged job before it finished: its
    /// terminal record is withheld from the journal and the destructor
    /// compacts it back in as a live submission, so the next boot
    /// recovers it (only honoured when it ends kCancelled).
    bool preserveInJournal = false;
  };
  using RecordPtr = std::shared_ptr<JobRecord>;

  /// Per-topology circuit breaker (guarded by mutex_).
  struct Breaker {
    enum class State { kClosed, kOpen, kHalfOpen };
    State state = State::kClosed;
    int consecutiveFailures = 0;
    Clock::time_point openedAt;
    bool probeInFlight = false;
    std::uint64_t opens = 0;
    std::uint64_t rejections = 0;
  };

  void workerLoop();
  void runJob(const RecordPtr& rec, std::unique_lock<std::mutex>& lock);
  /// Terminal transition; notifies waiters, updates metrics, logs a trace.
  void finishLocked(const RecordPtr& rec, JobState state, const std::string& error);
  void completeWaitersLocked(const std::string& key, const core::EngineResult& result);
  void requeueWaitersLocked(const std::string& key);
  [[nodiscard]] JobStatus snapshotLocked(const JobRecord& rec) const;
  [[nodiscard]] bool deadlinePassed(const JobRecord& rec) const {
    return rec.hasDeadline && Clock::now() >= rec.deadline;
  }

  /// Admission control for submit().  Throws CircuitOpenError /
  /// OverloadedError; on success returns the queued job the submission
  /// must displace (nullptr when the queue has room).  The caller sheds
  /// the victim only after the incoming job is journalled, so a failed
  /// append never destroys queued work for an admission that never
  /// happened.
  [[nodiscard]] RecordPtr admitLocked(const JobRequest& request, JobRecord& rec);
  /// The lowest-priority queued job strictly below `priority`, or nullptr
  /// when nothing can be displaced.
  [[nodiscard]] RecordPtr findShedVictimLocked(int priority) const;
  /// Terminally finish `victim` as kShed, displaced by `priority` work.
  void shedVictimLocked(const RecordPtr& victim, int priority);
  /// Return rec's half-open probe slot to its breaker, if it holds one.
  void releaseProbeLocked(JobRecord& rec);
  [[nodiscard]] std::size_t shedDepthLocked() const;
  [[nodiscard]] int retryAfterMsLocked() const;
  /// Breaker bookkeeping on a terminal transition.
  void breakerOnFinishLocked(const RecordPtr& rec, JobState state);
  /// Re-enqueue unfinished journalled jobs; runs in the constructor before
  /// the workers start.
  void replayJournal();
  void appendJournalLocked(JournalRecordType type, const JobRecord& rec);
  /// Rewrite the journal down to the live (non-terminal) job set.
  void compactJournalLocked();

  tech::Technology baseTech_;
  std::string techPrint_;
  SchedulerOptions options_;
  ResultCache cache_;
  ServiceMetrics metrics_;
  std::unique_ptr<JobJournal> journal_;

  mutable std::mutex mutex_;
  mutable std::condition_variable workCv_;   ///< Queue -> workers.
  mutable std::condition_variable doneCv_;   ///< Terminal transitions -> wait().
  std::map<std::uint64_t, RecordPtr> jobs_;
  /// Ready queue: (-priority, id) so begin() is highest priority, FIFO.
  std::set<std::pair<int, std::uint64_t>> ready_;
  std::unordered_map<std::string, std::uint64_t> inflight_;  ///< key -> leader.
  std::unordered_map<std::string, std::vector<std::uint64_t>> waiters_;
  std::size_t queued_ = 0;   ///< ready_ plus parked waiters.
  std::size_t running_ = 0;
  std::uint64_t nextId_ = 1;
  bool stopping_ = false;

  std::map<std::string, Breaker> breakers_;  ///< Keyed by topology.

  // Journal recovery bookkeeping (guarded by mutex_ after construction).
  std::uint64_t replayedRecords_ = 0;
  std::uint64_t recoveredJobs_ = 0;
  std::uint64_t recoveredRemaining_ = 0;
  bool tornTailRecovered_ = false;

  std::ofstream traceLog_;
  std::mutex traceMutex_;

  std::vector<std::thread> workers_;
};

}  // namespace lo::service
