#include "service/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "service/serialize.hpp"

namespace lo::service {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

JobRequest fastJob(const std::string& label, double gbwMhz = 65.0) {
  JobRequest job;
  job.label = label;
  // Case 1 skips the parasitic loop: the cheapest real end-to-end run.
  job.options.sizingCase = core::SizingCase::kCase1;
  job.specs.gbw = gbwMhz * 1e6;
  return job;
}

/// A job that reaches the worker but fails instantly inside the engine
/// (unknown topology), so ordering / queue tests stay cheap.
JobRequest stubJob(const std::string& label, int priority = 0) {
  JobRequest job;
  job.label = label;
  job.options.topology = "no_such_topology";
  job.priority = priority;
  return job;
}

/// Lets a test hold the single worker inside a designated job while it
/// arranges the queue behind it.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  bool entered = false;

  void release() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void waitUntilEntered() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return entered; });
  }
  void enterAndWait() {
    std::unique_lock<std::mutex> lock(mutex);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
  }
};

void expectSameNumbers(const core::EngineResult& a, const core::EngineResult& b) {
  EXPECT_EQ(std::memcmp(&a.measured, &b.measured, sizeof(sizing::OtaPerformance)), 0);
  EXPECT_EQ(std::memcmp(&a.predicted, &b.predicted, sizeof(sizing::OtaPerformance)), 0);
  EXPECT_EQ(a.layoutCalls, b.layoutCalls);
}

TEST(SchedulerBatch, MatchesSerialEngineBitForBit) {
  std::vector<JobRequest> requests(2);
  requests[0].label = "ota";
  requests[1].label = "two_stage";
  requests[1].options.topology = core::kTwoStageTopologyName;
  requests[1].specs.gbw = 30e6;
  JobScheduler scheduler(kTech, SchedulerOptions{});
  const auto statuses = scheduler.runBatch(requests);

  ASSERT_EQ(statuses.size(), requests.size());
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    SCOPED_TRACE(statuses[i].label);
    ASSERT_EQ(statuses[i].state, JobState::kDone) << statuses[i].error;
    const tech::Technology jobTech = kTech.atCorner(requests[i].corner);
    const core::SynthesisEngine engine(jobTech, requests[i].options);
    expectSameNumbers(statuses[i].result, engine.run(requests[i].specs));
  }
}

/// Six folded-cascode points across corners and two two-stage points.
std::vector<JobRequest> mixedBatch() {
  std::vector<JobRequest> jobs;
  for (double gbwMhz : {40.0, 65.0}) {
    for (tech::ProcessCorner corner :
         {tech::ProcessCorner::kTypical, tech::ProcessCorner::kSlow,
          tech::ProcessCorner::kFast}) {
      JobRequest job;
      job.label = "ota_" + std::to_string(static_cast<int>(gbwMhz)) + "_" +
                  tech::cornerName(corner);
      job.specs.gbw = gbwMhz * 1e6;
      job.corner = corner;
      job.bypassCache = true;
      jobs.push_back(job);
    }
  }
  for (double gbwMhz : {20.0, 30.0}) {
    JobRequest job;
    job.label = "two_stage_" + std::to_string(static_cast<int>(gbwMhz));
    job.options.topology = core::kTwoStageTopologyName;
    job.specs.gbw = gbwMhz * 1e6;
    job.bypassCache = true;
    jobs.push_back(job);
  }
  return jobs;  // 8 jobs.
}

std::vector<JobStatus> runWithThreads(const std::vector<JobRequest>& jobs, int threads) {
  SchedulerOptions options;
  options.threads = threads;
  JobScheduler scheduler(kTech, options);
  return scheduler.runBatch(jobs);
}

TEST(SchedulerBatch, DeterministicAcrossThreadCounts) {
  const std::vector<JobRequest> jobs = mixedBatch();
  ASSERT_GE(jobs.size(), 8u);
  const auto serial = runWithThreads(jobs, 1);
  const auto threaded = runWithThreads(jobs, 4);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(threaded.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].label);
    EXPECT_EQ(serial[i].label, jobs[i].label);
    EXPECT_EQ(threaded[i].label, jobs[i].label);
    ASSERT_EQ(serial[i].state, JobState::kDone) << serial[i].error;
    ASSERT_EQ(threaded[i].state, JobState::kDone) << threaded[i].error;
    // Bit-for-bit: the performance records and convergence history must be
    // byte-identical regardless of scheduling.
    expectSameNumbers(serial[i].result, threaded[i].result);
    ASSERT_EQ(serial[i].result.iterations.size(), threaded[i].result.iterations.size());
    for (std::size_t k = 0; k < serial[i].result.iterations.size(); ++k) {
      const auto& a = serial[i].result.iterations[k];
      const auto& b = threaded[i].result.iterations[k];
      ASSERT_EQ(a.netCaps.size(), b.netCaps.size());
      for (std::size_t n = 0; n < a.netCaps.size(); ++n) {
        EXPECT_DOUBLE_EQ(a.netCaps[n], b.netCaps[n]);
      }
    }
  }
}

TEST(SchedulerBatch, BadJobReportsErrorWithoutAbortingBatch) {
  std::vector<JobRequest> jobs(2);
  jobs[0].label = "good";
  jobs[1].label = "bad";
  jobs[1].options.topology = "no_such_topology";
  const auto statuses = runWithThreads(jobs, 2);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].state, JobState::kDone) << statuses[0].error;
  EXPECT_EQ(statuses[1].state, JobState::kFailed);
  EXPECT_NE(statuses[1].error.find("no_such_topology"), std::string::npos);
}

TEST(SchedulerCache, DuplicateSubmissionsAreServedByteIdentically) {
  SchedulerOptions options;
  options.threads = 1;  // Sequential: later duplicates find the cache warm.
  JobScheduler scheduler(kTech, options);
  const auto statuses =
      scheduler.runBatch({fastJob("first"), fastJob("dup1"), fastJob("dup2")});

  ASSERT_EQ(statuses.size(), 3u);
  for (const JobStatus& status : statuses) {
    ASSERT_EQ(status.state, JobState::kDone) << status.error;
  }
  EXPECT_FALSE(statuses[0].cacheHit);
  EXPECT_TRUE(statuses[1].cacheHit);
  EXPECT_TRUE(statuses[2].cacheHit);

  // The Table-1-grade determinism claim: a cache hit is byte-identical to
  // the cold run, down to the serialised JSON.
  const std::string cold = toJson(statuses[0].result).dump();
  EXPECT_EQ(toJson(statuses[1].result).dump(), cold);
  EXPECT_EQ(toJson(statuses[2].result).dump(), cold);

  const CacheStats stats = scheduler.cacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.inserts, 1u);
}

TEST(SchedulerCache, BypassCacheForcesFreshRuns) {
  SchedulerOptions options;
  options.threads = 1;
  std::atomic<int> engineRuns{0};
  options.preRunHook = [&engineRuns](const JobRequest&, int) { ++engineRuns; };
  JobScheduler scheduler(kTech, options);
  JobRequest job = fastJob("nocache");
  job.bypassCache = true;
  const auto statuses = scheduler.runBatch({job, job});
  ASSERT_EQ(statuses[0].state, JobState::kDone);
  ASSERT_EQ(statuses[1].state, JobState::kDone);
  EXPECT_FALSE(statuses[1].cacheHit);
  EXPECT_EQ(engineRuns.load(), 2);
}

TEST(SchedulerCoalescing, ConcurrentDuplicatesRunTheEngineOnce) {
  Gate gate;
  std::atomic<int> engineRuns{0};
  SchedulerOptions options;
  options.threads = 4;
  options.preRunHook = [&](const JobRequest&, int) {
    ++engineRuns;
    gate.enterAndWait();  // Hold the leader until all duplicates queued up.
  };
  JobScheduler scheduler(kTech, options);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(scheduler.submit(fastJob("dup")));
  gate.waitUntilEntered();
  // Wait until the other three workers popped their jobs and parked as
  // waiters on the leader (parked jobs count as coalesced immediately).
  while (scheduler.metrics().coalesced < 3) std::this_thread::yield();
  gate.release();

  std::string leaderJson;
  int hits = 0;
  for (const std::uint64_t id : ids) {
    const JobStatus status = scheduler.wait(id);
    ASSERT_EQ(status.state, JobState::kDone) << status.error;
    const std::string json = toJson(status.result).dump();
    if (leaderJson.empty()) leaderJson = json;
    EXPECT_EQ(json, leaderJson);
    if (status.cacheHit) ++hits;
  }
  EXPECT_EQ(engineRuns.load(), 1);  // Single-flight: one real run.
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(scheduler.metrics().coalesced, 3u);
}

TEST(SchedulerPriority, HigherPriorityOvertakesFifo) {
  Gate gate;
  std::vector<std::string> runOrder;
  std::mutex orderMutex;
  SchedulerOptions options;
  options.threads = 1;
  options.preRunHook = [&](const JobRequest& request, int) {
    {
      const std::lock_guard<std::mutex> lock(orderMutex);
      runOrder.push_back(request.label);
    }
    if (request.label == "blocker") gate.enterAndWait();
  };
  JobScheduler scheduler(kTech, options);

  const std::uint64_t blocker = scheduler.submit(stubJob("blocker"));
  gate.waitUntilEntered();  // Worker is pinned; everything below stays queued.
  const std::uint64_t low = scheduler.submit(stubJob("low", 0));
  const std::uint64_t urgent = scheduler.submit(stubJob("urgent", 10));
  gate.release();

  (void)scheduler.wait(blocker);
  (void)scheduler.wait(low);
  (void)scheduler.wait(urgent);
  ASSERT_EQ(runOrder.size(), 3u);
  EXPECT_EQ(runOrder[0], "blocker");
  EXPECT_EQ(runOrder[1], "urgent");  // Priority 10 overtakes the earlier submit.
  EXPECT_EQ(runOrder[2], "low");
}

TEST(SchedulerCancel, QueuedJobDiesWithoutRunning) {
  Gate gate;
  std::atomic<int> engineRuns{0};
  SchedulerOptions options;
  options.threads = 1;
  options.preRunHook = [&](const JobRequest& request, int) {
    ++engineRuns;
    if (request.label == "blocker") gate.enterAndWait();
  };
  JobScheduler scheduler(kTech, options);

  const std::uint64_t blocker = scheduler.submit(stubJob("blocker"));
  gate.waitUntilEntered();
  const std::uint64_t victim = scheduler.submit(fastJob("victim"));
  EXPECT_TRUE(scheduler.cancel(victim));
  gate.release();

  (void)scheduler.wait(blocker);
  const JobStatus status = scheduler.wait(victim);
  EXPECT_EQ(status.state, JobState::kCancelled);
  EXPECT_EQ(status.attempts, 0);
  EXPECT_EQ(engineRuns.load(), 1);  // Only the blocker entered the engine.
  EXPECT_EQ(scheduler.metrics().cancelled, 1u);
}

TEST(SchedulerCancel, RunningJobAbortsAtTheNextEnginePoll) {
  Gate gate;
  SchedulerOptions options;
  options.threads = 1;
  options.preRunHook = [&](const JobRequest&, int) { gate.enterAndWait(); };
  JobScheduler scheduler(kTech, options);

  const std::uint64_t id = scheduler.submit(fastJob("victim"));
  gate.waitUntilEntered();           // The job is now running (pre-engine).
  EXPECT_TRUE(scheduler.cancel(id)); // Sets the flag the engine will poll.
  gate.release();

  const JobStatus status = scheduler.wait(id);
  EXPECT_EQ(status.state, JobState::kCancelled);
  EXPECT_FALSE(scheduler.cancel(id));  // Already terminal.
}

TEST(SchedulerDeadline, ExpiresBeforeRunning) {
  Gate gate;
  SchedulerOptions options;
  options.threads = 1;
  options.preRunHook = [&](const JobRequest& request, int) {
    if (request.label == "blocker") gate.enterAndWait();
  };
  JobScheduler scheduler(kTech, options);

  const std::uint64_t blocker = scheduler.submit(stubJob("blocker"));
  gate.waitUntilEntered();
  JobRequest doomed = fastJob("doomed");
  doomed.deadlineSeconds = 0.001;
  const std::uint64_t id = scheduler.submit(doomed);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.release();

  (void)scheduler.wait(blocker);
  const JobStatus status = scheduler.wait(id);
  EXPECT_EQ(status.state, JobState::kExpired);
  EXPECT_NE(status.error.find("deadline"), std::string::npos);
  EXPECT_EQ(scheduler.metrics().expired, 1u);
}

TEST(SchedulerRetry, TransientFailuresRetryUpToBudget) {
  SchedulerOptions options;
  options.threads = 1;
  options.preRunHook = [](const JobRequest& request, int attempt) {
    if (request.label == "flaky" && attempt <= 2) {
      throw TransientError("backend hiccup");
    }
  };
  JobScheduler scheduler(kTech, options);

  JobRequest flaky = fastJob("flaky");
  flaky.maxRetries = 2;
  const JobStatus ok = scheduler.wait(scheduler.submit(flaky));
  EXPECT_EQ(ok.state, JobState::kDone) << ok.error;
  EXPECT_EQ(ok.attempts, 3);  // Two transient failures, then success.
  EXPECT_EQ(scheduler.metrics().retries, 2u);

  JobRequest exhausted = fastJob("flaky", 40.0);  // Distinct cache key.
  exhausted.label = "flaky";
  exhausted.maxRetries = 1;
  const JobStatus failed = scheduler.wait(scheduler.submit(exhausted));
  EXPECT_EQ(failed.state, JobState::kFailed);
  EXPECT_NE(failed.error.find("retries exhausted"), std::string::npos);
}

TEST(SchedulerRetry, RetryCountIsSurfacedInTheStatus) {
  SchedulerOptions options;
  options.threads = 1;
  options.preRunHook = [](const JobRequest& request, int attempt) {
    if (request.label == "thrice" && attempt <= 3) {
      throw TransientError("injected fault: engine_transient");
    }
  };
  JobScheduler scheduler(kTech, options);

  JobRequest job = fastJob("thrice");
  job.maxRetries = 3;
  const JobStatus status = scheduler.wait(scheduler.submit(job));
  EXPECT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_EQ(status.attempts, 4);  // Three injected failures, then success.
  EXPECT_EQ(status.retries, 3);
  EXPECT_EQ(scheduler.metrics().retries, 3u);
}

TEST(SchedulerRetry, RetryBudgetIsClampedToTheSchedulerLimit) {
  SchedulerOptions options;
  options.threads = 1;
  options.maxRetryLimit = 2;
  std::atomic<int> attempts{0};
  options.preRunHook = [&attempts](const JobRequest&, int) {
    ++attempts;
    throw TransientError("always down");  // Never lets an attempt through.
  };
  JobScheduler scheduler(kTech, options);

  JobRequest hostile = fastJob("hostile");
  hostile.maxRetries = 1000000;  // A client cannot pin a worker forever.
  const JobStatus status = scheduler.wait(scheduler.submit(hostile));
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_EQ(status.retries, 2);
  EXPECT_EQ(attempts.load(), 3);  // 1 + the clamped retry budget.
}

TEST(SchedulerQueue, BoundedSubmissionRejectsOverflow) {
  Gate gate;
  SchedulerOptions options;
  options.threads = 1;
  options.maxQueueDepth = 1;
  options.preRunHook = [&](const JobRequest&, int) { gate.enterAndWait(); };
  JobScheduler scheduler(kTech, options);

  const std::uint64_t running = scheduler.submit(stubJob("running"));
  gate.waitUntilEntered();  // Popped: the queue itself is empty again.
  (void)scheduler.submit(stubJob("queued"));
  EXPECT_THROW((void)scheduler.submit(stubJob("overflow")), QueueFullError);
  gate.release();
  (void)scheduler.wait(running);
}

TEST(SchedulerAdmission, OverloadShedsLowestPriorityWork) {
  Gate gate;
  SchedulerOptions options;
  options.threads = 1;
  options.maxQueueDepth = 4;
  options.shedWatermark = 0.5;  // Shed depth: 2 of 4.
  options.preRunHook = [&](const JobRequest&, int) { gate.enterAndWait(); };
  JobScheduler scheduler(kTech, options);

  const std::uint64_t running = scheduler.submit(stubJob("running"));
  gate.waitUntilEntered();  // Popped: only the two below stay queued.
  const std::uint64_t keep = scheduler.submit(stubJob("keep", 1));
  const std::uint64_t victimId = scheduler.submit(stubJob("victim", 0));

  // At the watermark: higher-priority work displaces the lowest queued job.
  const std::uint64_t vip = scheduler.submit(stubJob("vip", 5));
  const JobStatus victim = scheduler.wait(victimId);
  EXPECT_EQ(victim.state, JobState::kShed);
  EXPECT_NE(victim.error.find("displaced"), std::string::npos);
  EXPECT_EQ(scheduler.metrics().shed, 1u);

  // Nothing strictly lower-priority remains to displace: the submission is
  // pushed back with a structured retry hint, catchable as the legacy
  // QueueFullError too.
  try {
    (void)scheduler.submit(stubJob("turned-away", 1));
    FAIL() << "expected OverloadedError";
  } catch (const OverloadedError& e) {
    EXPECT_EQ(e.queueDepth(), 2u);
    EXPECT_GE(e.retryAfterMs(), 100);
    EXPECT_LE(e.retryAfterMs(), 30000);
  }
  EXPECT_THROW((void)scheduler.submit(stubJob("legacy", 1)), QueueFullError);
  EXPECT_EQ(scheduler.metrics().overloadRejections, 2u);

  gate.release();
  (void)scheduler.wait(running);
  (void)scheduler.wait(keep);
  (void)scheduler.wait(vip);
}

TEST(SchedulerBreaker, OpensAfterConsecutiveFailuresThenReopensOnBadProbe) {
  SchedulerOptions options;
  options.threads = 1;
  options.breakerFailureThreshold = 2;
  options.breakerResetSeconds = 0.05;
  JobScheduler scheduler(kTech, options);

  (void)scheduler.wait(scheduler.submit(stubJob("f1")));
  (void)scheduler.wait(scheduler.submit(stubJob("f2")));
  // Two consecutive non-transient failures: the topology's breaker is open.
  try {
    (void)scheduler.submit(stubJob("rejected"));
    FAIL() << "expected CircuitOpenError";
  } catch (const CircuitOpenError& e) {
    EXPECT_EQ(e.topology(), "no_such_topology");
    EXPECT_GE(e.retryAfterMs(), 1);
  }
  EXPECT_EQ(scheduler.metrics().breakerOpens, 1u);
  EXPECT_EQ(scheduler.metrics().breakerRejections, 1u);
  // Healthy topologies are unaffected: breakers are per-topology.
  EXPECT_EQ(scheduler.wait(scheduler.submit(fastJob("healthy"))).state,
            JobState::kDone);

  // After the reset window one half-open probe gets through; its failure
  // slams the breaker shut again.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(scheduler.wait(scheduler.submit(stubJob("probe"))).state,
            JobState::kFailed);
  EXPECT_THROW((void)scheduler.submit(stubJob("still-open")), CircuitOpenError);
  EXPECT_EQ(scheduler.metrics().breakerOpens, 2u);
}

TEST(SchedulerBreaker, SuccessfulProbeClosesTheBreaker) {
  std::atomic<bool> poison{true};
  SchedulerOptions options;
  options.threads = 1;
  options.breakerFailureThreshold = 1;
  options.breakerResetSeconds = 0.05;
  options.preRunHook = [&](const JobRequest&, int) {
    if (poison.load()) throw std::runtime_error("injected engine failure");
  };
  JobScheduler scheduler(kTech, options);

  EXPECT_EQ(scheduler.wait(scheduler.submit(fastJob("poisoned"))).state,
            JobState::kFailed);
  EXPECT_THROW((void)scheduler.submit(fastJob("while-open", 66.0)),
               CircuitOpenError);

  poison.store(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(scheduler.wait(scheduler.submit(fastJob("probe", 67.0))).state,
            JobState::kDone);
  // The good probe closed the breaker: submissions flow freely again.
  EXPECT_EQ(scheduler.wait(scheduler.submit(fastJob("after", 68.0))).state,
            JobState::kDone);
}

TEST(SchedulerHealth, SnapshotCoversQueueBreakersAndJournal) {
  SchedulerOptions options;
  options.threads = 2;
  options.maxQueueDepth = 8;
  options.shedWatermark = 0.5;
  options.breakerFailureThreshold = 3;
  JobScheduler scheduler(kTech, options);
  (void)scheduler.wait(scheduler.submit(stubJob("fail")));

  const HealthSnapshot h = scheduler.health();
  EXPECT_EQ(h.queueLimit, 8u);
  EXPECT_EQ(h.shedDepth, 4u);
  EXPECT_EQ(h.workers, 2);
  EXPECT_EQ(h.queueDepth, 0u);
  EXPECT_FALSE(h.overloaded);
  EXPECT_FALSE(h.journal.enabled);  // No --journal: the section says so.
  ASSERT_EQ(h.breakers.size(), 1u);
  EXPECT_EQ(h.breakers[0].topology, "no_such_topology");
  EXPECT_EQ(h.breakers[0].state, "closed");
  EXPECT_EQ(h.breakers[0].consecutiveFailures, 1);
  EXPECT_EQ(h.breakers[0].opens, 0u);
}

TEST(SchedulerErrors, EngineFailureIsReportedNotThrown) {
  JobScheduler scheduler(kTech, SchedulerOptions{});
  const JobStatus status = scheduler.wait(scheduler.submit(stubJob("bad")));
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_NE(status.error.find("no_such_topology"), std::string::npos);
  EXPECT_EQ(scheduler.metrics().failed, 1u);
}

TEST(SchedulerErrors, UnknownIdsAreHandled) {
  JobScheduler scheduler(kTech, SchedulerOptions{});
  EXPECT_THROW((void)scheduler.wait(12345), std::invalid_argument);
  EXPECT_FALSE(scheduler.cancel(12345));
  EXPECT_FALSE(scheduler.status(12345).has_value());
}

TEST(SchedulerTrace, StagesAndTimingsAreRecorded) {
  SchedulerOptions options;
  options.threads = 1;
  JobScheduler scheduler(kTech, options);
  const JobStatus status = scheduler.wait(scheduler.submit(fastJob("traced")));
  ASSERT_EQ(status.state, JobState::kDone) << status.error;
  ASSERT_FALSE(status.trace.stages.empty());
  EXPECT_EQ(status.trace.stages.front().stage, "sizing");
  bool sawVerification = false;
  for (const StageTiming& st : status.trace.stages) {
    EXPECT_GE(st.seconds, 0.0);
    if (st.stage == "verification") sawVerification = true;
  }
  EXPECT_TRUE(sawVerification);
  EXPECT_GT(status.trace.runSeconds, 0.0);

  // A cache hit reports no engine stages.
  const JobStatus hit = scheduler.wait(scheduler.submit(fastJob("traced")));
  EXPECT_TRUE(hit.cacheHit);
  EXPECT_TRUE(hit.trace.stages.empty());

  const MetricsSnapshot metrics = scheduler.metrics();
  EXPECT_GT(metrics.stageSeconds.at("verification"), 0.0);
  EXPECT_EQ(metrics.stageCalls.at("generation"), 1u);
}

}  // namespace
}  // namespace lo::service
