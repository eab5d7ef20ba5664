// Crash-safety tests for the write-ahead job journal and the scheduler's
// restart recovery: replay idempotence, torn-tail tolerance, finished-job
// replay served from the cache without an engine run, and the
// kill-mid-batch -> restart -> all-jobs-accounted-for contract.
#include "service/journal.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/scheduler.hpp"
#include "service/serialize.hpp"

namespace lo::service {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

/// A fresh scratch directory per test, removed when the test ends.
/// Declare it before anything that keeps files open inside it.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("lo_journal_test_" + name + "_" + std::to_string(::getpid())))
                  .string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

JournalOptions dirOptions(const std::string& dir) {
  JournalOptions options;
  options.dir = dir;
  return options;
}

JobRequest fastJob(const std::string& label, double gbwMhz = 65.0) {
  JobRequest job;
  job.label = label;
  // Case 1 skips the parasitic loop: the cheapest real end-to-end run.
  job.options.sizingCase = core::SizingCase::kCase1;
  job.specs.gbw = gbwMhz * 1e6;
  return job;
}

JournalRecord submittedRecord(std::uint64_t id, const std::string& label) {
  JournalRecord rec;
  rec.type = JournalRecordType::kSubmitted;
  rec.id = id;
  rec.cacheKey = "key" + std::to_string(id);
  rec.job = toJson(fastJob(label));
  return rec;
}

JournalRecord finishedRecord(std::uint64_t id, const std::string& state) {
  JournalRecord rec;
  rec.type = JournalRecordType::kFinished;
  rec.id = id;
  rec.state = state;
  return rec;
}

TEST(JobJournal, RoundTripsRecordsAndDigestsPending) {
  const ScratchDir scratch("roundtrip");
  const std::string& dir = scratch.path();
  {
    JobJournal journal(dirOptions(dir));
    (void)journal.replay();
    journal.append(submittedRecord(1, "a"));
    journal.append(submittedRecord(2, "b"));
    JournalRecord started;
    started.type = JournalRecordType::kStarted;
    started.id = 1;
    started.attempt = 1;
    journal.append(started);
    journal.append(finishedRecord(1, "done"));
    EXPECT_EQ(journal.appended(), 4u);
  }

  JobJournal journal(dirOptions(dir));
  const JournalReplay replay = journal.replay();
  EXPECT_EQ(replay.records.size(), 4u);
  EXPECT_FALSE(replay.tornTail);
  EXPECT_EQ(replay.finished, 1u);
  EXPECT_EQ(replay.maxId, 2u);
  ASSERT_EQ(replay.pending.size(), 1u);
  EXPECT_EQ(replay.pending[0].id, 2u);
  EXPECT_EQ(replay.pending[0].cacheKey, "key2");
  // The serialised request survives the round trip.
  const JobRequest restored = jobRequestFromJson(replay.pending[0].job);
  EXPECT_EQ(restored.label, "b");
  EXPECT_EQ(restored.options.sizingCase, core::SizingCase::kCase1);
}

TEST(JobJournal, DoubleReplayIsIdempotent) {
  const ScratchDir scratch("idempotent");
  const std::string& dir = scratch.path();
  JobJournal journal(dirOptions(dir));
  (void)journal.replay();
  journal.append(submittedRecord(1, "a"));
  journal.append(submittedRecord(2, "b"));
  journal.append(finishedRecord(2, "failed"));

  const JournalReplay first = journal.replay();
  const JournalReplay second = journal.replay();
  EXPECT_EQ(first.records.size(), second.records.size());
  ASSERT_EQ(first.pending.size(), second.pending.size());
  ASSERT_EQ(first.pending.size(), 1u);
  EXPECT_EQ(first.pending[0].id, second.pending[0].id);
  EXPECT_EQ(first.maxId, second.maxId);
  EXPECT_EQ(first.pending[0].job.dump(), second.pending[0].job.dump());
}

TEST(JobJournal, ToleratesAndTruncatesTornFinalRecord) {
  const ScratchDir scratch("torn");
  const std::string& dir = scratch.path();
  {
    JobJournal journal(dirOptions(dir));
    (void)journal.replay();
    journal.append(submittedRecord(1, "a"));
    journal.append(submittedRecord(2, "b"));
  }
  // Tear the tail: drop the final 5 bytes, as a SIGKILL mid-append would.
  const std::string path =
      (std::filesystem::path(dir) / "journal.wal").string();
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);

  JobJournal journal(dirOptions(dir));
  const JournalReplay replay = journal.replay();
  EXPECT_TRUE(replay.tornTail);
  EXPECT_GT(replay.truncatedBytes, 0u);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].id, 1u);

  // After truncation the log is clean: appends land on a frame boundary
  // and a second replay sees no tear.
  journal.append(submittedRecord(3, "c"));
  const JournalReplay again = journal.replay();
  EXPECT_FALSE(again.tornTail);
  EXPECT_EQ(again.records.size(), 2u);
  EXPECT_EQ(again.pending.size(), 2u);
}

TEST(JobJournal, TornWriteFaultLeavesReplayableLog) {
  const ScratchDir scratch("torn_fault");
  const std::string& dir = scratch.path();
  std::atomic<int> appends{0};
  JournalOptions options = dirOptions(dir);
  // The third append tears mid-frame and freezes the journal.
  options.tornWriteFault = [&appends] { return ++appends == 3; };
  {
    JobJournal journal(options);
    (void)journal.replay();
    journal.append(submittedRecord(1, "a"));
    journal.append(submittedRecord(2, "b"));
    journal.append(finishedRecord(1, "done"));  // Torn.
    EXPECT_TRUE(journal.frozen());
    journal.append(finishedRecord(2, "done"));  // Silently dropped.
    EXPECT_EQ(journal.appended(), 2u);
  }

  JobJournal journal(dirOptions(dir));
  const JournalReplay replay = journal.replay();
  EXPECT_TRUE(replay.tornTail);
  EXPECT_EQ(replay.records.size(), 2u);
  // Neither job has a surviving terminal record: both replay as pending.
  EXPECT_EQ(replay.pending.size(), 2u);
}

TEST(JobJournal, AppendFailureTruncatesBackToGoodBoundary) {
  const ScratchDir scratch("short_write");
  const std::string& dir = scratch.path();
  std::atomic<int> appends{0};
  JournalOptions options = dirOptions(dir);
  // The second append suffers a transient short write (half a frame lands,
  // as an ENOSPC would leave).
  options.shortWriteFault = [&appends] { return ++appends == 2; };
  JobJournal journal(options);
  (void)journal.replay();
  journal.append(submittedRecord(1, "a"));
  EXPECT_THROW(journal.append(submittedRecord(2, "b")), std::runtime_error);
  // Transient failure, not a crash: the journal stays usable, and the torn
  // bytes were truncated away so the next acknowledged append lands on a
  // clean frame boundary instead of behind a frame replay stops at.
  EXPECT_FALSE(journal.frozen());
  journal.append(finishedRecord(1, "done"));
  const JournalReplay replay = journal.replay();
  EXPECT_FALSE(replay.tornTail);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[1].type, JournalRecordType::kFinished);
  EXPECT_TRUE(replay.pending.empty());
}

TEST(JobJournal, StaleMagicResetsInsteadOfMisparsing) {
  const ScratchDir scratch("magic");
  const std::string& dir = scratch.path();
  {
    std::ofstream out(std::filesystem::path(dir) / "journal.wal",
                      std::ios::binary);
    out << "not a journal at all";
  }
  JobJournal journal(dirOptions(dir));
  const JournalReplay replay = journal.replay();
  EXPECT_TRUE(replay.records.empty());
  EXPECT_FALSE(replay.tornTail);  // A reset, not a torn tail.
  // The journal is usable after the reset.
  journal.append(submittedRecord(1, "a"));
  EXPECT_EQ(journal.replay().records.size(), 1u);
}

TEST(JobJournal, CompactKeepsOnlyLiveRecords) {
  const ScratchDir scratch("compact");
  const std::string& dir = scratch.path();
  JobJournal journal(dirOptions(dir));
  (void)journal.replay();
  journal.append(submittedRecord(1, "a"));
  journal.append(finishedRecord(1, "done"));
  journal.append(submittedRecord(2, "b"));
  EXPECT_EQ(journal.recordsInLog(), 3u);

  journal.compact({submittedRecord(2, "b")});
  EXPECT_EQ(journal.recordsInLog(), 1u);
  EXPECT_EQ(journal.compactions(), 1u);
  const JournalReplay replay = journal.replay();
  ASSERT_EQ(replay.pending.size(), 1u);
  EXPECT_EQ(replay.pending[0].id, 2u);
}

TEST(SchedulerJournal, CleanShutdownLeavesEmptyJournal) {
  const ScratchDir scratch("clean_shutdown");
  const std::string& dir = scratch.path();
  SchedulerOptions options;
  options.threads = 1;
  options.journal.dir = dir;
  {
    JobScheduler scheduler(kTech, options);
    const JobStatus status = scheduler.wait(scheduler.submit(fastJob("a")));
    EXPECT_EQ(status.state, JobState::kDone);
  }
  // The destructor compacts a fully-terminal job set down to nothing.
  const JournalReplay replay = JobJournal::replayFile(
      (std::filesystem::path(dir) / "journal.wal").string());
  EXPECT_TRUE(replay.pending.empty());
  EXPECT_TRUE(replay.records.empty());

  // A reboot on the empty journal recovers nothing.
  JobScheduler rebooted(kTech, options);
  EXPECT_EQ(rebooted.health().journal.recoveredJobs, 0u);
}

TEST(SchedulerJournal, CleanShutdownPreservesUnfinishedJobsForRecovery) {
  const ScratchDir scratch("shutdown_preserve");
  const std::string& dir = scratch.path();
  std::atomic<bool> hold{true};
  std::atomic<bool> entered{false};

  SchedulerOptions options;
  options.threads = 1;
  options.journal.dir = dir;
  // Pin the single worker so no job can complete before the destructor
  // runs -- otherwise a fast job could legitimately finish and compact
  // away, and the test would race the machine.  Once released, the held
  // job enters its engine run with cancellation already requested and
  // aborts at the first stage check, so it stays preserved too.
  options.preRunHook = [&hold, &entered](const JobRequest&, int) {
    entered = true;
    while (hold) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };

  std::vector<std::uint64_t> ids;
  std::thread releaser;
  {
    JobScheduler scheduler(kTech, options);
    for (int i = 0; i < 3; ++i) {
      ids.push_back(scheduler.submit(fastJob("q" + std::to_string(i),
                                             60.0 + i)));
    }
    while (!entered) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // The destructor joins the pinned worker; release it from outside
    // once shutdown is underway.
    releaser = std::thread([&hold] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      hold = false;
    });
  }  // Clean shutdown with the whole batch unfinished.
  releaser.join();

  // Every acknowledged job is accounted for: finished in the log, or kept
  // live for the next boot -- never silently erased by the shutdown
  // compaction.
  const std::string path =
      (std::filesystem::path(dir) / "journal.wal").string();
  const JournalReplay replay = JobJournal::replayFile(path);
  std::set<std::uint64_t> pending;
  for (const JournalRecord& rec : replay.pending) pending.insert(rec.id);
  std::set<std::uint64_t> finished;
  for (const JournalRecord& rec : replay.records) {
    if (rec.type == JournalRecordType::kFinished) finished.insert(rec.id);
  }
  for (const std::uint64_t id : ids) {
    EXPECT_TRUE(pending.count(id) > 0 || finished.count(id) > 0)
        << "job " << id << " vanished from the journal at clean shutdown";
  }
  // The pinned worker drained nothing: the running head and the queued
  // tail must all have been preserved.
  EXPECT_EQ(pending.size(), 3u);

  // A reboot on the same journal recovers exactly the preserved jobs and
  // finishes them.
  JobScheduler rebooted(kTech, options);
  EXPECT_EQ(rebooted.health().journal.recoveredJobs, pending.size());
  for (const std::uint64_t id : pending) {
    const JobStatus status = rebooted.wait(id);
    EXPECT_EQ(status.state, JobState::kDone) << status.error;
    EXPECT_TRUE(status.recovered);
  }
}

TEST(SchedulerJournal, SubmitJournalFailureDoesNotShedQueuedVictim) {
  const ScratchDir scratch("shed_append_fail");
  const std::string& dir = scratch.path();
  std::atomic<bool> hold{true};
  std::atomic<bool> entered{false};
  std::atomic<bool> failNext{false};

  SchedulerOptions options;
  options.threads = 1;
  options.maxQueueDepth = 4;
  options.shedWatermark = 0.5;  // Shed depth: 2.
  options.journal.dir = dir;
  options.journal.shortWriteFault = [&failNext] {
    return failNext.exchange(false);
  };
  // Pin the single worker so the queue cannot drain underneath the test.
  options.preRunHook = [&hold, &entered](const JobRequest&, int) {
    entered = true;
    while (hold) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };

  {
    JobScheduler scheduler(kTech, options);
    (void)scheduler.submit(fastJob("blocker", 60.0));
    while (!entered) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    (void)scheduler.submit(fastJob("low1", 61.0));
    const std::uint64_t victimId = scheduler.submit(fastJob("low2", 62.0));

    // The queue sits at the watermark; a higher-priority submission would
    // displace low2 -- but its journal append fails, so the submission is
    // rejected and the victim must survive untouched.
    JobRequest high = fastJob("high", 63.0);
    high.priority = 5;
    failNext = true;
    EXPECT_THROW((void)scheduler.submit(high), std::runtime_error);
    ASSERT_TRUE(scheduler.status(victimId).has_value());
    EXPECT_EQ(scheduler.status(victimId)->state, JobState::kQueued);
    EXPECT_EQ(scheduler.metrics().shed, 0u);

    // With the journal healthy again the same submission is admitted and
    // the displacement actually happens.
    (void)scheduler.submit(high);
    EXPECT_EQ(scheduler.status(victimId)->state, JobState::kShed);
    EXPECT_EQ(scheduler.metrics().shed, 1u);

    hold = false;
  }
}

TEST(SchedulerJournal, KillMidBatchRestartAccountsForEveryJob) {
  const ScratchDir scratch("kill_mid_batch");
  const std::string& dir = scratch.path();
  const ScratchDir cacheScratch("kill_mid_batch_cache");
  const std::string& cacheDir = cacheScratch.path();

  SchedulerOptions options;
  options.threads = 1;
  options.journal.dir = dir;
  options.cache.diskDir = cacheDir;

  std::vector<std::uint64_t> ids;
  {
    JobScheduler scheduler(kTech, options);
    for (int i = 0; i < 4; ++i) {
      ids.push_back(scheduler.submit(fastJob("job" + std::to_string(i),
                                             60.0 + i)));
    }
    // The "SIGKILL": from here on nothing reaches the journal -- the four
    // submitted records are the log's final word.  The in-process daemon
    // still finishes the batch, so every result lands in the disk cache.
    scheduler.journal()->simulateCrash();
    for (const std::uint64_t id : ids) {
      EXPECT_EQ(scheduler.wait(id).state, JobState::kDone);
    }
  }  // Destructor compaction is skipped: the journal is frozen.

  // Restart on the same directories.  The engine must never run: every
  // replayed job's result already survived in the content-addressed cache.
  std::atomic<int> engineRuns{0};
  SchedulerOptions bootOptions = options;
  bootOptions.journal.tornWriteFault = nullptr;
  bootOptions.preRunHook = [&engineRuns](const JobRequest&, int) {
    ++engineRuns;
  };
  JobScheduler rebooted(kTech, bootOptions);

  const HealthSnapshot boot = rebooted.health();
  EXPECT_EQ(boot.journal.recoveredJobs, 4u);

  std::set<std::uint64_t> seen;
  for (const std::uint64_t id : ids) {
    const JobStatus status = rebooted.wait(id);  // Original ids survive.
    EXPECT_EQ(status.state, JobState::kDone) << status.error;
    EXPECT_TRUE(status.cacheHit);
    EXPECT_TRUE(status.recovered);
    seen.insert(status.id);
  }
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(engineRuns.load(), 0);

  // The drained backlog triggered a compaction: no journal lag remains.
  const HealthSnapshot drained = rebooted.health();
  EXPECT_GE(drained.journal.compactions, 1u);
  EXPECT_EQ(drained.journal.recoveredRemaining, 0u);
  EXPECT_EQ(drained.journal.lag, 0u);
}

TEST(SchedulerJournal, CrashBeforeResultsRerunsTheEngine) {
  const ScratchDir scratch("rerun");
  const std::string& dir = scratch.path();
  SchedulerOptions options;
  options.threads = 1;
  options.journal.dir = dir;
  // No disk cache: after the crash nothing durable holds the result, so
  // recovery must actually re-run the engine.
  std::uint64_t id = 0;
  {
    JobScheduler scheduler(kTech, options);
    scheduler.journal()->simulateCrash();
    id = scheduler.submit(fastJob("volatile"));
    (void)scheduler.wait(id);
  }
  // simulateCrash happened before the submit: the submitted record never
  // reached the log, so this scenario needs its own pre-crash submit.
  const JournalReplay replay = JobJournal::replayFile(
      (std::filesystem::path(dir) / "journal.wal").string());
  EXPECT_TRUE(replay.pending.empty());

  // Now the real scenario: submit, then crash, then restart.
  {
    JobScheduler scheduler(kTech, options);
    id = scheduler.submit(fastJob("volatile"));
    scheduler.journal()->simulateCrash();
    (void)scheduler.wait(id);
  }
  std::atomic<int> engineRuns{0};
  SchedulerOptions bootOptions = options;
  bootOptions.preRunHook = [&engineRuns](const JobRequest&, int) {
    ++engineRuns;
  };
  JobScheduler rebooted(kTech, bootOptions);
  const JobStatus status = rebooted.wait(id);
  EXPECT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_TRUE(status.recovered);
  EXPECT_EQ(engineRuns.load(), 1);
}

}  // namespace
}  // namespace lo::service
