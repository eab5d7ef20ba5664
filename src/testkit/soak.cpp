#include "testkit/soak.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "core/topology.hpp"
#include "service/serialize.hpp"
#include "testkit/generators.hpp"

namespace lo::testkit {

namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Monotonicity monitor: snapshots the counters on a short period and
/// records the first decrease it ever sees.
class Monitor {
 public:
  Monitor(service::JobScheduler& scheduler, std::vector<std::string>& violations,
          std::mutex& violationsMutex)
      : scheduler_(scheduler),
        violations_(violations),
        violationsMutex_(violationsMutex),
        thread_([this] { loop(); }) {}

  ~Monitor() {
    stop_.store(true);
    thread_.join();
  }

 private:
  void check(const char* name, std::uint64_t now, std::uint64_t& last) {
    if (now < last) {
      const std::lock_guard<std::mutex> lock(violationsMutex_);
      violations_.push_back(std::string("monotonicity: ") + name + " fell from " +
                            std::to_string(last) + " to " + std::to_string(now));
    }
    last = now;
  }

  void loop() {
    service::MetricsSnapshot m{};
    service::CacheStats c{};
    while (!stop_.load()) {
      const service::MetricsSnapshot now = scheduler_.metrics();
      const service::CacheStats cache = scheduler_.cacheStats();
      check("submitted", now.submitted, m.submitted);
      check("completed", now.completed, m.completed);
      check("failed", now.failed, m.failed);
      check("cancelled", now.cancelled, m.cancelled);
      check("expired", now.expired, m.expired);
      check("retries", now.retries, m.retries);
      check("coalesced", now.coalesced, m.coalesced);
      check("max_running", now.maxRunning, m.maxRunning);
      check("cache.hits", cache.hits, c.hits);
      check("cache.misses", cache.misses, c.misses);
      check("cache.inserts", cache.inserts, c.inserts);
      check("cache.evictions", cache.evictions, c.evictions);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  service::JobScheduler& scheduler_;
  std::vector<std::string>& violations_;
  std::mutex& violationsMutex_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

service::Json submitRequest(const CorpusPoint& point, bool withDeadline,
                            const SoakOptions& options) {
  service::Json req = service::Json::object();
  req.set("op", "synthesize");
  req.set("async", true);
  req.set("label", point.label);
  req.set("topology", point.options.topology);
  req.set("case", core::sizingCaseName(point.options.sizingCase));
  req.set("spec", service::toJson(point.specs));
  req.set("corner", tech::cornerName(point.corner));
  req.set("max_retries", options.maxRetries);
  if (withDeadline) req.set("deadline_seconds", options.deadlineSeconds);
  return req;
}

}  // namespace

service::Json SoakReport::toJson() const {
  service::Json out = service::Json::object();
  out.set("ok", ok());
  out.set("requests", requests);
  out.set("rejected", rejected);
  out.set("transport_errors", transportErrors);
  out.set("tracked_jobs", trackedJobs);
  out.set("elapsed_seconds", elapsedSeconds);

  service::Json states = service::Json::object();
  for (const auto& [state, count] : terminalStates) states.set(state, count);
  out.set("terminal_states", std::move(states));

  service::Json faults = service::Json::object();
  for (const auto& [site, count] : faultsFired) faults.set(site, count);
  out.set("faults_fired", std::move(faults));

  if (recovery.ran) {
    service::Json rec = service::Json::object();
    rec.set("crashed", recovery.crashed);
    rec.set("replayed_records", recovery.replayedRecords);
    rec.set("pending_at_boot", recovery.pendingAtBoot);
    rec.set("served_from_cache", recovery.servedFromCache);
    rec.set("re_run", recovery.reRun);
    rec.set("compactions", recovery.compactions);
    rec.set("torn_tail", recovery.tornTail);
    out.set("recovery", std::move(rec));
  }

  out.set("stats", metricsToJson(metrics, cache, 0, 0, 0));

  service::Json viol = service::Json::array();
  for (const std::string& v : violations) viol.push(v);
  out.set("violations", std::move(viol));
  return out;
}

SoakReport runSoak(const tech::Technology& technology, const SoakOptions& options) {
  SoakReport report;
  FaultPlan plan(options.faults);

  service::SchedulerOptions schedulerOptions;
  schedulerOptions.threads = options.schedulerThreads;
  schedulerOptions.maxQueueDepth = 512;
  schedulerOptions.cache.diskDir = options.cacheDir;
  schedulerOptions.cache.capacity = 64;
  installSchedulerFaults(schedulerOptions, plan);
  if (!options.journalDir.empty()) {
    schedulerOptions.journal.dir = options.journalDir;
    installJournalFaults(schedulerOptions, plan);
  }

  auto schedulerPtr =
      std::make_unique<service::JobScheduler>(technology, schedulerOptions);
  service::JobScheduler& scheduler = *schedulerPtr;
  service::ServiceProtocol protocol(scheduler);
  installProtocolFaults(protocol, plan);

  // A small pool of distinct cheap points, drawn from the seed, so the
  // clients' duplicate submissions engage coalescing and the cache.
  CorpusOptions corpusOptions;
  corpusOptions.size = options.poolSize;
  corpusOptions.cases = {core::SizingCase::kCase1, core::SizingCase::kCase2};
  const std::vector<CorpusPoint> pool =
      generateCorpus(options.seed, corpusOptions);

  std::mutex stateMutex;
  std::vector<std::uint64_t> trackedIds;
  std::uint64_t requests = 0, rejected = 0, transportErrors = 0;

  std::mutex violationsMutex;
  const auto started = Clock::now();
  const auto stopAt =
      started + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.durationSeconds));

  {
    Monitor monitor(scheduler, report.violations, violationsMutex);
    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(options.clients));
    for (int c = 0; c < options.clients; ++c) {
      clients.emplace_back([&, c] {
        SpecGen gen(options.seed * 7919 + static_cast<std::uint64_t>(c));
        std::vector<std::uint64_t> pending;
        int sent = 0;
        const auto sendLine = [&](const service::Json& req) {
          const std::string responseText = protocol.handleLine(req.dump());
          {
            const std::lock_guard<std::mutex> lock(stateMutex);
            ++requests;
          }
          ++sent;
          try {
            return service::Json::parse(responseText);
          } catch (const std::exception&) {
            // A truncated response: the transport failed but the daemon's
            // side of the operation still happened (a submitted job keeps
            // its id); the drain phase accounts for such orphans.
            const std::lock_guard<std::mutex> lock(stateMutex);
            ++transportErrors;
            return service::Json();
          }
        };
        while (Clock::now() < stopAt &&
               (options.maxRequestsPerClient == 0 ||
                sent < options.maxRequestsPerClient)) {
          const int dice = gen.pick(100);
          if (dice < 65 || pending.empty()) {
            if (scheduler.journal() != nullptr &&
                plan.shouldFire(FaultSite::kProcessKill)) {
              // The simulated SIGKILL: from here on nothing reaches the
              // journal, exactly as if the process had died at this
              // instant.  The in-process daemon keeps serving (phase 1's
              // invariants still apply); the recovery phase below replays
              // whatever the frozen log claims is unfinished.
              scheduler.journal()->simulateCrash();
            }
            const CorpusPoint& point =
                pool[static_cast<std::size_t>(gen.pick(options.poolSize))];
            const bool deadline =
                gen.uniform(0.0, 1.0) < options.deadlineFraction;
            const service::Json response =
                sendLine(submitRequest(point, deadline, options));
            if (response.isObject()) {
              if (response.at("ok").asBool()) {
                const std::uint64_t id = response.at("id").asUint64();
                pending.push_back(id);
                const std::lock_guard<std::mutex> lock(stateMutex);
                trackedIds.push_back(id);
              } else {
                const std::lock_guard<std::mutex> lock(stateMutex);
                ++rejected;
              }
            }
          } else if (dice < 85) {
            service::Json req = service::Json::object();
            req.set("op", "wait");
            req.set("id", pending.back());
            pending.pop_back();
            (void)sendLine(req);
          } else if (dice < 93) {
            service::Json req = service::Json::object();
            req.set("op", "cancel");
            req.set("id", pending[static_cast<std::size_t>(
                        gen.pick(static_cast<int>(pending.size())))]);
            (void)sendLine(req);
          } else {
            service::Json req = service::Json::object();
            req.set("op", "stats");
            (void)sendLine(req);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();

    // Drain: every submission -- including those whose response was
    // truncated before the client saw the id -- must reach a terminal
    // state within the timeout, with nothing queued or running.
    const auto drainDeadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               options.drainTimeoutSeconds));
    while (Clock::now() < drainDeadline) {
      const service::MetricsSnapshot m = scheduler.metrics();
      const std::uint64_t terminal =
          m.completed + m.failed + m.cancelled + m.expired + m.shed;
      if (terminal == m.submitted && scheduler.queueDepth() == 0 &&
          scheduler.runningCount() == 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }  // Monitor stops here, before the final snapshot checks.

  report.requests = requests;
  report.rejected = rejected;
  report.transportErrors = transportErrors;
  report.trackedJobs = trackedIds.size();
  report.metrics = scheduler.metrics();
  report.cache = scheduler.cacheStats();
  for (const FaultSite site : allFaultSites()) {
    const std::uint64_t count = plan.fired(site);
    if (count > 0) report.faultsFired[faultSiteName(site)] = count;
  }

  // Invariant: no lost jobs.
  const std::uint64_t terminal = report.metrics.completed +
                                 report.metrics.failed +
                                 report.metrics.cancelled +
                                 report.metrics.expired +
                                 report.metrics.shed;
  if (terminal != report.metrics.submitted || scheduler.queueDepth() != 0 ||
      scheduler.runningCount() != 0) {
    report.violations.push_back(
        "lost jobs: submitted=" + std::to_string(report.metrics.submitted) +
        " terminal=" + std::to_string(terminal) +
        " queued=" + std::to_string(scheduler.queueDepth()) +
        " running=" + std::to_string(scheduler.runningCount()) +
        " after the drain timeout");
  }

  // Invariant: every id a client saw reports a definite terminal state.
  for (const std::uint64_t id : trackedIds) {
    const auto status = scheduler.status(id);
    if (!status.has_value() || !service::isTerminal(status->state)) {
      report.violations.push_back("job " + std::to_string(id) +
                                  " has no definite terminal state");
      continue;
    }
    ++report.terminalStates[service::jobStateName(status->state)];
  }

  // Invariant: cache accounting.  Memory-tier inserts come from engine
  // runs after a miss or from disk-hit promotions, never anywhere else.
  const service::CacheStats& cache = report.cache;
  if (cache.inserts > cache.misses + cache.diskHits) {
    report.violations.push_back(
        "cache accounting: inserts (" + std::to_string(cache.inserts) +
        ") > misses (" + std::to_string(cache.misses) + ") + disk hits (" +
        std::to_string(cache.diskHits) + ")");
  }
  if (cache.evictions > cache.inserts) {
    report.violations.push_back("cache accounting: evictions > inserts");
  }
  if (cache.diskHits > cache.hits) {
    report.violations.push_back("cache accounting: disk hits > hits");
  }
  if (scheduler.cache().size() > schedulerOptions.cache.capacity) {
    report.violations.push_back("cache memory tier exceeded its capacity");
  }

  // Without response faults there is no excuse for a transport error.
  if (options.faults.sites.count(FaultSite::kResponseTruncate) == 0 &&
      options.faults.explicitOps.count(FaultSite::kResponseTruncate) == 0 &&
      transportErrors > 0) {
    report.violations.push_back("transport errors without response faults");
  }

  // Recovery phase: tear the daemon down and boot a fresh one on the same
  // journal + cache directories, then hold it to crash-safety's contract:
  //   * zero lost -- every job the dead daemon's log still owes reaches a
  //     definite terminal state after replay;
  //   * zero duplicated -- the engine never re-runs a cache key whose
  //     result already survived on disk (exactly-once at the key level);
  //   * the journal compacts once the replayed backlog drains.
  if (!options.journalDir.empty()) {
    report.recovery.ran = true;
    report.recovery.crashed =
        scheduler.journal() != nullptr && scheduler.journal()->frozen();
    const std::string logPath = scheduler.journal()->logPath();
    schedulerPtr.reset();  // A frozen journal skips the shutdown compaction.

    const service::JournalReplay digest =
        service::JobJournal::replayFile(logPath);
    report.recovery.pendingAtBoot = digest.pending.size();
    report.recovery.tornTail = digest.tornTail;

    // Keys whose results already survived on the disk cache: re-running
    // the engine for one of these would be a duplicated result.  "Survived"
    // means a lookup hits, not that a file exists: an injected cache-write
    // fault leaves a truncated entry at the final path, which every lookup
    // treats as a miss, so re-running that key is recovery, not a duplicate.
    std::set<std::string> durableKeys;
    if (!options.cacheDir.empty()) {
      service::CacheOptions probeOptions;
      probeOptions.diskDir = options.cacheDir;
      service::ResultCache probe(probeOptions);
      for (const service::JournalRecord& rec : digest.pending) {
        if (!rec.cacheKey.empty() && probe.lookup(rec.cacheKey).has_value()) {
          durableKeys.insert(rec.cacheKey);
        }
      }
    }

    const std::string techPrint =
        service::ResultCache::techFingerprint(technology);
    service::SchedulerOptions bootOptions;
    bootOptions.threads = options.schedulerThreads;
    bootOptions.maxQueueDepth = 512;
    bootOptions.cache.diskDir = options.cacheDir;
    bootOptions.cache.capacity = 64;
    bootOptions.journal.dir = options.journalDir;
    bootOptions.preRunHook = [&](const service::JobRequest& request, int) {
      const std::string key = service::ResultCache::keyFor(
          request.options, request.specs, request.corner, techPrint);
      if (durableKeys.count(key) > 0) {
        const std::lock_guard<std::mutex> lock(violationsMutex);
        report.violations.push_back(
            "duplicated result: the engine re-ran cache key " + key +
            " whose result already survived the crash");
      }
    };

    service::JobScheduler recovered(technology, bootOptions);
    report.recovery.replayedRecords = recovered.health().journal.replayedRecords;

    const auto recoverDeadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               options.drainTimeoutSeconds));
    while (Clock::now() < recoverDeadline) {
      const service::HealthSnapshot h = recovered.health();
      if (h.journal.recoveredRemaining == 0 && h.queueDepth == 0 &&
          h.running == 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    for (const service::JournalRecord& rec : digest.pending) {
      const auto status = recovered.status(rec.id);
      if (!status.has_value() || !service::isTerminal(status->state)) {
        report.violations.push_back(
            "lost after recovery: journalled job " + std::to_string(rec.id) +
            " never reached a terminal state in the restarted daemon");
        continue;
      }
      if (status->cacheHit) {
        ++report.recovery.servedFromCache;
      } else {
        ++report.recovery.reRun;
      }
    }

    const service::HealthSnapshot h = recovered.health();
    report.recovery.compactions = h.journal.compactions;
    if (report.recovery.pendingAtBoot > 0 && h.journal.compactions == 0) {
      report.violations.push_back(
          "journal never compacted after the replayed backlog drained");
    }
  }

  report.elapsedSeconds = seconds(started, Clock::now());
  return report;
}

}  // namespace lo::testkit
