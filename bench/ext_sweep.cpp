// Extension benchmark: batched many-scenario synthesis through
// JobScheduler::runBatch.
//
// The paper's speed claim ("sizing ... does not exceed two minutes",
// enabling "interactive exploration of wide variety of design space
// points") compounds once the engine is topology generic: independent
// (topology, spec, corner) jobs fan out across cores with per-job model /
// technology isolation.  This bench runs a mixed OTA + two-stage job grid
// at several corners with the cache bypassed (every job runs the engine),
// checks that the multi-threaded batch matches the single-threaded one bit
// for bit, and reports the speed-up.  Exit status 1 when they differ.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "service/scheduler.hpp"

namespace {

using namespace lo;
using service::JobRequest;
using service::JobScheduler;
using service::JobState;
using service::JobStatus;

std::vector<JobRequest> makeJobs() {
  std::vector<JobRequest> jobs;
  // Folded-cascode OTA across a GBW grid and the sign corners.
  for (double gbwMhz : {40.0, 65.0, 90.0}) {
    for (tech::ProcessCorner corner :
         {tech::ProcessCorner::kTypical, tech::ProcessCorner::kSlow,
          tech::ProcessCorner::kFast}) {
      JobRequest job;
      job.label = std::string("ota_") + std::to_string(static_cast<int>(gbwMhz)) +
                  "MHz_" + tech::cornerName(corner);
      job.specs.gbw = gbwMhz * 1e6;
      job.corner = corner;
      jobs.push_back(job);
    }
  }
  // Two-stage Miller OTA at its own targets.
  for (double gbwMhz : {20.0, 30.0}) {
    JobRequest job;
    job.label = std::string("two_stage_") + std::to_string(static_cast<int>(gbwMhz)) +
                "MHz_tt";
    job.options.topology = core::kTwoStageTopologyName;
    job.specs.gbw = gbwMhz * 1e6;
    jobs.push_back(job);
  }
  for (JobRequest& job : jobs) job.bypassCache = true;
  return jobs;
}

std::vector<JobStatus> runSweep(const tech::Technology& t,
                                const std::vector<JobRequest>& jobs, int threads) {
  service::SchedulerOptions options;
  options.threads = threads;
  JobScheduler scheduler(t, options);
  return scheduler.runBatch(jobs);
}

bool identical(const std::vector<JobStatus>& a, const std::vector<JobStatus>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].state != b[i].state || a[i].label != b[i].label) return false;
    if (std::memcmp(&a[i].result.measured, &b[i].result.measured,
                    sizeof(sizing::OtaPerformance)) != 0) {
      return false;
    }
    if (a[i].result.layoutCalls != b[i].result.layoutCalls) return false;
  }
  return true;
}

/// Prints the sweep table; false when the thread counts disagree.
bool printSweep() {
  const tech::Technology t = tech::Technology::generic060();
  const std::vector<JobRequest> jobs = makeJobs();
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("\n=== Batched synthesis sweep: %zu jobs, %u cores ===\n", jobs.size(),
              cores);

  const auto timeRun = [&](int threads, std::vector<JobStatus>& out) {
    const auto start = std::chrono::steady_clock::now();
    out = runSweep(t, jobs, threads);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };

  std::vector<JobStatus> serial, threaded;
  const double tSerial = timeRun(1, serial);
  const double tThreaded = timeRun(static_cast<int>(cores), threaded);

  std::printf("%-22s %8s %10s %10s %10s %8s\n", "job", "calls", "GBW MHz", "PM deg",
              "power mW", "conv");
  for (const JobStatus& s : serial) {
    if (s.state != JobState::kDone) {
      std::printf("%-22s FAILED: %s\n", s.label.c_str(), s.error.c_str());
      continue;
    }
    std::printf("%-22s %8d %10.1f %10.1f %10.2f %8s\n", s.label.c_str(),
                s.result.layoutCalls, s.result.measured.gbwHz / 1e6,
                s.result.measured.phaseMarginDeg, s.result.measured.powerMw,
                s.result.parasiticConverged ? "yes" : "n/a");
  }

  const bool same = identical(serial, threaded);
  std::printf("\n1 thread: %.2f s, %u threads: %.2f s  (speed-up %.1fx)\n", tSerial,
              cores, tThreaded, tSerial / tThreaded);
  std::printf("deterministic across thread counts: %s\n",
              same ? "yes (bit-identical)" : "NO -- BUG");
  return same;
}

void BM_SweepThreads(benchmark::State& state) {
  const tech::Technology t = tech::Technology::generic060();
  const std::vector<JobRequest> jobs = makeJobs();
  for (auto _ : state) {
    const auto statuses = runSweep(t, jobs, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(statuses);
  }
}
BENCHMARK(BM_SweepThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  const bool deterministic = printSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return deterministic ? 0 : 1;
}
