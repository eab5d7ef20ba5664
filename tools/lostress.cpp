// lostress: concurrent soak of the synthesis service under a fault plan.
//
// Spins up an in-process daemon (the exact JobScheduler + ServiceProtocol
// objects losynthd serves) and hammers it with N client threads speaking
// the line protocol -- async submissions over a small pool of distinct
// design points, waits, cancellations, stats -- while a seeded fault plan
// injects transient engine errors, deadline overruns, cache-store write
// failures and truncated responses.  At the end the invariants from
// testkit/soak.hpp are checked: no lost jobs, stats monotonicity, cache
// hit accounting, bounded drain.  Exit 0 on a clean run, 1 on any
// violation; the full report prints as JSON on stdout.
//
//   $ lostress --seed 1 --faults basic --duration 10s --clients 4
//
// Flags:
//   --seed N             fault-plan and workload seed (default 1)
//   --faults NAME        plan preset: "basic" (recoverable sites @ 10%, and
//                        one simulated kill when journalled),
//                        "journal_torn_write" (torn journal appends) or "none"
//   --duration T         wall-clock soak length, e.g. 10s or 2.5 (seconds)
//   --clients N          client threads (default 4)
//   --threads N          scheduler workers (default 2)
//   --pool N             distinct design points clients draw from (default 12)
//   --max-requests N     per-client request cap, 0 = duration-only (default 0)
//   --cache-dir PATH     on-disk result store for the run
//   --journal-dir PATH   write-ahead job journal; arms the crash sites and
//                        adds a kill -> restart -> replay recovery phase
//   --drain-timeout T    bound on the post-soak drain (default 60s)
//   --tech PATH          technology file (default: built-in generic060)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli_args.hpp"
#include "tech/technology.hpp"
#include "testkit/soak.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--faults basic|none|journal_torn_write]\n"
               "          [--duration T] [--clients N] [--threads N] [--pool N]\n"
               "          [--max-requests N] [--cache-dir PATH]\n"
               "          [--journal-dir PATH] [--drain-timeout T] [--tech PATH]\n",
               argv0);
}

/// "10s", "2.5s" or a bare number of seconds, validated like every other
/// numeric flag.
double parseDuration(const char* argv0, const std::string& flag, std::string text) {
  if (!text.empty() && text.back() == 's') text.pop_back();
  return lo::tools::parseNonNegative<double>(flag, text, [&] { usage(argv0); });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lo;

  testkit::SoakOptions options;
  std::string faultsName = "none";
  std::string techPath;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    const auto number = [&]<typename T>(T& out) {
      out = tools::parseNonNegative<T>(arg, value(), [&] { usage(argv[0]); });
    };
    const auto seconds = [&](double& out) { out = parseDuration(argv[0], arg, value()); };
    if (arg == "--seed") number(options.seed);
    else if (arg == "--faults") faultsName = value();
    else if (arg == "--duration") seconds(options.durationSeconds);
    else if (arg == "--clients") number(options.clients);
    else if (arg == "--threads") number(options.schedulerThreads);
    else if (arg == "--pool") number(options.poolSize);
    else if (arg == "--max-requests") number(options.maxRequestsPerClient);
    else if (arg == "--cache-dir") options.cacheDir = value();
    else if (arg == "--journal-dir") options.journalDir = value();
    else if (arg == "--drain-timeout") seconds(options.drainTimeoutSeconds);
    else if (arg == "--tech") techPath = value();
    else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  try {
    options.faults = testkit::FaultPlanOptions::preset(faultsName, options.seed);
    const tech::Technology technology = techPath.empty()
                                            ? tech::Technology::generic060()
                                            : tech::Technology::fromFile(techPath);

    const testkit::SoakReport report = testkit::runSoak(technology, options);
    std::printf("%s\n", report.toJson().dump().c_str());
    std::fprintf(stderr,
                 "lostress: %llu requests from %d clients in %.2fs, %llu jobs "
                 "tracked (%llu shed, %llu rejected), %llu faults fired, "
                 "%zu violation(s)\n",
                 static_cast<unsigned long long>(report.requests),
                 options.clients, report.elapsedSeconds,
                 static_cast<unsigned long long>(report.trackedJobs),
                 static_cast<unsigned long long>(report.metrics.shed),
                 static_cast<unsigned long long>(report.rejected),
                 static_cast<unsigned long long>(
                     [&] {
                       std::uint64_t total = 0;
                       for (const auto& [site, n] : report.faultsFired) total += n;
                       return total;
                     }()),
                 report.violations.size());
    if (report.recovery.ran) {
      std::fprintf(stderr,
                   "lostress: recovery: crashed=%d replayed=%llu pending=%llu "
                   "cache_served=%llu re_run=%llu compactions=%llu torn_tail=%d\n",
                   report.recovery.crashed ? 1 : 0,
                   static_cast<unsigned long long>(report.recovery.replayedRecords),
                   static_cast<unsigned long long>(report.recovery.pendingAtBoot),
                   static_cast<unsigned long long>(report.recovery.servedFromCache),
                   static_cast<unsigned long long>(report.recovery.reRun),
                   static_cast<unsigned long long>(report.recovery.compactions),
                   report.recovery.tornTail ? 1 : 0);
    }
    for (const std::string& v : report.violations) {
      std::fprintf(stderr, "lostress: VIOLATION: %s\n", v.c_str());
    }
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lostress: fatal: %s\n", e.what());
    return 1;
  }
}
