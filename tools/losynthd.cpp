// losynthd: the synthesis job daemon.
//
// Speaks the lo_service line protocol (protocol.hpp) over stdin/stdout:
// one JSON request per line in, one JSON response per line out.  External
// clients -- scripts, notebooks, other services -- drive the full
// size -> layout -> extract -> verify flow without linking any C++.
//
//   $ printf '%s\n' '{"op":"synthesize","topology":"two_stage"}' '{"op":"stats"}' |
//       losynthd --threads 4
//
// The lo_explore ops (explore / explore_result, plus the "explorations"
// stats section) are installed through the protocol's extension seam; see
// explore/service_ops.hpp for their schema.
//
// Flags:
//   --threads N          worker pool size (0 = hardware concurrency)
//   --queue-depth N      bounded submission queue (default 256)
//   --cache-capacity N   in-memory LRU entries (default 256)
//   --cache-dir PATH     on-disk result store ("default" = ~/.cache/lo_service)
//   --journal PATH       write-ahead job journal directory: every accepted
//                        job is durably logged before the ack, and a restart
//                        replays the log -- unfinished jobs re-enqueue under
//                        their original ids, finished ones serve from the
//                        cache (pair with --cache-dir for exactly-once).
//                        This covers clean shutdowns too: jobs still queued
//                        or running at `shutdown` stay live in the log and
//                        the next boot picks them up
//   --shed-watermark F   fraction of --queue-depth past which lower-priority
//                        work is shed / submissions answer "overloaded"
//                        (default 1.0 = only at the hard limit)
//   --breaker N          open a topology's circuit breaker after N
//                        consecutive non-transient failures (default 0 = off)
//   --breaker-reset T    seconds an open breaker waits before the half-open
//                        probe (default 30)
//   --trace-log PATH     append one JSON trace line per finished job
//   --tech PATH          technology file (default: built-in generic060)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "cli_args.hpp"
#include "explore/manager.hpp"
#include "explore/service_ops.hpp"
#include "service/protocol.hpp"
#include "service/verify_ops.hpp"
#include "tech/technology.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads N] [--queue-depth N] [--cache-capacity N]\n"
               "          [--cache-dir PATH|default] [--journal PATH]\n"
               "          [--shed-watermark F] [--breaker N] [--breaker-reset T]\n"
               "          [--trace-log PATH] [--tech PATH]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lo;

  service::SchedulerOptions options;
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
    if (arg == "--threads") number(options.threads);
    else if (arg == "--queue-depth") number(options.maxQueueDepth);
    else if (arg == "--cache-capacity") number(options.cache.capacity);
    else if (arg == "--cache-dir") {
      const std::string dir = value();
      options.cache.diskDir =
          dir == "default" ? service::CacheOptions::defaultDiskDir() : dir;
    } else if (arg == "--journal") options.journal.dir = value();
    else if (arg == "--shed-watermark") number(options.shedWatermark);
    else if (arg == "--breaker") number(options.breakerFailureThreshold);
    else if (arg == "--breaker-reset") number(options.breakerResetSeconds);
    else if (arg == "--trace-log") options.traceLogPath = value();
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
    const tech::Technology technology = techPath.empty()
                                            ? tech::Technology::generic060()
                                            : tech::Technology::fromFile(techPath);
    service::JobScheduler scheduler(technology, options);
    if (!options.journal.dir.empty()) {
      const service::HealthSnapshot h = scheduler.health();
      std::fprintf(stderr,
                   "losynthd: journal %s: replayed %llu record(s), recovered "
                   "%llu unfinished job(s)%s\n",
                   options.journal.dir.c_str(),
                   static_cast<unsigned long long>(h.journal.replayedRecords),
                   static_cast<unsigned long long>(h.journal.recoveredJobs),
                   h.journal.tornTailRecovered ? " (torn tail truncated)" : "");
    }
    service::ServiceProtocol protocol(scheduler);
    // The explore session journal shares the job journal's directory
    // (explore.wal next to journal.wal): with --journal set, explorations
    // survive kill -9 the same way jobs do.
    explore::ExploreManager explorations(scheduler, options.journal.dir);
    if (explorations.journalEnabled() && explorations.recoveredSessions() > 0) {
      std::fprintf(stderr, "losynthd: explore journal: restarted %llu session(s)\n",
                   static_cast<unsigned long long>(explorations.recoveredSessions()));
    }
    explore::installExploreOps(protocol, explorations);
    service::installVerifyOps(protocol, scheduler);
    protocol.serve(std::cin, std::cout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "losynthd: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
