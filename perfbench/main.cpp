// losynth_perfbench: the synthesize-job benchmark.
//
//   losynth_perfbench --workload sweep_cold|sweep_verify|service_hot
//                     --seed N --seconds S --trace 0|1 [--scratch DIR]
//
// Load comes from one process through service::ServiceProtocol::handleLine,
// the code losynthd serves: 2 closed-loop client threads (each sends its
// next request line only after its reply arrives) over a JobScheduler with
// 2 workers.  The program only ever sees the generated request lines.
//
// --trace 0 measures the end-to-end metrics.  --trace 1 runs the same
// workload once untraced and once traced (spans recorded by this file
// around its calls into the service, plus the stage timings the scheduler
// reports back), then times each layer's public functions on sampled
// designs; it prints the per-layer metrics.  Every run checks every
// answer; the last stdout line is one JSON object written by service::Json.
// See README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "service/protocol.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using lo::service::Json;

const Clock::time_point kProcessStart = Clock::now();

constexpr int kClients = 2;
constexpr int kWorkers = 2;
/// Set-ups per run; setup_s is their median and the last one is measured.
constexpr int kSetupReps = 3;
constexpr std::size_t kHotCacheCapacity = 64;
/// Seed salt of the sweeps' warm-up points (kept apart from measured ones).
constexpr std::uint64_t kWarmupSalt = 0x5741524d55500000ULL;

struct Args {
  Workload workload = Workload::kSweepCold;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench-run";
};

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = workloadFromName(value);
      haveWorkload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stoi(value);
      if (a.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--scratch") {
      a.scratch = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!haveWorkload) throw std::invalid_argument("--workload is required");
  return a;
}

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration fromSeconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

double cpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

bool isSweep(Workload w) { return w != Workload::kServiceHot; }

/// The `"result":{...}` body of a done response line, located without a
/// parse: the protocol writes it after every scalar field and before the
/// optional trace block.
std::string_view resultBody(std::string_view response) {
  const std::size_t at = response.find("\"result\":");
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + 9;
  std::size_t end = response.rfind(",\"trace\":");
  if (end == std::string_view::npos || end < begin) end = response.size() - 1;
  return response.substr(begin, end - begin);
}

/// The request ids the scheduler's pre-run hook saw, with the time it ran.
class HookTimes {
 public:
  void record(const std::string& label) {
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> guard(mutex_);
    if (active_) times_[label] = now;
  }
  void setActive(bool on) {
    const std::lock_guard<std::mutex> guard(mutex_);
    active_ = on;
  }
  std::optional<Clock::time_point> take(const std::string& label) {
    const std::lock_guard<std::mutex> guard(mutex_);
    const auto it = times_.find(label);
    if (it == times_.end()) return std::nullopt;
    const Clock::time_point t = it->second;
    times_.erase(it);
    return t;
  }

 private:
  std::mutex mutex_;
  bool active_ = false;
  std::map<std::string, Clock::time_point> times_;
};

/// One losynthd-equivalent service: scheduler + protocol over a private
/// cache directory.
struct Service {
  std::string dir;
  std::unique_ptr<lo::service::JobScheduler> scheduler;
  std::unique_ptr<lo::service::ServiceProtocol> protocol;
};

Service makeService(const Args& args, const lo::tech::Technology& tech,
                    const std::string& dir, HookTimes* hooks) {
  lo::service::SchedulerOptions options;
  options.threads = kWorkers;
  if (!isSweep(args.workload)) {
    options.cache.capacity = kHotCacheCapacity;
    options.cache.diskDir = dir + "/cache";
    // No journal: at ~10k requests/s it writes hundreds of MB per run,
    // and the shared disk's writeback then stalls this run and the next
    // ones by 2-4x.  The durable append is measured on its own as
    // journal.append_us.
  }
  if (hooks) {
    options.preRunHook = [hooks](const lo::service::JobRequest& r, int) {
      hooks->record(r.label);
    };
  }
  Service s;
  s.dir = dir;
  s.scheduler = std::make_unique<lo::service::JobScheduler>(tech, options);
  s.protocol = std::make_unique<lo::service::ServiceProtocol>(*s.scheduler);
  return s;
}

/// One request as a client sends it.
struct Request {
  std::uint64_t id = 0;     ///< Unique per run.
  std::uint64_t index = 0;  ///< Stream index (sweeps) or hot-set index.
  std::string line;
};

/// One request as the client saw it answered.
struct Served {
  Request request;
  Clock::time_point sent;
  Clock::time_point received;
  std::string response;
};

/// Closed-loop clients: each thread asks `next` for its next request,
/// sends it, waits for the reply and hands it to `onServed` (on the same
/// thread), until `next` returns nothing.
void runClients(lo::service::ServiceProtocol& protocol,
                const std::function<std::optional<Request>(int client)>& next,
                const std::function<void(int client, Served&&)>& onServed) {
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        while (std::optional<Request> req = next(c)) {
          Served s;
          s.request = std::move(*req);
          s.sent = Clock::now();
          s.response = protocol.handleLine(s.request.line);
          s.received = Clock::now();
          onServed(c, std::move(s));
        }
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("client: " + e);
  }
}

/// The measured phase is cut into this many equal windows; throughput and
/// CPU per job are the median over windows, so a burst of outside load in
/// one window does not move them.
constexpr int kWindows = 5;

/// What a measured phase saw.
struct Phase {
  std::vector<double> latenciesMs;
  Clock::time_point start;
  /// Completion times of the requests that passed their checks [s from
  /// start], and process CPU seconds spent in each window.
  std::vector<double> doneAt;
  std::vector<double> windowCpu = std::vector<double>(kWindows, 0.0);
  double windowSeconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wallSeconds = 0.0;
  double responseBytes = 0.0;
  lo::service::CacheStats cacheBefore;
  lo::service::CacheStats cacheAfter;
  /// Sweeps: every served request (checked after the phase).
  std::vector<Served> served;
  std::vector<std::string> problems;  ///< First few failures, for stderr.
  /// Sweeps: case-3/4 jobs, and those whose layout loop did not converge.
  std::uint64_t loopJobs = 0;
  std::uint64_t nonConverged = 0;
};

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)), tech_(lo::tech::Technology::generic060()) {
    runDir_ = args_.scratch + "/" + workloadName(args_.workload) + "-" +
              std::to_string(args_.seed) + "-" + std::to_string(::getpid());
    std::filesystem::remove_all(runDir_);
    std::filesystem::create_directories(runDir_);
  }
  ~Bench() {
    service_ = Service{};  // Join the workers before the directory goes.
    std::error_code ignored;
    std::filesystem::remove_all(runDir_, ignored);
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int run();

 private:
  void setUp();
  Phase measure(bool traced, double seconds);
  void checkSweep(Phase& phase);
  void checkReferences(Phase& phase, int perTopology);
  void reportEndToEnd(const Phase& phase);
  void reportLayers(const Phase& untraced, const Phase& traced);
  /// The untraced request line of stream index (sweeps) or hot index.
  [[nodiscard]] std::string plainLine(std::uint64_t index) const {
    const Workload source = isSweep(args_.workload) ? args_.workload : Workload::kSweepCold;
    return requestLine(pointAt(source, args_.seed, index));
  }
  void metric(const std::string& name, double value, const char* unit) {
    Json m = Json::object();
    m.set("value", value);
    m.set("unit", unit);
    metrics_.set(name, std::move(m));
  }

  Args args_;
  lo::tech::Technology tech_;
  std::string runDir_;
  Service service_;
  HookTimes hooks_;
  Tracer tracer_;
  std::vector<double> setupSeconds_;
  std::vector<std::string> hotLines_;
  std::vector<std::string> hotResults_;  ///< Result body per hot index.
  std::atomic<std::uint64_t> nextIndex_{0};
  std::atomic<std::uint64_t> nextId_{0};
  /// Served results kept for the reference checks: index -> result JSON.
  std::map<std::uint64_t, Json> results_;
  std::vector<ReferenceRun> references_;
  Json metrics_ = Json::object();
};

void Bench::setUp() {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // The first set-up counts from process start.
    const auto t0 = rep == 0 ? kProcessStart : Clock::now();
    service_ = Service{};
    std::filesystem::remove_all(runDir_ + "/service");
    service_ = makeService(args_, tech_, runDir_ + "/service", args_.trace ? &hooks_ : nullptr);
    std::vector<std::string> warm;
    if (isSweep(args_.workload)) {
      // One warm-up job per topology, off the measured stream.
      for (std::uint64_t i = 0; i < 2; ++i) {
        warm.push_back(requestLine(pointAt(args_.workload, args_.seed ^ kWarmupSalt, i)));
      }
    } else {
      hotLines_ = requestLines(Workload::kSweepCold, args_.seed, kHotSetSize);
      warm = hotLines_;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::string> bodies(warm.size());
    std::mutex errorMutex;
    std::string error;
    runClients(
        *service_.protocol,
        [&](int) -> std::optional<Request> {
          const std::size_t i = next++;
          if (i >= warm.size()) return std::nullopt;
          return Request{i, i, warm[i]};
        },
        [&](int, Served&& s) {
          const std::string_view body = resultBody(s.response);
          if (s.response.rfind("{\"ok\":true", 0) != 0 || body.empty()) {
            const std::lock_guard<std::mutex> guard(errorMutex);
            error = s.response.substr(0, 300);
          }
          bodies[s.request.index] = std::string(body);
        });
    if (!error.empty()) throw std::runtime_error("warm-up request failed: " + error);
    if (!isSweep(args_.workload)) {
      // Every set-up recomputes the hot set; they must agree byte for byte.
      if (!hotResults_.empty() && hotResults_ != bodies) {
        throw std::runtime_error("hot-set results differ between set-ups");
      }
      hotResults_ = std::move(bodies);
    }
    setupSeconds_.push_back(secondsBetween(t0, Clock::now()));
    if (args_.trace) break;  // The traced run reports no set-up time.
  }
}

Phase Bench::measure(bool traced, double seconds) {
  const Workload w = args_.workload;
  const bool sweep = isSweep(w);
  std::vector<Phase> perClient(kClients);
  std::vector<std::uint64_t> rng(kClients);
  for (int c = 0; c < kClients; ++c) {
    rng[static_cast<std::size_t>(c)] =
        args_.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(c) + (traced ? 7 : 0);
  }
  hooks_.setActive(traced);
  Phase phase;
  phase.cacheBefore = service_.scheduler->cacheStats();
  phase.windowSeconds = seconds / kWindows;
  const double cpu0 = cpuSeconds();
  const auto start = Clock::now();
  const auto deadline = start + fromSeconds(seconds);
  phase.start = start;
  // Process CPU time at every window boundary (joined on every path).
  std::jthread cpuSampler([&] {
    double last = cpu0;
    for (int w = 0; w < kWindows; ++w) {
      std::this_thread::sleep_until(start + fromSeconds(phase.windowSeconds * (w + 1)));
      const double now = cpuSeconds();
      phase.windowCpu[static_cast<std::size_t>(w)] = now - last;
      last = now;
    }
  });

  const auto next = [&](int c) -> std::optional<Request> {
    if (Clock::now() >= deadline) return std::nullopt;
    Request r;
    // Sweep indices are unique within a run, so they double as request
    // ids and a span file maps straight back to its design points.
    r.id = sweep ? nextIndex_++ : nextId_++;
    const std::string label = traced ? "r" + std::to_string(r.id) : std::string();
    if (sweep) {
      r.index = r.id;
      r.line = requestLine(pointAt(w, args_.seed, r.index), label, traced);
    } else {
      r.index = static_cast<std::uint64_t>(uniform01(rng[static_cast<std::size_t>(c)]) *
                                           kHotSetSize);
      r.line = traced ? requestLine(pointAt(Workload::kSweepCold, args_.seed, r.index),
                                    label, true)
                      : hotLines_[r.index];  // Pre-built: no per-request formatting.
    }
    return r;
  };

  const auto onServed = [&](int c, Served&& s) {
    Phase& mine = perClient[static_cast<std::size_t>(c)];
    mine.latenciesMs.push_back(
        std::chrono::duration<double, std::milli>(s.received - s.sent).count());
    mine.responseBytes += static_cast<double>(s.response.size());
    mine.wallSeconds = std::max(mine.wallSeconds, secondsBetween(start, s.received));
    ++mine.attempted;
    if (traced) {
      const std::uint64_t id = s.request.id;
      const int root = tracer_.add("client.request", id, -1, s.sent, s.received);
      const std::size_t at = s.response.rfind(",\"trace\":");
      if (at == std::string::npos) {
        throw std::runtime_error("traced response without a trace block");
      }
      const Json t = Json::parse(
          std::string_view(s.response).substr(at + 9, s.response.size() - at - 10));
      const double queue = t.at("queue_seconds").asDouble();
      const double run = t.at("run_seconds").asDouble();
      const std::optional<Clock::time_point> pre = hooks_.take("r" + std::to_string(id));
      if (pre && !t.at("cache_hit").asBool()) {
        tracer_.add("scheduler.queue_wait", id, root, s.sent, *pre);
        const int engine = tracer_.add("engine.run", id, root, *pre,
                                       std::min(s.received, *pre + fromSeconds(run)));
        // The scheduler reports stage durations in execution order; lay
        // them end to end from the start of the run.
        Clock::time_point cursor = *pre;
        for (const Json& st : t.at("stages").items()) {
          const Clock::time_point end = cursor + fromSeconds(st.at("seconds").asDouble());
          tracer_.add("stage." + st.at("stage").asString(), id, engine, cursor, end);
          cursor = end;
        }
      } else {
        const Clock::time_point popped = s.sent + fromSeconds(queue);
        tracer_.add("scheduler.queue_wait", id, root, s.sent, popped);
        tracer_.add("scheduler.hit", id, root, popped,
                    std::min(s.received, popped + fromSeconds(run)));
      }
    }
    if (sweep) {
      mine.served.push_back(std::move(s));
      return;
    }
    // service_hot: the served result must be byte-identical to the one
    // computed for its key during set-up.
    const bool ok = s.response.rfind("{\"ok\":true", 0) == 0 &&
                    s.response.find("\"state\":\"done\"") != std::string::npos &&
                    s.response.find("\"cache_hit\":true") != std::string::npos &&
                    resultBody(s.response) == hotResults_[s.request.index];
    if (!ok) {
      ++mine.failed;
      if (mine.problems.size() < 3) mine.problems.push_back(s.response.substr(0, 300));
    } else {
      mine.doneAt.push_back(secondsBetween(start, s.received));
    }
  };

  runClients(*service_.protocol, next, onServed);
  cpuSampler.join();
  phase.cacheAfter = service_.scheduler->cacheStats();
  hooks_.setActive(false);
  for (Phase& p : perClient) {
    phase.latenciesMs.insert(phase.latenciesMs.end(), p.latenciesMs.begin(),
                             p.latenciesMs.end());
    phase.attempted += p.attempted;
    phase.failed += p.failed;
    phase.wallSeconds = std::max(phase.wallSeconds, p.wallSeconds);
    phase.responseBytes += p.responseBytes;
    phase.doneAt.insert(phase.doneAt.end(), p.doneAt.begin(), p.doneAt.end());
    for (Served& s : p.served) phase.served.push_back(std::move(s));
    for (std::string& why : p.problems) phase.problems.push_back(std::move(why));
  }
  if (phase.attempted == 0) throw std::runtime_error("no request completed in the phase");
  phase.responseBytes /= static_cast<double>(phase.attempted);
  if (sweep) checkSweep(phase);
  return phase;
}

/// Sweeps: every response ok and done, a cache miss (the points are
/// distinct), converged where the loop ran, post-layout verified when
/// asked for.
void Bench::checkSweep(Phase& phase) {
  for (const Served& s : phase.served) {
    std::string why;
    try {
      const Json r = Json::parse(s.response);
      const DesignPoint p = pointAt(args_.workload, args_.seed, s.request.index);
      if (!r.at("ok").asBool()) why = "not ok";
      else if (r.at("state").asString() != "done") why = "state " + r.at("state").asString();
      else if (r.at("cache_hit").asBool()) why = "cache hit on a distinct point";
      else {
        const Json& result = r.at("result");
        const std::string verdict = result.at("convergence").at("verdict").asString();
        const bool converged = verdict == "converged";
        if (p.sizingCase >= 3 &&
            converged != result.at("parasitic_converged").asBool()) {
          why = "convergence verdict " + verdict + " contradicts parasitic_converged";
        } else if (p.sizingCase >= 3 && !converged &&
                   (verdict != "oscillating" && verdict != "drifting")) {
          why = "unknown convergence verdict " + verdict;
        } else if (p.postLayoutVerify && !result.at("verification").at("ran").asBool()) {
          why = "post-layout verification did not run";
        } else {
          // A loop that ran out of layout calls is a design outcome the
          // engine reports (like a post-layout fail), not a failed request.
          if (p.sizingCase >= 3) {
            ++phase.loopJobs;
            if (!converged) ++phase.nonConverged;
          }
          results_[s.request.index] = result;
        }
      }
    } catch (const std::exception& e) {
      why = e.what();
    }
    if (why.empty()) {
      phase.doneAt.push_back(secondsBetween(phase.start, s.received));
    } else {
      ++phase.failed;
      if (phase.problems.size() < 3) {
        phase.problems.push_back(why + ": " + s.response.substr(0, 300));
      }
    }
  }
}

/// Re-run a seeded sample of served points directly on the engine with the
/// reference solver; the served specs must match within the stated
/// tolerances.  A mismatch counts as a wrong answer.
void Bench::checkReferences(Phase& phase, int perTopology) {
  std::uint64_t state = args_.seed ^ 0x52454631ULL;
  std::vector<std::uint64_t> candidates[2];
  if (isSweep(args_.workload)) {
    for (const auto& [index, result] : results_) candidates[index % 2].push_back(index);
  } else {
    for (std::uint64_t i = 0; i < hotResults_.size(); ++i) candidates[i % 2].push_back(i);
  }
  for (auto& pool : candidates) {
    for (int k = 0; k < perTopology && !pool.empty(); ++k) {
      const std::size_t pick =
          static_cast<std::size_t>(uniform01(state) * static_cast<double>(pool.size()));
      const std::uint64_t index = pool[pick];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
      ReferenceRun ref = runReference(plainLine(index), tech_);
      const Json served = isSweep(args_.workload) ? results_.at(index)
                                                  : Json::parse(hotResults_[index]);
      const std::string why = compareToReference(served, ref.result);
      if (!why.empty()) {
        ++phase.failed;
        phase.problems.push_back("reference mismatch at point " + std::to_string(index) +
                                 ": " + why);
      }
      references_.push_back(std::move(ref));
    }
  }
}

void Bench::reportEndToEnd(const Phase& phase) {
  // Per window: completions per second between the window's first and
  // last completion (a count over the window length would be quantised to
  // whole jobs), and CPU per completed job.
  std::vector<std::vector<double>> byWindow(kWindows);
  for (const double t : phase.doneAt) {
    const auto w = static_cast<std::size_t>(t / phase.windowSeconds);
    if (w < byWindow.size()) byWindow[w].push_back(t);
  }
  std::vector<double> rates;
  std::vector<double> cpuPerJob;
  for (std::size_t w = 0; w < byWindow.size(); ++w) {
    std::vector<double>& done = byWindow[w];
    std::sort(done.begin(), done.end());
    const double n = static_cast<double>(done.size());
    rates.push_back(done.size() >= 2 ? (n - 1) / (done.back() - done.front())
                                     : n / phase.windowSeconds);
    cpuPerJob.push_back(phase.windowCpu[w] * 1e3 / std::max(n, 1.0));
  }
  std::fprintf(stderr, "losynth_perfbench: jobs/s per window:");
  for (const double r : rates) std::fprintf(stderr, " %.4g", r);
  std::fprintf(stderr, "\n");
  metric("jobs_per_s", median(rates), "1/s");
  metric("latency_p50_ms", percentile(phase.latenciesMs, 0.50), "ms");
  metric("latency_p90_ms", percentile(phase.latenciesMs, 0.90), "ms");
  metric("cpu_ms_per_job", median(cpuPerJob), "ms");
  metric("setup_s", median(setupSeconds_), "s");
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  metric("peak_rss_mb", static_cast<double>(u.ru_maxrss) / 1024.0, "MB");
}

void Bench::reportLayers(const Phase& untraced, const Phase& traced) {
  const std::map<std::string, Tracer::Totals> totals = tracer_.totalsByName();
  const auto total = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? Tracer::Totals{} : it->second;
  };
  const double requests = static_cast<double>(total("client.request").count);
  const double runs = static_cast<double>(total("engine.run").count);
  const auto perRun = [&](double v) { return runs > 0 ? v / runs : 0.0; };

  metric("stage.sizing_ms", perRun(total("stage.sizing").ms), "ms");
  metric("stage.sizing_calls", perRun(static_cast<double>(total("stage.sizing").count)),
         "count");
  metric("stage.parasitic_layout_ms", perRun(total("stage.parasitic_layout").ms), "ms");
  metric("stage.parasitic_layout_calls",
         perRun(static_cast<double>(total("stage.parasitic_layout").count)), "count");
  metric("stage.generation_ms", perRun(total("stage.generation").ms), "ms");
  metric("stage.extraction_ms", perRun(total("stage.extraction").ms), "ms");
  metric("stage.verification_ms", perRun(total("stage.verification").ms), "ms");
  metric("stage.post_layout_verify_ms", perRun(total("stage.post_layout_verify").ms), "ms");
  metric("engine.run_ms", perRun(total("engine.run").ms), "ms");
  metric("engine.uncovered_ms", perRun(total("engine.run").selfMs), "ms");
  metric("scheduler.queue_wait_ms", total("scheduler.queue_wait").ms / requests, "ms");
  metric("self.service_ms",
         (total("client.request").selfMs + total("scheduler.hit").ms) / requests, "ms");
  metric("trace.latency_covered_ratio",
         1.0 - total("client.request").selfMs / total("client.request").ms, "ratio");
  const double untracedRate = static_cast<double>(untraced.attempted) / untraced.wallSeconds;
  const double tracedRate = static_cast<double>(traced.attempted) / traced.wallSeconds;
  metric("trace.overhead_ratio", untracedRate / tracedRate - 1.0, "ratio");

  const lo::service::CacheStats& a = traced.cacheBefore;
  const lo::service::CacheStats& b = traced.cacheAfter;
  const double n = static_cast<double>(traced.attempted);
  const double diskHits = static_cast<double>(b.diskHits - a.diskHits);
  metric("cache.memory_hit_ratio", (static_cast<double>(b.hits - a.hits) - diskHits) / n,
         "ratio");
  metric("cache.disk_hit_ratio", diskHits / n, "ratio");
  metric("cache.evictions_per_request", static_cast<double>(b.evictions - a.evictions) / n,
         "count");
  metric("json.response_bytes", untraced.responseBytes, "bytes");
  const double loopJobs = static_cast<double>(untraced.loopJobs + traced.loopJobs);
  metric("engine.nonconverged_ratio",
         loopJobs > 0 ? static_cast<double>(untraced.nonConverged + traced.nonConverged) /
                            loopJobs
                      : 0.0,
         "ratio");

  // Layer functions timed directly, on the sampled designs and requests.
  Samples samples;
  for (ReferenceRun& ref : references_) measureDesign(ref, args_.seed, samples);
  std::vector<std::string> lines;
  std::vector<lo::core::EngineResult> results;
  for (std::uint64_t i = 0; i < 64; ++i) lines.push_back(plainLine(i));
  for (const ReferenceRun& ref : references_) results.push_back(ref.result);
  measureRequestPath(lines, results, tech_, samples);
  measureJournal(std::vector<std::string>(lines.begin(), lines.begin() + 32),
                 runDir_ + "/journal-append", samples);

  // submit() on the live scheduler, re-sending already-served points so
  // each submission is answered from the cache.
  {
    std::vector<std::uint64_t> served;
    if (isSweep(args_.workload)) {
      for (const auto& [index, result] : results_) served.push_back(index);
    } else {
      for (std::uint64_t i = 0; i < hotLines_.size(); ++i) served.push_back(i);
    }
    if (served.size() > 32) served.erase(served.begin(), served.end() - 32);
    for (const std::uint64_t index : served) {
      const lo::service::JobRequest job =
          lo::service::parseJobRequest(Json::parse(plainLine(index)));
      const auto t0 = Clock::now();
      const std::uint64_t id = service_.scheduler->submit(job);
      samples["scheduler.submit_us"].push_back(secondsBetween(t0, Clock::now()) * 1e6);
      if (service_.scheduler->wait(id).state != lo::service::JobState::kDone) {
        throw std::runtime_error("re-submitted job did not finish");
      }
    }
  }

  static const std::pair<const char*, const char*> kMicro[] = {
      {"sizing.vgs_for_current_us", "us"}, {"sizing.measure_amplifier_ms", "ms"},
      {"verify.measure_extended_ms", "ms"}, {"sim.dc_op_ms", "ms"},
      {"sim.newton_iters_per_op", "count"}, {"sim.dc_sweep_ms", "ms"},
      {"sim.ac_ms", "ms"},                   {"sim.ac_points", "count"},
      {"sim.lu_factorizations", "count"},    {"sim.noise_ms", "ms"},
      {"sim.tran_ms", "ms"},                 {"sim.tran_steps", "count"},
      {"sim.tran_us_per_step", "us"},        {"sim.mna_unknowns", "count"},
      {"device.eval_ns", "ns"},              {"linear.lu_factor_us", "us"},
      {"linear.lu_solve_us", "us"},          {"linear.lu_factor_complex_us", "us"},
      {"protocol.request_parse_us", "us"},   {"cache.key_us", "us"},
      {"scheduler.submit_us", "us"},         {"journal.append_us", "us"},
      {"json.result_serialize_us", "us"},
  };
  for (const auto& [name, unit] : kMicro) {
    const auto it = samples.find(name);
    if (it == samples.end()) throw std::runtime_error(std::string("no samples for ") + name);
    metric(name, median(it->second), unit);
  }
}

int Bench::run() {
  setUp();
  // A traced run splits its measured time between an untraced and a
  // traced phase, so their difference gives the tracing overhead.
  const double phaseSeconds = args_.trace ? args_.seconds / 2.0 : args_.seconds;
  Phase first = measure(false, phaseSeconds);
  Phase traced;
  if (args_.trace) traced = measure(true, phaseSeconds);
  checkReferences(first, args_.trace ? 2 : 1);
  if (args_.trace) {
    reportLayers(first, traced);
    const std::string dir = args_.scratch + "/traces";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + workloadName(args_.workload) + "-" +
                             std::to_string(args_.seed) + ".jsonl";
    std::ofstream file(path);
    tracer_.write(file);
    std::fprintf(stderr, "losynth_perfbench: spans written to %s\n", path.c_str());
  } else {
    reportEndToEnd(first);
  }

  const std::uint64_t attempted = first.attempted + traced.attempted;
  const std::uint64_t failed = first.failed + traced.failed;
  for (const Phase* p : {&first, &traced}) {
    for (const std::string& why : p->problems) {
      std::fprintf(stderr, "losynth_perfbench: check failed: %s\n", why.c_str());
    }
    if (p->nonConverged > 0) {
      std::fprintf(stderr,
                   "losynth_perfbench: %llu of %llu case-3/4 jobs ended with a "
                   "non-converged layout loop\n",
                   static_cast<unsigned long long>(p->nonConverged),
                   static_cast<unsigned long long>(p->loopJobs));
    }
  }
  std::printf("%-32s %16s  %s\n", "metric", "value", "unit");
  for (const auto& [name, m] : metrics_.members()) {
    std::printf("%-32s %16.6g  %s\n", name.c_str(), m.at("value").asDouble(),
                m.at("unit").asString().c_str());
  }
  Json out = Json::object();
  out.set("correct", failed == 0);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics", metrics_);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    Bench bench(parseArgs(argc, argv));
    return bench.run();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "losynth_perfbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "losynth_perfbench: fatal: %s\n", e.what());
    return 1;
  }
}
