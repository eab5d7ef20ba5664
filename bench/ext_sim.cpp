// Simulator hot-path snapshot: cold DC latency distribution, warm-start
// Monte-Carlo-style chain throughput, batched-AC throughput and transient
// step throughput, each
// measured against the pre-optimization reference path kept alive as
// SolverMode::kReference -- the baseline is recorded in the same run, on
// the same machine, so the speedups in BENCH_sim.json are self-contained.
//
// Writes BENCH_sim.json under examples/out/ with:
//   * cold Newton p50/p99 single-solve latency and iters/sec (fast & ref),
//   * warm-chain points/sec vs per-point cold reference (sweep throughput),
//   * AC (frequency, excitation) points/sec, batched fast vs one-at-a-time
//     reference,
//   * heap allocation counts per AC point and per warm solve vs reference,
//   * transient steps/sec and allocations per step, fast vs reference runs
//     interleaved in this one process,
//   * per captured matrix class (slew transient, AC grid, noise forward +
//     adjoint of both topologies): n, nonzeros and ns per factorization of
//     the zero-skipping luFactorize vs the one-shot luSolve.
//
// Acceptance gates (exit 1 on violation):
//   * AC batch throughput   >= 2.0x the reference path,
//   * warm sweep throughput >= 1.5x the per-point cold reference,
//   * fast-path allocations <= 50% of the reference per AC point and per
//     warm solve,
//   * fast Newton iters/sec >= 0.9x the reference (the batched device
//     evaluation must not regress per-iteration cost),
//   * transient steps/sec   >= 1.2x the reference,
//   * transient allocations per step <= 50% of the reference,
//   * LU bit identity: every captured testbench matrix, factored by
//     luFactorize and solved by luSolveFactored, gives luSolve's solution
//     bit for bit (and the same acceptance).  This gate checks bits, not
//     speed, so a slow host cannot flake it.
//
// CI runs a short-budget pass: ext_sim --sim-reps=30 --benchmark_filter=none.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/ota.hpp"
#include "circuit/two_stage.hpp"
#include "layout/writers.hpp"
#include "sim/linear.hpp"
#include "sim/simulator.hpp"
#include "sizing/ota_sizer.hpp"
#include "sizing/two_stage.hpp"
#include "sizing/verify.hpp"
#include "tech/technology.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter.  Counting, not tracking: every path through
// operator new bumps one relaxed atomic, so section deltas give exact
// allocation counts for the code they bracket.

namespace {
std::atomic<unsigned long long> gAllocCount{0};
}  // namespace

// GCC flags std::free on aligned_alloc results inside replaced operator
// delete as a mismatched pair; it is the standard-blessed pairing.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
namespace {
void* alignedAlloc(std::size_t size, std::align_val_t align) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace
void* operator new(std::size_t size, std::align_val_t align) {
  return alignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return alignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace lo;
using Clock = std::chrono::steady_clock;

int gSimReps = 60;  // Repetition budget; CI passes a smaller one.

[[nodiscard]] double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] unsigned long long allocsNow() {
  return gAllocCount.load(std::memory_order_relaxed);
}

/// The workload circuit: the folded-cascode verification testbench
/// (11 transistors, feedback network, differential excitation) -- the exact
/// netlist the verification tier hammers in production.
struct Workload {
  std::unique_ptr<device::MosModel> model = device::MosModel::create("ekv");
  circuit::Circuit testbench;
  sizing::VerifyOptions verifyOptions;
  circuit::Circuit slewTestbench;  ///< The same design under the slew transient.
  Workload() {
    const tech::Technology& t = technology();
    sizing::OtaSizer sizer(t, *model);
    const sizing::SizingResult sized =
        sizer.size(sizing::OtaSpecs{}, sizing::SizingPolicy::case2());
    sizing::OtaVerifier v(t, *model);
    testbench = v.buildAcTestbench(sized.design, nullptr, 1.0, 0.0, 0.0);
    slewTestbench = sizing::buildSlewTestbench(
        [&](circuit::Circuit& c) { circuit::instantiateOta(c, sized.design); },
        sized.design.inputCm, nullptr, verifyOptions);
  }
  [[nodiscard]] static const tech::Technology& technology() {
    static const tech::Technology t = tech::Technology::generic060();
    return t;
  }
  [[nodiscard]] sim::SimOptions options(sim::SolverMode mode) const {
    sim::SimOptions opt;
    opt.tempK = technology().temperature;
    opt.solver = mode;
    return opt;
  }
};

struct DcSample {
  double p50Ms = 0.0;
  double p99Ms = 0.0;
  double itersPerSecFast = 0.0;
  double itersPerSecRef = 0.0;
  double itersRatio = 0.0;
};

/// Cold operating-point latency: every rep runs the full gmin ladder from
/// scratch on a per-rep Simulator, the honest "one solve, cold caches"
/// number a scheduler job pays.
DcSample runColdDc(const Workload& w) {
  DcSample s;
  std::vector<double> repMs;
  repMs.reserve(gSimReps);
  long fastIters = 0;
  double fastSec = 0.0;
  for (int rep = 0; rep < gSimReps; ++rep) {
    sim::Simulator sim(w.testbench, Workload::technology(), *w.model,
                       w.options(sim::SolverMode::kFast));
    const auto t0 = Clock::now();
    const sim::DcSolution op = sim.dcOperatingPoint();
    const double dt = secondsSince(t0);
    benchmark::DoNotOptimize(op.nodeVoltages.data());
    repMs.push_back(dt * 1e3);
    fastSec += dt;
    fastIters += sim.stats().newtonIterations;
  }
  std::sort(repMs.begin(), repMs.end());
  s.p50Ms = repMs[repMs.size() / 2];
  s.p99Ms = repMs[std::min(repMs.size() - 1, repMs.size() * 99 / 100)];
  s.itersPerSecFast = fastSec > 0.0 ? fastIters / fastSec : 0.0;

  long refIters = 0;
  double refSec = 0.0;
  for (int rep = 0; rep < gSimReps; ++rep) {
    sim::Simulator sim(w.testbench, Workload::technology(), *w.model,
                       w.options(sim::SolverMode::kReference));
    const auto t0 = Clock::now();
    const sim::DcSolution op = sim.dcOperatingPoint();
    refSec += secondsSince(t0);
    benchmark::DoNotOptimize(op.nodeVoltages.data());
    refIters += sim.stats().newtonIterations;
  }
  s.itersPerSecRef = refSec > 0.0 ? refIters / refSec : 0.0;
  s.itersRatio = s.itersPerSecRef > 0.0 ? s.itersPerSecFast / s.itersPerSecRef : 0.0;
  return s;
}

struct SweepSample {
  int trials = 0;
  double warmPointsPerSec = 0.0;
  double coldPointsPerSec = 0.0;
  double speedup = 0.0;
  long warmHits = 0;
  double allocsPerWarmSolve = 0.0;
  double allocsPerColdSolve = 0.0;
  double allocRatio = 0.0;
};

/// Monte-Carlo-style neighbouring-point chain: per trial, nudge every
/// device's threshold (the mismatch draw shape) and re-solve.  Fast side:
/// one Simulator + one WarmStart across the whole chain (what
/// sizing::monteCarlo now does).  Baseline: the pre-PR structure -- a fresh
/// circuit copy, fresh Simulator and full cold ladder per trial on the
/// reference solver.
SweepSample runWarmSweep(const Workload& w) {
  SweepSample s;
  s.trials = std::max(gSimReps / 2, 12);
  auto vtoAt = [](int trial, std::size_t dev) {
    return 2e-3 * std::sin(0.7 * trial + 1.3 * static_cast<double>(dev));
  };

  {
    circuit::Circuit work = w.testbench;
    sim::Simulator sim(work, Workload::technology(), *w.model,
                       w.options(sim::SolverMode::kFast));
    sim::Simulator::WarmStart warm;
    // Trial 0 outside the timed region: it runs the cold ladder and warms
    // the workspace; the steady-state chain is what the throughput and
    // allocation numbers describe.
    for (std::size_t d = 0; d < work.mosfets.size(); ++d) {
      work.mosfets[d].vtoDelta = vtoAt(0, d);
    }
    benchmark::DoNotOptimize(sim.dcOperatingPoint(warm).iterations);
    const auto t0 = Clock::now();
    const unsigned long long a0 = allocsNow();
    for (int trial = 1; trial <= s.trials; ++trial) {
      for (std::size_t d = 0; d < work.mosfets.size(); ++d) {
        work.mosfets[d].vtoDelta = vtoAt(trial, d);
      }
      benchmark::DoNotOptimize(sim.dcOperatingPoint(warm).iterations);
    }
    const double dt = secondsSince(t0);
    s.allocsPerWarmSolve = static_cast<double>(allocsNow() - a0) / s.trials;
    s.warmPointsPerSec = dt > 0.0 ? s.trials / dt : 0.0;
    s.warmHits = sim.stats().warmStartHits;
  }

  {
    const auto t0 = Clock::now();
    const unsigned long long a0 = allocsNow();
    for (int trial = 1; trial <= s.trials; ++trial) {
      circuit::Circuit work = w.testbench;
      for (std::size_t d = 0; d < work.mosfets.size(); ++d) {
        work.mosfets[d].vtoDelta = vtoAt(trial, d);
      }
      sim::Simulator sim(work, Workload::technology(), *w.model,
                         w.options(sim::SolverMode::kReference));
      benchmark::DoNotOptimize(sim.dcOperatingPoint().iterations);
    }
    const double dt = secondsSince(t0);
    s.allocsPerColdSolve = static_cast<double>(allocsNow() - a0) / s.trials;
    s.coldPointsPerSec = dt > 0.0 ? s.trials / dt : 0.0;
  }

  s.speedup = s.coldPointsPerSec > 0.0 ? s.warmPointsPerSec / s.coldPointsPerSec : 0.0;
  s.allocRatio =
      s.allocsPerColdSolve > 0.0 ? s.allocsPerWarmSolve / s.allocsPerColdSolve : 0.0;
  return s;
}

struct AcSample {
  int freqPoints = 0;
  int excitations = 0;
  double fastPointsPerSec = 0.0;
  double refPointsPerSec = 0.0;
  double speedup = 0.0;
  double allocsPerPointFast = 0.0;
  double allocsPerPointRef = 0.0;
  double allocRatio = 0.0;
};

/// The verification tier's small-signal block: differential, common-mode
/// and supply excitations over a dense grid.  Fast side solves the block
/// through acBatch (one factorization per frequency); the baseline runs
/// the three pre-PR one-excitation-at-a-time analyses.
AcSample runAcBatch(const Workload& w) {
  AcSample s;
  const double fStart = 10.0, fStop = 1e9;
  const int ppd = 16;
  const std::vector<sim::AcExcitation> block = {
      sim::AcExcitation::circuitSources(),
      sim::AcExcitation::unitVsource("VCM"),
      sim::AcExcitation::unitVsource("VDD"),
  };
  s.excitations = static_cast<int>(block.size());

  sim::Simulator fast(w.testbench, Workload::technology(), *w.model,
                      w.options(sim::SolverMode::kFast));
  const sim::DcSolution op = fast.dcOperatingPoint();

  // Warm the workspace outside the timed region (the reference path has no
  // equivalent to warm, by construction).
  benchmark::DoNotOptimize(fast.acBatch(op, block, fStart, 1e2, 2).size());

  const int reps = std::max(gSimReps / 10, 3);
  double fastSec = 0.0;
  unsigned long long fastAllocs = 0;
  std::size_t nFreq = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const unsigned long long a0 = allocsNow();
    const auto t0 = Clock::now();
    const auto curves = fast.acBatch(op, block, fStart, fStop, ppd);
    fastSec += secondsSince(t0);
    fastAllocs += allocsNow() - a0;
    nFreq = curves.front().size();
    benchmark::DoNotOptimize(curves.front().front().nodeV.data());
  }
  s.freqPoints = static_cast<int>(nFreq);
  const double totalPoints = static_cast<double>(nFreq) * s.excitations * reps;
  // Every returned AcPoint owns exactly two heap vectors (nodeV, vsourceI)
  // in both modes; subtract them so the metric isolates the SOLVER's
  // allocations -- the traffic the workspace rewrite eliminates.
  const double kResultAllocsPerPoint = 2.0;
  s.fastPointsPerSec = fastSec > 0.0 ? totalPoints / fastSec : 0.0;
  s.allocsPerPointFast = std::max(0.0, fastAllocs / totalPoints - kResultAllocsPerPoint);

  sim::Simulator ref(w.testbench, Workload::technology(), *w.model,
                     w.options(sim::SolverMode::kReference));
  const sim::DcSolution opRef = ref.dcOperatingPoint();
  double refSec = 0.0;
  unsigned long long refAllocs = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const unsigned long long a0 = allocsNow();
    const auto t0 = Clock::now();
    const auto diff = ref.ac(opRef, fStart, fStop, ppd);
    const auto cm = ref.acFrom(opRef, "VCM", fStart, fStop, ppd);
    const auto psrr = ref.acFrom(opRef, "VDD", fStart, fStop, ppd);
    refSec += secondsSince(t0);
    refAllocs += allocsNow() - a0;
    benchmark::DoNotOptimize(diff.front().nodeV.data());
    benchmark::DoNotOptimize(cm.front().nodeV.data());
    benchmark::DoNotOptimize(psrr.front().nodeV.data());
  }
  s.refPointsPerSec = refSec > 0.0 ? totalPoints / refSec : 0.0;
  s.allocsPerPointRef = std::max(0.0, refAllocs / totalPoints - kResultAllocsPerPoint);
  s.speedup = s.refPointsPerSec > 0.0 ? s.fastPointsPerSec / s.refPointsPerSec : 0.0;
  s.allocRatio =
      s.allocsPerPointRef > 0.0 ? s.allocsPerPointFast / s.allocsPerPointRef : 0.0;
  return s;
}

struct TranSample {
  int reps = 0;
  long stepsPerRun = 0;
  double newtonItersPerStep = 0.0;
  double fastStepsPerSec = 0.0;
  double refStepsPerSec = 0.0;
  double speedup = 0.0;
  double allocsPerStepFast = 0.0;
  double allocsPerStepRef = 0.0;
  double allocRatio = 0.0;
};

/// The verification tier's slew transient (hard unity feedback, +/- input
/// step, 1000 steps of 0.5 ns) -- the analysis that dominates a
/// verification stage.  Fast and reference runs alternate rep by rep, so
/// host drift lands on both sides alike.
TranSample runTransient(const Workload& w) {
  TranSample s;
  s.reps = std::max(gSimReps / 5, 3);
  const double tStop = w.verifyOptions.tranStop, dt = w.verifyOptions.tranStep;
  sim::Simulator fast(w.slewTestbench, Workload::technology(), *w.model,
                      w.options(sim::SolverMode::kFast));
  // One untimed run per side warms caches and the fast workspace.
  benchmark::DoNotOptimize(fast.transient(tStop, dt).size());
  {
    sim::Simulator ref(w.slewTestbench, Workload::technology(), *w.model,
                       w.options(sim::SolverMode::kReference));
    benchmark::DoNotOptimize(ref.transient(tStop, dt).size());
  }
  const sim::SimStats before = fast.stats();

  double fastSec = 0.0, refSec = 0.0;
  unsigned long long fastAllocs = 0, refAllocs = 0;
  for (int rep = 0; rep < s.reps; ++rep) {
    unsigned long long a0 = allocsNow();
    auto t0 = Clock::now();
    const auto f = fast.transient(tStop, dt);
    fastSec += secondsSince(t0);
    fastAllocs += allocsNow() - a0;
    benchmark::DoNotOptimize(f.back().nodeV.data());

    sim::Simulator ref(w.slewTestbench, Workload::technology(), *w.model,
                       w.options(sim::SolverMode::kReference));
    a0 = allocsNow();
    t0 = Clock::now();
    const auto r = ref.transient(tStop, dt);
    refSec += secondsSince(t0);
    refAllocs += allocsNow() - a0;
    benchmark::DoNotOptimize(r.back().nodeV.data());
    s.stepsPerRun = static_cast<long>(r.size()) - 1;
  }
  const double steps = static_cast<double>(fast.stats().tranSteps - before.tranSteps);
  s.newtonItersPerStep =
      steps > 0.0 ? (fast.stats().tranNewtonIterations - before.tranNewtonIterations) / steps
                  : 0.0;
  s.fastStepsPerSec = fastSec > 0.0 ? steps / fastSec : 0.0;
  s.refStepsPerSec = refSec > 0.0 ? steps / refSec : 0.0;
  s.speedup = s.refStepsPerSec > 0.0 ? s.fastStepsPerSec / s.refStepsPerSec : 0.0;
  // Every returned sample owns one heap vector (nodeV) in both modes;
  // subtract it so the metric isolates the SOLVER's per-step allocations.
  const double kResultAllocsPerStep = 1.0;
  s.allocsPerStepFast = std::max(0.0, fastAllocs / steps - kResultAllocsPerStep);
  s.allocsPerStepRef = std::max(0.0, refAllocs / steps - kResultAllocsPerStep);
  s.allocRatio = s.allocsPerStepRef > 0.0 ? s.allocsPerStepFast / s.allocsPerStepRef : 0.0;
  return s;
}

// ---------------------------------------------------------------------------
// LU bit-identity gate over real testbench matrices.

struct LuGateRow {
  std::string name;
  bool complex = false;
  std::size_t count = 0;
  std::size_t n = 0;
  double meanNonzeros = 0.0;
  double factorNs = 0.0;    ///< luFactorize per matrix.
  double solveNs = 0.0;     ///< luSolveFactored per matrix.
  double oneShotNs = 0.0;   ///< luSolve (factor and solve) per matrix.
  std::size_t mismatches = 0;  ///< Matrices whose solution or acceptance differs.
};

template <typename T>
[[nodiscard]] bool sameBits(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

/// Compare the fast factor/solve with the one-shot luSolve on every matrix
/// one analysis factored, and time both.  The RHS is dense and fixed, so
/// every row of each solve carries data.
template <typename T>
LuGateRow checkMatrices(std::string name, const std::vector<sim::DenseMatrix<T>>& matrices) {
  LuGateRow row;
  row.name = std::move(name);
  row.complex = !std::is_same_v<T, double>;
  row.count = matrices.size();
  if (matrices.empty()) return row;
  row.n = matrices.front().size();
  std::vector<T> rhs(row.n);
  for (std::size_t i = 0; i < row.n; ++i) rhs[i] = T(1.0 / (1.0 + static_cast<double>(i)));

  std::size_t nonzeros = 0;
  for (const auto& a : matrices) {
    for (std::size_t r = 0; r < a.size(); ++r) {
      for (std::size_t c = 0; c < a.size(); ++c) nonzeros += a.at(r, c) != T{} ? 1 : 0;
    }
  }
  row.meanNonzeros = static_cast<double>(nonzeros) / static_cast<double>(row.count);

  std::vector<sim::DenseMatrix<T>> fast = matrices;
  std::vector<sim::DenseMatrix<T>> oneShot = matrices;
  std::vector<std::vector<std::size_t>> perms(row.count);
  std::vector<std::vector<T>> xFast(row.count, rhs), xOneShot(row.count, rhs);
  std::vector<char> okFast(row.count), okOneShot(row.count);

  auto t0 = Clock::now();
  for (std::size_t i = 0; i < row.count; ++i) okFast[i] = sim::luFactorize(fast[i], perms[i]);
  row.factorNs = secondsSince(t0) * 1e9 / static_cast<double>(row.count);
  t0 = Clock::now();
  for (std::size_t i = 0; i < row.count; ++i) {
    if (okFast[i]) sim::luSolveFactored(fast[i], perms[i], xFast[i]);
  }
  row.solveNs = secondsSince(t0) * 1e9 / static_cast<double>(row.count);
  t0 = Clock::now();
  for (std::size_t i = 0; i < row.count; ++i) okOneShot[i] = sim::luSolve(oneShot[i], xOneShot[i]);
  row.oneShotNs = secondsSince(t0) * 1e9 / static_cast<double>(row.count);

  for (std::size_t i = 0; i < row.count; ++i) {
    const bool same = okFast[i] == okOneShot[i] && (!okFast[i] || sameBits(xFast[i], xOneShot[i]));
    row.mismatches += same ? 0 : 1;
  }
  return row;
}

/// Run the slew transient, the AC grid and the noise analysis of one
/// amplifier as the verification tier does, and check every matrix each
/// one factors (the transient's include its operating point's).
void checkAmplifier(const std::string& topology, const sizing::AmpInstantiateFn& instantiate,
                    double inputCm, const device::MosModel& model,
                    const sizing::VerifyOptions& vo, std::vector<LuGateRow>& rows) {
  sim::SimOptions opt;
  opt.tempK = Workload::technology().temperature;
  std::vector<sim::DenseMatrix<double>> real;
  std::vector<sim::DenseMatrix<std::complex<double>>> cplx;
  const sim::Simulator::FactorObserver observer{
      [&](const sim::DenseMatrix<double>& a) { real.push_back(a); },
      [&](const sim::DenseMatrix<std::complex<double>>& a) { cplx.push_back(a); }};

  const circuit::Circuit slew = sizing::buildSlewTestbench(instantiate, inputCm, nullptr, vo);
  sim::Simulator tranSim(slew, Workload::technology(), model, opt);
  tranSim.setFactorObserver(observer);
  benchmark::DoNotOptimize(tranSim.transient(vo.tranStop, vo.tranStep).size());
  rows.push_back(checkMatrices(topology + " slew transient", real));

  const circuit::Circuit acTb =
      sizing::buildAmpAcTestbench(instantiate, inputCm, nullptr, 0.0, 0.0, 0.0);
  sim::Simulator acSim(acTb, Workload::technology(), model, opt);
  const sim::DcSolution op = acSim.dcOperatingPoint();
  acSim.setFactorObserver(observer);
  benchmark::DoNotOptimize(
      acSim.acFrom(op, "VDIFF", vo.fStart, vo.fStop, vo.pointsPerDecade).size());
  rows.push_back(checkMatrices(topology + " AC grid", cplx));
  cplx.clear();
  benchmark::DoNotOptimize(acSim
                               .noise(op, *acTb.findNode("out"), "VDIFF",
                                      sizing::kNoiseBandLowHz, sizing::kNoiseBandHighHz, 10)
                               .size());
  rows.push_back(checkMatrices(topology + " noise fwd+adjoint", cplx));
}

std::vector<LuGateRow> runLuGate(const Workload& w) {
  std::vector<LuGateRow> rows;
  const tech::Technology& t = Workload::technology();
  sizing::OtaSizer otaSizer(t, *w.model);
  const circuit::FoldedCascodeOtaDesign ota =
      otaSizer.size(sizing::OtaSpecs{}, sizing::SizingPolicy::case2()).design;
  checkAmplifier("folded-cascode", [&](circuit::Circuit& c) { circuit::instantiateOta(c, ota); },
                 ota.inputCm, *w.model, w.verifyOptions, rows);
  sizing::TwoStageSizer twoStageSizer(t, *w.model);
  const circuit::TwoStageOtaDesign twoStage =
      twoStageSizer.size(sizing::OtaSpecs{}, sizing::SizingPolicy::case2()).design;
  checkAmplifier(
      "two-stage", [&](circuit::Circuit& c) { circuit::instantiateTwoStage(c, twoStage); },
      twoStage.inputCm, *w.model, w.verifyOptions, rows);
  return rows;
}

std::string toJson(const DcSample& dc, const SweepSample& sweep, const AcSample& ac,
                   const TranSample& tran, const std::vector<LuGateRow>& lu, int failures) {
  std::ostringstream out;
  out.precision(10);
  out << "{\n  \"bench\": \"ext_sim\",\n  \"reps\": " << gSimReps
      << ",\n  \"dc\": {\"cold_p50_ms\": " << dc.p50Ms
      << ", \"cold_p99_ms\": " << dc.p99Ms
      << ", \"newton_iters_per_sec_fast\": " << dc.itersPerSecFast
      << ", \"newton_iters_per_sec_ref\": " << dc.itersPerSecRef
      << ", \"iters_ratio\": " << dc.itersRatio
      << "},\n  \"sweep\": {\"trials\": " << sweep.trials
      << ", \"warm_points_per_sec\": " << sweep.warmPointsPerSec
      << ", \"cold_points_per_sec\": " << sweep.coldPointsPerSec
      << ", \"speedup\": " << sweep.speedup << ", \"warm_hits\": " << sweep.warmHits
      << ", \"allocs_per_warm_solve\": " << sweep.allocsPerWarmSolve
      << ", \"allocs_per_cold_solve\": " << sweep.allocsPerColdSolve
      << ", \"alloc_ratio\": " << sweep.allocRatio
      << "},\n  \"ac\": {\"freq_points\": " << ac.freqPoints
      << ", \"excitations\": " << ac.excitations
      << ", \"fast_points_per_sec\": " << ac.fastPointsPerSec
      << ", \"ref_points_per_sec\": " << ac.refPointsPerSec
      << ", \"speedup\": " << ac.speedup
      << ", \"solver_allocs_per_point_fast\": " << ac.allocsPerPointFast
      << ", \"solver_allocs_per_point_ref\": " << ac.allocsPerPointRef
      << ", \"alloc_ratio\": " << ac.allocRatio
      << "},\n  \"tran\": {\"reps\": " << tran.reps
      << ", \"steps_per_run\": " << tran.stepsPerRun
      << ", \"newton_iters_per_step\": " << tran.newtonItersPerStep
      << ", \"fast_steps_per_sec\": " << tran.fastStepsPerSec
      << ", \"ref_steps_per_sec\": " << tran.refStepsPerSec
      << ", \"speedup\": " << tran.speedup
      << ", \"solver_allocs_per_step_fast\": " << tran.allocsPerStepFast
      << ", \"solver_allocs_per_step_ref\": " << tran.allocsPerStepRef
      << ", \"alloc_ratio\": " << tran.allocRatio << "},\n  \"lu\": [";
  for (std::size_t i = 0; i < lu.size(); ++i) {
    const LuGateRow& r = lu[i];
    out << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << r.name
        << "\", \"complex\": " << (r.complex ? "true" : "false") << ", \"matrices\": " << r.count
        << ", \"n\": " << r.n << ", \"mean_nonzeros\": " << r.meanNonzeros
        << ", \"factor_ns\": " << r.factorNs << ", \"solve_ns\": " << r.solveNs
        << ", \"lu_solve_ns\": " << r.oneShotNs << ", \"mismatches\": " << r.mismatches << "}";
  }
  out << "],\n  \"gates\": {\"ac_speedup_min\": 2.0, \"sweep_speedup_min\": 1.5,"
      << " \"alloc_ratio_max\": 0.5, \"iters_ratio_min\": 0.9,"
      << " \"tran_speedup_min\": 1.2, \"tran_alloc_ratio_max\": 0.5, \"lu_mismatches_max\": 0,"
      << " \"pass\": "
      << (failures == 0 ? "true" : "false") << "}\n}\n";
  return out.str();
}

int runSnapshot() {
  const Workload w;
  const DcSample dc = runColdDc(w);
  const SweepSample sweep = runWarmSweep(w);
  const AcSample ac = runAcBatch(w);
  const TranSample tran = runTransient(w);
  const std::vector<LuGateRow> lu = runLuGate(w);

  std::printf("\n=== ext_sim: simulator hot-path snapshot (%d reps) ===\n", gSimReps);
  std::printf("cold DC    p50=%.3f ms  p99=%.3f ms  iters/s fast=%.3g ref=%.3g (%.2fx)\n",
              dc.p50Ms, dc.p99Ms, dc.itersPerSecFast, dc.itersPerSecRef, dc.itersRatio);
  std::printf("warm sweep %d trials  warm=%.3g pts/s cold=%.3g pts/s  speedup=%.2fx"
              "  hits=%ld  allocs/solve warm=%.0f cold=%.0f (%.2fx)\n",
              sweep.trials, sweep.warmPointsPerSec, sweep.coldPointsPerSec,
              sweep.speedup, sweep.warmHits, sweep.allocsPerWarmSolve,
              sweep.allocsPerColdSolve, sweep.allocRatio);
  std::printf("AC batch   %d freqs x %d exc  fast=%.3g pts/s ref=%.3g pts/s"
              "  speedup=%.2fx  solver allocs/pt fast=%.2f ref=%.2f (%.2fx)\n",
              ac.freqPoints, ac.excitations, ac.fastPointsPerSec, ac.refPointsPerSec,
              ac.speedup, ac.allocsPerPointFast, ac.allocsPerPointRef, ac.allocRatio);
  std::printf("transient  %d x %ld steps  %.2f iters/step  fast=%.3g steps/s ref=%.3g steps/s"
              "  speedup=%.2fx  solver allocs/step fast=%.3f ref=%.2f (%.3fx)\n",
              tran.reps, tran.stepsPerRun, tran.newtonItersPerStep, tran.fastStepsPerSec,
              tran.refStepsPerSec, tran.speedup, tran.allocsPerStepFast,
              tran.allocsPerStepRef, tran.allocRatio);

  std::printf("LU gate    zero-skipping luFactorize + luSolveFactored vs one-shot luSolve:\n");
  for (const LuGateRow& r : lu) {
    std::printf("  %-34s %-7s %5zu mats  n=%2zu  nnz=%5.1f (%2.0f%%)  factor=%6.0f ns"
                "  solve=%5.0f ns  luSolve=%6.0f ns  %s\n",
                r.name.c_str(), r.complex ? "complex" : "real", r.count, r.n, r.meanNonzeros,
                r.n ? 100.0 * r.meanNonzeros / static_cast<double>(r.n * r.n) : 0.0,
                r.factorNs, r.solveNs, r.oneShotNs,
                r.mismatches == 0 ? "bit-identical" : "MISMATCH");
  }

  int failures = 0;
  for (const LuGateRow& r : lu) {
    if (r.mismatches > 0 || r.count == 0) {
      std::printf("ACCEPTANCE FAIL: %s: %zu of %zu matrices solve differently from luSolve\n",
                  r.name.c_str(), r.mismatches, r.count);
      ++failures;
    }
  }
  if (ac.speedup < 2.0) {
    std::printf("ACCEPTANCE FAIL: AC batch speedup %.2fx < 2.0x\n", ac.speedup);
    ++failures;
  }
  if (sweep.speedup < 1.5) {
    std::printf("ACCEPTANCE FAIL: warm sweep speedup %.2fx < 1.5x\n", sweep.speedup);
    ++failures;
  }
  if (ac.allocRatio > 0.5) {
    std::printf("ACCEPTANCE FAIL: AC alloc ratio %.2f > 0.5\n", ac.allocRatio);
    ++failures;
  }
  if (sweep.allocRatio > 0.5) {
    std::printf("ACCEPTANCE FAIL: warm-solve alloc ratio %.2f > 0.5\n",
                sweep.allocRatio);
    ++failures;
  }
  if (dc.itersRatio < 0.9) {
    std::printf("ACCEPTANCE FAIL: fast Newton iters/sec %.2fx of reference < 0.9x\n",
                dc.itersRatio);
    ++failures;
  }
  if (tran.speedup < 1.2) {
    std::printf("ACCEPTANCE FAIL: transient speedup %.2fx < 1.2x\n", tran.speedup);
    ++failures;
  }
  if (tran.allocRatio > 0.5) {
    std::printf("ACCEPTANCE FAIL: transient alloc ratio %.2f > 0.5\n", tran.allocRatio);
    ++failures;
  }
  if (sweep.warmHits < sweep.trials) {
    std::printf("ACCEPTANCE FAIL: only %ld/%d warm-start hits\n", sweep.warmHits,
                sweep.trials);
    ++failures;
  }
  if (failures == 0) {
    std::printf("acceptance: AC >= 2x, sweep >= 1.5x, allocs <= 50%%, "
                "iters/sec >= 0.9x, transient >= 1.2x, LU bit-identical -- all gates hold\n");
  }

  const std::string path = layout::outputPath("BENCH_sim.json");
  layout::writeFile(path, toJson(dc, sweep, ac, tran, lu, failures));
  std::printf("wrote %s\n", path.c_str());
  return failures;
}

// Micro-benchmarks for profiling individual hot paths (skipped in CI via
// --benchmark_filter=none).

void BM_WarmDcOperatingPoint(benchmark::State& state) {
  const Workload w;
  circuit::Circuit work = w.testbench;
  sim::Simulator sim(work, Workload::technology(), *w.model,
                     w.options(sim::SolverMode::kFast));
  sim::Simulator::WarmStart warm;
  benchmark::DoNotOptimize(sim.dcOperatingPoint(warm).iterations);
  int trial = 0;
  for (auto _ : state) {
    for (std::size_t d = 0; d < work.mosfets.size(); ++d) {
      work.mosfets[d].vtoDelta = 1e-3 * std::sin(0.7 * trial + static_cast<double>(d));
    }
    benchmark::DoNotOptimize(sim.dcOperatingPoint(warm).iterations);
    ++trial;
  }
}
BENCHMARK(BM_WarmDcOperatingPoint)->Unit(benchmark::kMicrosecond);

void BM_AcBatchThreeExcitations(benchmark::State& state) {
  const Workload w;
  sim::Simulator sim(w.testbench, Workload::technology(), *w.model,
                     w.options(sim::SolverMode::kFast));
  const sim::DcSolution op = sim.dcOperatingPoint();
  const std::vector<sim::AcExcitation> block = {
      sim::AcExcitation::circuitSources(),
      sim::AcExcitation::unitVsource("VCM"),
      sim::AcExcitation::unitVsource("VDD"),
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.acBatch(op, block, 10.0, 1e9, 8).size());
  }
}
BENCHMARK(BM_AcBatchThreeExcitations)->Unit(benchmark::kMillisecond);

void BM_SlewTransient(benchmark::State& state) {
  const Workload w;
  const sim::SolverMode mode =
      state.range(0) == 0 ? sim::SolverMode::kFast : sim::SolverMode::kReference;
  sim::Simulator sim(w.slewTestbench, Workload::technology(), *w.model, w.options(mode));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.transient(w.verifyOptions.tranStop, w.verifyOptions.tranStep).size());
  }
}
BENCHMARK(BM_SlewTransient)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flag before google-benchmark sees (and rejects) it.
  int outArgc = 0;
  for (int i = 0; i < argc; ++i) {
    constexpr const char* kFlag = "--sim-reps=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      gSimReps = std::atoi(argv[i] + std::strlen(kFlag));
      if (gSimReps < 5) {
        std::fprintf(stderr, "bad --sim-reps\n");
        return 2;
      }
      continue;
    }
    argv[outArgc++] = argv[i];
  }
  argc = outArgc;

  const int failures = runSnapshot();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return failures == 0 ? 0 : 1;
}
