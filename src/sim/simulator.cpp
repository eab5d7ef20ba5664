#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>

#include "sim/linear.hpp"
#include "tech/units.hpp"

namespace lo::sim {

namespace {

using circuit::NodeId;
using Cplx = std::complex<double>;

/// Scale an op point so it describes `mult` identical devices in parallel.
device::MosOpPoint scaleByMult(device::MosOpPoint op, double mult) {
  op.id *= mult;
  op.gm *= mult;
  op.gds *= mult;
  op.gmb *= mult;
  op.cgs *= mult;
  op.cgd *= mult;
  op.cgb *= mult;
  op.cdb *= mult;
  op.csb *= mult;
  op.thermalNoisePsd *= mult;
  op.flickerCoeff *= mult;
  return op;
}

/// Log-spaced frequency grid, inclusive of both endpoints.
std::vector<double> logGrid(double fStart, double fStop, int pointsPerDecade) {
  if (fStart <= 0 || fStop <= fStart || pointsPerDecade < 1) {
    throw std::invalid_argument("bad frequency grid");
  }
  std::vector<double> freqs;
  const double decades = std::log10(fStop / fStart);
  const int n = std::max(2, static_cast<int>(std::ceil(decades * pointsPerDecade)) + 1);
  for (int i = 0; i < n; ++i) {
    freqs.push_back(fStart * std::pow(10.0, decades * i / (n - 1)));
  }
  return freqs;
}

/// One reactive entry of the AC system: the fast solve path replays these
/// per frequency as `a(r, c) += j * w * value` over a frequency-independent
/// skeleton, in the exact program order assembleAc stamps them.  That
/// replay is bit-identical to a full re-stamp: capacitor stamps add a pure
/// imaginary to the accumulating entry, and the +0.0 real additions they
/// carry along in assembleAc are IEEE no-ops (no skeleton entry's real
/// part can be -0.0: every entry starts at +0.0 and addition never turns
/// +0.0 negative).
struct CapStampOp {
  std::size_t r = 0;
  std::size_t c = 0;
  double value = 0.0;  ///< Signed capacitance [F].
};

/// Run `eval(card)` on the model card `mos` is evaluated against: the
/// technology card, with the per-device mismatch knobs (Monte Carlo
/// statistical verification) applied on a copy when set.
template <typename Eval>
auto withDeviceCard(const tech::Technology& tech, const circuit::Mos& mos, Eval eval) {
  if (mos.vtoDelta != 0.0 || mos.kpScale != 1.0) {
    tech::MosModelCard card = tech.card(mos.type);
    card.vto += mos.vtoDelta;
    card.kp *= mos.kpScale;
    return eval(card);
  }
  return eval(tech.card(mos.type));
}

/// The stamp half of a scaled op point (what the Newton stamps read).
device::MosStamp stampOf(const device::MosOpPoint& op) {
  return {op.id, op.gm, op.gds, op.gmb};
}

/// The time-invariant stamps every DC and transient Newton matrix starts
/// from, in the original assembly order: gmin diagonal, resistors, then
/// V-source and VCVS incidence.  Clears `a` first.  A copy of this
/// skeleton followed by the per-iteration stamps reproduces a full
/// re-assembly bit for bit: every entry sees the same additions in the
/// same order.
void stampLinearSkeleton(const circuit::Circuit& ckt, double gmin, DenseMatrix<double>& a) {
  const std::size_t nNodes = static_cast<std::size_t>(ckt.nodeCount() - 1);
  auto idx = [](NodeId n) -> std::ptrdiff_t { return n - 1; };  // Ground maps to -1.
  a.clear();
  for (std::size_t i = 0; i < nNodes; ++i) a.stamp(i, i, gmin);

  for (const circuit::Resistor& r : ckt.resistors) {
    const double g = 1.0 / r.ohms;
    a.stamp(idx(r.a), idx(r.a), g);
    a.stamp(idx(r.b), idx(r.b), g);
    a.stamp(idx(r.a), idx(r.b), -g);
    a.stamp(idx(r.b), idx(r.a), -g);
  }

  std::size_t branch = nNodes;
  for (const circuit::VSource& s : ckt.vsources) {
    a.stamp(idx(s.pos), branch, 1.0);
    a.stamp(idx(s.neg), branch, -1.0);
    a.stamp(branch, idx(s.pos), 1.0);
    a.stamp(branch, idx(s.neg), -1.0);
    ++branch;
  }
  for (const circuit::Vcvs& e : ckt.vcvs) {
    a.stamp(idx(e.pos), branch, 1.0);
    a.stamp(idx(e.neg), branch, -1.0);
    a.stamp(branch, idx(e.pos), 1.0);
    a.stamp(branch, idx(e.neg), -1.0);
    a.stamp(branch, idx(e.cp), -e.gain);
    a.stamp(branch, idx(e.cn), e.gain);
    ++branch;
  }
}

/// The independent-source half of the Newton RHS, in the original order:
/// I-sources into their nodes, then V-source values on their branches.
/// `value(wave)` is each source's value at this solve (scaled DC value, or
/// the waveform at the step's time).  Zeroes `rhs` first.
template <typename ValueFn>
void stampSourceRhs(const circuit::Circuit& ckt, ValueFn value, std::vector<double>& rhs) {
  const std::size_t nNodes = static_cast<std::size_t>(ckt.nodeCount() - 1);
  auto idx = [](NodeId n) -> std::ptrdiff_t { return n - 1; };
  std::fill(rhs.begin(), rhs.end(), 0.0);
  for (const circuit::ISource& s : ckt.isources) {
    const double i0 = value(s.wave);
    if (idx(s.pos) >= 0) rhs[idx(s.pos)] -= i0;
    if (idx(s.neg) >= 0) rhs[idx(s.neg)] += i0;
  }
  std::size_t branch = nNodes;
  for (const circuit::VSource& s : ckt.vsources) rhs[branch++] = value(s.wave);
}

/// Linearised MOS companion: i_d = Ieq + gm vgs + gds vds + gmb vbs about x.
void stampMos(const circuit::Mos& m, const device::MosStamp& op, const std::vector<double>& x,
              DenseMatrix<double>& a, std::vector<double>& rhs) {
  auto idx = [](NodeId n) -> std::ptrdiff_t { return n - 1; };
  auto v = [&](NodeId n) { return n == circuit::kGround ? 0.0 : x[n - 1]; };
  const double vgs = v(m.gate) - v(m.source);
  const double vds = v(m.drain) - v(m.source);
  const double vbs = v(m.bulk) - v(m.source);
  const double ieq = op.id - op.gm * vgs - op.gds * vds - op.gmb * vbs;
  const auto d = idx(m.drain), g = idx(m.gate), s = idx(m.source), b = idx(m.bulk);
  a.stamp(d, g, op.gm);
  a.stamp(d, d, op.gds);
  a.stamp(d, b, op.gmb);
  a.stamp(d, s, -(op.gm + op.gds + op.gmb));
  a.stamp(s, g, -op.gm);
  a.stamp(s, d, -op.gds);
  a.stamp(s, b, -op.gmb);
  a.stamp(s, s, op.gm + op.gds + op.gmb);
  if (d >= 0) rhs[d] -= ieq;
  if (s >= 0) rhs[s] += ieq;
}

/// Damped Newton update x += clamp(xNew - x): node voltages move at most
/// `maxStepV` per iteration.  Returns the largest update scaled by the
/// convergence tolerance (< 1 means converged) and its unknown in `worst`.
/// A non-finite solution component fails the iteration: x is left as it
/// was, `worst` names the component and the result is empty.  (A NaN
/// update would otherwise pass as converged, since NaN > maxDelta is
/// false.)
std::optional<double> applyNewtonUpdate(const SimOptions& o, std::size_t nNodes,
                                        const std::vector<double>& xNew,
                                        std::vector<double>& x, std::size_t& worst) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(xNew[i])) {
      worst = i;
      return std::nullopt;
    }
  }
  double maxDelta = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    double delta = xNew[i] - x[i];
    const double limit = i < nNodes ? o.maxStepV : 1e9;  // Damp voltages only.
    delta = std::clamp(delta, -limit, limit);
    x[i] += delta;
    const double scaled = std::abs(delta) / (o.absTolV + o.relTol * std::abs(x[i]));
    if (scaled > maxDelta) {
      maxDelta = scaled;
      worst = i;
    }
  }
  return maxDelta;
}

/// One capacitor branch of a transient: explicit capacitors first, then
/// five per MOS (cgs, cgd, cgb, cdb, csb) refreshed at every step start.
struct TranCapBranch {
  NodeId a = circuit::kGround, b = circuit::kGround;
  double c = 0.0;
  double iPrev = 0.0;
};

/// One trapezoidal capacitor companion of the current step.  The fast
/// transient records these once per step and replays them onto every
/// Newton iteration's matrix and RHS, after the MOS stamps, exactly as the
/// reference path re-stamps them.
struct TranCapStamp {
  std::ptrdiff_t a = -1;  ///< Matrix index; -1 is ground.
  std::ptrdiff_t b = -1;
  double geq = 0.0;
  double ieq = 0.0;
};

}  // namespace

/// Per-instance scratch arena.  kFast solves run entirely inside these
/// buffers, so steady-state Newton iterations and AC frequency points
/// perform no heap allocation; kReference deliberately keeps the original
/// per-call allocation shape instead.
struct Simulator::Workspace {
  // DC / transient Newton buffers: the linear skeleton, the RHS base, the
  // per-iteration matrix and solution.
  DenseMatrix<double> base;
  std::vector<double> rhsBase;
  DenseMatrix<double> a;
  std::vector<double> xNew;
  // Transient step state: capacitor branches, this step's companion
  // replay list, the start-of-step solution and device stamps.
  std::vector<TranCapBranch> caps;
  std::vector<TranCapStamp> capStamps;
  std::vector<double> xPrev;
  std::vector<device::MosStamp> stepStamps;
  // AC skeleton: frequency-independent stamps plus the reactive replay
  // list and the excite-mode source vector.
  DenseMatrix<Cplx> acBase;
  std::vector<CapStampOp> capOps;
  std::vector<Cplx> acSourceRhs;
  // Per-frequency realised matrix, factorization pivots and RHS.
  DenseMatrix<Cplx> acA;
  DenseMatrix<Cplx> acAdj;
  std::vector<Cplx> acRhs;
  std::vector<std::size_t> perm;
  std::vector<std::size_t> permAdj;
};

Simulator::Simulator(const circuit::Circuit& circuit, const tech::Technology& technology,
                     const device::MosModel& model, SimOptions options)
    : circuit_(circuit), tech_(technology), model_(model), options_(options) {}

Simulator::~Simulator() = default;

Simulator::Workspace& Simulator::ws() const {
  if (!ws_) ws_ = std::make_unique<Workspace>();
  return *ws_;
}

/// luFactorize for the fast path: shows the matrix to the observer first
/// and counts the factorizations that succeed.
template <typename T>
bool Simulator::factorize(DenseMatrix<T>& a, std::vector<std::size_t>& perm) const {
  if constexpr (std::is_same_v<T, double>) {
    if (observer_.real) observer_.real(a);
  } else {
    if (observer_.complex) observer_.complex(a);
  }
  if (!luFactorize(a, perm)) return false;
  ++stats_.luFactorizations;
  return true;
}

std::size_t Simulator::unknownCount() const {
  return static_cast<std::size_t>(circuit_.nodeCount() - 1) + circuit_.vsources.size() +
         circuit_.vcvs.size();
}

device::MosOpPoint Simulator::evalMos(const circuit::Mos& mos,
                                      const std::vector<double>& x) const {
  auto v = [&](NodeId n) { return n == circuit::kGround ? 0.0 : x[n - 1]; };
  const double vd = v(mos.drain), vg = v(mos.gate), vs = v(mos.source), vb = v(mos.bulk);
  const device::MosOpPoint op =
      withDeviceCard(tech_, mos, [&](const tech::MosModelCard& card) {
        return model_.evaluate(card, mos.geo, vg - vs, vd - vs, vb - vs, options_.tempK);
      });
  return scaleByMult(op, mos.mult);
}

device::MosStamp Simulator::evalMosStamp(const circuit::Mos& mos,
                                         const std::vector<double>& x) const {
  auto v = [&](NodeId n) { return n == circuit::kGround ? 0.0 : x[n - 1]; };
  const double vd = v(mos.drain), vg = v(mos.gate), vs = v(mos.source), vb = v(mos.bulk);
  device::MosStamp s = withDeviceCard(tech_, mos, [&](const tech::MosModelCard& card) {
    return model_.evaluateStamp(card, mos.geo, vg - vs, vd - vs, vb - vs, options_.tempK);
  });
  // The multiplier scaling scaleByMult applies to the same four fields.
  s.id *= mos.mult;
  s.gm *= mos.mult;
  s.gds *= mos.mult;
  s.gmb *= mos.mult;
  return s;
}

// ---------------------------------------------------------------------------
// DC: Newton iteration with companion-model stamping.
// ---------------------------------------------------------------------------

bool Simulator::newtonSolve(std::vector<double>& x, double gmin, double srcScale,
                            int maxIters, int* itersOut) const {
  const std::size_t nUnknowns = unknownCount();
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  auto sourceValue = [srcScale](const circuit::Waveform& w) { return srcScale * w.dcValue(); };
  // kFast stamps the linear skeleton and source RHS once per call, then
  // iterates inside the workspace arena with the stamp-only device
  // evaluation and a factor/solve LU.  kReference keeps the original
  // re-assemble-per-iteration, buffers-per-call shape.  Both run the same
  // arithmetic on the same values, so the solutions are bit-identical.
  const bool fast = options_.solver == SolverMode::kFast;
  DenseMatrix<double> aLocal;
  std::vector<double> rhsLocal;
  if (fast) {
    Workspace& wk = ws();
    if (wk.base.size() != nUnknowns) wk.base = DenseMatrix<double>(nUnknowns);
    stampLinearSkeleton(circuit_, gmin, wk.base);
    wk.rhsBase.resize(nUnknowns);
    stampSourceRhs(circuit_, sourceValue, wk.rhsBase);
  } else {
    aLocal = DenseMatrix<double>(nUnknowns);
    rhsLocal.resize(nUnknowns);
  }

  for (int iter = 0; iter < maxIters; ++iter) {
    std::size_t worst = 0;
    std::optional<double> maxDelta;
    if (fast) {
      Workspace& wk = ws();
      wk.a = wk.base;
      wk.xNew = wk.rhsBase;  // Built and solved in place.
      for (const circuit::Mos& m : circuit_.mosfets) {
        stampMos(m, evalMosStamp(m, x), x, wk.a, wk.xNew);
      }
      if (!factorize(wk.a, wk.perm)) return false;
      luSolveFactored(wk.a, wk.perm, wk.xNew);
      ++stats_.luSolves;
      maxDelta = applyNewtonUpdate(options_, nNodes, wk.xNew, x, worst);
    } else {
      stampLinearSkeleton(circuit_, gmin, aLocal);
      stampSourceRhs(circuit_, sourceValue, rhsLocal);
      for (const circuit::Mos& m : circuit_.mosfets) {
        stampMos(m, stampOf(evalMos(m, x)), x, aLocal, rhsLocal);
      }
      std::vector<double> xNew = rhsLocal;
      if (!luSolve(aLocal, xNew)) return false;
      maxDelta = applyNewtonUpdate(options_, nNodes, xNew, x, worst);
    }
    ++stats_.newtonIterations;
    if (itersOut) ++*itersOut;
    if (!maxDelta) return false;
    if (*maxDelta < 1.0 && iter > 0) return true;
  }
  return false;
}

DcSolution Simulator::finalizeSolution(const std::vector<double>& x, int iters) const {
  DcSolution sol;
  sol.converged = true;
  sol.iterations = iters;
  sol.nodeVoltages.assign(circuit_.nodeCount(), 0.0);
  for (int n = 1; n < circuit_.nodeCount(); ++n) sol.nodeVoltages[n] = x[n - 1];
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  sol.vsourceCurrents.resize(circuit_.vsources.size());
  for (std::size_t i = 0; i < circuit_.vsources.size(); ++i) {
    sol.vsourceCurrents[i] = x[nNodes + i];
  }
  sol.mosOps.reserve(circuit_.mosfets.size());
  for (const circuit::Mos& m : circuit_.mosfets) sol.mosOps.push_back(evalMos(m, x));
  return sol;
}

DcSolution Simulator::dcOperatingPoint() const {
  std::vector<double> x(unknownCount(), 0.0);
  int iters = 0;

  // Gmin stepping.
  bool ok = true;
  for (double gmin = 1e-2; gmin >= options_.gminFloor * 0.99; gmin /= 10.0) {
    ok = newtonSolve(x, gmin, 1.0, options_.maxNewtonIters, &iters);
    if (!ok) break;
  }
  if (!ok) {
    // Source stepping fallback.
    std::fill(x.begin(), x.end(), 0.0);
    ok = true;
    for (int step = 1; step <= 20 && ok; ++step) {
      ok = newtonSolve(x, options_.gminFloor, step / 20.0, options_.maxNewtonIters, &iters);
    }
  }
  if (!ok) throw SimulationError("DC operating point did not converge");
  return finalizeSolution(x, iters);
}

void Simulator::packContinuation(const DcSolution& sol, std::vector<double>& x) const {
  // Only node voltages and V-source branch currents carry over; dependent
  // source branch entries keep whatever the previous Newton left (the
  // continuation seeding the DC sweep has always used).
  for (int n = 1; n < circuit_.nodeCount(); ++n) x[n - 1] = sol.nodeVoltages[n];
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  for (std::size_t k = 0; k < circuit_.vsources.size(); ++k) {
    x[nNodes + k] = sol.vsourceCurrents[k];
  }
}

Simulator::WarmStart Simulator::warmStartFrom(const DcSolution& seed) const {
  if (seed.nodeVoltages.size() != static_cast<std::size_t>(circuit_.nodeCount()) ||
      seed.vsourceCurrents.size() != circuit_.vsources.size()) {
    throw std::invalid_argument("warmStartFrom: solution does not match circuit layout");
  }
  WarmStart warm;
  warm.x_.assign(unknownCount(), 0.0);
  packContinuation(seed, warm.x_);
  warm.valid_ = true;
  return warm;
}

DcSolution Simulator::dcOperatingPoint(WarmStart& warm) const {
  if (warm.valid_ && warm.x_.size() == unknownCount()) {
    // One Newton run at the final gmin, straight from the seed.
    int iters = 0;
    if (newtonSolve(warm.x_, options_.gminFloor, 1.0, options_.maxNewtonIters, &iters)) {
      ++stats_.warmStartHits;
      return finalizeSolution(warm.x_, iters);
    }
  }
  ++stats_.warmStartMisses;
  DcSolution sol = dcOperatingPoint();  // Throws when the cold ladder fails too.
  if (warm.x_.size() != unknownCount()) warm.x_.assign(unknownCount(), 0.0);
  packContinuation(sol, warm.x_);
  warm.valid_ = true;
  return sol;
}

std::vector<Simulator::SweepPoint> Simulator::dcSweep(const std::string& vsrcName,
                                                      double start, double stop,
                                                      int points) const {
  if (points < 2) throw std::invalid_argument("dcSweep needs at least 2 points");
  circuit::Circuit copy = circuit_;
  circuit::VSource* src = copy.findVSource(vsrcName);
  if (!src) throw SimulationError("dcSweep: no V source named " + vsrcName);

  // Each point continues from its neighbour through the warm-start seam;
  // the first point (and any point the warm Newton refuses) runs the full
  // cold ladder inside dcOperatingPoint(WarmStart&).
  Simulator sub(copy, tech_, model_, options_);
  std::vector<SweepPoint> out;
  out.reserve(points);
  WarmStart warm;
  for (int i = 0; i < points; ++i) {
    const double value = start + (stop - start) * i / (points - 1);
    src->wave = circuit::Waveform::makeDc(value);
    out.push_back({value, sub.dcOperatingPoint(warm)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// AC.
// ---------------------------------------------------------------------------

namespace {

/// Assemble the complex MNA matrix at angular frequency w about `op`.
/// When `excite` is false all independent sources are zeroed (noise use).
void assembleAc(const circuit::Circuit& ckt, const std::vector<device::MosOpPoint>& ops,
                double w, double gmin, bool excite, DenseMatrix<Cplx>& a,
                std::vector<Cplx>& rhs) {
  const std::size_t nNodes = static_cast<std::size_t>(ckt.nodeCount() - 1);
  a.clear();
  std::fill(rhs.begin(), rhs.end(), Cplx{});
  auto idx = [](NodeId n) -> std::ptrdiff_t { return n - 1; };

  for (std::size_t i = 0; i < nNodes; ++i) a.stamp(i, i, Cplx{gmin, 0});

  auto stampAdmittance = [&](NodeId p, NodeId q, Cplx y) {
    a.stamp(idx(p), idx(p), y);
    a.stamp(idx(q), idx(q), y);
    a.stamp(idx(p), idx(q), -y);
    a.stamp(idx(q), idx(p), -y);
  };

  for (const circuit::Resistor& r : ckt.resistors) {
    stampAdmittance(r.a, r.b, Cplx{1.0 / r.ohms, 0});
  }
  for (const circuit::Capacitor& c : ckt.capacitors) {
    stampAdmittance(c.a, c.b, Cplx{0, w * c.farads});
  }

  for (std::size_t i = 0; i < ckt.mosfets.size(); ++i) {
    const circuit::Mos& m = ckt.mosfets[i];
    const device::MosOpPoint& op = ops[i];
    const auto d = idx(m.drain), g = idx(m.gate), s = idx(m.source), b = idx(m.bulk);
    // Transconductances: current into drain controlled by vgs / vbs.
    a.stamp(d, g, Cplx{op.gm, 0});
    a.stamp(d, s, Cplx{-op.gm, 0});
    a.stamp(s, g, Cplx{-op.gm, 0});
    a.stamp(s, s, Cplx{op.gm, 0});
    a.stamp(d, b, Cplx{op.gmb, 0});
    a.stamp(d, s, Cplx{-op.gmb, 0});
    a.stamp(s, b, Cplx{-op.gmb, 0});
    a.stamp(s, s, Cplx{op.gmb, 0});
    stampAdmittance(m.drain, m.source, Cplx{op.gds, 0});
    // Capacitances.
    stampAdmittance(m.gate, m.source, Cplx{0, w * op.cgs});
    stampAdmittance(m.gate, m.drain, Cplx{0, w * op.cgd});
    stampAdmittance(m.gate, m.bulk, Cplx{0, w * op.cgb});
    stampAdmittance(m.drain, m.bulk, Cplx{0, w * op.cdb});
    stampAdmittance(m.source, m.bulk, Cplx{0, w * op.csb});
  }

  std::size_t branch = nNodes;
  for (const circuit::VSource& s : ckt.vsources) {
    a.stamp(idx(s.pos), branch, Cplx{1, 0});
    a.stamp(idx(s.neg), branch, Cplx{-1, 0});
    a.stamp(branch, idx(s.pos), Cplx{1, 0});
    a.stamp(branch, idx(s.neg), Cplx{-1, 0});
    if (excite && s.acMag != 0.0) {
      rhs[branch] = std::polar(s.acMag, s.acPhase * M_PI / 180.0);
    }
    ++branch;
  }
  for (const circuit::Vcvs& e : ckt.vcvs) {
    a.stamp(idx(e.pos), branch, Cplx{1, 0});
    a.stamp(idx(e.neg), branch, Cplx{-1, 0});
    a.stamp(branch, idx(e.pos), Cplx{1, 0});
    a.stamp(branch, idx(e.neg), Cplx{-1, 0});
    a.stamp(branch, idx(e.cp), Cplx{-e.gain, 0});
    a.stamp(branch, idx(e.cn), Cplx{e.gain, 0});
    ++branch;
  }
  if (excite) {
    for (const circuit::ISource& s : ckt.isources) {
      if (s.acMag == 0.0) continue;
      if (idx(s.pos) >= 0) rhs[idx(s.pos)] -= Cplx{s.acMag, 0};
      if (idx(s.neg) >= 0) rhs[idx(s.neg)] += Cplx{s.acMag, 0};
    }
  }
}

/// Frequency-independent half of assembleAc: every stamp except the
/// capacitive ones lands in `base` (their imaginary parts are all +0.0);
/// the capacitive stamps are recorded in `capOps` in assembleAc's program
/// order for per-frequency replay; `sourceRhs` is the excite-mode RHS,
/// which carries no frequency dependence either.  realizeAcMatrix(base,
/// capOps, w) then reproduces assembleAc's matrix bit for bit.
void buildAcSkeleton(const circuit::Circuit& ckt, const std::vector<device::MosOpPoint>& ops,
                     double gmin, DenseMatrix<Cplx>& base, std::vector<CapStampOp>& capOps,
                     std::vector<Cplx>& sourceRhs) {
  const std::size_t nNodes = static_cast<std::size_t>(ckt.nodeCount() - 1);
  base.clear();
  capOps.clear();
  std::fill(sourceRhs.begin(), sourceRhs.end(), Cplx{});
  auto idx = [](NodeId n) -> std::ptrdiff_t { return n - 1; };

  for (std::size_t i = 0; i < nNodes; ++i) base.stamp(i, i, Cplx{gmin, 0});

  auto stampAdmittance = [&](NodeId p, NodeId q, Cplx y) {
    base.stamp(idx(p), idx(p), y);
    base.stamp(idx(q), idx(q), y);
    base.stamp(idx(p), idx(q), -y);
    base.stamp(idx(q), idx(p), -y);
  };
  auto recordCap = [&](NodeId p, NodeId q, double c) {
    auto rec = [&](std::ptrdiff_t r, std::ptrdiff_t col, double v) {
      if (r < 0 || col < 0) return;  // Ground, as DenseMatrix::stamp skips it.
      capOps.push_back({static_cast<std::size_t>(r), static_cast<std::size_t>(col), v});
    };
    rec(idx(p), idx(p), c);
    rec(idx(q), idx(q), c);
    rec(idx(p), idx(q), -c);
    rec(idx(q), idx(p), -c);
  };

  for (const circuit::Resistor& r : ckt.resistors) {
    stampAdmittance(r.a, r.b, Cplx{1.0 / r.ohms, 0});
  }
  for (const circuit::Capacitor& c : ckt.capacitors) {
    recordCap(c.a, c.b, c.farads);
  }

  for (std::size_t i = 0; i < ckt.mosfets.size(); ++i) {
    const circuit::Mos& m = ckt.mosfets[i];
    const device::MosOpPoint& op = ops[i];
    const auto d = idx(m.drain), g = idx(m.gate), s = idx(m.source), b = idx(m.bulk);
    base.stamp(d, g, Cplx{op.gm, 0});
    base.stamp(d, s, Cplx{-op.gm, 0});
    base.stamp(s, g, Cplx{-op.gm, 0});
    base.stamp(s, s, Cplx{op.gm, 0});
    base.stamp(d, b, Cplx{op.gmb, 0});
    base.stamp(d, s, Cplx{-op.gmb, 0});
    base.stamp(s, b, Cplx{-op.gmb, 0});
    base.stamp(s, s, Cplx{op.gmb, 0});
    stampAdmittance(m.drain, m.source, Cplx{op.gds, 0});
    recordCap(m.gate, m.source, op.cgs);
    recordCap(m.gate, m.drain, op.cgd);
    recordCap(m.gate, m.bulk, op.cgb);
    recordCap(m.drain, m.bulk, op.cdb);
    recordCap(m.source, m.bulk, op.csb);
  }

  std::size_t branch = nNodes;
  for (const circuit::VSource& s : ckt.vsources) {
    base.stamp(idx(s.pos), branch, Cplx{1, 0});
    base.stamp(idx(s.neg), branch, Cplx{-1, 0});
    base.stamp(branch, idx(s.pos), Cplx{1, 0});
    base.stamp(branch, idx(s.neg), Cplx{-1, 0});
    if (s.acMag != 0.0) {
      sourceRhs[branch] = std::polar(s.acMag, s.acPhase * M_PI / 180.0);
    }
    ++branch;
  }
  for (const circuit::Vcvs& e : ckt.vcvs) {
    base.stamp(idx(e.pos), branch, Cplx{1, 0});
    base.stamp(idx(e.neg), branch, Cplx{-1, 0});
    base.stamp(branch, idx(e.pos), Cplx{1, 0});
    base.stamp(branch, idx(e.neg), Cplx{-1, 0});
    base.stamp(branch, idx(e.cp), Cplx{-e.gain, 0});
    base.stamp(branch, idx(e.cn), Cplx{e.gain, 0});
    ++branch;
  }
  for (const circuit::ISource& s : ckt.isources) {
    if (s.acMag == 0.0) continue;
    if (idx(s.pos) >= 0) sourceRhs[idx(s.pos)] -= Cplx{s.acMag, 0};
    if (idx(s.neg) >= 0) sourceRhs[idx(s.neg)] += Cplx{s.acMag, 0};
  }
}

/// Realise the AC matrix at angular frequency w: copy the skeleton and
/// replay the recorded capacitive stamps.  w * (-c) == -(w * c) exactly in
/// IEEE arithmetic, so signed replay values reproduce assembleAc's
/// negated-admittance stamps bit for bit.
void realizeAcMatrix(const DenseMatrix<Cplx>& base, const std::vector<CapStampOp>& capOps,
                     double w, DenseMatrix<Cplx>& a) {
  a = base;
  for (const CapStampOp& op : capOps) {
    a.at(op.r, op.c) += Cplx{0.0, w * op.value};
  }
}

}  // namespace

AcPoint Simulator::extractAcPoint(double freq, const std::vector<Cplx>& sol) const {
  AcPoint p;
  p.freq = freq;
  p.nodeV.assign(circuit_.nodeCount(), Cplx{});
  for (int n = 1; n < circuit_.nodeCount(); ++n) p.nodeV[n] = sol[n - 1];
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  p.vsourceI.resize(circuit_.vsources.size());
  for (std::size_t i = 0; i < circuit_.vsources.size(); ++i) {
    p.vsourceI[i] = sol[nNodes + i];
  }
  return p;
}

std::size_t Simulator::vsourceIndexOrThrow(const std::string& name,
                                           const char* context) const {
  for (std::size_t i = 0; i < circuit_.vsources.size(); ++i) {
    if (circuit_.vsources[i].name == name) return i;
  }
  throw SimulationError(std::string(context) + ": no V source named " + name);
}

std::vector<std::vector<AcPoint>> Simulator::acSolveGridFast(
    const DcSolution& op, const std::vector<AcExcitation>& excitations,
    const std::vector<double>& freqs, const std::string& failPrefix) const {
  const std::size_t nUnknowns = unknownCount();
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  Workspace& w = ws();
  if (w.acBase.size() != nUnknowns) w.acBase = DenseMatrix<Cplx>(nUnknowns);
  w.acSourceRhs.resize(nUnknowns);
  w.acRhs.resize(nUnknowns);
  buildAcSkeleton(circuit_, op.mosOps, options_.gminFloor, w.acBase, w.capOps,
                  w.acSourceRhs);

  // Resolve excitation targets once (the public callers validated names).
  std::vector<std::size_t> branchOf(excitations.size(), 0);
  for (std::size_t e = 0; e < excitations.size(); ++e) {
    const AcExcitation& ex = excitations[e];
    if (ex.kind == AcExcitation::Kind::kVsourceBranch) {
      branchOf[e] = nNodes + vsourceIndexOrThrow(ex.vsource, "acBatch");
    } else if (ex.kind == AcExcitation::Kind::kCurrentInjection) {
      if (ex.pos >= circuit_.nodeCount() || ex.neg >= circuit_.nodeCount()) {
        throw SimulationError("acBatch: injection node out of range");
      }
    }
  }

  std::vector<std::vector<AcPoint>> out(excitations.size());
  for (auto& curve : out) curve.reserve(freqs.size());
  for (double f : freqs) {
    // One factorization per frequency; every excitation reuses it.
    realizeAcMatrix(w.acBase, w.capOps, 2.0 * M_PI * f, w.acA);
    if (!factorize(w.acA, w.perm)) throw SimulationError(failPrefix + std::to_string(f));
    for (std::size_t e = 0; e < excitations.size(); ++e) {
      const AcExcitation& ex = excitations[e];
      switch (ex.kind) {
        case AcExcitation::Kind::kCircuitSources:
          w.acRhs.assign(w.acSourceRhs.begin(), w.acSourceRhs.end());
          break;
        case AcExcitation::Kind::kVsourceBranch:
          std::fill(w.acRhs.begin(), w.acRhs.end(), Cplx{});
          w.acRhs[branchOf[e]] = Cplx{1.0, 0.0};
          break;
        case AcExcitation::Kind::kCurrentInjection:
          std::fill(w.acRhs.begin(), w.acRhs.end(), Cplx{});
          if (ex.pos != circuit::kGround) w.acRhs[ex.pos - 1] -= Cplx{1.0, 0};
          if (ex.neg != circuit::kGround) w.acRhs[ex.neg - 1] += Cplx{1.0, 0};
          break;
      }
      luSolveFactored(w.acA, w.perm, w.acRhs);
      ++stats_.luSolves;
      ++stats_.acPoints;
      out[e].push_back(extractAcPoint(f, w.acRhs));
    }
  }
  return out;
}

std::vector<AcPoint> Simulator::ac(const DcSolution& op, double fStart, double fStop,
                                   int pointsPerDecade) const {
  const std::vector<double> freqs = logGrid(fStart, fStop, pointsPerDecade);
  if (options_.solver == SolverMode::kFast) {
    return std::move(acSolveGridFast(op, {AcExcitation::circuitSources()}, freqs,
                                     "AC solve failed at f=")[0]);
  }
  const std::size_t nUnknowns = unknownCount();
  std::vector<AcPoint> out;
  out.reserve(freqs.size());
  DenseMatrix<Cplx> a(nUnknowns);
  std::vector<Cplx> rhs(nUnknowns);
  for (double f : freqs) {
    assembleAc(circuit_, op.mosOps, 2.0 * M_PI * f, options_.gminFloor, true, a, rhs);
    if (!luSolve(a, rhs)) throw SimulationError("AC solve failed at f=" + std::to_string(f));
    ++stats_.acPoints;
    out.push_back(extractAcPoint(f, rhs));
  }
  return out;
}

std::vector<AcPoint> Simulator::acFrom(const DcSolution& op,
                                       const std::string& sourceName, double fStart,
                                       double fStop, int pointsPerDecade) const {
  const std::size_t srcIndex = vsourceIndexOrThrow(sourceName, "acFrom");
  const std::vector<double> freqs = logGrid(fStart, fStop, pointsPerDecade);
  if (options_.solver == SolverMode::kFast) {
    return std::move(acSolveGridFast(op, {AcExcitation::unitVsource(sourceName)}, freqs,
                                     "acFrom solve failed at f=")[0]);
  }
  const std::size_t nUnknowns = unknownCount();
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  std::vector<AcPoint> out;
  out.reserve(freqs.size());
  DenseMatrix<Cplx> a(nUnknowns);
  std::vector<Cplx> rhs(nUnknowns);
  for (double f : freqs) {
    // Assemble with every source silenced, then drive the selected branch
    // equation with the unit excitation (the same seam the noise analysis
    // uses for its forward solve).
    assembleAc(circuit_, op.mosOps, 2.0 * M_PI * f, options_.gminFloor, false, a, rhs);
    rhs[nNodes + srcIndex] = Cplx{1.0, 0.0};
    if (!luSolve(a, rhs)) {
      throw SimulationError("acFrom solve failed at f=" + std::to_string(f));
    }
    ++stats_.acPoints;
    out.push_back(extractAcPoint(f, rhs));
  }
  return out;
}

std::vector<std::vector<AcPoint>> Simulator::acBatch(
    const DcSolution& op, const std::vector<AcExcitation>& excitations, double fStart,
    double fStop, int pointsPerDecade) const {
  for (const AcExcitation& ex : excitations) {
    if (ex.kind == AcExcitation::Kind::kVsourceBranch) {
      (void)vsourceIndexOrThrow(ex.vsource, "acBatch");
    }
  }
  const std::vector<double> freqs = logGrid(fStart, fStop, pointsPerDecade);
  if (options_.solver == SolverMode::kFast) {
    return acSolveGridFast(op, excitations, freqs, "acBatch solve failed at f=");
  }
  // Reference mode decomposes the batch into the one-shot primitives it
  // replaces; the fast path above is bit-identical to this.
  const std::size_t nUnknowns = unknownCount();
  std::vector<std::vector<AcPoint>> out;
  out.reserve(excitations.size());
  for (const AcExcitation& ex : excitations) {
    switch (ex.kind) {
      case AcExcitation::Kind::kCircuitSources:
        out.push_back(ac(op, fStart, fStop, pointsPerDecade));
        break;
      case AcExcitation::Kind::kVsourceBranch:
        out.push_back(acFrom(op, ex.vsource, fStart, fStop, pointsPerDecade));
        break;
      case AcExcitation::Kind::kCurrentInjection: {
        if (ex.pos >= circuit_.nodeCount() || ex.neg >= circuit_.nodeCount()) {
          throw SimulationError("acBatch: injection node out of range");
        }
        std::vector<AcPoint> curve;
        curve.reserve(freqs.size());
        DenseMatrix<Cplx> a(nUnknowns);
        std::vector<Cplx> rhs(nUnknowns);
        for (double f : freqs) {
          assembleAc(circuit_, op.mosOps, 2.0 * M_PI * f, options_.gminFloor, false, a, rhs);
          if (ex.pos != circuit::kGround) rhs[ex.pos - 1] -= Cplx{1.0, 0};
          if (ex.neg != circuit::kGround) rhs[ex.neg - 1] += Cplx{1.0, 0};
          if (!luSolve(a, rhs)) {
            throw SimulationError("acBatch solve failed at f=" + std::to_string(f));
          }
          ++stats_.acPoints;
          curve.push_back(extractAcPoint(f, rhs));
        }
        out.push_back(std::move(curve));
        break;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Noise (adjoint method).
// ---------------------------------------------------------------------------

std::vector<NoisePoint> Simulator::noise(const DcSolution& op, circuit::NodeId out,
                                         const std::string& inputVsrc, double fStart,
                                         double fStop, int pointsPerDecade) const {
  std::size_t inputIndex = circuit_.vsources.size();
  for (std::size_t i = 0; i < circuit_.vsources.size(); ++i) {
    if (circuit_.vsources[i].name == inputVsrc) {
      inputIndex = i;
      break;
    }
  }
  if (inputIndex == circuit_.vsources.size()) {
    throw SimulationError("noise: no V source named " + inputVsrc);
  }

  const std::vector<double> freqs = logGrid(fStart, fStop, pointsPerDecade);
  const std::size_t nUnknowns = unknownCount();
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  const double kT4 = 4.0 * kBoltzmann * options_.tempK;

  const bool fast = options_.solver == SolverMode::kFast;
  std::vector<NoisePoint> result;
  result.reserve(freqs.size());
  DenseMatrix<Cplx> aLocal;
  std::vector<Cplx> workLocal;
  DenseMatrix<Cplx>& a = fast ? ws().acA : aLocal;
  std::vector<Cplx>& work = fast ? ws().acRhs : workLocal;
  if (a.size() != nUnknowns) a = DenseMatrix<Cplx>(nUnknowns);
  work.resize(nUnknowns);
  if (fast) {
    // Assemble once; each frequency point re-realises only the reactive
    // entries.  The adjoint still needs its own factorization (pivoting on
    // the transposed matrix differs), but the assembly is shared and the
    // transpose starts from the realised copy.
    Workspace& w = ws();
    if (w.acBase.size() != nUnknowns) w.acBase = DenseMatrix<Cplx>(nUnknowns);
    w.acSourceRhs.resize(nUnknowns);
    buildAcSkeleton(circuit_, op.mosOps, options_.gminFloor, w.acBase, w.capOps,
                    w.acSourceRhs);
  }

  for (double f : freqs) {
    const double w = 2.0 * M_PI * f;

    Cplx gain;
    if (fast) {
      Workspace& wk = ws();
      realizeAcMatrix(wk.acBase, wk.capOps, w, a);
      wk.acAdj = a;  // Keep the realised matrix for the adjoint transpose.
      std::fill(work.begin(), work.end(), Cplx{});
      work[nNodes + inputIndex] = Cplx{1.0, 0.0};
      if (!factorize(a, wk.perm)) throw SimulationError("noise: forward solve failed");
      luSolveFactored(a, wk.perm, work);
      ++stats_.luSolves;
      gain = out == circuit::kGround ? Cplx{} : work[out - 1];

      // Adjoint: solve Y^T z = e_out; |z_p - z_q|^2 is the squared
      // transfer from a unit current injected between (p, q) to the
      // output voltage.
      for (std::size_t r = 0; r < nUnknowns; ++r) {
        for (std::size_t c = r + 1; c < nUnknowns; ++c) {
          std::swap(wk.acAdj.at(r, c), wk.acAdj.at(c, r));
        }
      }
      std::fill(work.begin(), work.end(), Cplx{});
      if (out != circuit::kGround) work[out - 1] = Cplx{1.0, 0.0};
      if (!factorize(wk.acAdj, wk.permAdj)) throw SimulationError("noise: adjoint solve failed");
      luSolveFactored(wk.acAdj, wk.permAdj, work);
      ++stats_.luSolves;
    } else {
      // Forward gain: unit excitation on the designated input source only.
      assembleAc(circuit_, op.mosOps, w, options_.gminFloor, false, a, work);
      work[nNodes + inputIndex] = Cplx{1.0, 0.0};
      if (!luSolve(a, work)) throw SimulationError("noise: forward solve failed");
      gain = out == circuit::kGround ? Cplx{} : work[out - 1];

      // Adjoint: solve Y^T z = e_out; |z_p - z_q|^2 is the squared transfer
      // from a unit current injected between (p, q) to the output voltage.
      assembleAc(circuit_, op.mosOps, w, options_.gminFloor, false, a, work);
      // Transpose in place.
      for (std::size_t r = 0; r < nUnknowns; ++r) {
        for (std::size_t c = r + 1; c < nUnknowns; ++c) std::swap(a.at(r, c), a.at(c, r));
      }
      std::fill(work.begin(), work.end(), Cplx{});
      if (out != circuit::kGround) work[out - 1] = Cplx{1.0, 0.0};
      if (!luSolve(a, work)) throw SimulationError("noise: adjoint solve failed");
    }

    auto z = [&](NodeId n) { return n == circuit::kGround ? Cplx{} : work[n - 1]; };
    double psd = 0.0;
    for (std::size_t i = 0; i < circuit_.mosfets.size(); ++i) {
      const circuit::Mos& m = circuit_.mosfets[i];
      const device::MosOpPoint& mos = op.mosOps[i];
      const double s = mos.thermalNoisePsd + mos.flickerCoeff / f;
      psd += s * std::norm(z(m.drain) - z(m.source));
    }
    for (const circuit::Resistor& r : circuit_.resistors) {
      psd += kT4 / r.ohms * std::norm(z(r.a) - z(r.b));
    }

    NoisePoint p;
    p.freq = f;
    p.outputPsd = psd;
    p.gainMag = std::abs(gain);
    p.inputRefPsd = p.gainMag > 1e-30 ? psd / (p.gainMag * p.gainMag) : 0.0;
    result.push_back(p);
  }
  return result;
}

double integratePsd(const std::vector<NoisePoint>& points, double f0, double f1,
                    bool inputReferred) {
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    const double fa = points[i].freq, fb = points[i + 1].freq;
    if (fb <= f0 || fa >= f1) continue;
    const double a = inputReferred ? points[i].inputRefPsd : points[i].outputPsd;
    const double b = inputReferred ? points[i + 1].inputRefPsd : points[i + 1].outputPsd;
    const double lo = std::max(fa, f0), hi = std::min(fb, f1);
    total += 0.5 * (a + b) * (hi - lo);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Transient (fixed-step trapezoidal).
// ---------------------------------------------------------------------------

std::vector<TranPoint> Simulator::transient(double tStop, double dt) const {
  if (tStop <= 0 || dt <= 0) throw std::invalid_argument("transient: bad time arguments");
  if (options_.solver == SolverMode::kReference) return transientReference(tStop, dt);

  // The fast path reproduces transientReference bit for bit.  Each Newton
  // iteration's matrix is a copy of the linear skeleton (stamped once per
  // analysis), then the MOS stamps, then the step's recorded capacitor
  // companions; its RHS is the step's source base, then the same MOS and
  // capacitor terms -- every entry sees the reference's additions in the
  // reference's order.  The start-of-step device evaluation that sets the
  // MOS capacitances runs at the same x as iteration 0, so its stamp half
  // serves iteration 0; later iterations use the stamp-only evaluation.
  Workspace& wk = ws();
  const std::size_t nUnknowns = unknownCount();
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  const std::size_t nMos = circuit_.mosfets.size();
  auto idx = [](NodeId n) -> std::ptrdiff_t { return n - 1; };
  auto vOf = [](const std::vector<double>& vec, NodeId n) {
    return n == circuit::kGround ? 0.0 : vec[n - 1];
  };

  // Capacitor branches: explicit caps first, then 5 per MOS.
  std::vector<TranCapBranch>& caps = wk.caps;
  caps.clear();
  for (const circuit::Capacitor& c : circuit_.capacitors) {
    caps.push_back({c.a, c.b, c.farads, 0});
  }
  const std::size_t mosCapBase = caps.size();
  for (const circuit::Mos& m : circuit_.mosfets) {
    caps.push_back({m.gate, m.source, 0, 0});
    caps.push_back({m.gate, m.drain, 0, 0});
    caps.push_back({m.gate, m.bulk, 0, 0});
    caps.push_back({m.drain, m.bulk, 0, 0});
    caps.push_back({m.source, m.bulk, 0, 0});
  }

  // Start from the DC operating point (sources at their t=0 values).
  const DcSolution op0 = dcOperatingPoint();
  std::vector<double> x(nUnknowns, 0.0);
  for (int n = 1; n < circuit_.nodeCount(); ++n) x[n - 1] = op0.nodeVoltages[n];
  for (std::size_t i = 0; i < circuit_.vsources.size(); ++i) {
    x[nNodes + i] = op0.vsourceCurrents[i];
  }

  const int steps = static_cast<int>(std::ceil(tStop / dt));
  std::vector<TranPoint> out;
  out.reserve(static_cast<std::size_t>(steps) + 1);
  auto record = [&](double t) {
    TranPoint p;
    p.time = t;
    p.nodeV.assign(circuit_.nodeCount(), 0.0);
    for (int n = 1; n < circuit_.nodeCount(); ++n) p.nodeV[n] = x[n - 1];
    out.push_back(std::move(p));
  };
  record(0.0);

  if (wk.base.size() != nUnknowns) wk.base = DenseMatrix<double>(nUnknowns);
  stampLinearSkeleton(circuit_, options_.gminFloor, wk.base);
  wk.rhsBase.resize(nUnknowns);
  wk.stepStamps.resize(nMos);

  for (int step = 1; step <= steps; ++step) {
    const double t = std::min(step * dt, tStop);
    // Start-of-step bias: MOS capacitances, and iteration 0's stamps.
    for (std::size_t i = 0; i < nMos; ++i) {
      const device::MosOpPoint op = evalMos(circuit_.mosfets[i], x);
      caps[mosCapBase + 5 * i + 0].c = op.cgs;
      caps[mosCapBase + 5 * i + 1].c = op.cgd;
      caps[mosCapBase + 5 * i + 2].c = op.cgb;
      caps[mosCapBase + 5 * i + 3].c = op.cdb;
      caps[mosCapBase + 5 * i + 4].c = op.csb;
      wk.stepStamps[i] = stampOf(op);
    }
    wk.xPrev = x;
    const std::vector<double>& xPrev = wk.xPrev;
    stampSourceRhs(circuit_, [t](const circuit::Waveform& w) { return w.at(t); },
                   wk.rhsBase);
    // Trapezoidal capacitor companions, constant across the step.
    wk.capStamps.clear();
    for (const TranCapBranch& cb : caps) {
      if (cb.c <= 0) continue;
      const double geq = 2.0 * cb.c / dt;
      const double vPrev = vOf(xPrev, cb.a) - vOf(xPrev, cb.b);
      wk.capStamps.push_back({idx(cb.a), idx(cb.b), geq, geq * vPrev + cb.iPrev});
    }

    bool converged = false;
    std::size_t worst = 0;
    for (int iter = 0; iter < options_.maxNewtonIters; ++iter) {
      DenseMatrix<double>& a = wk.a;
      std::vector<double>& rhs = wk.xNew;  // Built and solved in place.
      a = wk.base;
      rhs = wk.rhsBase;
      for (std::size_t i = 0; i < nMos; ++i) {
        const circuit::Mos& m = circuit_.mosfets[i];
        stampMos(m, iter == 0 ? wk.stepStamps[i] : evalMosStamp(m, x), x, a, rhs);
      }
      for (const TranCapStamp& cs : wk.capStamps) {
        a.stamp(cs.a, cs.a, cs.geq);
        a.stamp(cs.b, cs.b, cs.geq);
        a.stamp(cs.a, cs.b, -cs.geq);
        a.stamp(cs.b, cs.a, -cs.geq);
        if (cs.a >= 0) rhs[cs.a] += cs.ieq;
        if (cs.b >= 0) rhs[cs.b] -= cs.ieq;
      }
      if (!factorize(a, wk.perm)) throw SimulationError("transient: singular matrix");
      luSolveFactored(a, wk.perm, rhs);
      ++stats_.luSolves;
      const std::optional<double> maxDelta = applyNewtonUpdate(options_, nNodes, rhs, x, worst);
      ++stats_.tranNewtonIterations;
      if (!maxDelta) throwTransientNewtonFailure(step, t, iter + 1, worst);
      if (*maxDelta < 1.0 && iter > 0) {
        converged = true;
        break;
      }
    }
    if (!converged) throwTransientNewtonFailure(step, t, options_.maxNewtonIters, worst);
    ++stats_.tranSteps;
    // Commit capacitor branch currents for the next step.
    for (TranCapBranch& cb : caps) {
      if (cb.c <= 0) continue;
      const double geq = 2.0 * cb.c / dt;
      const double vPrev = vOf(xPrev, cb.a) - vOf(xPrev, cb.b);
      const double vNow = vOf(x, cb.a) - vOf(x, cb.b);
      cb.iPrev = geq * (vNow - vPrev) - cb.iPrev;
    }
    record(t);
  }
  return out;
}

void Simulator::throwTransientNewtonFailure(int step, double t, int iters,
                                            std::size_t worstUnknown) const {
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  std::string where;
  if (worstUnknown < nNodes) {
    where = "node " + circuit_.nodeName(static_cast<NodeId>(worstUnknown + 1));
  } else if (worstUnknown - nNodes < circuit_.vsources.size()) {
    where = "branch of V source " + circuit_.vsources[worstUnknown - nNodes].name;
  } else {
    where = "branch of VCVS " +
            circuit_.vcvs[worstUnknown - nNodes - circuit_.vsources.size()].name;
  }
  char head[128];
  std::snprintf(head, sizeof(head),
                "transient: Newton failed at step %d (t=%.6g s) after %d iterations", step,
                t, iters);
  throw SimulationError(std::string(head) + "; largest last update at " + where);
}

// Reference transient: the pre-optimization loop, kept as the golden
// baseline.  It re-assembles the whole matrix every iteration, runs the
// full device evaluation at the step start and again in every iteration,
// and allocates per step and per iteration.  Only its Newton update,
// failure message and counters are shared with the fast path.
std::vector<TranPoint> Simulator::transientReference(double tStop, double dt) const {
  // Capacitor branch bookkeeping: explicit caps first, then 5 per MOS.
  struct CapBranch {
    NodeId a = circuit::kGround, b = circuit::kGround;
    double c = 0.0;
    double iPrev = 0.0;
  };
  std::vector<CapBranch> caps;
  for (const circuit::Capacitor& c : circuit_.capacitors) caps.push_back({c.a, c.b, c.farads, 0});
  const std::size_t mosCapBase = caps.size();
  for (const circuit::Mos& m : circuit_.mosfets) {
    caps.push_back({m.gate, m.source, 0, 0});
    caps.push_back({m.gate, m.drain, 0, 0});
    caps.push_back({m.gate, m.bulk, 0, 0});
    caps.push_back({m.drain, m.bulk, 0, 0});
    caps.push_back({m.source, m.bulk, 0, 0});
  }

  const std::size_t nUnknowns = unknownCount();
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  auto idx = [](NodeId n) -> std::ptrdiff_t { return n - 1; };

  // Start from the DC operating point (sources at their t=0 values; the
  // Waveform DC value is the t=0 value for all supported kinds).
  DcSolution op0 = dcOperatingPoint();
  std::vector<double> x(nUnknowns, 0.0);
  for (int n = 1; n < circuit_.nodeCount(); ++n) x[n - 1] = op0.nodeVoltages[n];
  for (std::size_t i = 0; i < circuit_.vsources.size(); ++i) {
    x[nNodes + i] = op0.vsourceCurrents[i];
  }

  std::vector<TranPoint> out;
  auto record = [&](double t) {
    TranPoint p;
    p.time = t;
    p.nodeV.assign(circuit_.nodeCount(), 0.0);
    for (int n = 1; n < circuit_.nodeCount(); ++n) p.nodeV[n] = x[n - 1];
    out.push_back(std::move(p));
  };
  record(0.0);

  DenseMatrix<double> a(nUnknowns);
  std::vector<double> rhs(nUnknowns);
  auto vOf = [&](const std::vector<double>& vec, NodeId n) {
    return n == circuit::kGround ? 0.0 : vec[n - 1];
  };

  const int steps = static_cast<int>(std::ceil(tStop / dt));
  for (int step = 1; step <= steps; ++step) {
    const double t = std::min(step * dt, tStop);
    // Update MOS capacitance values at the start-of-step bias.
    for (std::size_t i = 0; i < circuit_.mosfets.size(); ++i) {
      const device::MosOpPoint op = evalMos(circuit_.mosfets[i], x);
      caps[mosCapBase + 5 * i + 0].c = op.cgs;
      caps[mosCapBase + 5 * i + 1].c = op.cgd;
      caps[mosCapBase + 5 * i + 2].c = op.cgb;
      caps[mosCapBase + 5 * i + 3].c = op.cdb;
      caps[mosCapBase + 5 * i + 4].c = op.csb;
    }
    const std::vector<double> xPrev = x;

    bool converged = false;
    std::size_t worst = 0;
    for (int iter = 0; iter < options_.maxNewtonIters; ++iter) {
      a.clear();
      std::fill(rhs.begin(), rhs.end(), 0.0);
      for (std::size_t i = 0; i < nNodes; ++i) a.stamp(i, i, options_.gminFloor);

      for (const circuit::Resistor& r : circuit_.resistors) {
        const double g = 1.0 / r.ohms;
        a.stamp(idx(r.a), idx(r.a), g);
        a.stamp(idx(r.b), idx(r.b), g);
        a.stamp(idx(r.a), idx(r.b), -g);
        a.stamp(idx(r.b), idx(r.a), -g);
      }
      for (const circuit::ISource& s : circuit_.isources) {
        const double i0 = s.wave.at(t);
        if (idx(s.pos) >= 0) rhs[idx(s.pos)] -= i0;
        if (idx(s.neg) >= 0) rhs[idx(s.neg)] += i0;
      }
      std::size_t branch = nNodes;
      for (const circuit::VSource& s : circuit_.vsources) {
        a.stamp(idx(s.pos), branch, 1.0);
        a.stamp(idx(s.neg), branch, -1.0);
        a.stamp(branch, idx(s.pos), 1.0);
        a.stamp(branch, idx(s.neg), -1.0);
        rhs[branch] = s.wave.at(t);
        ++branch;
      }
      for (const circuit::Vcvs& e : circuit_.vcvs) {
        a.stamp(idx(e.pos), branch, 1.0);
        a.stamp(idx(e.neg), branch, -1.0);
        a.stamp(branch, idx(e.pos), 1.0);
        a.stamp(branch, idx(e.neg), -1.0);
        a.stamp(branch, idx(e.cp), -e.gain);
        a.stamp(branch, idx(e.cn), e.gain);
        ++branch;
      }
      for (const circuit::Mos& m : circuit_.mosfets) {
        const device::MosOpPoint op = evalMos(m, x);
        const double vgs = vOf(x, m.gate) - vOf(x, m.source);
        const double vds = vOf(x, m.drain) - vOf(x, m.source);
        const double vbs = vOf(x, m.bulk) - vOf(x, m.source);
        const double ieq = op.id - op.gm * vgs - op.gds * vds - op.gmb * vbs;
        const auto d = idx(m.drain), g = idx(m.gate), s = idx(m.source), b = idx(m.bulk);
        a.stamp(d, g, op.gm);
        a.stamp(d, d, op.gds);
        a.stamp(d, b, op.gmb);
        a.stamp(d, s, -(op.gm + op.gds + op.gmb));
        a.stamp(s, g, -op.gm);
        a.stamp(s, d, -op.gds);
        a.stamp(s, b, -op.gmb);
        a.stamp(s, s, op.gm + op.gds + op.gmb);
        if (d >= 0) rhs[d] -= ieq;
        if (s >= 0) rhs[s] += ieq;
      }
      // Trapezoidal capacitor companions.
      for (const CapBranch& cb : caps) {
        if (cb.c <= 0) continue;
        const double geq = 2.0 * cb.c / dt;
        const double vPrev = vOf(xPrev, cb.a) - vOf(xPrev, cb.b);
        const double ieq = geq * vPrev + cb.iPrev;
        a.stamp(idx(cb.a), idx(cb.a), geq);
        a.stamp(idx(cb.b), idx(cb.b), geq);
        a.stamp(idx(cb.a), idx(cb.b), -geq);
        a.stamp(idx(cb.b), idx(cb.a), -geq);
        if (idx(cb.a) >= 0) rhs[idx(cb.a)] += ieq;
        if (idx(cb.b) >= 0) rhs[idx(cb.b)] -= ieq;
      }

      std::vector<double> xNew = rhs;
      if (!luSolve(a, xNew)) throw SimulationError("transient: singular matrix");
      const std::optional<double> maxDelta = applyNewtonUpdate(options_, nNodes, xNew, x, worst);
      ++stats_.tranNewtonIterations;
      if (!maxDelta) throwTransientNewtonFailure(step, t, iter + 1, worst);
      if (*maxDelta < 1.0 && iter > 0) {
        converged = true;
        break;
      }
    }
    if (!converged) throwTransientNewtonFailure(step, t, options_.maxNewtonIters, worst);
    ++stats_.tranSteps;
    // Commit capacitor branch currents for the next step.
    for (CapBranch& cb : caps) {
      if (cb.c <= 0) continue;
      const double geq = 2.0 * cb.c / dt;
      const double vPrev = vOf(xPrev, cb.a) - vOf(xPrev, cb.b);
      const double vNow = vOf(x, cb.a) - vOf(x, cb.b);
      cb.iPrev = geq * (vNow - vPrev) - cb.iPrev;
    }
    record(t);
  }
  return out;
}

}  // namespace lo::sim
