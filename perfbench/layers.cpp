#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <filesystem>
#include <stdexcept>

#include "circuit/circuit.hpp"
#include "device/inversion.hpp"
#include "layout/extract.hpp"
#include "service/cache.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "service/serialize.hpp"
#include "sim/linear.hpp"
#include "sim/simulator.hpp"
#include "sizing/verify.hpp"
#include "verify/verify.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using lo::service::Json;
using Clock = std::chrono::steady_clock;

template <typename F>
double secondsOf(F&& f) {
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Repetitions per timed call: enough for a median, few enough that a
// traced run stays a few seconds past its measured phase.
constexpr int kReps = 3;

/// The verifier's slew testbench (sizing/verify.cpp): hard unity feedback
/// and a +/- input step.
lo::circuit::Circuit slewTestbench(const lo::verify::VerificationSetup& setup,
                                   const lo::sizing::VerifyOptions& o) {
  using lo::circuit::Waveform;
  lo::circuit::Circuit c;
  setup.postLayout(c);
  const auto out = *c.findNode("out");
  const auto inn = *c.findNode("inn");
  const auto inp = *c.findNode("inp");
  c.addVSource("VSHORT", out, inn, Waveform::makeDc(0.0));
  const double a = o.stepAmplitude;
  c.addVSource("VIN", inp, lo::circuit::kGround,
               Waveform::makePulse(setup.inputCm - a / 2, setup.inputCm + a / 2, 20e-9,
                                   1e-9, 1e-9, o.tranStop / 2, o.tranStop * 2));
  if (setup.parasitics) lo::layout::annotateCircuit(c, *setup.parasitics);
  return c;
}

/// The verification tier's ICMR testbench (verify/verify.cpp): a unity
/// buffer whose input is swept rail to rail.
lo::circuit::Circuit bufferTestbench(const lo::verify::VerificationSetup& setup) {
  using lo::circuit::Waveform;
  lo::circuit::Circuit c;
  setup.postLayout(c);
  const auto out = *c.findNode("out");
  const auto inn = *c.findNode("inn");
  const auto inp = *c.findNode("inp");
  c.addVSource("VSHORT", out, inn, Waveform::makeDc(0.0));
  c.addVSource("VIN", inp, lo::circuit::kGround, Waveform::makeDc(setup.vdd / 2));
  if (setup.parasitics) lo::layout::annotateCircuit(c, *setup.parasitics);
  return c;
}

/// A seeded, diagonally dominant (so always factorable) n x n matrix.
template <typename T>
lo::sim::DenseMatrix<T> randomMatrix(std::size_t n, std::uint64_t& state) {
  lo::sim::DenseMatrix<T> m(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const double re = uniform01(state) - 0.5;
      if constexpr (std::is_same_v<T, double>) {
        m.at(r, c) = re;
      } else {
        m.at(r, c) = T(re, uniform01(state) - 0.5);
      }
    }
    m.at(r, r) += T(static_cast<double>(n));
  }
  return m;
}

template <typename T>
void measureLu(std::size_t n, std::uint64_t& state, const char* factorName,
               const char* solveName, Samples& out) {
  constexpr int kMatrices = 64;
  std::vector<lo::sim::DenseMatrix<T>> work(kMatrices, randomMatrix<T>(n, state));
  std::vector<std::vector<std::size_t>> perms(kMatrices);
  for (int rep = 0; rep < kReps; ++rep) {
    for (auto& m : work) m = randomMatrix<T>(n, state);
    bool ok = true;
    const double s = secondsOf([&] {
      for (int i = 0; i < kMatrices; ++i) ok = lo::sim::luFactorize(work[i], perms[i]) && ok;
    });
    if (!ok) throw std::runtime_error("luFactorize failed on a dominant matrix");
    out[factorName].push_back(s / kMatrices * 1e6);
    if (!solveName) continue;
    std::vector<std::vector<T>> rhs(kMatrices, std::vector<T>(n, T(1.0)));
    const double t = secondsOf([&] {
      for (int i = 0; i < kMatrices; ++i) lo::sim::luSolveFactored(work[i], perms[i], rhs[i]);
    });
    out[solveName].push_back(t / kMatrices * 1e6);
  }
}

double ms(double seconds) { return seconds * 1e3; }

}  // namespace

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

ReferenceRun runReference(const std::string& requestLine,
                          const lo::tech::Technology& base) {
  lo::service::JobRequest job = lo::service::parseJobRequest(Json::parse(requestLine));
  job.options.verifyOptions.referenceSolver = true;
  job.options.postLayoutVerify.referenceSolver = true;
  ReferenceRun run;
  run.tech = std::make_unique<lo::tech::Technology>(base.atCorner(job.corner));
  run.engine = std::make_unique<lo::core::SynthesisEngine>(*run.tech, job.options);
  run.topology = lo::core::TopologyRegistry::instance().create(
      job.options.topology, *run.tech, run.engine->model());
  run.result = run.engine->run(*run.topology, job.specs);
  return run;
}

const std::map<std::string, double>& specTolerances() {
  // Absolute tolerance per measured spec, in the spec's own unit.  The
  // fast and reference solvers are bit-identical today, so these only
  // leave room for last-digit reassociation a later solver may introduce.
  static const std::map<std::string, double> table = {
      {"dc_gain_db", 1e-6},         {"gbw_hz", 1e-3},
      {"phase_margin_deg", 1e-6},   {"slew_rate_v_per_us", 1e-6},
      {"cmrr_db", 1e-6},            {"offset_mv", 1e-6},
      {"output_resistance_mohm", 1e-9}, {"input_noise_uv", 1e-6},
      {"thermal_noise_density_nv", 1e-6}, {"flicker_noise_uv", 1e-6},
      {"power_mw", 1e-9},           {"psrr_db", 1e-6},
      {"settling_time_ns", 1e-3},   {"thd_percent", 1e-9},
      {"output_swing_low", 1e-9},   {"output_swing_high", 1e-9},
      {"icmr_low", 1e-9},           {"icmr_high", 1e-9},
  };
  return table;
}

namespace {

std::string compareSpecs(const std::string& where, const Json& served, const Json& ref) {
  for (const auto& [name, want] : ref.members()) {
    const Json* got = served.find(name);
    if (!got) return where + "." + name + " missing";
    const auto tol = specTolerances().find(name);
    const double a = got->asDouble();
    const double b = want.asDouble();
    const double limit = std::max(tol == specTolerances().end() ? 0.0 : tol->second,
                                  1e-9 * std::abs(b));
    if (!(std::abs(a - b) <= limit) && !(a == b)) {
      return where + "." + name + ": served " + Json::formatNumber(a) + " vs reference " +
             Json::formatNumber(b);
    }
  }
  return "";
}

}  // namespace

std::string compareToReference(const Json& served, const lo::core::EngineResult& reference) {
  const Json ref = lo::service::toJson(reference);
  for (const char* exact : {"layout_calls", "parasitic_converged", "convergence"}) {
    if (served.at(exact).dump() != ref.at(exact).dump()) {
      return std::string(exact) + " differs: served " + served.at(exact).dump() +
             " vs reference " + ref.at(exact).dump();
    }
  }
  std::string why = compareSpecs("measured", served.at("measured"), ref.at("measured"));
  if (!why.empty()) return why;
  if (const Json* refVerify = ref.find("verification")) {
    const Json* got = served.find("verification");
    if (!got) return "verification block missing";
    for (const char* block : {"pre_layout", "post_layout", "pre_extended", "post_extended"}) {
      why = compareSpecs(std::string("verification.") + block, got->at(block),
                         refVerify->at(block));
      if (!why.empty()) return why;
    }
    if (got->at("pass").asBool() != refVerify->at("pass").asBool()) {
      return "verification.pass differs";
    }
  }
  return "";
}

void measureDesign(ReferenceRun& run, std::uint64_t seed, Samples& out) {
  using lo::sim::Simulator;
  const lo::verify::VerificationSetup setup = run.topology->verificationSetup();
  if (!setup.supported) throw std::runtime_error("topology has no verification setup");
  const lo::tech::Technology& t = *run.tech;
  const lo::device::MosModel& model = run.engine->model();
  const lo::sizing::VerifyOptions verifyOptions;
  const lo::verify::VerificationOptions tierOptions;
  lo::sim::SimOptions simOptions;
  simOptions.tempK = t.temperature;

  for (int rep = 0; rep < kReps; ++rep) {
    out["sizing.measure_amplifier_ms"].push_back(ms(secondsOf([&] {
      (void)lo::sizing::measureAmplifier(t, model, setup.postLayout, setup.inputCm,
                                         setup.vdd, setup.parasitics, verifyOptions);
    })));
    out["verify.measure_extended_ms"].push_back(ms(secondsOf([&] {
      (void)lo::verify::measureExtended(t, model, setup.postLayout, setup.inputCm,
                                        setup.vdd, setup.parasitics, tierOptions);
    })));
  }

  // The verifier's AC testbench: one operating point serves AC and noise.
  const lo::circuit::Circuit ac =
      lo::sizing::buildAmpAcTestbench(setup.postLayout, setup.inputCm, setup.parasitics,
                                      0.0, 0.0, 0.0);
  const std::size_t unknowns = static_cast<std::size_t>(ac.nodeCount() - 1) +
                               ac.vsources.size() + ac.vcvs.size();
  out["sim.mna_unknowns"].push_back(static_cast<double>(unknowns));
  const auto outNode = *ac.findNode("out");
  lo::sim::DcSolution op;
  for (int rep = 0; rep < kReps; ++rep) {
    const Simulator sim(ac, t, model, simOptions);  // Fresh: a cold operating point.
    out["sim.dc_op_ms"].push_back(ms(secondsOf([&] { op = sim.dcOperatingPoint(); })));
    if (!op.converged) throw std::runtime_error("testbench operating point did not converge");
    out["sim.newton_iters_per_op"].push_back(static_cast<double>(sim.stats().newtonIterations));
    const lo::sim::SimStats before = sim.stats();
    out["sim.ac_ms"].push_back(ms(secondsOf([&] {
      (void)sim.acFrom(op, "VDIFF", verifyOptions.fStart, verifyOptions.fStop,
                       verifyOptions.pointsPerDecade);
    })));
    out["sim.ac_points"].push_back(static_cast<double>(sim.stats().acPoints - before.acPoints));
    out["sim.noise_ms"].push_back(ms(secondsOf([&] {
      (void)sim.noise(op, outNode, "VDIFF", lo::sizing::kNoiseBandLowHz,
                      lo::sizing::kNoiseBandHighHz, 10);
    })));
    out["sim.lu_factorizations"].push_back(
        static_cast<double>(sim.stats().luFactorizations - before.luFactorizations));
  }

  const lo::circuit::Circuit buffer = bufferTestbench(setup);
  const lo::circuit::Circuit slew = slewTestbench(setup, verifyOptions);
  for (int rep = 0; rep < kReps; ++rep) {
    const Simulator bufferSim(buffer, t, model, simOptions);
    out["sim.dc_sweep_ms"].push_back(ms(secondsOf([&] {
      (void)bufferSim.dcSweep("VIN", 0.05, setup.vdd - 0.05, tierOptions.sweepPoints);
    })));
    const Simulator slewSim(slew, t, model, simOptions);
    std::vector<lo::sim::TranPoint> tran;
    const double s = secondsOf(
        [&] { tran = slewSim.transient(verifyOptions.tranStop, verifyOptions.tranStep); });
    const double steps = static_cast<double>(tran.size() - 1);
    out["sim.tran_ms"].push_back(ms(s));
    out["sim.tran_steps"].push_back(steps);
    out["sim.tran_us_per_step"].push_back(s * 1e6 / steps);
  }

  // Device evaluation and model inversion at the testbench's bias points.
  constexpr int kEvalRounds = 200;
  for (int rep = 0; rep < kReps; ++rep) {
    double sink = 0.0;
    const double s = secondsOf([&] {
      for (int round = 0; round < kEvalRounds; ++round) {
        for (std::size_t i = 0; i < ac.mosfets.size(); ++i) {
          const lo::circuit::Mos& m = ac.mosfets[i];
          const lo::device::MosOpPoint& bias = op.mosOps[i];
          sink += model.evaluate(t.card(m.type), m.geo, bias.vgs, bias.vds, bias.vbs,
                                 t.temperature)
                      .id;
        }
      }
    });
    if (!std::isfinite(sink)) throw std::runtime_error("device evaluation not finite");
    out["device.eval_ns"].push_back(
        s * 1e9 / (kEvalRounds * static_cast<double>(ac.mosfets.size())));
  }
  for (std::size_t i = 0; i < ac.mosfets.size(); ++i) {
    const lo::circuit::Mos& m = ac.mosfets[i];
    const lo::device::MosOpPoint& bias = op.mosOps[i];
    const double id = std::abs(bias.id) / m.mult;
    if (id < 1e-9) continue;  // Off devices: no gate bias to solve for.
    const double p = t.card(m.type).polarity();
    double vgs = 0.0;
    const double s = secondsOf([&] {
      vgs = lo::device::vgsForCurrent(model, t.card(m.type), m.geo, id, p * bias.vds,
                                      p * bias.vbs, setup.vdd, t.temperature);
    });
    if (std::isfinite(vgs)) out["sizing.vgs_for_current_us"].push_back(s * 1e6);
  }

  std::uint64_t state = seed ^ unknowns;
  measureLu<double>(unknowns, state, "linear.lu_factor_us", "linear.lu_solve_us", out);
  measureLu<std::complex<double>>(unknowns, state, "linear.lu_factor_complex_us", nullptr,
                                  out);
}

void measureRequestPath(const std::vector<std::string>& lines,
                        const std::vector<lo::core::EngineResult>& results,
                        const lo::tech::Technology& base, Samples& out) {
  const std::string techPrint = lo::service::ResultCache::techFingerprint(base);
  const double n = static_cast<double>(lines.size());
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<lo::service::JobRequest> jobs;
    jobs.reserve(lines.size());
    const double parse = secondsOf([&] {
      for (const std::string& line : lines) {
        jobs.push_back(lo::service::parseJobRequest(Json::parse(line)));
      }
    });
    out["protocol.request_parse_us"].push_back(parse * 1e6 / n);
    std::size_t keyBytes = 0;
    const double key = secondsOf([&] {
      for (const auto& job : jobs) {
        keyBytes += lo::service::ResultCache::keyFor(job.options, job.specs, job.corner,
                                                     techPrint)
                        .size();
      }
    });
    if (keyBytes == 0) throw std::runtime_error("empty cache keys");
    out["cache.key_us"].push_back(key * 1e6 / n);
    std::size_t bytes = 0;
    const double dump = secondsOf([&] {
      for (const auto& result : results) bytes += lo::service::toJson(result).dump().size();
    });
    out["json.result_serialize_us"].push_back(dump * 1e6 /
                                              static_cast<double>(results.size()));
  }
}

void measureJournal(const std::vector<std::string>& lines, const std::string& dir,
                    Samples& out) {
  std::filesystem::remove_all(dir);
  {
    lo::service::JournalOptions options;
    options.dir = dir;
    lo::service::JobJournal journal(options);
    std::uint64_t id = 1;
    for (const std::string& line : lines) {
      lo::service::JournalRecord record;
      record.type = lo::service::JournalRecordType::kSubmitted;
      record.id = id++;
      record.job = lo::service::toJson(lo::service::parseJobRequest(Json::parse(line)));
      out["journal.append_us"].push_back(
          secondsOf([&] { journal.append(record, /*durable=*/true); }) * 1e6);
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
