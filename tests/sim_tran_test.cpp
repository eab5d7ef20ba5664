#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "device/folding.hpp"
#include "sim/measure.hpp"
#include "sim/simulator.hpp"
#include "tech/technology.hpp"

namespace lo::sim {
namespace {

using circuit::Circuit;
using circuit::Waveform;

const tech::Technology kTech = tech::Technology::generic060();

TEST(SimTran, RcStepResponseMatchesAnalytic) {
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  const double r = 10e3, cap = 1e-9, tau = r * cap;
  c.addVSource("VIN", in, circuit::kGround,
               Waveform::makePulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 2.0));
  c.addResistor("R1", in, out, r);
  c.addCapacitor("C1", out, circuit::kGround, cap);

  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const auto tran = sim.transient(5 * tau, tau / 200);
  const auto outId = *c.findNode("out");
  for (const TranPoint& p : tran) {
    const double expected = 1.0 - std::exp(-p.time / tau);
    EXPECT_NEAR(p.nodeV[outId], expected, 0.01) << "t=" << p.time;
  }
}

TEST(SimTran, CurrentSourceIntegratesOnCapacitor) {
  // I = C dV/dt: a 1 uA step on 1 pF ramps 1 V/us.  The source is zero at
  // t = 0 so the DC starting point is trivially V = 0.
  Circuit c;
  const auto n = c.node("n");
  c.addISource("I1", circuit::kGround, n,
               Waveform::makePulse(0.0, 1e-6, 100e-9, 1e-12, 1e-12, 1.0, 2.0));
  c.addCapacitor("C1", n, circuit::kGround, 1e-12);
  c.addResistor("RB", n, circuit::kGround, 1e9);  // DC path for the op point.

  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const auto tran = sim.transient(2e-6, 2e-9);
  const auto nId = *c.findNode("n");
  EXPECT_NEAR(tran.front().nodeV[nId], 0.0, 1e-6);
  const SlewRates sr = slewRates(tran, nId, 150e-9, 2e-6);
  EXPECT_NEAR(sr.rising, 1e6, 1e4);  // 1 V/us.
  // End value: 1.9 us of integration.
  EXPECT_NEAR(tran.back().nodeV[nId], 1.9, 0.02);
}

TEST(SimTran, SinSourceReproducedAtNodes) {
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  c.addVSource("VIN", in, circuit::kGround, Waveform::makeSin(1.0, 0.5, 1e6));
  c.addResistor("R1", in, out, 1e3);
  c.addResistor("R2", out, circuit::kGround, 1e3);

  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const auto tran = sim.transient(2e-6, 5e-9);
  const auto outId = *c.findNode("out");
  for (const TranPoint& p : tran) {
    const double expected = 0.5 * (1.0 + 0.5 * std::sin(2 * M_PI * 1e6 * p.time));
    EXPECT_NEAR(p.nodeV[outId], expected, 1e-3);
  }
}

TEST(SimTran, NmosSourceFollowerTracksStep) {
  Circuit c;
  const auto in = c.node("in"), out = c.node("out"), vdd = c.node("vdd");
  device::MosGeometry geo;
  geo.w = 50e-6;
  geo.l = 0.6e-6;
  device::applyUnfoldedGeometry(kTech.rules, geo);
  c.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(3.3));
  c.addVSource("VIN", in, circuit::kGround,
               Waveform::makePulse(2.0, 2.5, 100e-9, 1e-9, 1e-9, 1e-6, 2e-6));
  // Bulk tied to source: no body effect, so the follower tracks closely.
  c.addMos("M1", vdd, in, out, out, tech::MosType::kNmos, geo);
  c.addISource("IB", out, circuit::kGround, Waveform::makeDc(100e-6));
  c.addCapacitor("CL", out, circuit::kGround, 1e-12);

  const auto model = device::MosModel::create("ekv");
  Simulator sim(c, kTech, *model);
  const auto tran = sim.transient(400e-9, 1e-9);
  const auto outId = *c.findNode("out");
  const double before = tran.front().nodeV[outId];
  const double after = tran.back().nodeV[outId];
  // The follower shifts by ~VGS but tracks the 0.5 V step closely.
  EXPECT_NEAR(after - before, 0.5, 0.05);
}

TEST(SimTran, RejectsBadTimeArguments) {
  Circuit c;
  c.addResistor("R1", c.node("a"), circuit::kGround, 1e3);
  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  EXPECT_THROW((void)sim.transient(-1.0, 1e-9), std::invalid_argument);
  EXPECT_THROW((void)sim.transient(1e-6, 0.0), std::invalid_argument);
}

TEST(SimTran, EnergyConservationOnLinearRc) {
  // Trapezoidal integration is A-stable and nearly lossless: after charging,
  // the capacitor holds its voltage when the source is flat.
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  c.addVSource("VIN", in, circuit::kGround,
               Waveform::makePulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 2.0));
  c.addResistor("R1", in, out, 1e3);
  c.addCapacitor("C1", out, circuit::kGround, 1e-9);
  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const auto tran = sim.transient(50e-6, 50e-9);  // 50 tau.
  const auto outId = *c.findNode("out");
  EXPECT_NEAR(tran.back().nodeV[outId], 1.0, 1e-6);
}

TEST(SimTran, CountersTrackStepsIterationsAndFactorizations) {
  Circuit c;
  const auto in = c.node("in"), out = c.node("out"), vdd = c.node("vdd");
  device::MosGeometry geo;
  geo.w = 50e-6;
  geo.l = 0.6e-6;
  device::applyUnfoldedGeometry(kTech.rules, geo);
  c.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(3.3));
  c.addVSource("VIN", in, circuit::kGround,
               Waveform::makePulse(2.0, 2.5, 20e-9, 1e-9, 1e-9, 1e-6, 2e-6));
  c.addMos("M1", vdd, in, out, out, tech::MosType::kNmos, geo);
  c.addISource("IB", out, circuit::kGround, Waveform::makeDc(100e-6));
  c.addCapacitor("CL", out, circuit::kGround, 1e-12);
  const auto model = device::MosModel::create("ekv");

  SimStats stats[2];
  for (const SolverMode mode : {SolverMode::kFast, SolverMode::kReference}) {
    SimOptions opt;
    opt.solver = mode;
    Simulator sim(c, kTech, *model, opt);
    EXPECT_EQ(sim.stats().tranSteps, 0);
    const auto tran = sim.transient(100e-9, 1e-9);
    const SimStats& s = sim.stats();
    EXPECT_EQ(s.tranSteps, 100);
    EXPECT_EQ(static_cast<long>(tran.size()), s.tranSteps + 1);
    // Every step runs at least two Newton iterations (the forced second).
    EXPECT_GE(s.tranNewtonIterations, 2 * s.tranSteps);
    stats[mode == SolverMode::kFast ? 0 : 1] = s;
  }
  // Same Newton trajectory in both modes; only the fast path factors
  // (once per iteration, DC ladder included).
  EXPECT_EQ(stats[0].tranNewtonIterations, stats[1].tranNewtonIterations);
  EXPECT_EQ(stats[0].luFactorizations,
            stats[0].newtonIterations + stats[0].tranNewtonIterations);
  EXPECT_EQ(stats[0].luSolves, stats[0].luFactorizations);
  EXPECT_EQ(stats[1].luFactorizations, 0);
}

TEST(SimTran, NewtonFailureNamesStepTimeIterationsAndWorstUnknown) {
  // A 100 V input edge against the 0.3 V per-iteration damping limit needs
  // hundreds of Newton iterations; with a budget of 10 the first step must
  // fail.  The load capacitor is large enough that "out" settles at once,
  // so "in" carries the largest last update.  The DC operating point at
  // t = 0 (input at 0 V) converges within the same budget.
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  c.addVSource("VIN", in, circuit::kGround,
               Waveform::makePulse(0.0, 100.0, 0.0, 1e-12, 1e-12, 1.0, 2.0));
  c.addResistor("R1", in, out, 1e3);
  c.addCapacitor("C1", out, circuit::kGround, 1e-6);
  const auto model = device::MosModel::create("level1");

  std::string messages[2];
  for (const SolverMode mode : {SolverMode::kFast, SolverMode::kReference}) {
    SimOptions opt;
    opt.solver = mode;
    opt.maxNewtonIters = 10;
    Simulator sim(c, kTech, *model, opt);
    try {
      (void)sim.transient(10e-9, 1e-9);
      ADD_FAILURE() << "transient must fail";
    } catch (const SimulationError& e) {
      messages[mode == SolverMode::kFast ? 0 : 1] = e.what();
    }
    EXPECT_EQ(sim.stats().tranSteps, 0);
    EXPECT_EQ(sim.stats().tranNewtonIterations, 10);
  }
  EXPECT_EQ(messages[0],
            "transient: Newton failed at step 1 (t=1e-09 s) after 10 iterations; "
            "largest last update at node in");
  EXPECT_EQ(messages[0], messages[1]);
}

}  // namespace
}  // namespace lo::sim
