#include "circuit/circuit.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "circuit/ota.hpp"

namespace lo::circuit {
namespace {

TEST(Circuit, GroundAliases) {
  Circuit c;
  EXPECT_EQ(c.node("0"), kGround);
  EXPECT_EQ(c.node("gnd"), kGround);
  EXPECT_EQ(c.nodeCount(), 1);
}

TEST(Circuit, NodeCreationIsIdempotent) {
  Circuit c;
  const NodeId a = c.node("a");
  EXPECT_EQ(c.node("a"), a);
  EXPECT_EQ(c.nodeCount(), 2);
  EXPECT_EQ(c.nodeName(a), "a");
  EXPECT_FALSE(c.findNode("b").has_value());
  EXPECT_EQ(c.findNode("a"), a);
}

TEST(Circuit, AddAndFindElements) {
  Circuit c;
  const NodeId a = c.node("a"), b = c.node("b");
  c.addResistor("R1", a, b, 1e3);
  c.addCapacitor("C1", a, kGround, 1e-12);
  c.addVSource("V1", a, kGround, Waveform::makeDc(1.0));
  EXPECT_NE(c.findVSource("V1"), nullptr);
  EXPECT_EQ(c.findVSource("VX"), nullptr);
  EXPECT_NE(c.findCapacitor("C1"), nullptr);
  EXPECT_THROW(c.addResistor("R2", a, b, 0.0), std::invalid_argument);
  EXPECT_THROW(c.addCapacitor("C2", a, b, -1e-15), std::invalid_argument);
}

TEST(Circuit, NonFiniteElementValuesAreRejected) {
  // A NaN fails every ordered comparison, so a sign test alone lets it
  // through to the MNA matrices; the simulator's LU assumes finite entries.
  Circuit c;
  const NodeId a = c.node("a"), b = c.node("b");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    EXPECT_THROW(c.addResistor("R", a, b, bad), std::invalid_argument) << bad;
    EXPECT_THROW(c.addCapacitor("C", a, kGround, bad), std::invalid_argument) << bad;
  }
  EXPECT_TRUE(c.resistors.empty());
  EXPECT_TRUE(c.capacitors.empty());
  // Zero capacitance stays legal (an absent parasitic).
  c.addCapacitor("C0", a, kGround, 0.0);
  EXPECT_EQ(c.capacitors.size(), 1u);
}

TEST(Circuit, ExplicitCapAtSumsAttachedCaps) {
  Circuit c;
  const NodeId a = c.node("a"), b = c.node("b");
  c.addCapacitor("C1", a, kGround, 1e-12);
  c.addCapacitor("C2", a, b, 2e-12);
  c.addCapacitor("C3", b, kGround, 4e-12);
  EXPECT_DOUBLE_EQ(c.explicitCapAt(a), 3e-12);
  EXPECT_DOUBLE_EQ(c.explicitCapAt(b), 6e-12);
}

TEST(Waveform, PulseShape) {
  const Waveform w = Waveform::makePulse(0.0, 1.0, 10e-9, 2e-9, 2e-9, 50e-9, 200e-9);
  EXPECT_DOUBLE_EQ(w.at(0.0), 0.0);
  EXPECT_NEAR(w.at(11e-9), 0.5, 1e-6);   // Mid-rise.
  EXPECT_NEAR(w.at(30e-9), 1.0, 1e-6);   // Flat top.
  EXPECT_NEAR(w.at(63e-9), 0.5, 1e-6);   // Mid-fall.
  EXPECT_NEAR(w.at(100e-9), 0.0, 1e-6);  // Back to v1.
  EXPECT_NEAR(w.at(211e-9), 0.5, 1e-6);  // Periodic repeat.
  EXPECT_DOUBLE_EQ(w.dcValue(), 0.0);
}

TEST(Waveform, SinShape) {
  const Waveform w = Waveform::makeSin(1.0, 0.5, 1e6);
  EXPECT_DOUBLE_EQ(w.at(0.0), 1.0);
  EXPECT_NEAR(w.at(0.25e-6), 1.5, 1e-9);
  EXPECT_DOUBLE_EQ(w.dcValue(), 1.0);
}

TEST(Ota, InstantiateCreatesElevenTransistors) {
  Circuit c;
  FoldedCascodeOtaDesign d;
  const OtaNodes nodes = instantiateOta(c, d);
  EXPECT_EQ(c.mosfets.size(), 11u);
  EXPECT_EQ(c.vsources.size(), 5u);  // VDD + 4 bias sources.
  EXPECT_EQ(c.capacitors.size(), 1u);
  EXPECT_NE(c.findMos("MP1"), nullptr);
  EXPECT_NE(c.findMos("MN2C"), nullptr);
  EXPECT_DOUBLE_EQ(c.explicitCapAt(nodes.out), d.cload);
}

TEST(Ota, InputPairBulkRidesTheTailNode) {
  Circuit c;
  FoldedCascodeOtaDesign d;
  const OtaNodes nodes = instantiateOta(c, d);
  const Mos* mp1 = c.findMos("MP1");
  ASSERT_NE(mp1, nullptr);
  EXPECT_EQ(mp1->bulk, nodes.tail);
  EXPECT_EQ(mp1->source, nodes.tail);
  const Mos* mp5 = c.findMos("MP5");
  ASSERT_NE(mp5, nullptr);
  EXPECT_EQ(mp5->bulk, nodes.vdd);
}

TEST(Ota, MirrorNodeDrivesBothPSourceGates) {
  Circuit c;
  FoldedCascodeOtaDesign d;
  const OtaNodes nodes = instantiateOta(c, d);
  EXPECT_EQ(c.findMos("MP3")->gate, nodes.y1);
  EXPECT_EQ(c.findMos("MP4")->gate, nodes.y1);
  EXPECT_EQ(c.findMos("MP3C")->drain, nodes.y1);
  EXPECT_EQ(c.findMos("MP4C")->drain, nodes.out);
}

TEST(Ota, PrefixKeepsInstancesSeparate) {
  Circuit c;
  FoldedCascodeOtaDesign d;
  instantiateOta(c, d, "_a");
  instantiateOta(c, d, "_b");
  EXPECT_EQ(c.mosfets.size(), 22u);
  EXPECT_NE(c.findMos("MP1_a"), nullptr);
  EXPECT_NE(*c.findNode("out_a"), *c.findNode("out_b"));
}

TEST(Ota, BranchCurrentAccounting) {
  FoldedCascodeOtaDesign d;
  d.tailCurrent = 200e-6;
  d.cascodeCurrent = 120e-6;
  EXPECT_DOUBLE_EQ(otaGroupCurrent(d, OtaGroup::kInputPair), 100e-6);
  EXPECT_DOUBLE_EQ(otaGroupCurrent(d, OtaGroup::kSink), 220e-6);
  EXPECT_DOUBLE_EQ(otaGroupCurrent(d, OtaGroup::kPCascode), 120e-6);
  EXPECT_DOUBLE_EQ(d.supplyCurrent(), 440e-6);
}

}  // namespace
}  // namespace lo::circuit
