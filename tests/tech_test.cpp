#include "tech/technology.hpp"

#include <gtest/gtest.h>

#include "tech/units.hpp"

namespace lo::tech {
namespace {

TEST(DesignRules, SnapUpRoundsToGridMultiples) {
  DesignRules r;
  r.grid = 50;
  EXPECT_EQ(r.snapUp(100), 100);
  EXPECT_EQ(r.snapUp(101), 150);
  EXPECT_EQ(r.snapUp(149), 150);
  EXPECT_EQ(r.snapUp(0), 0);
}

TEST(DesignRules, SnapDownAndNearest) {
  DesignRules r;
  r.grid = 50;
  EXPECT_EQ(r.snapDown(149), 100);
  EXPECT_EQ(r.snapNearest(124), 100);
  EXPECT_EQ(r.snapNearest(125), 150);
  EXPECT_EQ(r.snapNearest(150), 150);
}

TEST(DesignRules, ContactedDiffusionExtents) {
  DesignRules r;
  // Outer strip: gate spacing + cut + enclosure.
  EXPECT_EQ(r.contactedDiffusionExtent(), r.contactToGate + r.contactSize + r.activeOverContact);
  // Shared strip: gate spacing on both sides around the cut.
  EXPECT_EQ(r.sharedContactedDiffusionExtent(), 2 * r.contactToGate + r.contactSize);
  // A shared strip must be narrower than two outer strips (that is the whole
  // point of folding).
  EXPECT_LT(r.sharedContactedDiffusionExtent(), 2 * r.contactedDiffusionExtent());
}

TEST(Layers, NamesRoundTrip) {
  for (Layer l : kAllLayers) {
    const auto parsed = layerFromName(layerName(l));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, l);
  }
  EXPECT_FALSE(layerFromName("bogus").has_value());
}

TEST(Technology, Generic060HasConsistentCards) {
  const Technology t = Technology::generic060();
  EXPECT_EQ(t.nmos.type, MosType::kNmos);
  EXPECT_EQ(t.pmos.type, MosType::kPmos);
  // NMOS mobility advantage.
  EXPECT_GT(t.nmos.kp, t.pmos.kp);
  EXPECT_GT(t.nmos.cox(), 1e-3);  // ~2.5 mF/m^2 for 14 nm oxide.
  EXPECT_LT(t.nmos.cox(), 5e-3);
}

TEST(Technology, WireWidthForCurrentHonoursElectromigration) {
  const Technology t = Technology::generic060();
  // Tiny current: minimum width.
  EXPECT_EQ(t.wireWidthForCurrent(Layer::kMetal1, 1e-6), t.rules.metal1MinWidth);
  // 5 mA at 1 mA/um needs a 5 um wire.
  const Nm w = t.wireWidthForCurrent(Layer::kMetal1, 5e-3);
  EXPECT_GE(w, 5000);
  EXPECT_LE(w, 5000 + t.rules.grid);
  // Wider for poly, whose EM limit is lower.
  EXPECT_GT(t.wireWidthForCurrent(Layer::kPoly, 5e-3), w);
}

TEST(Technology, WireWidthRejectsNonRoutingLayer) {
  const Technology t = Technology::generic060();
  EXPECT_THROW((void)t.minWireWidth(Layer::kActive), std::invalid_argument);
}

TEST(Technology, ContactsForCurrentScales) {
  const Technology t = Technology::generic060();
  EXPECT_EQ(t.contactsForCurrent(0.0), 1);
  EXPECT_EQ(t.contactsForCurrent(t.contactMaxAmp * 0.5), 1);
  EXPECT_EQ(t.contactsForCurrent(t.contactMaxAmp * 3.5), 4);
}

TEST(Technology, TextRoundTripPreservesEverything) {
  Technology t = Technology::generic060();
  t.name = "roundtrip";
  t.nmos.vto = 0.66;
  t.rules.metal1MinWidth = 850;
  t.layer(Layer::kMetal2).capAreaPerM2 = 0.123e-3;

  const Technology u = Technology::parse(t.toText());
  EXPECT_EQ(u.name, "roundtrip");
  EXPECT_DOUBLE_EQ(u.nmos.vto, 0.66);
  EXPECT_EQ(u.rules.metal1MinWidth, 850);
  EXPECT_DOUBLE_EQ(u.layer(Layer::kMetal2).capAreaPerM2, 0.123e-3);
  EXPECT_EQ(u.pmos.type, MosType::kPmos);
}

TEST(Technology, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Technology::parse("[rules]\nbogus_rule = 1\n"), TechParseError);
  EXPECT_THROW((void)Technology::parse("[tech]\nname value-without-equals\n"), TechParseError);
  EXPECT_THROW((void)Technology::parse("[layer nosuch]\ncap_area = 1\n"), TechParseError);
  EXPECT_THROW((void)Technology::parse("[model nmos]\nvto = abc\n"), TechParseError);
  EXPECT_THROW((void)Technology::parse("[unknown-section]\nx = 1\n"), TechParseError);
}

TEST(Technology, ParseRejectsTrailingJunkAndNonFiniteNumbers) {
  // Each value must be one whole finite number: "3.3volts" is not 3.3.
  for (const char* text :
       {"[tech]\nnominal_vdd = 3.3volts\n", "[tech]\ntemperature = nan\n",
        "[tech]\nplate_cap = inf\n", "[tech]\nnominal_vdd = 1e999\n",
        "[rules]\nmetal1_min_width = 800nm\n", "[layer metal1]\nsheet_res = -inf\n",
        "[model nmos]\nvto = 0.7xyz\n", "[model pmos]\nkp = nan\n",
        "[model nmos]\ngamma = 0.5 0.6\n", "[model nmos]\nphi = \n"}) {
    EXPECT_THROW((void)Technology::parse(text), TechParseError) << text;
  }
  const Technology t = Technology::parse("[tech]\nnominal_vdd = 3.3\n[model nmos]\nvto = 7e-1\n");
  EXPECT_DOUBLE_EQ(t.nominalVdd, 3.3);
  EXPECT_DOUBLE_EQ(t.nmos.vto, 0.7);
}

TEST(Technology, ParseIgnoresCommentsAndBlankLines) {
  const Technology t =
      Technology::parse("# comment\n\n[tech]\nname = commented\n# another\n");
  EXPECT_EQ(t.name, "commented");
}

TEST(Technology, Generic100IsCoarser) {
  const Technology t06 = Technology::generic060();
  const Technology t10 = Technology::generic100();
  EXPECT_GT(t10.rules.polyMinWidth, t06.rules.polyMinWidth);
  EXPECT_LT(t10.nmos.cox(), t06.nmos.cox());
  EXPECT_LT(t10.nmos.kp, t06.nmos.kp);
}

TEST(Units, ThermalVoltageAtRoomTemperature) {
  EXPECT_NEAR(thermalVoltage(300.15), 0.02587, 1e-4);
}

TEST(Units, NmConversionRoundTrip) {
  EXPECT_DOUBLE_EQ(nmToMeters(650), 650e-9);
  EXPECT_EQ(metersToNm(650e-9), 650);
}

}  // namespace
}  // namespace lo::tech
