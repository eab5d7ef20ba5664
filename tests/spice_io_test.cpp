#include "circuit/spice_io.hpp"

#include <gtest/gtest.h>

namespace lo::circuit {
namespace {

TEST(SpiceNumber, ParsesSuffixes) {
  EXPECT_DOUBLE_EQ(parseSpiceNumber("2.5u"), 2.5e-6);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("3meg"), 3e6);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("10k"), 1e4);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("4.7n"), 4.7e-9);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("100f"), 1e-13);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("-3m"), -3e-3);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("2G"), 2e9);
}

TEST(SpiceNumber, RejectsGarbage) {
  EXPECT_THROW((void)parseSpiceNumber("abc"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("1.5x"), NetlistParseError);
}

TEST(SpiceNumber, SuffixesAreCaseInsensitiveAndMegIsNotMilli) {
  // "meg" in any case is mega; a single "m" in any case is milli -- the
  // classic SPICE trap.
  EXPECT_DOUBLE_EQ(parseSpiceNumber("3MEG"), 3e6);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("3Meg"), 3e6);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("3mEg"), 3e6);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("3M"), 3e-3);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("10K"), 1e4);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("100F"), 1e-13);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("2g"), 2e9);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("1T"), 1e12);
}

TEST(SpiceNumber, NegativeExponentsComposeWithSuffixes) {
  EXPECT_DOUBLE_EQ(parseSpiceNumber("1e-3k"), 1.0);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("2.5e-6meg"), 2.5);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("-1.5e-2m"), -1.5e-5);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("4E-9"), 4e-9);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("1e3u"), 1e-3);
}

TEST(SpiceNumber, MalformedSuffixesThrowInsteadOfParsingThePrefix) {
  // A recognised suffix followed by trailing junk must not silently parse
  // as the shorter suffix ("10megx" is not 10 milli, "1m5" is not 1 milli).
  EXPECT_THROW((void)parseSpiceNumber("10megx"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("1m5"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("5kk"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("3me"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("3megmeg"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("2uF"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber(""), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("meg"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("1.5 k"), NetlistParseError);
}

TEST(SpiceNumber, RejectsNonFiniteValues) {
  // std::stod accepts nan and inf; a circuit value never is one.  A
  // suffix can also overflow a finite mantissa.
  for (const char* token : {"nan", "NaN", "-nan", "inf", "-inf", "Infinity", "nank",
                            "infmeg", "1e305meg", "-1e305t"}) {
    EXPECT_THROW((void)parseSpiceNumber(token), NetlistParseError) << token;
  }
  EXPECT_DOUBLE_EQ(parseSpiceNumber("1e300k"), 1e303);
}

TEST(NetlistParse, RejectsNonFiniteSourceValues) {
  // The netlist that used to come back converged with v(a) = nan.
  EXPECT_THROW((void)parseNetlist("* t\nV1 a 0 DC nan\nR1 a 0 1k\n"), NetlistParseError);
  EXPECT_THROW((void)parseNetlist("* t\nV1 a 0 DC 1\nR1 a 0 inf\n"), NetlistParseError);
  EXPECT_THROW((void)parseNetlist("* t\nV1 a 0 PULSE(0 1 0 1n 1n nan 10n)\nR1 a 0 1k\n"),
               NetlistParseError);
}

TEST(SpiceNumber, FormatRoundTrips) {
  for (double v : {2.5e-6, 3e6, 1e4, 4.7e-9, -3e-3, 1.5, 0.0}) {
    EXPECT_DOUBLE_EQ(parseSpiceNumber(formatSpiceNumber(v)), v) << v;
  }
  EXPECT_EQ(formatSpiceNumber(0.0), "0");
}

TEST(NetlistParse, BasicRlcAndSources) {
  const Circuit c = parseNetlist(
      "* divider\n"
      "V1 in 0 DC 3.3 AC 1 0\n"
      "R1 in out 10k\n"
      "R2 out 0 10k\n"
      "C1 out 0 1p\n"
      ".end\n");
  EXPECT_EQ(c.title, "divider");
  EXPECT_EQ(c.resistors.size(), 2u);
  EXPECT_EQ(c.capacitors.size(), 1u);
  ASSERT_EQ(c.vsources.size(), 1u);
  EXPECT_DOUBLE_EQ(c.vsources[0].wave.dc, 3.3);
  EXPECT_DOUBLE_EQ(c.vsources[0].acMag, 1.0);
}

TEST(NetlistParse, MosWithGeometry) {
  const Circuit c = parseNetlist(
      "* mos\n"
      "M1 d g s 0 nmos W=20u L=1u NF=4 AD=12p AS=14p PD=8u PS=9u M=2\n");
  ASSERT_EQ(c.mosfets.size(), 1u);
  const Mos& m = c.mosfets[0];
  EXPECT_EQ(m.type, tech::MosType::kNmos);
  EXPECT_DOUBLE_EQ(m.geo.w, 20e-6);
  EXPECT_DOUBLE_EQ(m.geo.l, 1e-6);
  EXPECT_EQ(m.geo.nf, 4);
  EXPECT_DOUBLE_EQ(m.geo.ad, 12e-12);
  EXPECT_DOUBLE_EQ(m.geo.ps, 9e-6);
  EXPECT_DOUBLE_EQ(m.mult, 2.0);
}

TEST(NetlistParse, PulseAndSinSources) {
  const Circuit c = parseNetlist(
      "* srcs\n"
      "V1 a 0 PULSE(0 1 10n 1n 1n 50n 200n)\n"
      "V2 b 0 SIN(1.65 0.1 1meg)\n"
      "I1 a b DC 10u AC 1\n");
  ASSERT_EQ(c.vsources.size(), 2u);
  EXPECT_EQ(c.vsources[0].wave.kind, Waveform::Kind::kPulse);
  EXPECT_DOUBLE_EQ(c.vsources[0].wave.width, 50e-9);
  EXPECT_EQ(c.vsources[1].wave.kind, Waveform::Kind::kSin);
  EXPECT_DOUBLE_EQ(c.vsources[1].wave.freq, 1e6);
  ASSERT_EQ(c.isources.size(), 1u);
  EXPECT_DOUBLE_EQ(c.isources[0].wave.dc, 10e-6);
  EXPECT_DOUBLE_EQ(c.isources[0].acMag, 1.0);
}

TEST(NetlistParse, Vcvs) {
  const Circuit c = parseNetlist("* e\nE1 out 0 inp inn 1000\n");
  ASSERT_EQ(c.vcvs.size(), 1u);
  EXPECT_DOUBLE_EQ(c.vcvs[0].gain, 1000.0);
}

TEST(NetlistParse, ErrorsCarryLineContext) {
  try {
    (void)parseNetlist("* t\nR1 a b\n");
    FAIL() << "expected NetlistParseError";
  } catch (const NetlistParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(NetlistParse, RejectsUnknownElementsAndModels) {
  EXPECT_THROW((void)parseNetlist("* t\nQ1 a b c model\n"), NetlistParseError);
  EXPECT_THROW((void)parseNetlist("* t\nM1 d g s 0 bjt W=1u L=1u\n"), NetlistParseError);
  EXPECT_THROW((void)parseNetlist("* t\nM1 d g s 0 nmos BOGUS=3\n"), NetlistParseError);
}

TEST(NetlistRoundTrip, WriteThenParsePreservesCircuit) {
  Circuit c;
  c.title = "roundtrip";
  const NodeId in = c.node("in"), out = c.node("out");
  device::MosGeometry geo;
  geo.w = 33e-6;
  geo.l = 0.8e-6;
  geo.nf = 4;
  geo.ad = 10e-12;
  geo.as = 11e-12;
  geo.pd = 5e-6;
  geo.ps = 6e-6;
  c.addMos("M1", out, in, kGround, kGround, tech::MosType::kNmos, geo);
  c.addResistor("R1", in, out, 4.7e3);
  c.addCapacitor("C1", out, kGround, 2.2e-12);
  c.addVSource("V1", in, kGround, Waveform::makePulse(0, 3.3, 0, 1e-9, 1e-9, 1e-6, 2e-6),
               0.5, 45.0);
  c.addISource("I1", in, out, Waveform::makeDc(1e-6));
  c.addVcvs("E1", out, kGround, in, kGround, 12.0);

  const Circuit u = parseNetlist(writeNetlist(c));
  EXPECT_EQ(u.title, "roundtrip");
  ASSERT_EQ(u.mosfets.size(), 1u);
  EXPECT_DOUBLE_EQ(u.mosfets[0].geo.w, 33e-6);
  EXPECT_EQ(u.mosfets[0].geo.nf, 4);
  ASSERT_EQ(u.vsources.size(), 1u);
  EXPECT_EQ(u.vsources[0].wave.kind, Waveform::Kind::kPulse);
  EXPECT_DOUBLE_EQ(u.vsources[0].acMag, 0.5);
  EXPECT_DOUBLE_EQ(u.vsources[0].acPhase, 45.0);
  ASSERT_EQ(u.vcvs.size(), 1u);
  EXPECT_DOUBLE_EQ(u.vcvs[0].gain, 12.0);
  // Node wiring preserved.
  EXPECT_EQ(u.mosfets[0].gate, *u.findNode("in"));
  EXPECT_EQ(u.mosfets[0].drain, *u.findNode("out"));
}

}  // namespace
}  // namespace lo::circuit
