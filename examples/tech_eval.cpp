// Technology evaluation (paper section 4: "A technology evaluation
// interface allows to easily characterize different technologies and helps
// to choose the most suitable technology").
//
// Sizes the same OTA specification in two processes (the built-in 0.6 um
// and 1.0 um classes), compares the achievable performance and area, and
// demonstrates the technology-file round trip that keeps the generators
// technology independent.
//
//   $ ./tech_eval
#include <cstdio>

#include "core/engine.hpp"
#include "core/ota_topology.hpp"
#include "layout/writers.hpp"

namespace {

using namespace lo;

void evaluate(const tech::Technology& tech, const sizing::OtaSpecs& specs) {
  core::EngineOptions options;
  options.sizingCase = core::SizingCase::kCase4;
  const core::SynthesisEngine engine(tech, options);
  core::FoldedCascodeOtaTopology ota(tech, engine.model());
  const core::EngineResult r = engine.run(ota, specs);
  std::printf("%-12s gain %6.1f dB  GBW %6.1f MHz  PM %5.1f deg  power %5.2f mW  "
              "noise %6.1f uV  area %.3f mm^2\n",
              tech.name.c_str(), r.measured.dcGainDb, r.measured.gbwHz / 1e6,
              r.measured.phaseMarginDeg, r.measured.powerMw, r.measured.inputNoiseUv,
              (ota.layout().width / 1e6) * (ota.layout().height / 1e6));
}

}  // namespace

int main() {
  sizing::OtaSpecs specs;
  specs.gbw = 40e6;  // A target both processes can reach.

  std::printf("=== technology evaluation: same specs, two processes ===\n");
  std::printf("specs: GBW %.0f MHz, PM %.0f deg, CL %.0f pF\n\n", specs.gbw / 1e6,
              specs.phaseMarginDeg, specs.cload * 1e12);

  const tech::Technology t06 = tech::Technology::generic060();
  const tech::Technology t10 = tech::Technology::generic100();
  evaluate(t06, specs);
  evaluate(t10, specs);

  // Technology-file round trip: everything the tools need is plain text.
  const std::string techPath = layout::outputPath("generic060.tech");
  layout::writeFile(techPath, t06.toText());
  const tech::Technology reloaded = tech::Technology::fromFile(techPath);
  std::printf("\nwrote generic060.tech and reloaded it: name=%s, nmos vto=%.2f V, "
              "metal1 min width=%lld nm\n",
              reloaded.name.c_str(), reloaded.nmos.vto,
              static_cast<long long>(reloaded.rules.metal1MinWidth));
  return 0;
}
