// Quickstart: synthesise a folded-cascode OTA with the layout-oriented flow.
//
// This is the smallest end-to-end use of the library: pick a technology,
// state the electrical specs, run the case-4 flow (sizing with full layout
// feedback), and look at what came out -- sizes, predicted vs simulated
// performance, and the physical layout.
//
//   $ ./quickstart
#include <cstdio>

#include "core/engine.hpp"
#include "core/ota_topology.hpp"
#include "layout/writers.hpp"

int main() {
  using namespace lo;

  // 1. Technology: the built-in synthetic 0.6 um CMOS process.  Your own
  //    process would come from tech::Technology::fromFile("my.tech").
  const tech::Technology tech = tech::Technology::generic060();

  // 2. Electrical specifications (the paper's example).
  sizing::OtaSpecs specs;
  specs.vdd = 3.3;
  specs.gbw = 65e6;
  specs.phaseMarginDeg = 65.0;
  specs.cload = 3e-12;

  // 3. Run the layout-oriented synthesis flow: sizing <-> layout parasitic
  //    calls until the parasitics stop changing, then generate + extract +
  //    verify by simulation.  The topology adapter is caller-owned, so
  //    after the run it still holds the sized design and the layout.
  core::EngineOptions options;
  options.sizingCase = core::SizingCase::kCase4;
  const core::SynthesisEngine engine(tech, options);
  core::FoldedCascodeOtaTopology ota(tech, engine.model());
  const core::EngineResult result = engine.run(ota, specs);

  // 4. Inspect the outcome.
  const auto& d = ota.sizingResult().design;
  std::printf("synthesised in %d layout calls (converged: %s)\n", result.layoutCalls,
              result.parasiticConverged ? "yes" : "no");
  std::printf("tail current %.0f uA, folded-branch current %.0f uA\n",
              d.tailCurrent * 1e6, d.cascodeCurrent * 1e6);
  std::printf("device widths [um]: pair %.1f  tail %.1f  sink %.1f  ncasc %.1f  "
              "psrc %.1f  pcasc %.1f\n",
              d.inputPair.w * 1e6, d.tail.w * 1e6, d.sink.w * 1e6, d.nCascode.w * 1e6,
              d.pSource.w * 1e6, d.pCascode.w * 1e6);

  std::printf("\n%-24s %12s %12s\n", "", "synthesised", "simulated");
  auto row = [](const char* name, double a, double b) {
    std::printf("%-24s %12.2f %12.2f\n", name, a, b);
  };
  row("DC gain (dB)", result.predicted.dcGainDb, result.measured.dcGainDb);
  row("GBW (MHz)", result.predicted.gbwHz / 1e6, result.measured.gbwHz / 1e6);
  row("Phase margin (deg)", result.predicted.phaseMarginDeg,
      result.measured.phaseMarginDeg);
  row("Slew rate (V/us)", result.predicted.slewRateVPerUs,
      result.measured.slewRateVPerUs);
  row("Power (mW)", result.predicted.powerMw, result.measured.powerMw);

  // 5. The physical layout.
  const std::string svgPath = layout::outputPath("quickstart_ota.svg");
  layout::writeFile(svgPath, layout::toSvg(ota.layout().cell.shapes));
  std::printf("\nlayout: %.1f x %.1f um, written to %s\n",
              ota.layout().width / 1e3, ota.layout().height / 1e3,
              svgPath.c_str());
  return 0;
}
