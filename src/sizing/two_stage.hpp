// Design plan and analytic evaluation for the two-stage Miller OTA.
//
// The second topology of the tool (paper section 4: hierarchy "simplifies
// the addition of new topologies").  Same recipe as the folded cascode:
// fixed gate drives, currents from the GBW target (through the compensation
// capacitor), phase margin met by raising the second-stage current, and the
// same SizingPolicy cases for what the plan knows about the layout.
#pragma once

#include "circuit/two_stage.hpp"
#include "device/mos_model.hpp"
#include "sizing/ota_spec.hpp"
#include "tech/technology.hpp"

namespace lo::sizing {

struct TwoStageChoices {
  OperatingChoices::GroupChoice inputPair{0.16, 1.0e-6};
  OperatingChoices::GroupChoice mirror{0.30, 1.5e-6};
  /// The tail's gate drive must stay below the tail-node voltage
  /// (inputCm - VGS(pair)) or it leaves saturation.
  OperatingChoices::GroupChoice tail{0.12, 2.0e-6};
  OperatingChoices::GroupChoice driver{0.30, 0.8e-6};
  OperatingChoices::GroupChoice sink2{0.12, 1.0e-6};  ///< Length only; the
                                                      ///< width mirrors the tail.
  /// Compensation capacitor as a fraction of the load.
  double ccOverCl = 0.30;
};

struct TwoStageSnapshot {
  device::MosOpPoint pair, mirror, tail, driver, sink2;
  double vtail = 0.0, vd1 = 0.0, vout = 0.0;
};

struct TwoStageSizingResult {
  circuit::TwoStageOtaDesign design;
  OtaPerformance predicted;
  int gbwIterations = 0;
  int pmIterations = 0;
  bool converged = false;
};

class TwoStageSizer {
 public:
  TwoStageSizer(const tech::Technology& t, const device::MosModel& model)
      : tech_(t), model_(model) {}

  [[nodiscard]] TwoStageSizingResult size(const OtaSpecs& specs, const SizingPolicy& policy,
                                          TwoStageChoices choices = {}) const;

  [[nodiscard]] TwoStageSnapshot snapshot(const circuit::TwoStageOtaDesign& d,
                                          double inputCm) const;

  [[nodiscard]] OtaPerformance evaluate(const circuit::TwoStageOtaDesign& d,
                                        const OtaSpecs& specs,
                                        const SizingPolicy& policy) const;

  /// The same row from an already solved `snapshot(d, specs.inputCmMid())`;
  /// bit-identical to the overload above, which solves it first.
  [[nodiscard]] OtaPerformance evaluate(const circuit::TwoStageOtaDesign& d,
                                        const TwoStageSnapshot& snap,
                                        const SizingPolicy& policy) const;

 private:
  /// Rebuild the whole design; returns its snapshot, which the nulling
  /// resistor is sized from (the snapshot does not read `rz`).
  TwoStageSnapshot buildDesign(const OtaSpecs& specs, const SizingPolicy& policy,
                               const TwoStageChoices& choices, double gm1,
                               double stage2Ratio, circuit::TwoStageOtaDesign& d) const;

  const tech::Technology& tech_;
  const device::MosModel& model_;
};

}  // namespace lo::sizing
