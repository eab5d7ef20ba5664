#include "device/mos_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "tech/units.hpp"

namespace lo::device {

namespace {

/// Softplus with scale `a`: smooth max(x, 0) that tends to x for x >> a.
double softplus(double x, double a) {
  const double r = x / a;
  if (r > 40.0) return x;
  if (r < -40.0) return 0.0;
  return a * std::log1p(std::exp(r));
}

/// Junction capacitance with reverse bias `vr` (>= 0 reverse); clamps the
/// forward-bias singularity at half the built-in potential.
double junctionCap(double c0, double vr, double pb, double m) {
  const double x = std::max(1.0 - (-vr) / pb, 0.5);  // vr < 0 means forward bias.
  return c0 / std::pow(x, m);
}

}  // namespace

// ---------------------------------------------------------------------------
// Base class: symmetry handling, derivatives, capacitances, noise.
// ---------------------------------------------------------------------------

double MosModel::currentNormalized(const tech::MosModelCard& card, const MosGeometry& geo,
                                   double vgs, double vds, double vbs, double tempK) const {
  if (vds >= 0.0) return forwardCurrent(card, geo, vgs, vds, vbs, tempK);
  // Source/drain symmetry: with vds < 0 the drain acts as the source.
  return -forwardCurrent(card, geo, vgs - vds, -vds, vbs - vds, tempK);
}

void MosModel::forwardCurrentBatch(const tech::MosModelCard& card, const MosGeometry& geo,
                                   const double* vgs, const double* vds, const double* vbs,
                                   double* idOut, std::size_t n, double tempK) const {
  for (std::size_t i = 0; i < n; ++i) {
    idOut[i] = forwardCurrent(card, geo, vgs[i], vds[i], vbs[i], tempK);
  }
}

void MosModel::currentNormalizedBatch(const tech::MosModelCard& card, const MosGeometry& geo,
                                      const double* vgs, const double* vds, const double* vbs,
                                      double* idOut, std::size_t n, double tempK) const {
  // Derivative stencils are 7 points, so the common case stays on the stack.
  constexpr std::size_t kStack = 8;
  double sg[kStack], sd[kStack], sb[kStack];
  std::vector<double> heap;
  double* fg = sg;
  double* fd = sd;
  double* fb = sb;
  if (n > kStack) {
    heap.resize(3 * n);
    fg = heap.data();
    fd = fg + n;
    fb = fd + n;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (vds[i] >= 0.0) {
      fg[i] = vgs[i];
      fd[i] = vds[i];
      fb[i] = vbs[i];
    } else {
      // Source/drain symmetry, exactly as the scalar currentNormalized.
      fg[i] = vgs[i] - vds[i];
      fd[i] = -vds[i];
      fb[i] = vbs[i] - vds[i];
    }
  }
  forwardCurrentBatch(card, geo, fg, fd, fb, idOut, n, tempK);
  for (std::size_t i = 0; i < n; ++i) {
    if (vds[i] < 0.0) idOut[i] = -idOut[i];
  }
}

double MosModel::drainCurrent(const tech::MosModelCard& card, const MosGeometry& geo,
                              double vgs, double vds, double vbs, double tempK) const {
  const double p = card.polarity();
  return p * currentNormalized(card, geo, p * vgs, p * vds, p * vbs, tempK);
}

MosStamp MosModel::evaluateStamp(const tech::MosModelCard& card, const MosGeometry& geo,
                                 double vgs, double vds, double vbs, double tempK) const {
  const double p = card.polarity();
  const double nvgs = p * vgs, nvds = p * vds, nvbs = p * vbs;

  // Value plus central-difference stencil in one batch: one pass through
  // the model with the card invariants hoisted, instead of seven scalar
  // calls.  Each point is bit-identical to the scalar evaluation.
  const double h = 1e-6;
  const double vg7[7] = {nvgs, nvgs + h, nvgs - h, nvgs, nvgs, nvgs, nvgs};
  const double vd7[7] = {nvds, nvds, nvds, nvds + h, nvds - h, nvds, nvds};
  const double vb7[7] = {nvbs, nvbs, nvbs, nvbs, nvbs, nvbs + h, nvbs - h};
  double id7[7];
  currentNormalizedBatch(card, geo, vg7, vd7, vb7, id7, 7, tempK);

  MosStamp s;
  s.id = p * id7[0];
  // Conductances by central differences on the normalised current; the
  // magnitudes are polarity independent.  Numerical noise floor: clamp
  // tiny negatives from differencing.
  s.gm = std::max((id7[1] - id7[2]) / (2 * h), 0.0);
  s.gds = std::max((id7[3] - id7[4]) / (2 * h), 1e-15);
  s.gmb = std::max((id7[5] - id7[6]) / (2 * h), 0.0);
  return s;
}

MosOpPoint MosModel::evaluate(const tech::MosModelCard& card, const MosGeometry& geo,
                              double vgs, double vds, double vbs, double tempK) const {
  const double p = card.polarity();
  const double nvgs = p * vgs, nvds = p * vds, nvbs = p * vbs;

  MosOpPoint op;
  op.vgs = vgs;
  op.vds = vds;
  op.vbs = vbs;
  const MosStamp s = evaluateStamp(card, geo, vgs, vds, vbs, tempK);
  op.id = s.id;
  op.gm = s.gm;
  op.gds = s.gds;
  op.gmb = s.gmb;

  const double vthN = threshold(card, std::min(nvbs, card.phi - 0.05));
  op.vth = p * vthN;
  op.veff = nvgs - vthN;
  op.vdsat = saturationVoltage(card, nvgs, nvbs, tempK);

  const double vt = kBoltzmann * tempK / kElectronCharge;
  if (op.veff < -3.0 * vt) {
    op.region = MosRegion::kCutoff;
  } else if (op.veff < 3.0 * vt) {
    op.region = MosRegion::kWeak;
  } else if (nvds < op.vdsat) {
    op.region = MosRegion::kTriode;
  } else {
    op.region = MosRegion::kSaturation;
  }

  // --- Meyer gate capacitances + overlaps. ---
  const double leff = card.leff(geo.l);
  const double coxTotal = card.cox() * geo.w * leff;
  const double ovlS = card.cgso * geo.w;
  const double ovlD = card.cgdo * geo.w;
  const double ovlB = card.cgbo * geo.l;
  switch (op.region) {
    case MosRegion::kCutoff:
    case MosRegion::kWeak:
      op.cgs = ovlS;
      op.cgd = ovlD;
      op.cgb = coxTotal + ovlB;
      break;
    case MosRegion::kTriode:
      op.cgs = 0.5 * coxTotal + ovlS;
      op.cgd = 0.5 * coxTotal + ovlD;
      op.cgb = ovlB;
      break;
    case MosRegion::kSaturation:
      op.cgs = (2.0 / 3.0) * coxTotal + ovlS;
      op.cgd = ovlD;
      op.cgb = ovlB;
      break;
  }

  // --- Junction capacitances (reverse bias increases with drain voltage). ---
  const double vrSb = -nvbs;            // reverse bias source-bulk
  const double vrDb = -(nvbs - nvds);   // reverse bias drain-bulk
  op.csb = junctionCap(card.cj * geo.as, vrSb, card.pb, card.mj) +
           junctionCap(card.cjsw * geo.ps, vrSb, card.pb, card.mjsw);
  op.cdb = junctionCap(card.cj * geo.ad, vrDb, card.pb, card.mj) +
           junctionCap(card.cjsw * geo.pd, vrDb, card.pb, card.mjsw);

  // --- Noise. ---
  // Thermal: 4kT*(2/3)*gm in saturation, 4kT*gds-like channel conductance in
  // triode; take the larger so the expression covers both regions.
  const double kT4 = 4.0 * kBoltzmann * tempK;
  op.thermalNoisePsd = kT4 * std::max((2.0 / 3.0) * op.gm, op.gds * (op.region == MosRegion::kTriode ? 1.0 : 0.0));
  // Flicker: SPICE convention KF * |ID|^AF / (Cox * Leff^2) / f.
  const double absId = std::abs(op.id);
  op.flickerCoeff = card.kf * std::pow(std::max(absId, 1e-15), card.af) /
                    (card.cox() * leff * leff);
  return op;
}

std::unique_ptr<MosModel> MosModel::create(std::string_view name) {
  if (name == "level1") return std::make_unique<Level1Model>();
  if (name == "ekv") return std::make_unique<EkvModel>();
  throw std::invalid_argument("unknown MOS model: " + std::string(name));
}

// ---------------------------------------------------------------------------
// Level 1.
// ---------------------------------------------------------------------------

double Level1Model::threshold(const tech::MosModelCard& card, double vbs) const {
  const double phiEff = std::max(card.phi - vbs, 0.05);
  return card.vto + card.gamma * (std::sqrt(phiEff) - std::sqrt(card.phi));
}

double Level1Model::saturationVoltage(const tech::MosModelCard& card, double vgs,
                                      double vbs, double tempK) const {
  const double vt = kBoltzmann * tempK / kElectronCharge;
  const double veff = vgs - threshold(card, vbs);
  return softplus(veff, card.slopeFactor * vt);
}

double Level1Model::forwardCurrent(const tech::MosModelCard& card, const MosGeometry& geo,
                                   double vgs, double vds, double vbs,
                                   double tempK) const {
  const double vt = kBoltzmann * tempK / kElectronCharge;
  const double nvt = card.slopeFactor * vt;
  const double phiEff = std::max(card.phi - vbs, 0.05);
  const double vth = card.vtoAt(tempK) +
                     card.gamma * (std::sqrt(phiEff) - std::sqrt(card.phi));
  const double veff = vgs - vth;
  // Smooth gate drive: equals veff in strong inversion, exponential below
  // threshold, keeping Newton iterations well conditioned near cutoff.
  const double q = softplus(veff, nvt);
  const double leff = card.leff(geo.l);
  const double beta = card.kpAt(tempK) / (1.0 + card.theta * q) * geo.w / leff;
  // Smooth triode-to-saturation transition through an effective vds that
  // saturates at q (k = 6 keeps the error near the knee around 1%).
  const double ratio = vds / std::max(q, 1e-9);
  const double vdse = vds / std::pow(1.0 + std::pow(ratio, 6.0), 1.0 / 6.0);
  const double va = card.earlyPerMeter * leff;
  return beta * (q - 0.5 * vdse) * vdse * (1.0 + vds / va);
}

void Level1Model::forwardCurrentBatch(const tech::MosModelCard& card, const MosGeometry& geo,
                                      const double* vgs, const double* vds, const double* vbs,
                                      double* idOut, std::size_t n, double tempK) const {
  // Every bias-independent term of forwardCurrent hoisted out of the loop;
  // the per-point operation order is unchanged, so each result is
  // bit-identical to the scalar path.
  const double vt = kBoltzmann * tempK / kElectronCharge;
  const double nvt = card.slopeFactor * vt;
  const double vtoT = card.vtoAt(tempK);
  const double sqrtPhi = std::sqrt(card.phi);
  const double kpT = card.kpAt(tempK);
  const double leff = card.leff(geo.l);
  const double va = card.earlyPerMeter * leff;
  for (std::size_t i = 0; i < n; ++i) {
    const double phiEff = std::max(card.phi - vbs[i], 0.05);
    const double vth = vtoT + card.gamma * (std::sqrt(phiEff) - sqrtPhi);
    const double veff = vgs[i] - vth;
    const double q = softplus(veff, nvt);
    const double beta = kpT / (1.0 + card.theta * q) * geo.w / leff;
    const double ratio = vds[i] / std::max(q, 1e-9);
    const double vdse = vds[i] / std::pow(1.0 + std::pow(ratio, 6.0), 1.0 / 6.0);
    idOut[i] = beta * (q - 0.5 * vdse) * vdse * (1.0 + vds[i] / va);
  }
}

// ---------------------------------------------------------------------------
// EKV.
// ---------------------------------------------------------------------------

double EkvModel::pinchOff(const tech::MosModelCard& card, double vg) {
  const double sqrtPhi = std::sqrt(card.phi);
  const double vgp = vg - card.vto + card.phi + card.gamma * sqrtPhi;
  if (vgp <= 0.0) return -card.phi;
  const double half = card.gamma / 2.0;
  return vgp - card.phi - card.gamma * (std::sqrt(vgp + half * half) - half);
}

double EkvModel::slopeFactorAt(const tech::MosModelCard& card, double vp) {
  return 1.0 + card.gamma / (2.0 * std::sqrt(std::max(card.phi + vp, 0.1)));
}

double EkvModel::threshold(const tech::MosModelCard& card, double vbs) const {
  const double phiEff = std::max(card.phi - vbs, 0.05);
  return card.vto + card.gamma * (std::sqrt(phiEff) - std::sqrt(card.phi));
}

namespace {
/// EKV interpolation function F(v) = ln^2(1 + exp(v / 2)).
double ekvF(double v) {
  const double l = softplus(v / 2.0, 1.0);
  return l * l;
}
}  // namespace

double EkvModel::saturationVoltage(const tech::MosModelCard& card, double vgs,
                                   double vbs, double tempK) const {
  const double vt = kBoltzmann * tempK / kElectronCharge;
  const double vg = vgs - vbs;
  const double vs = -vbs;
  const double vp = pinchOff(card, vg);
  const double iff = ekvF((vp - vs) / vt);
  return vt * (2.0 * std::sqrt(iff) + 4.0);
}

double EkvModel::forwardCurrent(const tech::MosModelCard& card, const MosGeometry& geo,
                                double vgs, double vds, double vbs,
                                double tempK) const {
  const double vt = kBoltzmann * tempK / kElectronCharge;
  // Bulk-referenced node voltages; the pinch-off uses the temperature-
  // shifted threshold.
  const double vg = vgs - vbs + (card.vto - card.vtoAt(tempK));
  const double vs = -vbs;
  const double vd = vds - vbs;

  const double vp = pinchOff(card, vg);
  const double n = slopeFactorAt(card, vp);
  const double leff = card.leff(geo.l);
  const double drive = std::max(vp - vs, 0.0);
  const double beta = card.kpAt(tempK) / (1.0 + card.theta * drive) * geo.w / leff;
  const double ispec = 2.0 * n * beta * vt * vt;

  const double iff = ekvF((vp - vs) / vt);
  const double irr = ekvF((vp - vd) / vt);
  double id = ispec * (iff - irr);

  // Channel-length modulation on the saturated excess drain voltage.
  const double vdsat = vt * (2.0 * std::sqrt(iff) + 4.0);
  const double va = card.earlyPerMeter * leff;
  id *= 1.0 + softplus(vds - vdsat, 2.0 * vt) / va;
  return id;
}

void EkvModel::forwardCurrentBatch(const tech::MosModelCard& card, const MosGeometry& geo,
                                   const double* vgs, const double* vds, const double* vbs,
                                   double* idOut, std::size_t n, double tempK) const {
  // Same hoisting contract as the Level-1 batch: invariants out, per-point
  // operation order preserved bit-for-bit.
  const double vt = kBoltzmann * tempK / kElectronCharge;
  const double dvto = card.vto - card.vtoAt(tempK);
  const double kpT = card.kpAt(tempK);
  const double leff = card.leff(geo.l);
  const double va = card.earlyPerMeter * leff;
  for (std::size_t i = 0; i < n; ++i) {
    const double vg = vgs[i] - vbs[i] + dvto;
    const double vs = -vbs[i];
    const double vd = vds[i] - vbs[i];

    const double vp = pinchOff(card, vg);
    const double nf = slopeFactorAt(card, vp);
    const double drive = std::max(vp - vs, 0.0);
    const double beta = kpT / (1.0 + card.theta * drive) * geo.w / leff;
    const double ispec = 2.0 * nf * beta * vt * vt;

    const double iff = ekvF((vp - vs) / vt);
    const double irr = ekvF((vp - vd) / vt);
    double id = ispec * (iff - irr);

    const double vdsat = vt * (2.0 * std::sqrt(iff) + 4.0);
    id *= 1.0 + softplus(vds[i] - vdsat, 2.0 * vt) / va;
    idOut[i] = id;
  }
}

}  // namespace lo::device
