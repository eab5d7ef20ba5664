// Property tests for the split factor/solve LU API (linear.hpp).
//
// The hot-path contract is exact: luFactorize + luSolveFactored must
// reproduce the one-shot luSolve BIT FOR BIT, for every matrix the one-shot
// path accepts, and must reject exactly the matrices the one-shot path
// rejects.  The fast AC/noise paths lean on this equivalence to reuse one
// factorization across a whole excitation block without changing a single
// result bit.
#include <gtest/gtest.h>

#include <bit>
#include <complex>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/linear.hpp"

namespace lo::sim {
namespace {

using Cplx = std::complex<double>;

template <typename T>
struct Maker;

template <>
struct Maker<double> {
  static double entry(std::mt19937& rng) {
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    return u(rng);
  }
  static double dominant() { return 4.0; }
};

template <>
struct Maker<Cplx> {
  static Cplx entry(std::mt19937& rng) {
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    const double re = u(rng);
    const double im = u(rng);
    return {re, im};
  }
  static Cplx dominant() { return {4.0, 0.0}; }
};

/// Random diagonally-dominant (well-conditioned) system of size n.
template <typename T>
void makeSystem(std::mt19937& rng, std::size_t n, DenseMatrix<T>& a, std::vector<T>& b) {
  a = DenseMatrix<T>(n);
  b.assign(n, T{});
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      a.at(r, c) = Maker<T>::entry(rng);
      if (r == c) a.at(r, c) += Maker<T>::dominant();
    }
    b[r] = Maker<T>::entry(rng);
  }
}

template <typename T>
void expectBitEqual(const std::vector<T>& x, const std::vector<T>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    // operator== on double / complex<double> is exact; the generators
    // never produce NaN, so bit equality and == coincide.
    EXPECT_EQ(x[i], y[i]) << "component " << i;
  }
}

template <typename T>
void runBitwiseProperty(std::uint32_t seed, int trials) {
  std::mt19937 rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial) % 40;
    DenseMatrix<T> a;
    std::vector<T> b;
    makeSystem(rng, n, a, b);
    DenseMatrix<T> aCopy = a;
    std::vector<T> bCopy = b;

    ASSERT_TRUE(luSolve(a, b)) << "one-shot rejected a dominant matrix, n=" << n;
    std::vector<std::size_t> perm;
    ASSERT_TRUE(luFactorize(aCopy, perm));
    luSolveFactored(aCopy, perm, bCopy);
    expectBitEqual(b, bCopy);
  }
}

TEST(LinearLu, FactorSolveMatchesOneShotBitwiseReal) {
  runBitwiseProperty<double>(1234, 200);
}

TEST(LinearLu, FactorSolveMatchesOneShotBitwiseComplex) {
  runBitwiseProperty<Cplx>(4321, 200);
}

TEST(LinearLu, OneFactorizationServesManyRhsBitwise) {
  std::mt19937 rng(99);
  const std::size_t n = 24;
  DenseMatrix<Cplx> a;
  std::vector<Cplx> unused;
  makeSystem(rng, n, a, unused);

  DenseMatrix<Cplx> lu = a;
  std::vector<std::size_t> perm;
  ASSERT_TRUE(luFactorize(lu, perm));

  for (int rhs = 0; rhs < 8; ++rhs) {
    std::vector<Cplx> b(n);
    for (auto& v : b) v = Maker<Cplx>::entry(rng);
    std::vector<Cplx> viaFactored = b;
    luSolveFactored(lu, perm, viaFactored);

    DenseMatrix<Cplx> aFresh = a;  // One-shot destroys its matrix.
    std::vector<Cplx> viaOneShot = b;
    ASSERT_TRUE(luSolve(aFresh, viaOneShot));
    expectBitEqual(viaOneShot, viaFactored);
  }
}

TEST(LinearLu, PermutationReplayCoversLatePivotSwaps) {
  // Regression for the interleaved-replay seam: a later pivot swap must
  // not relocate multipliers already stored by earlier columns.  This
  // matrix forces a swap at every step (each column's largest entry sits
  // below the diagonal).
  const std::size_t n = 5;
  DenseMatrix<double> a(n);
  std::vector<double> b(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a.at(r, c) = 1.0 / (1.0 + r + 2 * c);
    a.at((r + 1) % n, r) = 10.0 + static_cast<double>(r);
    b[r] = static_cast<double>(r) - 2.0;
  }
  DenseMatrix<double> lu = a;
  std::vector<std::size_t> perm;
  ASSERT_TRUE(luFactorize(lu, perm));
  bool swapped = false;
  for (std::size_t col = 0; col < n; ++col) swapped |= perm[col] != col;
  ASSERT_TRUE(swapped);

  std::vector<double> viaFactored = b;
  luSolveFactored(lu, perm, viaFactored);
  ASSERT_TRUE(luSolve(a, b));
  expectBitEqual(b, viaFactored);
}

TEST(LinearLu, SingularRejectionParity) {
  // Exactly singular: duplicated row.
  DenseMatrix<double> a(3);
  for (std::size_t c = 0; c < 3; ++c) {
    a.at(0, c) = 1.0 + static_cast<double>(c);
    a.at(1, c) = a.at(0, c);
    a.at(2, c) = 5.0 - static_cast<double>(c);
  }
  DenseMatrix<double> a2 = a;
  std::vector<double> b{1.0, 2.0, 3.0};
  std::vector<std::size_t> perm;
  EXPECT_FALSE(luSolve(a, b));
  EXPECT_FALSE(luFactorize(a2, perm));
}

TEST(LinearLu, NearSingularRejectionParity) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial) % 10;
    DenseMatrix<double> a;
    std::vector<double> b;
    makeSystem(rng, n, a, b);
    // Scale one row below the 1e-300 pivot threshold and zero its
    // off-diagonal couplings so both paths see the same tiny pivot.
    const std::size_t bad = static_cast<std::size_t>(trial) % n;
    for (std::size_t c = 0; c < n; ++c) a.at(bad, c) = 0.0;
    for (std::size_t r = 0; r < n; ++r) a.at(r, bad) = 0.0;
    a.at(bad, bad) = 1e-301;
    DenseMatrix<double> a2 = a;
    std::vector<double> b2 = b;
    std::vector<std::size_t> perm;
    const bool oneShot = luSolve(a, b);
    const bool factored = luFactorize(a2, perm);
    EXPECT_EQ(oneShot, factored) << "trial " << trial;
    EXPECT_FALSE(factored);
  }
}

TEST(LinearLu, SolveFactoredRejectsDimensionMismatch) {
  DenseMatrix<double> a(3);
  for (std::size_t i = 0; i < 3; ++i) a.at(i, i) = 1.0;
  std::vector<std::size_t> perm;
  ASSERT_TRUE(luFactorize(a, perm));
  std::vector<double> shortB{1.0, 2.0};
  EXPECT_THROW(luSolveFactored(a, perm, shortB), std::invalid_argument);
  std::vector<double> okB{1.0, 2.0, 3.0};
  std::vector<std::size_t> shortPerm{0};
  EXPECT_THROW(luSolveFactored(a, shortPerm, okB), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// MNA-shaped sparse systems.  luFactorize skips exact zeros; these systems
// are built the way the simulator assembles its matrices (every entry a sum
// of stamps starting at +0.0) and carry the structures that matter to the
// skipping: structurally stamped exact zeros, zero-diagonal source
// branches that force a pivot swap, subnormal entries and singular
// patterns.

/// Bit-pattern equality: unlike ==, it tells -0.0 from +0.0.
bool sameBits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}
bool sameBits(const Cplx& x, const Cplx& y) {
  return sameBits(x.real(), y.real()) && sameBits(x.imag(), y.imag());
}

template <typename T>
void expectSameBits(const std::vector<T>& x, const std::vector<T>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_TRUE(sameBits(x[i], y[i])) << "component " << i << ": " << x[i] << " vs " << y[i];
  }
}

/// The dense factorization luFactorize replaced: every multiplier and
/// every row update, zero or not.  The zero-skipping version must choose
/// the same pivots and produce the same U bit for bit.
template <typename T>
bool denseFactorize(DenseMatrix<T>& a, std::vector<std::size_t>& perm) {
  const std::size_t n = a.size();
  perm.assign(n, 0);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = magnitudeOf(a.at(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double m = magnitudeOf(a.at(r, col));
      if (m > best) {
        best = m;
        pivot = r;
      }
    }
    if (best < 1e-300) return false;
    perm[col] = pivot;
    if (pivot != col) {
      for (std::size_t c = col; c < n; ++c) std::swap(a.at(col, c), a.at(pivot, c));
    }
    const T diag = a.at(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const T factor = a.at(r, col) / diag;
      a.at(r, col) = factor;
      if (factor == T{}) continue;
      for (std::size_t c = col + 1; c < n; ++c) a.at(r, c) -= factor * a.at(col, c);
    }
  }
  return true;
}

/// One branch admittance: a conductance across eight decades, plus a
/// susceptance for the complex (AC) systems.
template <typename T>
T admittance(std::mt19937& rng) {
  std::uniform_real_distribution<double> decade(-6.0, 2.0);
  const double g = std::pow(10.0, decade(rng));
  if constexpr (std::is_same_v<T, Cplx>) {
    return {g, std::pow(10.0, decade(rng))};
  } else {
    return g;
  }
}

template <typename T>
std::size_t nonzeros(const DenseMatrix<T>& a) {
  std::size_t nnz = 0;
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (std::size_t c = 0; c < a.size(); ++c) nnz += a.at(r, c) != T{} ? 1 : 0;
  }
  return nnz;
}

enum class Singular { kNone, kFloatingNode, kDuplicateBranch };

struct MnaShape {
  std::size_t nodes = 0;
  std::size_t branches = 0;  ///< V-source rows: zero diagonal, +-1 incidence.
  double density = 0.2;      ///< Stop stamping once this share is nonzero.
  bool subnormals = false;   ///< Also stamp subnormal couplings.
  Singular singular = Singular::kNone;
};

/// Stamp an MNA-shaped matrix: a gmin diagonal on every node, V-source
/// incidence on the branch rows, then two-terminal admittances,
/// transconductances, exactly cancelling admittance pairs (structural
/// zeros) and optionally subnormal couplings, until `density` is reached.
template <typename T>
DenseMatrix<T> makeMnaMatrix(std::mt19937& rng, const MnaShape& shape) {
  const std::size_t n = shape.nodes + shape.branches;
  DenseMatrix<T> a(n);
  // Node 0 floats in the floating-node pattern: no gmin, no element.
  const std::size_t firstNode = shape.singular == Singular::kFloatingNode ? 1 : 0;
  std::uniform_int_distribution<std::size_t> pickNode(firstNode, shape.nodes - 1);
  // -1 is ground, as in DenseMatrix::stamp.
  auto nodeOrGround = [&] {
    return rng() % 5 == 0 ? std::ptrdiff_t{-1} : static_cast<std::ptrdiff_t>(pickNode(rng));
  };
  auto stampAdmittance = [&](std::ptrdiff_t p, std::ptrdiff_t q, T y) {
    a.stamp(p, p, y);
    a.stamp(q, q, y);
    a.stamp(p, q, -y);
    a.stamp(q, p, -y);
  };
  for (std::size_t i = firstNode; i < shape.nodes; ++i) a.stamp(i, i, T{1e-12});

  // Source k drives node firstNode + k against ground or a node no source
  // drives, so the sources form no loop -- unless kDuplicateBranch puts
  // every source across the first one's pair, which makes the branch rows
  // equal.
  std::uniform_int_distribution<std::size_t> pickUndriven(firstNode + shape.branches,
                                                          shape.nodes - 1);
  std::ptrdiff_t pos = static_cast<std::ptrdiff_t>(firstNode);
  std::ptrdiff_t neg = rng() % 3 == 0 ? -1 : static_cast<std::ptrdiff_t>(pickUndriven(rng));
  for (std::size_t k = 0; k < shape.branches; ++k) {
    const auto br = static_cast<std::ptrdiff_t>(shape.nodes + k);
    if (k > 0 && shape.singular != Singular::kDuplicateBranch) {
      pos = static_cast<std::ptrdiff_t>(firstNode + k);
      neg = rng() % 3 == 0 ? -1 : static_cast<std::ptrdiff_t>(pickUndriven(rng));
    }
    a.stamp(pos, br, T{1.0});
    a.stamp(neg, br, T{-1.0});
    a.stamp(br, pos, T{1.0});
    a.stamp(br, neg, T{-1.0});
  }

  while (static_cast<double>(nonzeros(a)) < shape.density * static_cast<double>(n * n)) {
    const std::ptrdiff_t p = static_cast<std::ptrdiff_t>(pickNode(rng));
    const std::ptrdiff_t q = nodeOrGround();
    if (p == q) continue;
    switch (rng() % 4) {
      case 0:
        stampAdmittance(p, q, admittance<T>(rng));
        break;
      case 1: {
        // Transconductance gm from (g, q) into (p, q), MOS-style.
        const std::ptrdiff_t g = static_cast<std::ptrdiff_t>(pickNode(rng));
        const T gm{admittance<double>(rng)};
        a.stamp(p, g, gm);
        a.stamp(p, q, -gm);
        a.stamp(q, g, -gm);
        a.stamp(q, q, gm);
        break;
      }
      case 2: {
        // An admittance and its exact negative: the couplings cancel to
        // +0.0 entries that were stamped, not left untouched.
        const T y = admittance<T>(rng);
        stampAdmittance(p, q, y);
        stampAdmittance(p, q, -y);
        break;
      }
      default:
        if (shape.subnormals) {
          // Subnormal couplings: they survive as entries, and multipliers
          // formed from them can underflow to zero.
          std::uniform_int_distribution<int> ulps(1, 1 << 20);
          const T tiny{ulps(rng) * std::numeric_limits<double>::denorm_min()};
          a.stamp(p, q, tiny);
          a.stamp(q, p, -tiny);
        } else {
          stampAdmittance(p, q, admittance<T>(rng));
        }
        break;
    }
  }
  return a;
}

/// The contract on one MNA matrix: luFactorize accepts exactly what
/// luSolve and the dense factorization accept; on success it picks the
/// dense factorization's pivots and U bit for bit, and its solutions equal
/// luSolve's bit for bit, for a dense RHS and for a unit excitation.
/// Returns whether the matrix was accepted.
template <typename T>
bool checkAgainstOneShot(std::mt19937& rng, const DenseMatrix<T>& a) {
  const std::size_t n = a.size();
  DenseMatrix<T> fast = a;
  DenseMatrix<T> dense = a;
  std::vector<std::size_t> permFast, permDense;
  const bool okFast = luFactorize(fast, permFast);
  const bool okDense = denseFactorize(dense, permDense);

  std::vector<T> dense1(n);
  for (auto& v : dense1) v = Maker<T>::entry(rng);
  std::vector<T> unit(n, T{});
  unit[rng() % n] = T{1.0};

  bool okOneShot = true;
  for (const std::vector<T>* rhs : {&dense1, &unit}) {
    DenseMatrix<T> oneShot = a;
    std::vector<T> viaOneShot = *rhs;
    okOneShot = luSolve(oneShot, viaOneShot);
    EXPECT_EQ(okFast, okOneShot);
    if (!okFast || !okOneShot) continue;
    std::vector<T> viaFactored = *rhs;
    luSolveFactored(fast, permFast, viaFactored);
    expectSameBits(viaOneShot, viaFactored);
  }
  EXPECT_EQ(okFast, okDense);
  if (!okFast || !okDense) return false;
  EXPECT_EQ(permFast, permDense);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (c >= r) {
        EXPECT_TRUE(sameBits(fast.at(r, c), dense.at(r, c))) << "U(" << r << ", " << c << ")";
      } else {
        // A multiplier the fast path never formed stays +0.0 where the
        // dense one stored 0 / diag (either sign); the solve skips both.
        EXPECT_EQ(fast.at(r, c), dense.at(r, c)) << "L(" << r << ", " << c << ")";
      }
    }
  }
  return true;
}

template <typename T>
void runMnaProperty(std::uint32_t seed, int trials, bool subnormals) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> densityDraw(0.10, 0.35);
  int swaps = 0;
  for (int trial = 0; trial < trials; ++trial) {
    MnaShape shape;
    shape.nodes = 8 + static_cast<std::size_t>(trial) % 24;
    shape.branches = 1 + static_cast<std::size_t>(trial) % 4;
    shape.density = densityDraw(rng);
    shape.subnormals = subnormals;
    const DenseMatrix<T> a = makeMnaMatrix<T>(rng, shape);
    SCOPED_TRACE("trial " + std::to_string(trial));
    const double nnz = static_cast<double>(nonzeros(a));
    const double n = static_cast<double>(a.size());
    EXPECT_GE(nnz / (n * n), 0.10);
    EXPECT_LE(nnz / (n * n), 0.40);
    ASSERT_TRUE(checkAgainstOneShot(rng, a));
    DenseMatrix<T> lu = a;
    std::vector<std::size_t> perm;
    ASSERT_TRUE(luFactorize(lu, perm));
    for (std::size_t col = 0; col < perm.size(); ++col) swaps += perm[col] != col ? 1 : 0;
  }
  // Zero-diagonal branch rows force swaps in practice, not just in theory.
  EXPECT_GT(swaps, trials);
}

TEST(LinearLuMna, SparseSystemsMatchOneShotBitwiseReal) {
  runMnaProperty<double>(2024, 300, /*subnormals=*/false);
}

TEST(LinearLuMna, SparseSystemsMatchOneShotBitwiseComplex) {
  runMnaProperty<Cplx>(2025, 300, /*subnormals=*/false);
}

TEST(LinearLuMna, SubnormalEntriesMatchOneShotBitwiseReal) {
  runMnaProperty<double>(77, 200, /*subnormals=*/true);
}

TEST(LinearLuMna, SubnormalEntriesMatchOneShotBitwiseComplex) {
  runMnaProperty<Cplx>(78, 200, /*subnormals=*/true);
}

TEST(LinearLuMna, ZeroDiagonalBranchForcesSwap) {
  // A 1 V source from node 0 to ground across 1 kOhm: the branch row's
  // diagonal is a stamped +0.0, so column 0 pivots onto the branch row.
  for (const bool complexCase : {false, true}) {
    std::mt19937 rng(5);
    auto run = [&](auto tag) {
      using T = decltype(tag);
      DenseMatrix<T> a(2);
      a.stamp(0, 0, T{1e-3});
      a.stamp(0, 1, T{1.0});
      a.stamp(1, 0, T{1.0});
      DenseMatrix<T> lu = a;
      std::vector<std::size_t> perm;
      ASSERT_TRUE(luFactorize(lu, perm));
      EXPECT_EQ(perm[0], 1U);
      EXPECT_TRUE(checkAgainstOneShot(rng, a));
    };
    if (complexCase) {
      run(Cplx{});
    } else {
      run(0.0);
    }
  }
}

/// Runs the contract over `trials` matrices of a singular pattern and
/// returns how many were rejected.
template <typename T>
int runSingularProperty(std::uint32_t seed, Singular kind, int trials) {
  std::mt19937 rng(seed);
  int rejected = 0;
  for (int trial = 0; trial < trials; ++trial) {
    MnaShape shape;
    shape.nodes = 8 + static_cast<std::size_t>(trial) % 20;
    shape.branches = 2 + static_cast<std::size_t>(trial) % 3;
    shape.density = 0.10 + 0.004 * trial;
    shape.singular = kind;
    const DenseMatrix<T> a = makeMnaMatrix<T>(rng, shape);
    SCOPED_TRACE("trial " + std::to_string(trial));
    rejected += checkAgainstOneShot(rng, a) ? 0 : 1;
  }
  return rejected;
}

TEST(LinearLuMna, SingularPatternsRejectedLikeOneShot) {
  // A floating node leaves a zero column: every path must reject it.
  EXPECT_EQ(runSingularProperty<double>(11, Singular::kFloatingNode, 60), 60);
  EXPECT_EQ(runSingularProperty<Cplx>(12, Singular::kFloatingNode, 60), 60);
  // Equal branch rows: a real row eliminated against its twin uses the
  // multiplier x / x == 1 and cancels exactly, so all are rejected.  A
  // complex x / x need not round to exactly 1, so some complex twins
  // survive with a rounding-residue pivot; checkAgainstOneShot still
  // demands that every path agree on each one.
  EXPECT_EQ(runSingularProperty<double>(13, Singular::kDuplicateBranch, 60), 60);
  EXPECT_GT(runSingularProperty<Cplx>(14, Singular::kDuplicateBranch, 60), 0);
}

}  // namespace
}  // namespace lo::sim
