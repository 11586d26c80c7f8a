// Unit tests for the numerics substrate (S1): complex matrices, Haar
// sampling, counter-based normals, one-sided Jacobi SVD, statistics, table
// printing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "lina/complex_matrix.hpp"
#include "lina/philox.hpp"
#include "lina/random.hpp"
#include "lina/stats.hpp"
#include "lina/svd.hpp"
#include "lina/table.hpp"

namespace {

using aspen::lina::CMat;
using aspen::lina::cplx;
using aspen::lina::CVec;
using aspen::lina::Rng;
using aspen::lina::SvdResult;

SvdResult svd(const CMat& a) {
  SvdResult r;
  aspen::lina::SvdWorkspace ws;
  aspen::lina::svd(a, r, ws);
  return r;
}

/// u * diag(sigma) * v^dagger.
CMat reconstruct(const SvdResult& r) {
  CMat us = r.u;
  for (std::size_t i = 0; i < us.rows(); ++i)
    for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= r.sigma[j];
  return us * r.v.adjoint();
}

TEST(CVecTest, NormAndPower) {
  CVec v{cplx{3.0, 0.0}, cplx{0.0, 4.0}};
  EXPECT_DOUBLE_EQ(v.power(), 25.0);
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
}

TEST(CVecTest, DotIsConjugateLinear) {
  CVec a{cplx{0.0, 1.0}, cplx{2.0, 0.0}};
  CVec b{cplx{1.0, 0.0}, cplx{0.0, 1.0}};
  const cplx d = dot(a, b);
  // conj(i)*1 + conj(2)*i = -i + 2i = i
  EXPECT_NEAR(d.real(), 0.0, 1e-15);
  EXPECT_NEAR(d.imag(), 1.0, 1e-15);
}

TEST(CVecTest, DotSizeMismatchThrows) {
  CVec a(2), b(3);
  EXPECT_THROW((void)dot(a, b), std::invalid_argument);
}

TEST(CMatTest, IdentityMultiplication) {
  Rng rng(1);
  const CMat a = aspen::lina::ginibre(5, 5, rng);
  const CMat i = CMat::identity(5);
  EXPECT_LT((a * i).max_abs_diff(a), 1e-14);
  EXPECT_LT((i * a).max_abs_diff(a), 1e-14);
}

TEST(CMatTest, MatmulShapeMismatchThrows) {
  CMat a(2, 3), b(2, 3);
  EXPECT_THROW((void)(a * b), std::invalid_argument);
}

TEST(CMatTest, AdjointInvolution) {
  Rng rng(2);
  const CMat a = aspen::lina::ginibre(4, 6, rng);
  EXPECT_LT(a.adjoint().adjoint().max_abs_diff(a), 1e-15);
}

TEST(CMatTest, AdjointReversesProducts) {
  Rng rng(3);
  const CMat a = aspen::lina::ginibre(4, 4, rng);
  const CMat b = aspen::lina::ginibre(4, 4, rng);
  EXPECT_LT((a * b).adjoint().max_abs_diff(b.adjoint() * a.adjoint()), 1e-12);
}

TEST(CMatTest, FrobeniusMatchesTrace) {
  Rng rng(4);
  const CMat a = aspen::lina::ginibre(6, 3, rng);
  const double f = a.frobenius();
  const CMat gram = a.adjoint() * a;
  cplx t{0.0, 0.0};
  for (std::size_t i = 0; i < gram.rows(); ++i) t += gram(i, i);
  EXPECT_NEAR(f * f, t.real(), 1e-9 * std::abs(t));
}

TEST(CMatTest, FidelitySelfIsOne) {
  Rng rng(5);
  const CMat u = aspen::lina::haar_unitary(6, rng);
  EXPECT_NEAR(CMat::fidelity(u, u), 1.0, 1e-12);
}

TEST(CMatTest, FidelityIgnoresGlobalPhase) {
  Rng rng(6);
  const CMat u = aspen::lina::haar_unitary(5, rng);
  const CMat v = u.scaled(std::polar(1.0, 1.234));
  EXPECT_NEAR(CMat::fidelity(u, v), 1.0, 1e-12);
}

TEST(CMatTest, FidelityOfOrthogonalMatricesIsSmall) {
  // Two different Haar unitaries overlap weakly for moderate N.
  Rng rng(7);
  const CMat u = aspen::lina::haar_unitary(16, rng);
  const CMat v = aspen::lina::haar_unitary(16, rng);
  EXPECT_LT(CMat::fidelity(u, v), 0.5);
}

TEST(CMatTest, TwoModeLeftMatchesFullEmbedding) {
  Rng rng(8);
  CMat a = aspen::lina::ginibre(5, 5, rng);
  const CMat orig = a;
  const cplx ta{0.6, 0.1}, tb{0.2, -0.3}, tc{-0.4, 0.2}, td{0.9, 0.0};
  aspen::lina::apply_two_mode_left(a, 1, 3, ta, tb, tc, td);
  CMat full = CMat::identity(5);
  full(1, 1) = ta;
  full(1, 3) = tb;
  full(3, 1) = tc;
  full(3, 3) = td;
  EXPECT_LT(a.max_abs_diff(full * orig), 1e-13);
}

TEST(CMatTest, TwoModeRightMatchesFullEmbedding) {
  Rng rng(9);
  CMat a = aspen::lina::ginibre(5, 5, rng);
  const CMat orig = a;
  const cplx ta{0.6, 0.1}, tb{0.2, -0.3}, tc{-0.4, 0.2}, td{0.9, 0.0};
  aspen::lina::apply_two_mode_right(a, 0, 2, ta, tb, tc, td);
  CMat full = CMat::identity(5);
  full(0, 0) = ta;
  full(0, 2) = tb;
  full(2, 0) = tc;
  full(2, 2) = td;
  EXPECT_LT(a.max_abs_diff(orig * full), 1e-13);
}

class HaarUnitaryTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HaarUnitaryTest, IsUnitary) {
  Rng rng(42 + GetParam());
  const CMat u = aspen::lina::haar_unitary(GetParam(), rng);
  EXPECT_TRUE(u.is_unitary(1e-10)) << "n=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sizes, HaarUnitaryTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32, 64));

TEST(HaarUnitaryTest, ZeroSizeThrows) {
  Rng rng(1);
  EXPECT_THROW((void)aspen::lina::haar_unitary(0, rng), std::invalid_argument);
}

TEST(HaarUnitaryTest, PhaseDistributionIsFlat) {
  // Haar first-column entries should have uniformly distributed phases:
  // crude check via mean of e^{i arg} over many samples.
  Rng rng(11);
  cplx acc{0.0, 0.0};
  const int kSamples = 200;
  for (int s = 0; s < kSamples; ++s) {
    const CMat u = aspen::lina::haar_unitary(4, rng);
    acc += u(0, 0) / std::abs(u(0, 0));
  }
  EXPECT_LT(std::abs(acc) / kSamples, 0.15);
}

struct SvdShape {
  std::size_t rows, cols;
};

class SvdTest : public ::testing::TestWithParam<SvdShape> {};

TEST_P(SvdTest, ReconstructsAndIsOrthonormal) {
  const auto [rows, cols] = GetParam();
  Rng rng(100 + rows * 17 + cols);
  const CMat a = aspen::lina::ginibre(rows, cols, rng);
  const auto r = svd(a);

  EXPECT_LT(CMat::rel_error(a, reconstruct(r)), 1e-10);

  // Orthonormal columns of U and V.
  const std::size_t k = std::min(rows, cols);
  const CMat utu = r.u.adjoint() * r.u;
  const CMat vtv = r.v.adjoint() * r.v;
  EXPECT_LT(utu.max_abs_diff(CMat::identity(k)), 1e-10);
  EXPECT_LT(vtv.max_abs_diff(CMat::identity(k)), 1e-10);

  // Singular values non-negative and descending.
  for (std::size_t i = 0; i + 1 < r.sigma.size(); ++i) {
    EXPECT_GE(r.sigma[i], r.sigma[i + 1]);
    EXPECT_GE(r.sigma[i + 1], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdTest,
                         ::testing::Values(SvdShape{1, 1}, SvdShape{2, 2},
                                           SvdShape{4, 4}, SvdShape{8, 8},
                                           SvdShape{16, 16}, SvdShape{6, 3},
                                           SvdShape{3, 6}, SvdShape{12, 5},
                                           SvdShape{5, 12}, SvdShape{32, 32}));

TEST(SvdTest, RankDeficientMatrix) {
  // Build a rank-2 4x4 matrix; the two smallest singular values must be 0
  // and reconstruction must still hold.
  Rng rng(55);
  const CMat b = aspen::lina::ginibre(4, 2, rng);
  const CMat a = b * b.adjoint();  // rank <= 2, Hermitian PSD
  const auto r = svd(a);
  EXPECT_LT(CMat::rel_error(a, reconstruct(r)), 1e-9);
  EXPECT_NEAR(r.sigma[2], 0.0, 1e-9 * r.sigma[0]);
  EXPECT_NEAR(r.sigma[3], 0.0, 1e-9 * r.sigma[0]);
  const CMat utu = r.u.adjoint() * r.u;
  EXPECT_LT(utu.max_abs_diff(CMat::identity(4)), 1e-9);
}

TEST(SvdTest, UnitaryHasUnitSingularValues) {
  Rng rng(66);
  const CMat u = aspen::lina::haar_unitary(8, rng);
  const auto r = svd(u);
  for (double s : r.sigma) EXPECT_NEAR(s, 1.0, 1e-10);
}

TEST(SvdTest, SigmaMaxMatchesOperatorNormBound) {
  Rng rng(77);
  const CMat a = aspen::lina::ginibre(6, 6, rng);
  const auto r = svd(a);
  // ||A x|| <= sigma_max ||x|| for random probes.
  for (int t = 0; t < 10; ++t) {
    const CVec x = aspen::lina::random_state(6, rng);
    EXPECT_LE((a * x).norm(), r.sigma_max() * 1.0 + 1e-9);
  }
}

TEST(SvdTest, EmptyThrows) {
  EXPECT_THROW((void)svd(CMat{}), std::invalid_argument);
}

TEST(StatsTest, MeanVarianceMinMax) {
  aspen::lina::Stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(StatsTest, Percentiles) {
  aspen::lina::Stats s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-12);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-12);
  EXPECT_THROW((void)s.percentile(101), std::invalid_argument);
}

TEST(StatsTest, LinearFitRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 0.5 * i);
  }
  const auto f = aspen::lina::linear_fit(x, y);
  EXPECT_NEAR(f.intercept, 3.0, 1e-10);
  EXPECT_NEAR(f.slope, 0.5, 1e-12);
}

TEST(TableTest, RendersAlignedRows) {
  aspen::lina::Table t("demo");
  t.set_header({"arch", "N", "fidelity"});
  t.add_row({"clements", "8", aspen::lina::Table::num(0.9987, 4)});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("clements"), std::string::npos);
  EXPECT_NE(out.find("0.9987"), std::string::npos);
}

TEST(TableTest, RowWidthMismatchThrows) {
  aspen::lina::Table t("x");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, NumFormatsIntegersWithoutDecimals) {
  EXPECT_EQ(aspen::lina::Table::num(42.0), "42");
  EXPECT_EQ(aspen::lina::Table::num(2.5, 2), "2.50");
}

TEST(RngTest, DeterministicWithSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, ForkDecorrelates) {
  Rng a(123);
  Rng child = a.fork();
  // Parent and child should not produce identical streams.
  int same = 0;
  for (int i = 0; i < 32; ++i)
    if (a.uniform_int(0, 1000) == child.uniform_int(0, 1000)) ++same;
  EXPECT_LT(same, 8);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(9);
  aspen::lina::Stats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.gaussian(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(PhiloxTest, KnownAnswerVectors) {
  // The known-answer vectors Random123 publishes for Philox4x32-10.
  using aspen::lina::philox4x32_10;
  using aspen::lina::PhiloxCounter;
  EXPECT_EQ(philox4x32_10({0, 0, 0, 0}, {0, 0}),
            (PhiloxCounter{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}));
  const std::uint32_t ones = 0xffffffff;
  EXPECT_EQ(philox4x32_10({ones, ones, ones, ones}, {ones, ones}),
            (PhiloxCounter{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}));
  EXPECT_EQ(philox4x32_10({0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
                          {0xa4093822, 0x299f31d0}),
            (PhiloxCounter{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}));
}

double standard_normal_cdf(double x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
  aspen::lina::Stats sa, sb;
  double sab = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sa.add(a[i]);
    sb.add(b[i]);
  }
  for (std::size_t i = 0; i < a.size(); ++i)
    sab += (a[i] - sa.mean()) * (b[i] - sb.mean());
  return sab / (static_cast<double>(a.size() - 1) * sa.stddev() * sb.stddev());
}

TEST(PhiloxNormalTest, DrawsAreStandardNormal) {
  // The photonic datapath's noise contract is its distribution, not its
  // bytes. 2^21 normals from consecutive counters (two per block).
  constexpr std::size_t kBlocks = std::size_t{1} << 20;
  std::vector<double> z;
  z.reserve(2 * kBlocks);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    const auto pair = aspen::lina::philox_normal_pair(
        0x5eedULL, {static_cast<std::uint32_t>(i), 0, 3, 1u << 24});
    z.push_back(pair[0]);
    z.push_back(pair[1]);
  }
  const double n = static_cast<double>(z.size());

  // Mean and variance within 5 standard errors (1/sqrt(n), sqrt(2/n)).
  double sum = 0.0;
  for (const double v : z) sum += v;
  const double mean = sum / n;
  double ss = 0.0;
  for (const double v : z) ss += (v - mean) * (v - mean);
  EXPECT_LT(std::abs(mean), 5.0 / std::sqrt(n));
  EXPECT_LT(std::abs(ss / (n - 1.0) - 1.0), 5.0 * std::sqrt(2.0 / n));

  // The fraction beyond the base layer's edge r (only the tail algorithm
  // puts draws there) and beyond 4.5 is 2 (1 - Phi(x)), within 5 binomial
  // standard errors.
  for (const double edge : {3.6541528853610088, 4.5}) {
    const double p = 2.0 * (1.0 - standard_normal_cdf(edge));
    const auto beyond = std::count_if(z.begin(), z.end(), [&](double v) {
      return std::abs(v) > edge;
    });
    EXPECT_NEAR(static_cast<double>(beyond) / n, p,
                5.0 * std::sqrt(p * (1.0 - p) / n))
        << "beyond " << edge;
  }

  // Lag-1 correlation between the two words of a block and between
  // consecutive counters, below 4 / sqrt(pairs).
  std::vector<double> first, second, next_first;
  for (std::size_t i = 0; i + 1 < kBlocks; ++i) {
    first.push_back(z[2 * i]);
    second.push_back(z[2 * i + 1]);
    next_first.push_back(z[2 * i + 2]);
  }
  const double bound = 4.0 / std::sqrt(static_cast<double>(first.size()));
  EXPECT_LT(std::abs(pearson(first, second)), bound);
  EXPECT_LT(std::abs(pearson(first, next_first)), bound);

  // Kolmogorov-Smirnov distance to N(0, 1) below the 1% critical value.
  std::sort(z.begin(), z.end());
  double d = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double f = standard_normal_cdf(z[i]);
    d = std::max({d, f - static_cast<double>(i) / n,
                  static_cast<double>(i + 1) / n - f});
  }
  EXPECT_LT(d, 1.63 / std::sqrt(n));
}

TEST(PhiloxNormalTest, PureFunctionOfKeyAndCounter) {
  using aspen::lina::philox_normal_pair;
  const auto a = philox_normal_pair(7, {1, 2, 3, 4u << 24});
  EXPECT_EQ(philox_normal_pair(7, {1, 2, 3, 4u << 24}), a);
  EXPECT_NE(philox_normal_pair(8, {1, 2, 3, 4u << 24}), a);
  EXPECT_NE(philox_normal_pair(7, {1, 2, 4, 4u << 24}), a);
  EXPECT_NE(philox_normal_pair(7, {1, 2, 3, 5u << 24}), a);
}

TEST(RngTest, RandomStateIsNormalized) {
  Rng rng(10);
  const CVec v = aspen::lina::random_state(7, rng);
  EXPECT_NEAR(v.norm(), 1.0, 1e-12);
}

TEST(InPlaceKernelTest, MulIntoMatchesOperator) {
  Rng rng(11);
  const CMat a = aspen::lina::ginibre(5, 7, rng);
  const CMat b = aspen::lina::ginibre(7, 4, rng);
  CMat out;
  aspen::lina::mul_into(out, a, b);
  EXPECT_LT(out.max_abs_diff(a * b), 1e-15);
  // Reuse with a different shape: storage is recycled, result exact.
  const CMat c = aspen::lina::ginibre(4, 6, rng);
  aspen::lina::mul_into(out, b, c);
  EXPECT_LT(out.max_abs_diff(b * c), 1e-15);
}

TEST(InPlaceKernelTest, MulIntoShapeMismatchThrows) {
  const CMat a(3, 4), b(5, 2);
  CMat out;
  EXPECT_THROW(aspen::lina::mul_into(out, a, b), std::invalid_argument);
}

TEST(InPlaceKernelTest, MulVecIntoMatchesOperator) {
  Rng rng(12);
  const CMat a = aspen::lina::ginibre(6, 3, rng);
  const CVec x = aspen::lina::random_state(3, rng);
  CVec out;
  aspen::lina::mul_vec_into(out, a, x);
  EXPECT_LT(aspen::lina::max_abs_diff(out, a * x), 1e-15);
}

TEST(InPlaceKernelTest, AdjointIntoMatchesAdjoint) {
  Rng rng(13);
  const CMat a = aspen::lina::ginibre(4, 6, rng);
  CMat out;
  aspen::lina::adjoint_into(out, a);
  EXPECT_LT(out.max_abs_diff(a.adjoint()), 1e-15);
}

TEST(InPlaceKernelTest, ResizeZeroFills) {
  CMat m(2, 2);
  m(0, 0) = cplx{3.0, -1.0};
  m.resize(3, 3);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(m(r, c), (cplx{0.0, 0.0}));
}

}  // namespace
