// Tests for the end-to-end precision-budget analysis (S4 extension) and
// for the statistics of the datapath noise it budgets.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/noise_analysis.hpp"
#include "lina/stats.hpp"

namespace {

using namespace aspen::core;
using aspen::lina::CMat;
using aspen::lina::cplx;
using aspen::lina::Stats;

MvmConfig base() {
  MvmConfig cfg;
  cfg.ports = 8;
  return cfg;
}

TEST(NoiseAnalysisTest, RmsToBitsInvertsQuantizerRms) {
  // An ideal b-bit quantizer over [-1, 1] has rms = step / (2 sqrt 3);
  // rms_to_bits must recover ~b (up to the 2^b vs 2^b - 1 endpoint
  // convention, worth log2(2^b / (2^b - 1)) ~ 0.1 bit at b = 4).
  for (int bits : {4, 8, 12}) {
    const double step = 2.0 / ((1 << bits) - 1);
    EXPECT_NEAR(rms_to_bits(step / (2.0 * std::sqrt(3.0))), bits, 0.1);
  }
  EXPECT_DOUBLE_EQ(rms_to_bits(0.0), 24.0);
}

TEST(NoiseAnalysisTest, BudgetHasAllSources) {
  const auto b = analytic_precision_budget(base());
  EXPECT_GE(b.contributions.size(), 6u);
  EXPECT_GT(b.total_relative_rms, 0.0);
  EXPECT_GT(b.enob, 0.0);
  // Total is at least as large as any single contribution.
  for (const auto& c : b.contributions)
    EXPECT_GE(b.total_relative_rms, c.relative_rms);
}

TEST(NoiseAnalysisTest, PcmAddsWeightContributions) {
  MvmConfig cfg = base();
  const auto thermo = analytic_precision_budget(cfg);
  cfg.weights = WeightTechnology::kPcm;
  const auto pcm = analytic_precision_budget(cfg);
  EXPECT_EQ(pcm.contributions.size(), thermo.contributions.size() + 2);
  EXPECT_LT(pcm.enob, thermo.enob);
}

TEST(NoiseAnalysisTest, MoreLaserPowerMoreBits) {
  MvmConfig lo = base();
  lo.laser.power_w = 0.1e-3;
  MvmConfig hi = base();
  hi.laser.power_w = 100e-3;
  EXPECT_GT(analytic_precision_budget(hi).enob,
            analytic_precision_budget(lo).enob);
}

TEST(NoiseAnalysisTest, ConverterBitsBoundEnob) {
  // ENOB can never exceed the converter resolution.
  for (int bits : {4, 6, 8}) {
    MvmConfig cfg = base();
    cfg.modulator.dac_bits = bits;
    cfg.adc.bits = bits;
    EXPECT_LE(analytic_precision_budget(cfg).enob, bits + 0.01);
  }
}

TEST(NoiseAnalysisTest, DominantIdentifiesLargest) {
  MvmConfig cfg = base();
  cfg.modulator.dac_bits = 3;  // make the DAC clearly dominant
  cfg.adc.bits = 12;
  const auto b = analytic_precision_budget(cfg);
  EXPECT_EQ(b.dominant().source, "input DAC");
}

TEST(NoiseAnalysisTest, EmpiricalTracksAnalyticWithinMargin) {
  MvmConfig cfg = base();
  cfg.modulator.dac_bits = 10;
  cfg.adc.bits = 10;
  const double analytic = analytic_precision_budget(cfg).enob;
  const double empirical = empirical_enob(cfg, /*trials=*/32);
  // The analytic model ignores mesh loss imbalance; expect agreement
  // within ~1.5 bits, with the empirical value lower.
  EXPECT_LT(std::abs(analytic - empirical), 1.8);
}

TEST(NoiseAnalysisTest, EmpiricalDeterministicForSeed) {
  const double a = empirical_enob(base(), 16, 42);
  const double b = empirical_enob(base(), 16, 42);
  EXPECT_DOUBLE_EQ(a, b);
}

// The datapath noise is drawn per (symbol, port, kind) from a counter, so
// no test pins its bytes; these pin its statistics instead.

/// Pearson correlation of two equally long samples.
double correlation(const std::vector<double>& a,
                   const std::vector<double>& b) {
  Stats sa, sb;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sa.add(a[i]);
    sb.add(b[i]);
  }
  double sab = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    sab += (a[i] - sa.mean()) * (b[i] - sb.mean());
  return sab / (static_cast<double>(a.size() - 1) * sa.stddev() * sb.stddev());
}

TEST(DatapathNoiseTest, DetectedQuadraturesAreFieldPlusDetectorNoise) {
  // A fixed field on every port for 10^5 symbols, through a 24-bit ADC
  // (quantization far below the noise) with RIN switched off: each
  // quadrature reads the field on average, with the detector's RMS noise
  // noise_rms_a(full_scale / 2) in field units.
  MvmConfig cfg = base();
  cfg.adc.bits = 24;
  cfg.laser.rin_db_per_hz = -400.0;
  const MvmEngine eng(cfg);
  const std::size_t symbols = 100000;
  const cplx field{0.012, -0.007};
  CMat block(cfg.ports, symbols);
  for (cplx& v : block.raw()) v = field;
  eng.detect_batch(block, 1000);

  const double full_scale_w =
      cfg.laser.power_w / static_cast<double>(cfg.ports);
  const double rms =
      aspen::phot::Photodetector(cfg.detector).noise_rms_a(full_scale_w / 2) /
      (cfg.detector.responsivity_a_per_w * std::sqrt(full_scale_w));
  const double n = static_cast<double>(symbols);
  for (std::size_t p = 0; p < cfg.ports; ++p) {
    Stats re, im;
    for (std::size_t s = 0; s < symbols; ++s) {
      re.add(block(p, s).real());
      im.add(block(p, s).imag());
    }
    EXPECT_NEAR(re.mean(), field.real(), 5.0 * rms / std::sqrt(n)) << p;
    EXPECT_NEAR(im.mean(), field.imag(), 5.0 * rms / std::sqrt(n)) << p;
    EXPECT_NEAR(re.stddev(), rms, 0.02 * rms) << p;
    EXPECT_NEAR(im.stddev(), rms, 0.02 * rms) << p;
  }

  // No correlation between consecutive symbols, adjacent ports, or the
  // two quadratures of one port: each below 4 / sqrt(pairs).
  const auto in_phase = [&](std::size_t p, std::size_t s0) {
    std::vector<double> v(symbols - 1);
    for (std::size_t s = 0; s + 1 < symbols; ++s)
      v[s] = block(p, s + s0).real();
    return v;
  };
  std::vector<double> quadrature(symbols - 1);
  for (std::size_t s = 0; s + 1 < symbols; ++s)
    quadrature[s] = block(3, s).imag();
  const double bound = 4.0 / std::sqrt(n - 1.0);
  EXPECT_LT(std::abs(correlation(in_phase(0, 0), in_phase(0, 1))), bound);
  for (std::size_t p = 0; p + 1 < cfg.ports; ++p)
    EXPECT_LT(std::abs(correlation(in_phase(p, 0), in_phase(p + 1, 0))), bound)
        << "ports " << p << ", " << p + 1;
  EXPECT_LT(std::abs(correlation(in_phase(3, 0), quadrature)), bound);
}

TEST(DatapathNoiseTest, LaunchPowerFluctuatesByTheLaserRin) {
  // The per-symbol RIN draw: mean laser power, standard deviation
  // rin_rms_w(), independent from one symbol to the next.
  const MvmConfig cfg = base();
  const MvmEngine eng(cfg);
  const aspen::phot::CwLaser laser(cfg.laser);
  const std::size_t symbols = 100000;
  std::vector<double> power(symbols);
  Stats s;
  for (std::size_t i = 0; i < symbols; ++i) {
    power[i] = eng.launch_power_w(i);
    s.add(power[i]);
  }
  const double n = static_cast<double>(symbols);
  EXPECT_NEAR(s.mean(), laser.mean_power_w(),
              5.0 * laser.rin_rms_w() / std::sqrt(n));
  EXPECT_NEAR(s.stddev(), laser.rin_rms_w(), 0.02 * laser.rin_rms_w());
  const std::vector<double> now(power.begin(), power.end() - 1);
  const std::vector<double> next(power.begin() + 1, power.end());
  EXPECT_LT(std::abs(correlation(now, next)), 4.0 / std::sqrt(n - 1.0));
}

}  // namespace
