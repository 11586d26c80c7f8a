// Tests for the photonic accelerator core (S4): MVM engine, GeMM
// scheduler (TDM/WDM), energy/area model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/energy_model.hpp"
#include "core/gemm_core.hpp"
#include "core/mvm_engine.hpp"
#include "lina/random.hpp"
#include "noiseless_reference.hpp"

namespace {

using namespace aspen::core;
using aspen::testing::bits;
using aspen::testing::complex_noiseless_reference;
using aspen::testing::real_tile;
using aspen::lina::CMat;
using aspen::lina::cplx;
using aspen::lina::CVec;
using aspen::lina::Rng;

MvmConfig clean_config(std::size_t ports = 8) {
  MvmConfig cfg;
  cfg.ports = ports;
  cfg.errors.coupler_loss_db = 0.0;
  cfg.errors.ps_loss_db = 0.0;
  cfg.errors.routing_loss_db_per_column = 0.0;
  cfg.modulator.insertion_loss_db = 0.0;
  cfg.modulator.dac_bits = 14;
  cfg.modulator.extinction_ratio_db = 90.0;
  cfg.adc.bits = 14;
  cfg.detector.thermal_noise_a_per_sqrt_hz = 0.0;
  cfg.laser.rin_db_per_hz = -200.0;
  return cfg;
}

double max_err(const CVec& a, const CVec& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(MvmEngineTest, IdentityRoundTrip) {
  MvmEngine eng(clean_config());
  Rng rng(1);
  const CVec x = aspen::lina::random_state(8, rng);
  const CVec y = eng.multiply_noiseless(x);
  EXPECT_LT(max_err(y, x), 1e-6);
}

TEST(MvmEngineTest, ArbitraryRealMatrixNoiseless) {
  MvmConfig cfg = clean_config();
  MvmEngine eng(cfg);
  Rng rng(2);
  const CMat w = aspen::lina::random_real(8, 8, rng);
  eng.set_matrix(w);
  EXPECT_GT(eng.programming_fidelity(), 0.999999);

  const CVec x = aspen::lina::random_state(8, rng);
  const CVec expected = w * x;
  const CVec y = eng.multiply_noiseless(x);
  EXPECT_LT(max_err(y, expected), 1e-6);
}

TEST(MvmEngineTest, ComplexMatrixNoiseless) {
  MvmEngine eng(clean_config());
  Rng rng(3);
  CMat w = aspen::lina::ginibre(8, 8, rng);
  w = w.scaled(cplx{0.3, 0.0});  // keep entries modest
  eng.set_matrix(w);
  const CVec x = aspen::lina::random_state(8, rng);
  EXPECT_LT(max_err(eng.multiply_noiseless(x), w * x), 1e-6);
}

TEST(MvmEngineTest, NoisyMultiplyCloseToExact) {
  MvmConfig cfg = clean_config();
  cfg.detector.thermal_noise_a_per_sqrt_hz = 10e-12;
  cfg.modulator.dac_bits = 8;
  cfg.adc.bits = 8;
  MvmEngine eng(cfg);
  Rng rng(4);
  const CMat w = aspen::lina::random_real(8, 8, rng);
  eng.set_matrix(w);
  const CVec x = aspen::lina::random_state(8, rng);
  const CVec expected = w * x;
  const CVec y = eng.multiply(x);
  // 8-bit converters + physical noise: expect percent-level accuracy.
  EXPECT_LT(max_err(y, expected), 0.08);
}

TEST(MvmEngineTest, LossDoesNotBiasCalibratedResult) {
  MvmConfig cfg = clean_config();
  cfg.errors.coupler_loss_db = 0.05;
  cfg.errors.ps_loss_db = 0.05;
  cfg.errors.routing_loss_db_per_column = 0.02;
  cfg.modulator.insertion_loss_db = 3.0;
  MvmEngine eng(cfg);
  Rng rng(5);
  const CMat w = aspen::lina::random_real(8, 8, rng);
  eng.set_matrix(w);
  const CVec x = aspen::lina::random_state(8, rng);
  EXPECT_LT(max_err(eng.multiply_noiseless(x), w * x), 1e-6)
      << "scalar gain calibration must absorb path loss";
}

TEST(MvmEngineTest, FabricationErrorsShowUpAsSystematicError) {
  MvmConfig cfg = clean_config();
  cfg.errors.coupler_sigma = 0.05;
  cfg.errors.phase_sigma = 0.05;
  MvmEngine eng(cfg);
  Rng rng(6);
  const CMat w = aspen::lina::random_real(8, 8, rng);
  eng.set_matrix(w);
  EXPECT_LT(eng.programming_fidelity(), 0.99999);
  const CVec x = aspen::lina::random_state(8, rng);
  EXPECT_GT(max_err(eng.multiply_noiseless(x), w * x), 1e-4);
}

TEST(MvmEngineTest, RecalibrationImprovesProgrammingFidelity) {
  MvmConfig cfg = clean_config(6);
  cfg.errors.coupler_sigma = 0.05;
  cfg.errors.phase_sigma = 0.05;
  Rng rng(7);
  const CMat w = aspen::lina::random_real(6, 6, rng);

  MvmEngine direct(cfg);
  direct.set_matrix(w);
  cfg.recalibrate = true;
  MvmEngine recal(cfg);
  recal.set_matrix(w);
  EXPECT_GT(recal.programming_fidelity(), direct.programming_fidelity());
}

TEST(MvmEngineTest, PcmWeightsZeroHoldingPower) {
  MvmConfig cfg = clean_config();
  cfg.weights = WeightTechnology::kPcm;
  MvmEngine eng(cfg);
  Rng rng(8);
  eng.set_matrix(aspen::lina::random_real(8, 8, rng));
  EXPECT_DOUBLE_EQ(eng.holding_power_w(), 0.0);
  EXPECT_GT(eng.counters().weight_write_energy_j, 0.0);
}

TEST(MvmEngineTest, ThermoWeightsDrawHoldingPower) {
  MvmEngine eng(clean_config());
  Rng rng(9);
  eng.set_matrix(aspen::lina::random_real(8, 8, rng));
  EXPECT_GT(eng.holding_power_w(), 0.0);
}

TEST(MvmEngineTest, PcmQuantizationLimitsAccuracy) {
  MvmConfig cfg = clean_config();
  cfg.weights = WeightTechnology::kPcm;
  cfg.pcm.level_bits = 3;
  MvmEngine coarse(cfg);
  cfg.pcm.level_bits = 8;
  MvmEngine fine(cfg);
  Rng rng(10);
  const CMat w = aspen::lina::random_real(8, 8, rng);
  coarse.set_matrix(w);
  fine.set_matrix(w);
  EXPECT_GT(fine.programming_fidelity(), coarse.programming_fidelity());
}

TEST(MvmEngineTest, DriftDegradesFidelityMonotonically) {
  MvmConfig cfg = clean_config();
  cfg.weights = WeightTechnology::kPcm;
  cfg.pcm.level_bits = 8;
  MvmEngine eng(cfg);
  Rng rng(11);
  eng.set_matrix(aspen::lina::random_real(8, 8, rng));
  const double f0 = eng.programming_fidelity();
  eng.set_pcm_drift_time(1e4);
  const double f1 = eng.programming_fidelity();
  eng.set_pcm_drift_time(1e8);
  const double f2 = eng.programming_fidelity();
  EXPECT_GE(f0, f1);
  EXPECT_GT(f1, f2);
}

TEST(MvmEngineTest, CountersAdvance) {
  MvmEngine eng(clean_config());
  Rng rng(12);
  const CVec x = aspen::lina::random_state(8, rng);
  (void)eng.multiply(x);
  (void)eng.multiply(x);
  EXPECT_EQ(eng.counters().mvm_ops, 2u);
  EXPECT_NEAR(eng.counters().busy_time_s, 2.0 * eng.symbol_time_s(), 1e-18);

  // GemmCore's physical and noiseless paths count each input column once
  // per call, with or without the ABFT checksum rows.
  for (const bool abft : {false, true}) {
    GemmConfig gc;
    gc.mvm = clean_config();
    gc.abft.enabled = abft;
    GemmCore gemm(gc);
    gemm.set_weights(aspen::lina::random_real(8, 8, rng));
    const CMat xs = aspen::lina::random_real(8, 5, rng, -0.5, 0.5);
    const std::uint64_t before = gemm.engine().counters().mvm_ops;
    (void)gemm.multiply(xs);
    EXPECT_EQ(gemm.engine().counters().mvm_ops, before + 5) << "abft " << abft;
    CMat out;
    gemm.multiply_noiseless(xs, out);
    EXPECT_EQ(gemm.engine().counters().mvm_ops, before + 10) << "abft " << abft;

    // A call that throws on its shape counts nothing.
    const CMat wrong = aspen::lina::random_real(7, 5, rng, -0.5, 0.5);
    EXPECT_THROW(gemm.multiply_noiseless(wrong, out), std::invalid_argument);
    EXPECT_EQ(gemm.engine().counters().mvm_ops, before + 10) << "abft " << abft;
  }
}

// ------------------------------------------ real-input noiseless kernel

// Every output of the real kernel, both parts, bit for bit against the
// complex form it replaced.
void expect_kernel_matches_complex_form(const MvmEngine& eng, const CMat& x,
                                        const std::string& what) {
  std::vector<double> re, im;
  eng.multiply_noiseless_batch_into(real_tile(x), x.cols(), re, im);
  const CMat ref = complex_noiseless_reference(eng, x);
  ASSERT_EQ(re.size(), ref.raw().size()) << what;
  ASSERT_EQ(im.size(), ref.raw().size()) << what;
  for (std::size_t i = 0; i < re.size(); ++i) {
    EXPECT_EQ(bits(re[i]), bits(ref.raw()[i].real()))
        << what << " entry " << i << ": " << re[i] << " vs "
        << ref.raw()[i].real();
    EXPECT_EQ(bits(im[i]), bits(ref.raw()[i].imag()))
        << what << " entry " << i << ": " << im[i] << " vs "
        << ref.raw()[i].imag();
  }
}

TEST(MvmEngineTest, RealNoiselessKernelMatchesComplexFormBitForBit) {
  const std::size_t col_counts[] = {1, 2, 7, 8, 9, 64};
  for (const std::size_t ports : {std::size_t{4}, std::size_t{8}}) {
    for (const bool pcm : {false, true}) {
      MvmConfig cfg;
      cfg.ports = ports;
      cfg.errors.coupler_sigma = 0.02;
      cfg.errors.phase_sigma = 0.02;
      if (pcm) {
        cfg.weights = WeightTechnology::kPcm;
        cfg.pcm_drift_time_s = 1e4;
      }
      MvmEngine eng(cfg);
      Rng rng(200 + ports + (pcm ? 1 : 0));
      const CMat w1 = aspen::lina::random_real(ports, ports, rng);
      const CMat w2 = aspen::lina::random_real(ports, ports, rng);
      const auto sweep = [&](const std::string& state) {
        for (const std::size_t m : col_counts) {
          const std::string what = std::to_string(ports) + " ports, " +
                                   (pcm ? "pcm" : "thermo") + ", " + state +
                                   ", " + std::to_string(m) + " cols";
          expect_kernel_matches_complex_form(
              eng, aspen::lina::random_real(ports, m, rng, -1.0, 1.0), what);
        }
      };
      eng.set_matrix(w1);
      sweep("miss");
      eng.set_matrix(w2);
      eng.set_matrix(w1);
      ASSERT_GT(eng.program_memo_stats().hits, 0u);
      sweep("memo hit");
      eng.perturb_phase(eng.phase_state_size() / 2, 0.4);
      sweep("phase upset");
      eng.set_matrix(CMat(ports, ports));
      sweep("zero weights");
    }
  }
}

TEST(GemmCoreTest, NoiselessAdapterMatchesRealPathAndRejectsComplexInput) {
  GemmConfig gc;
  gc.mvm.ports = 8;
  GemmCore gemm(gc);
  Rng rng(201);
  gemm.set_weights(aspen::lina::random_real(8, 8, rng));
  CMat x = aspen::lina::random_real(8, 9, rng, -1.0, 1.0);

  CMat out;
  gemm.multiply_noiseless(x, out);
  std::vector<double> re, im;
  gemm.multiply_noiseless(real_tile(x), x.cols(), re, im);
  const CMat ref = complex_noiseless_reference(gemm.engine(), x);
  ASSERT_EQ(out.rows(), 8u);
  ASSERT_EQ(out.cols(), 9u);
  for (std::size_t i = 0; i < out.raw().size(); ++i) {
    EXPECT_EQ(bits(out.raw()[i].real()), bits(re[i])) << i;
    EXPECT_EQ(bits(out.raw()[i].imag()), bits(im[i])) << i;
    EXPECT_EQ(bits(out.raw()[i].real()), bits(ref.raw()[i].real())) << i;
    EXPECT_EQ(bits(out.raw()[i].imag()), bits(ref.raw()[i].imag())) << i;
  }

  // Only real tiles reach the real kernel; the call counts nothing.
  const std::uint64_t before = gemm.engine().counters().mvm_ops;
  x(3, 4) = cplx{x(3, 4).real(), 0.25};
  EXPECT_THROW(gemm.multiply_noiseless(x, out), std::invalid_argument);
  EXPECT_EQ(gemm.engine().counters().mvm_ops, before);
  // A real tile of the wrong length is refused as well.
  const std::vector<double> short_tile(8 * 9 - 1, 0.0);
  EXPECT_THROW(gemm.multiply_noiseless(short_tile, 9, re, im),
               std::invalid_argument);
  EXPECT_THROW(
      gemm.engine().multiply_noiseless_batch_into(short_tile, 9, re, im),
      std::invalid_argument);
  EXPECT_EQ(gemm.engine().counters().mvm_ops, before);
}

// -------------------------------------- weight-programming memoization

// Raw (bitwise) equality of two complex matrices.
bool bit_equal(const CMat& a, const CMat& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && a.raw() == b.raw();
}

TEST(MvmEngineTest, RepeatedSetMatrixIsBitIdentical) {
  MvmConfig cfg;
  cfg.ports = 8;
  cfg.errors.coupler_sigma = 0.02;
  cfg.errors.phase_sigma = 0.02;
  MvmEngine eng(cfg);
  Rng rng(91);
  const CMat w1 = aspen::lina::random_real(8, 8, rng);
  const CMat w2 = aspen::lina::random_real(8, 8, rng);

  eng.set_matrix(w1);
  const CMat t1 = eng.physical_transfer();
  const cplx g1 = eng.system_gain();
  const double f1 = eng.programming_fidelity();

  eng.set_matrix(w2);
  ASSERT_FALSE(bit_equal(eng.physical_transfer(), t1));

  // Memoized reprogram (decomposition skipped): every derived quantity
  // must come back bit-identical, not merely close.
  eng.set_matrix(w1);
  EXPECT_TRUE(bit_equal(eng.physical_transfer(), t1));
  EXPECT_EQ(eng.system_gain(), g1);
  EXPECT_EQ(eng.programming_fidelity(), f1);

  // Unchanged-weights fast path: state untouched, write cost still paid.
  const auto ops_before = eng.counters().program_ops;
  const double energy_before = eng.counters().weight_write_energy_j;
  eng.set_matrix(w1);
  EXPECT_TRUE(bit_equal(eng.physical_transfer(), t1));
  EXPECT_EQ(eng.counters().program_ops, ops_before + 1);
  EXPECT_GT(eng.counters().weight_write_energy_j, energy_before);
}

TEST(MvmEngineTest, ReprogramAfterPhaseFaultRestoresTransferExactly) {
  MvmConfig cfg;
  cfg.ports = 8;
  cfg.errors.coupler_sigma = 0.02;
  MvmEngine eng(cfg);
  Rng rng(92);
  const CMat w = aspen::lina::random_real(8, 8, rng);
  eng.set_matrix(w);
  const CMat t = eng.physical_transfer();

  // A configuration upset dirties the mesh: the next set_matrix of the
  // same weights must actually reprogram (no stale fast path) and land
  // on the exact pre-fault transfer.
  eng.perturb_phase(3, 0.7);
  ASSERT_FALSE(bit_equal(eng.physical_transfer(), t));
  eng.set_matrix(w);
  EXPECT_TRUE(bit_equal(eng.physical_transfer(), t));
}

TEST(MvmEngineTest, MemoizedProgramMatchesWithRecalibrationAndPcm) {
  MvmConfig cfg;
  cfg.ports = 6;
  cfg.errors.coupler_sigma = 0.03;
  cfg.errors.phase_sigma = 0.03;
  cfg.recalibrate = true;
  cfg.weights = WeightTechnology::kPcm;
  MvmEngine eng(cfg);
  Rng rng(93);
  const CMat w1 = aspen::lina::random_real(6, 6, rng);
  const CMat w2 = aspen::lina::random_real(6, 6, rng);
  eng.set_matrix(w1);
  const CMat t1 = eng.physical_transfer();
  const cplx g1 = eng.system_gain();
  eng.set_matrix(w2);
  eng.set_matrix(w1);
  EXPECT_TRUE(bit_equal(eng.physical_transfer(), t1));
  EXPECT_EQ(eng.system_gain(), g1);
}

TEST(MvmEngineTest, SnapshotRestoreRoundTrip) {
  MvmConfig cfg;
  cfg.ports = 8;
  cfg.errors.coupler_sigma = 0.02;
  MvmEngine eng(cfg);
  Rng rng(94);
  const CMat w = aspen::lina::random_real(8, 8, rng);
  eng.set_matrix(w);

  const MvmEngine::Snapshot snap = eng.snapshot();
  const CMat t = eng.physical_transfer();
  const CVec x = aspen::lina::random_state(8, rng);
  const CVec y_ref = eng.multiply(x);  // advances the noise stream

  // Mutate: different weights, a phase fault, more noise draws.
  eng.set_matrix(aspen::lina::random_real(8, 8, rng));
  eng.perturb_phase(1, 0.4);
  (void)eng.multiply(x);

  eng.restore(snap);
  EXPECT_TRUE(bit_equal(eng.physical_transfer(), t));
  const CVec y_again = eng.multiply(x);
  // Same state + same rng position -> bit-identical noisy output.
  for (std::size_t i = 0; i < y_ref.size(); ++i)
    EXPECT_EQ(y_ref[i], y_again[i]);
}

TEST(MvmEngineTest, PhaseUpsetsInAnyOrderMatchFreshEngine) {
  // A fault campaign's phase upsets: restore the programmed engine, then
  // upset one phase, for every phase of both meshes in a shuffled order.
  // The meshes keep their product chains across the restores; each
  // upset must still land bitwise where it lands on a fresh engine
  // upset once, on a thermo-optic die with crosstalk and on a drifted
  // PCM die.
  for (const bool pcm : {false, true}) {
    MvmConfig cfg;
    cfg.ports = 8;
    cfg.errors.coupler_sigma = 0.03;
    cfg.errors.phase_sigma = 0.03;
    if (pcm) {
      cfg.weights = WeightTechnology::kPcm;
      cfg.pcm_drift_time_s = 1e4;
    } else {
      cfg.errors.thermal_crosstalk = 0.03;
    }
    Rng rng(97);
    const CMat w = aspen::lina::random_real(8, 8, rng);
    MvmEngine eng(cfg);
    eng.set_matrix(w);
    const MvmEngine::Snapshot programmed = eng.snapshot();
    std::vector<std::size_t> order(eng.phase_state_size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size() - 1; i > 0; --i)
      std::swap(order[i], order[static_cast<std::size_t>(rng.uniform_int(0, i))]);
    for (const std::size_t k : order) {
      const double delta = rng.uniform(-1.5, 1.5);
      eng.restore(programmed);
      eng.perturb_phase(k, delta);
      MvmEngine fresh(cfg);
      fresh.set_matrix(w);
      fresh.perturb_phase(k, delta);
      const std::string at =
          std::string(pcm ? "pcm" : "thermo-optic") + " phase " + std::to_string(k);
      ASSERT_TRUE(bit_equal(eng.physical_transfer(), fresh.physical_transfer()))
          << at;
      EXPECT_EQ(eng.programming_fidelity(), fresh.programming_fidelity()) << at;
    }
  }
}

// PCM weights on an imperfect die: quantized phases and a per-die
// calibration, everything the memo has to reproduce exactly.
MvmConfig pcm_die_config(std::size_t ports = 8) {
  MvmConfig cfg;
  cfg.ports = ports;
  cfg.errors.coupler_sigma = 0.02;
  cfg.errors.phase_sigma = 0.02;
  cfg.weights = WeightTechnology::kPcm;
  return cfg;
}

TEST(MvmEngineTest, ProgramMemoServesRepeatedTilesBitIdentically) {
  // A serving engine cycles through a model's tiles; the second pass must
  // come entirely from the memo and reproduce the first bit for bit.
  MvmEngine eng(pcm_die_config());
  Rng rng(95);
  std::vector<CMat> tiles;
  for (int i = 0; i < 40; ++i)
    tiles.push_back(aspen::lina::random_real(8, 8, rng));

  const ProgramMemoStats s0 = eng.program_memo_stats();
  std::vector<CMat> t;
  std::vector<cplx> g;
  std::vector<double> f;
  for (const CMat& w : tiles) {
    eng.set_matrix(w);
    t.push_back(eng.physical_transfer());
    g.push_back(eng.system_gain());
    f.push_back(eng.programming_fidelity());
  }
  const ProgramMemoStats s1 = eng.program_memo_stats();
  EXPECT_EQ(s1.misses - s0.misses, 40u);
  EXPECT_EQ(s1.hits, s0.hits);

  for (std::size_t i = 0; i < tiles.size(); ++i) {
    eng.set_matrix(tiles[i]);
    EXPECT_TRUE(bit_equal(eng.physical_transfer(), t[i])) << "tile " << i;
    EXPECT_EQ(eng.system_gain(), g[i]) << "tile " << i;
    EXPECT_EQ(eng.programming_fidelity(), f[i]) << "tile " << i;
  }
  const ProgramMemoStats s2 = eng.program_memo_stats();
  EXPECT_EQ(s2.misses, s1.misses);
  EXPECT_EQ(s2.hits - s1.hits, 40u);
  EXPECT_EQ(s2.evictions, 0u);
  EXPECT_EQ(s2.entries, 41u);  // the tiles and the construction identity
}

TEST(MvmEngineTest, PhaseUpsetAfterMemoHitMatchesUpsetAfterMiss) {
  // A hit leaves the meshes to rebuild their transfer lazily; an upset
  // after it must still land exactly where it lands after a computed
  // program, on either mesh.
  const MvmConfig cfg = pcm_die_config();
  Rng rng(96);
  const CMat w = aspen::lina::random_real(8, 8, rng);
  const CMat other = aspen::lina::random_real(8, 8, rng);
  const std::size_t phases = MvmEngine(cfg).phase_state_size();
  for (const std::size_t k : {std::size_t{5}, phases - 7}) {
    MvmEngine warm(cfg);
    warm.set_matrix(w);
    warm.set_matrix(other);
    warm.set_matrix(w);
    ASSERT_EQ(warm.program_memo_stats().hits, 1u);
    warm.perturb_phase(k, 0.3);

    MvmEngine cold(cfg);
    cold.set_matrix(w);
    const CMat clean = cold.physical_transfer();
    cold.perturb_phase(k, 0.3);
    ASSERT_FALSE(bit_equal(cold.physical_transfer(), clean)) << "phase " << k;

    EXPECT_TRUE(bit_equal(warm.physical_transfer(), cold.physical_transfer()))
        << "phase " << k;
    EXPECT_EQ(warm.programming_fidelity(), cold.programming_fidelity())
        << "phase " << k;
    EXPECT_EQ(warm.system_gain(), cold.system_gain()) << "phase " << k;
  }
}

TEST(MvmEngineTest, ProgramMemoEvictsLeastRecentlyUsedWithinBudget) {
  MvmEngine eng(pcm_die_config(32));
  Rng rng(97);
  std::vector<CMat> tiles;
  for (int i = 0; i < 16; ++i)
    tiles.push_back(aspen::lina::random_real(32, 32, rng));
  for (const CMat& w : tiles) eng.set_matrix(w);

  const ProgramMemoStats s = eng.program_memo_stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, MvmEngine::kProgramMemoBytes);
  EXPECT_GE(s.entries, 1u);
  EXPECT_EQ(s.entries + s.evictions, s.misses);  // one entry per miss

  // The construction identity went first, then the oldest tiles. Using
  // the oldest survivor makes it the most recently used, so the next
  // insertion evicts the tile after it instead.
  ASSERT_LT(s.entries, tiles.size());
  const std::size_t oldest = tiles.size() - s.entries;
  eng.set_matrix(tiles[oldest]);
  EXPECT_EQ(eng.program_memo_stats().hits, s.hits + 1);
  eng.set_matrix(aspen::lina::random_real(32, 32, rng));
  EXPECT_EQ(eng.program_memo_stats().evictions, s.evictions + 1);
  const ProgramMemoStats before = eng.program_memo_stats();
  eng.set_matrix(tiles[oldest]);
  EXPECT_EQ(eng.program_memo_stats().hits, before.hits + 1);
  eng.set_matrix(tiles[oldest + 1]);
  EXPECT_EQ(eng.program_memo_stats().misses, before.misses + 1);
  EXPECT_LE(eng.program_memo_stats().bytes, MvmEngine::kProgramMemoBytes);
}

TEST(MvmEngineTest, ZeroMatrixFromMemoGivesZeroOutput) {
  MvmEngine eng(pcm_die_config());
  Rng rng(98);
  const CMat zero(8, 8);
  eng.set_matrix(zero);
  eng.set_matrix(aspen::lina::random_real(8, 8, rng));
  const std::uint64_t hits = eng.program_memo_stats().hits;
  eng.set_matrix(zero);
  ASSERT_EQ(eng.program_memo_stats().hits, hits + 1);

  const CVec x = aspen::lina::random_state(8, rng);
  const CVec quiet = eng.multiply_noiseless(x);
  const CVec noisy = eng.multiply(x);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(quiet[i], cplx(0.0, 0.0)) << i;
    EXPECT_EQ(noisy[i], cplx(0.0, 0.0)) << i;
  }
}

TEST(MvmEngineTest, PcmWriteRestartsTheDriftClock) {
  // Writing a tile programs and calibrates fresh cells, which then age.
  // So w2 written on an engine that has drifted for d ends exactly where
  // w2 written on a fresh engine and then aged by d does, whether w2 is
  // computed or served from the memo.
  const MvmConfig cfg = pcm_die_config();
  Rng rng(99);
  const CMat w1 = aspen::lina::random_real(8, 8, rng);
  const CMat w2 = aspen::lina::random_real(8, 8, rng);
  const double d = 2.6e6;  // 30 days

  MvmEngine fresh(cfg);
  fresh.set_matrix(w2);
  const cplx written_gain = fresh.system_gain();
  const CMat written = fresh.physical_transfer();
  fresh.set_pcm_drift_time(d);
  ASSERT_FALSE(bit_equal(fresh.physical_transfer(), written));
  ASSERT_EQ(fresh.system_gain(), written_gain);

  MvmEngine aged(cfg);
  aged.set_matrix(w1);
  aged.set_pcm_drift_time(d);
  const auto expect_written_then_aged = [&](const char* path) {
    EXPECT_TRUE(bit_equal(aged.physical_transfer(), fresh.physical_transfer()))
        << path;
    EXPECT_EQ(aged.system_gain(), fresh.system_gain()) << path;
    EXPECT_EQ(aged.programming_fidelity(), fresh.programming_fidelity())
        << path;
  };
  aged.set_matrix(w2);
  expect_written_then_aged("miss");
  aged.set_matrix(w1);
  const std::uint64_t hits = aged.program_memo_stats().hits;
  aged.set_matrix(w2);
  ASSERT_EQ(aged.program_memo_stats().hits, hits + 1);
  expect_written_then_aged("hit");
}

TEST(MvmEngineTest, ShapeMismatchThrows) {
  MvmEngine eng(clean_config());
  EXPECT_THROW(eng.set_matrix(CMat(4, 4)), std::invalid_argument);
  EXPECT_THROW((void)eng.multiply(CVec(5)), std::invalid_argument);
}

TEST(MvmEngineTest, ZeroMatrixHandled) {
  MvmEngine eng(clean_config());
  eng.set_matrix(CMat(8, 8));  // all zeros
  Rng rng(13);
  const CVec x = aspen::lina::random_state(8, rng);
  const CVec y = eng.multiply_noiseless(x);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_LT(std::abs(y[i]), 1e-9);
}

TEST(MvmEngineTest, InsertionLossPositiveWithRealDevices) {
  MvmConfig cfg;  // default lossy devices
  cfg.ports = 8;
  MvmEngine eng(cfg);
  EXPECT_GT(eng.insertion_loss_db(), 1.0);
}

TEST(GemmCoreTest, TdmMatchesPerColumnMvm) {
  GemmConfig gc;
  gc.mvm = clean_config();
  GemmCore gemm(gc);
  Rng rng(14);
  const CMat w = aspen::lina::random_real(8, 8, rng);
  gemm.set_weights(w);
  const CMat x = aspen::lina::random_real(8, 5, rng, -0.5, 0.5);
  const CMat c = gemm.multiply(x);
  const CMat expected = w * x;
  EXPECT_LT(CMat::rel_error(expected, c), 0.02);
  EXPECT_EQ(gemm.last_stats().symbols, 5u);
  EXPECT_EQ(gemm.last_stats().macs, 8u * 8u * 5u);
}

TEST(GemmCoreTest, WdmReducesSymbolCount) {
  GemmConfig gc;
  gc.mvm = clean_config();
  gc.wdm_channels = 4;
  GemmCore gemm(gc);
  Rng rng(15);
  gemm.set_weights(aspen::lina::random_real(8, 8, rng));
  const CMat x = aspen::lina::random_real(8, 12, rng, -0.5, 0.5);
  (void)gemm.multiply(x);
  EXPECT_EQ(gemm.last_stats().symbols, 3u);  // ceil(12 / 4)
}

TEST(GemmCoreTest, WdmCrosstalkCostsAccuracy) {
  Rng rng(16);
  const CMat w = aspen::lina::random_real(8, 8, rng);
  const CMat x = aspen::lina::random_real(8, 16, rng, -0.5, 0.5);
  const CMat expected = w * x;

  GemmConfig tdm;
  tdm.mvm = clean_config();
  GemmCore g1(tdm);
  g1.set_weights(w);
  const double err_tdm = CMat::rel_error(expected, g1.multiply(x));

  GemmConfig wdm = tdm;
  wdm.wdm_channels = 8;
  wdm.channel_isolation_db = 15.0;  // poor isolation
  GemmCore g8(wdm);
  g8.set_weights(w);
  const double err_wdm = CMat::rel_error(expected, g8.multiply(x));
  EXPECT_GT(err_wdm, err_tdm);
}

TEST(GemmCoreTest, WdmImprovesThroughputAndEfficiencyScalesSanely) {
  Rng rng(17);
  const CMat w = aspen::lina::random_real(8, 8, rng);
  const CMat x = aspen::lina::random_real(8, 32, rng, -0.5, 0.5);

  GemmConfig tdm;
  tdm.mvm = clean_config();
  GemmCore g1(tdm);
  g1.set_weights(w);
  (void)g1.multiply(x);
  const auto s1 = g1.last_stats();

  GemmConfig wdm = tdm;
  wdm.wdm_channels = 8;
  GemmCore g8(wdm);
  g8.set_weights(w);
  (void)g8.multiply(x);
  const auto s8 = g8.last_stats();

  EXPECT_NEAR(s8.ops_per_second() / s1.ops_per_second(), 8.0, 0.5);
  EXPECT_EQ(s1.macs, s8.macs);
}

TEST(GemmCoreTest, DispersionPenalizesWideGrids) {
  Rng rng(18);
  const CMat w = aspen::lina::random_real(8, 8, rng);
  const CMat x = aspen::lina::random_real(8, 16, rng, -0.5, 0.5);
  const CMat exact = w * x;

  GemmConfig narrow;
  narrow.mvm = clean_config();
  narrow.wdm_channels = 2;
  narrow.channel_spacing_nm = 0.8;
  narrow.channel_isolation_db = 80.0;
  GemmCore g2(narrow);
  g2.set_weights(w);
  const double err2 = CMat::rel_error(exact, g2.multiply(x));

  GemmConfig wide = narrow;
  wide.wdm_channels = 16;
  GemmCore g16(wide);
  g16.set_weights(w);
  const double err16 = CMat::rel_error(exact, g16.multiply(x));
  EXPECT_GT(err16, err2) << "outer channels see rotated couplers";
}

TEST(GemmCoreTest, ZeroSpacingMatchesFlatMesh) {
  Rng rng(19);
  const CMat w = aspen::lina::random_real(8, 8, rng);
  const CMat x = aspen::lina::random_real(8, 8, rng, -0.5, 0.5);
  GemmConfig flat;
  flat.mvm = clean_config();
  flat.wdm_channels = 4;
  flat.channel_spacing_nm = 0.0;
  flat.channel_isolation_db = 80.0;  // isolate the dispersion variable
  GemmCore g(flat);
  g.set_weights(w);
  const CMat y = g.multiply(x);
  EXPECT_LT(CMat::rel_error(w * x, y), 0.02);
}

TEST(GemmCoreTest, InvalidConfigThrows) {
  GemmConfig gc;
  gc.wdm_channels = 0;
  EXPECT_THROW(GemmCore{gc}, std::invalid_argument);
  GemmConfig gc2;
  gc2.channel_isolation_db = 0.0;
  EXPECT_THROW(GemmCore{gc2}, std::invalid_argument);
}

TEST(EnergyModelTest, PcmEliminatesWeightHoldingPower) {
  MvmConfig cfg;
  cfg.ports = 8;
  const auto thermo = evaluate_accelerator(cfg);
  cfg.weights = WeightTechnology::kPcm;
  const auto pcm = evaluate_accelerator(cfg);
  EXPECT_GT(thermo.weight_holding_w, 0.0);
  EXPECT_DOUBLE_EQ(pcm.weight_holding_w, 0.0);
  EXPECT_LT(pcm.static_power_w, thermo.static_power_w);
}

TEST(EnergyModelTest, EnergyCrossoverFavorsPcmAtHighReuse) {
  MvmConfig cfg;
  cfg.ports = 8;
  // At reuse = 1 PCM pays its write energy every inference; at high reuse
  // the thermo heaters' static draw dominates (Section 3's argument).
  const auto once = weight_energy_at_reuse(cfg, 1.0, 8.0);
  const auto many = weight_energy_at_reuse(cfg, 1e6, 8.0);
  EXPECT_LT(many.pcm_energy_j, many.thermo_energy_j);
  // Amortization helps PCM: per-inference energy shrinks with reuse.
  EXPECT_GT(once.pcm_energy_j, many.pcm_energy_j);
  EXPECT_GT(once.pcm_energy_j, 0.0);
  EXPECT_GT(once.thermo_energy_j, 0.0);
}

TEST(EnergyModelTest, AreaGrowsQuadratically) {
  MvmConfig small;
  small.ports = 8;
  MvmConfig large;
  large.ports = 32;
  const double a8 = evaluate_accelerator(small).area_mm2;
  const double a32 = evaluate_accelerator(large).area_mm2;
  // N(N-1)/2 cells per mesh: 32-port mesh has ~17.7x the cells of 8-port.
  EXPECT_GT(a32 / a8, 8.0);
  EXPECT_LT(a32 / a8, 20.0);
}

TEST(EnergyModelTest, WdmBoostsThroughputSameMeshArea) {
  MvmConfig cfg;
  cfg.ports = 8;
  const auto one = evaluate_accelerator(cfg, 1e6, 1);
  const auto four = evaluate_accelerator(cfg, 1e6, 4);
  EXPECT_NEAR(four.throughput_ops_s / one.throughput_ops_s, 4.0, 1e-9);
  EXPECT_LT(four.area_mm2 / one.area_mm2, 3.0)
      << "mesh is shared; only IO replicates";
}

TEST(EnergyModelTest, ReckAndClementsSameCellCountSameArea) {
  MvmConfig a;
  a.ports = 8;
  a.architecture = aspen::mesh::Architecture::kClements;
  MvmConfig b = a;
  b.architecture = aspen::mesh::Architecture::kReck;
  EXPECT_NEAR(evaluate_accelerator(a).area_mm2, evaluate_accelerator(b).area_mm2,
              1e-12);
  // But Reck's deeper triangle pays more optical loss.
  EXPECT_GT(evaluate_accelerator(b).insertion_loss_db,
            evaluate_accelerator(a).insertion_loss_db);
}

TEST(EnergyModelTest, EngineAndAnalyticModelChargeOneWriteLaw) {
  // A fresh engine has programmed its weights once (the constructor sets
  // the identity); the analytic model prices one full reprogram. Both
  // apply the same write-energy and program-time laws, to the bit.
  for (const WeightTechnology tech :
       {WeightTechnology::kThermoOptic, WeightTechnology::kPcm}) {
    for (const std::size_t ports : {4, 8, 16}) {
      MvmConfig cfg;  // PCM weights default to GeSe sized for 2 pi
      cfg.ports = ports;
      cfg.weights = tech;
      const MvmEngine eng(cfg);
      const AcceleratorReport r = evaluate_accelerator(cfg);
      ASSERT_EQ(eng.counters().program_ops, 1u);
      EXPECT_EQ(eng.counters().weight_write_energy_j, r.program_energy_j)
          << ports << " ports";
      EXPECT_EQ(eng.program_time_s(), r.program_time_s) << ports << " ports";
    }
  }
}

TEST(EnergyModelTest, NonPositiveHeaterPPiThrows) {
  for (const double p_pi_w : {0.0, -0.02}) {
    MvmConfig cfg;
    cfg.thermo.p_pi_w = p_pi_w;
    EXPECT_THROW(MvmEngine{cfg}, std::invalid_argument);
    EXPECT_THROW((void)evaluate_accelerator(cfg), std::invalid_argument);
  }
}

TEST(EnergyModelTest, NegativeHeaterResponseTimeThrows) {
  MvmConfig cfg;
  cfg.thermo.response_time_s = -10e-6;
  EXPECT_THROW(MvmEngine{cfg}, std::invalid_argument);
  EXPECT_THROW((void)evaluate_accelerator(cfg), std::invalid_argument);
  cfg.thermo.response_time_s = 0.0;  // an instant heater is allowed
  EXPECT_NO_THROW((void)evaluate_accelerator(cfg));
}

TEST(EnergyModelTest, ZeroWdmChannelsThrows) {
  const MvmConfig cfg;
  EXPECT_THROW((void)evaluate_accelerator(cfg, 1e6, 0), std::invalid_argument);
  EXPECT_THROW((void)evaluate_accelerator(cfg, 1e6, -1), std::invalid_argument);
}

TEST(MvmEngineTest, TransferAtDetuningIsLogicallyConst) {
  MvmConfig cfg;
  cfg.ports = 6;
  cfg.errors.coupler_sigma = 0.02;
  const MvmEngine eng(cfg);  // const: must compile and not mutate
  const CMat before = eng.physical_transfer();
  const CMat t1 = eng.transfer_at_detuning(2.0);
  const CMat t2 = eng.transfer_at_detuning(2.0);
  EXPECT_LT(t1.max_abs_diff(t2), 1e-15) << "must be repeatable";
  EXPECT_LT(eng.physical_transfer().max_abs_diff(before), 1e-15)
      << "engine state untouched";
  // At zero detuning it reproduces the calibrated design-wavelength path.
  EXPECT_LT(eng.transfer_at_detuning(0.0).max_abs_diff(before), 1e-12);
}

TEST(GemmCoreTest, BatchedPipelineMatchesStagedPerColumnLoop) {
  // The GEMM rewrite must reproduce the per-column staged pipeline
  // (encode -> propagate -> leak-mix -> detect -> rescale) including the
  // noise. The reference runs its groups in reverse order: each column's
  // noise belongs to its symbol index, not to the order of the calls.
  GemmConfig gc;
  gc.mvm.ports = 6;
  gc.wdm_channels = 3;
  gc.channel_isolation_db = 20.0;
  GemmCore gemm(gc);
  GemmCore ref(gc);
  Rng rng(72);
  const CMat w = aspen::lina::random_real(6, 6, rng);
  gemm.set_weights(w);
  ref.set_weights(w);

  const std::size_t m = 7;  // ragged: last group has a single channel
  CMat x(6, m);
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < m; ++c)
      x(r, c) = cplx{rng.uniform(-1.0, 1.0), 0.0};

  const std::uint64_t first_symbol = gemm.engine().counters().mvm_ops;
  const CMat got = gemm.multiply(x);

  // Reference: the pre-batching algorithm, one column at a time through
  // the engine's stages, with the complex product for propagation.
  const double leak = std::pow(10.0, -gc.channel_isolation_db / 20.0);
  MvmEngine& eng = ref.engine();
  CMat expected(6, m);
  CMat f;
  std::vector<std::size_t> firsts;
  for (std::size_t first = 0; first < m; first += 3) firsts.push_back(first);
  std::reverse(firsts.begin(), firsts.end());
  for (const std::size_t first : firsts) {
    const std::size_t count = std::min<std::size_t>(3, m - first);
    std::vector<CVec> outputs(count);
    for (std::size_t c = 0; c < count; ++c) {
      CVec in(6);
      for (std::size_t r = 0; r < 6; ++r)
        in[r] = cplx{eng.arm_field(x(r, first + c).real()),
                     eng.arm_field(0.0)};
      outputs[c] = eng.physical_transfer() * in;
    }
    std::vector<CVec> mixed = outputs;
    if (count > 1) {
      for (std::size_t c = 0; c < count; ++c)
        for (std::size_t p = 0; p < 6; ++p) {
          cplx leakage{0.0, 0.0};
          if (c > 0) leakage += outputs[c - 1][p];
          if (c + 1 < count) leakage += outputs[c + 1][p];
          mixed[c][p] += leak * leakage;
        }
    }
    for (std::size_t c = 0; c < count; ++c) {
      f.resize(6, 1);
      f.set_col(0, mixed[c]);
      eng.detect_batch(f, first_symbol + first + c);
      eng.rescale_batch(f);
      for (std::size_t r = 0; r < 6; ++r) expected(r, first + c) = f(r, 0);
    }
  }
  EXPECT_LT(got.max_abs_diff(expected), 1e-9);
}

TEST(GemmCoreTest, ColumnsEqualEngineMultiplyAtTheirSymbol) {
  // One noise per symbol: column j of a real 8 x m tile through the GEMM
  // path equals, bit for bit, the engine's one-vector multiply of column
  // j on an engine whose mvm_ops stands at the column's symbol index.
  // TDM and ABFT off, so nothing mixes columns; RIN is on (default).
  GemmConfig gc;
  gc.mvm.ports = 8;
  gc.mvm.errors.coupler_sigma = 0.02;
  gc.mvm.errors.phase_sigma = 0.02;
  GemmCore gemm(gc);
  Rng rng(31);
  gemm.set_weights(aspen::lina::random_real(8, 8, rng));
  gemm.engine().count_mvm_ops(5);  // a nonzero first symbol
  const MvmEngine::Snapshot snap = gemm.engine().snapshot();
  const std::uint64_t first_symbol = gemm.engine().counters().mvm_ops;

  const std::size_t m = 11;  // one 8-column register block and a tail
  const CMat x = aspen::lina::random_real(8, m, rng);
  const CMat got = gemm.multiply(x);
  ASSERT_EQ(gemm.engine().counters().mvm_ops, first_symbol + m);

  for (std::size_t j = m; j-- > 0;) {  // any order
    gemm.engine().restore(snap);
    gemm.engine().count_mvm_ops(j);
    const CVec col = gemm.engine().multiply(x.col(j));
    for (std::size_t r = 0; r < 8; ++r) {
      EXPECT_EQ(bits(col[r].real()), bits(got(r, j).real())) << r << ", " << j;
      EXPECT_EQ(bits(col[r].imag()), bits(got(r, j).imag())) << r << ", " << j;
    }
  }
}

}  // namespace
