// Tests for the NN workload substrate (S5): tensors, datasets, MLP
// training, and the photonic execution backend.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/dataset.hpp"
#include "nn/mlp.hpp"
#include "nn/photonic_backend.hpp"
#include "nn/tensor.hpp"

namespace {

using namespace aspen::nn;
using aspen::lina::Rng;

TEST(TensorTest, MatmulKnownValues) {
  Matrix a(2, 3), b(3, 2);
  double v = 1.0;
  for (auto& x : a.raw()) x = v++;
  for (auto& x : b.raw()) x = v++;
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(TensorTest, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW((void)(a * b), std::invalid_argument);
  EXPECT_THROW((void)(a + Matrix(3, 2)), std::invalid_argument);
}

TEST(TensorTest, TransposeInvolution) {
  Matrix a(3, 5);
  Rng rng(1);
  for (auto& x : a.raw()) x = rng.uniform(-1, 1);
  const Matrix att = a.transpose().transpose();
  for (std::size_t i = 0; i < a.raw().size(); ++i)
    EXPECT_DOUBLE_EQ(att.raw()[i], a.raw()[i]);
}

TEST(TensorTest, ReluClampsNegatives) {
  Matrix a(1, 4);
  a(0, 0) = -1.0;
  a(0, 1) = 0.0;
  a(0, 2) = 2.0;
  a(0, 3) = -0.5;
  const Matrix r = relu(a);
  EXPECT_DOUBLE_EQ(r(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r(0, 2), 2.0);
  const Matrix g = relu_grad(a);
  EXPECT_DOUBLE_EQ(g(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g(0, 2), 1.0);
}

TEST(TensorTest, SoftmaxColumnsNormalized) {
  Matrix logits(3, 2);
  logits(0, 0) = 1.0;
  logits(1, 0) = 2.0;
  logits(2, 0) = 3.0;
  logits(0, 1) = 100.0;  // stability check
  logits(1, 1) = 100.0;
  logits(2, 1) = 100.0;
  const Matrix p = softmax_columns(logits);
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < 3; ++r) sum += p(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  EXPECT_NEAR(p(0, 1), 1.0 / 3.0, 1e-12);
}

TEST(DatasetTest, DigitsShapeAndDeterminism) {
  Rng rng1(7), rng2(7);
  const Dataset a = make_digits(5, rng1);
  const Dataset b = make_digits(5, rng2);
  EXPECT_EQ(a.size(), 50u);
  EXPECT_EQ(a.features(), 64u);
  EXPECT_EQ(a.classes, 10);
  for (std::size_t i = 0; i < a.inputs.raw().size(); ++i)
    EXPECT_DOUBLE_EQ(a.inputs.raw()[i], b.inputs.raw()[i]);
}

TEST(DatasetTest, PixelsInRange) {
  Rng rng(8);
  const Dataset d = make_digits(3, rng, /*noise=*/0.5);
  for (const double v : d.inputs.raw()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(DatasetTest, BlobsSeparable) {
  Rng rng(9);
  const Dataset d = make_blobs(3, 4, 30, rng, /*spread=*/0.02);
  // Tight blobs must be trivially separable by nearest-centroid.
  std::vector<std::vector<double>> centroids(3, std::vector<double>(4, 0.0));
  std::vector<int> counts(3, 0);
  for (std::size_t s = 0; s < d.size(); ++s) {
    const int k = d.labels[s];
    ++counts[static_cast<std::size_t>(k)];
    for (std::size_t f = 0; f < 4; ++f)
      centroids[static_cast<std::size_t>(k)][f] += d.inputs(f, s);
  }
  for (int k = 0; k < 3; ++k)
    for (auto& x : centroids[static_cast<std::size_t>(k)])
      x /= counts[static_cast<std::size_t>(k)];
  std::size_t hits = 0;
  for (std::size_t s = 0; s < d.size(); ++s) {
    int best = -1;
    double best_d = 1e300;
    for (int k = 0; k < 3; ++k) {
      double dist = 0.0;
      for (std::size_t f = 0; f < 4; ++f) {
        const double diff =
            d.inputs(f, s) - centroids[static_cast<std::size_t>(k)][f];
        dist += diff * diff;
      }
      if (dist < best_d) {
        best_d = dist;
        best = k;
      }
    }
    if (best == d.labels[s]) ++hits;
  }
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(d.size()), 0.98);
}

TEST(DatasetTest, SplitPreservesSamples) {
  Rng rng(10);
  const Dataset d = make_digits(10, rng);
  const Split s = split_dataset(d, 0.8, rng);
  EXPECT_EQ(s.train.size() + s.test.size(), d.size());
  EXPECT_EQ(s.train.size(), 80u);
  EXPECT_THROW((void)split_dataset(d, 1.5, rng), std::invalid_argument);
}

TEST(MlpTest, TrainsOnBlobs) {
  Rng rng(11);
  const Dataset d = make_blobs(3, 8, 60, rng);
  Mlp mlp({8, 16, 3}, rng);
  const double before = mlp.accuracy(d);
  mlp.train(d, /*epochs=*/30, /*lr=*/0.2, /*batch=*/16, rng);
  const double after = mlp.accuracy(d);
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.95);
}

TEST(MlpTest, TrainsOnDigits) {
  Rng rng(12);
  const Dataset d = make_digits(40, rng, /*noise=*/0.08);
  const Split s = split_dataset(d, 0.75, rng);
  Mlp mlp({64, 32, 10}, rng);
  mlp.train(s.train, /*epochs=*/80, /*lr=*/0.15, /*batch=*/25, rng);
  EXPECT_GT(mlp.accuracy(s.train), 0.95);
  EXPECT_GT(mlp.accuracy(s.test), 0.75);
}

TEST(MlpTest, LossDecreases) {
  Rng rng(13);
  const Dataset d = make_blobs(2, 4, 50, rng);
  Mlp mlp({4, 8, 2}, rng);
  const double l0 = mlp.train_epoch(d, 0.1, 16, rng);
  for (int e = 0; e < 10; ++e) (void)mlp.train_epoch(d, 0.1, 16, rng);
  const double l1 = mlp.train_epoch(d, 0.1, 16, rng);
  EXPECT_LT(l1, l0);
}

TEST(MlpTest, BadShapeThrows) {
  Rng rng(14);
  EXPECT_THROW(Mlp({10}, rng), std::invalid_argument);
}

PhotonicBackendConfig clean_backend(std::size_t ports = 8) {
  PhotonicBackendConfig cfg;
  cfg.gemm.mvm.ports = ports;
  cfg.gemm.mvm.modulator.dac_bits = 12;
  cfg.gemm.mvm.modulator.extinction_ratio_db = 70.0;
  cfg.gemm.mvm.adc.bits = 12;
  return cfg;
}

TEST(PhotonicBackendTest, MatmulMatchesDigitalWithinTolerance) {
  PhotonicBackend backend(clean_backend());
  Rng rng(15);
  Matrix w(10, 20), x(20, 6);
  for (auto& v : w.raw()) v = rng.uniform(-0.8, 0.8);
  for (auto& v : x.raw()) v = rng.uniform(0.0, 1.0);
  const Matrix exact = w * x;
  const Matrix got = backend.matmul(w, x);
  double max_err = 0.0;
  for (std::size_t i = 0; i < exact.raw().size(); ++i)
    max_err = std::max(max_err, std::abs(exact.raw()[i] - got.raw()[i]));
  // Tiled analog compute with 12-bit converters on values of O(5).
  EXPECT_LT(max_err, 0.25);
  EXPECT_GT(backend.totals().tiles_programmed, 0u);
  EXPECT_GT(backend.totals().macs, 0u);
}

TEST(PhotonicBackendTest, AccuracySurvivesPhotonicExecution) {
  Rng rng(16);
  const Dataset d = make_digits(30, rng, 0.08);
  const Split s = split_dataset(d, 0.7, rng);
  Mlp mlp({64, 24, 10}, rng);
  mlp.train(s.train, 80, 0.15, 21, rng);
  const double digital = mlp.accuracy(s.test);

  PhotonicBackend backend(clean_backend());
  const double photonic = backend.accuracy(mlp, s.test);
  EXPECT_GT(digital, 0.70);
  EXPECT_GT(photonic, digital - 0.12)
      << "clean photonic execution must track digital accuracy";
}

TEST(PhotonicBackendTest, CoarsePcmWeightsCostAccuracy) {
  Rng rng(17);
  const Dataset d = make_digits(20, rng, 0.08);
  const Split s = split_dataset(d, 0.7, rng);
  Mlp mlp({64, 16, 10}, rng);
  mlp.train(s.train, 80, 0.15, 21, rng);

  PhotonicBackendConfig fine = clean_backend();
  fine.gemm.mvm.weights = aspen::core::WeightTechnology::kPcm;
  fine.gemm.mvm.pcm.level_bits = 7;
  PhotonicBackendConfig coarse = fine;
  coarse.gemm.mvm.pcm.level_bits = 2;

  PhotonicBackend bf(fine), bc(coarse);
  const double acc_fine = bf.accuracy(mlp, s.test);
  const double acc_coarse = bc.accuracy(mlp, s.test);
  EXPECT_GE(acc_fine, acc_coarse);
}

TEST(PhotonicBackendTest, ShapeMismatchThrows) {
  PhotonicBackend backend(clean_backend());
  EXPECT_THROW((void)backend.matmul(Matrix(4, 5), Matrix(6, 2)),
               std::invalid_argument);
}

TEST(PhotonicBackendTest, ZeroInputGivesZeroOutput) {
  PhotonicBackend backend(clean_backend());
  const Matrix w(8, 8);
  const Matrix x(8, 2);
  const Matrix y = backend.matmul(w, x);
  for (const double v : y.raw()) EXPECT_DOUBLE_EQ(v, 0.0);
}

/// 8-port tiles with GeSe PCM weights, the digit-serving configuration.
PhotonicBackendConfig pcm_backend() {
  PhotonicBackendConfig cfg;
  cfg.gemm.mvm.ports = 8;
  cfg.gemm.mvm.weights = aspen::core::WeightTechnology::kPcm;
  return cfg;
}

TEST(PhotonicBackendTest, DriftAgesEveryTileFromItsOwnWrite) {
  // Each tile is written and calibrated fresh and only then drifts; a
  // tile programmed after the previous one has aged must not have its
  // gain calibrated on drifted cells.
  const double d = 2.6e6;  // 30 days
  PhotonicBackend backend(pcm_backend());
  backend.set_pcm_drift_time(d);
  Rng rng(18);
  Matrix w(8, 12), x(12, 3);
  for (auto& v : w.raw()) v = rng.uniform(-0.8, 0.8);
  for (auto& v : x.raw()) v = rng.uniform(0.0, 1.0);
  (void)backend.matmul(w, x);
  ASSERT_EQ(backend.totals().tiles_programmed, 2u);

  // The last tile programmed: input columns 8..11, zero-padded.
  aspen::lina::CMat last(8, 8);
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      last(r, c) = aspen::lina::cplx{w(r, 8 + c), 0.0};
  aspen::core::MvmEngine fresh(pcm_backend().gemm.mvm);
  fresh.set_matrix(last);
  const auto& engine = backend.core().engine();
  EXPECT_EQ(engine.system_gain(), fresh.system_gain());
  fresh.set_pcm_drift_time(d);
  EXPECT_EQ(engine.physical_transfer().raw(), fresh.physical_transfer().raw());
  EXPECT_EQ(engine.programming_fidelity(), fresh.programming_fidelity());
}

TEST(PhotonicBackendTest, WarmRequestCostsWhatAColdRequestDoes) {
  // A served model's tiles come from the programming memo after the
  // first request. The cost accounting must not notice: a warm request
  // is charged bit for bit what the same request is charged cold. Costs
  // accumulate in floating point, so both backends serve two requests
  // and are compared whole; the cold backend's first request uses the
  // model halved (same shapes and activation pattern, other weight
  // bytes), so none of its second request's tiles is memoized.
  Rng rng(19);
  const Mlp mlp({64, 32, 10}, rng);
  Mlp halved = mlp;
  for (DenseLayer& layer : halved.layers()) {
    for (double& v : layer.weights.raw()) v *= 0.5;
    for (double& v : layer.bias) v *= 0.5;
  }
  Matrix x(64, 1);
  for (auto& v : x.raw()) v = rng.uniform(0.0, 1.0);

  PhotonicBackend warm(pcm_backend());
  PhotonicBackend cold(pcm_backend());
  (void)warm.forward(mlp, x);
  (void)cold.forward(halved, x);
  const auto warm_memo = warm.core().engine().program_memo_stats();
  const auto cold_memo = cold.core().engine().program_memo_stats();
  (void)warm.forward(mlp, x);
  (void)cold.forward(mlp, x);

  const BackendTotals& wt = warm.totals();
  const BackendTotals& ct = cold.totals();
  EXPECT_EQ(wt.tiles_programmed, 80u);
  EXPECT_EQ(wt.tiles_programmed, ct.tiles_programmed);
  EXPECT_EQ(wt.macs, ct.macs);
  EXPECT_EQ(wt.optical_time_s, ct.optical_time_s);
  EXPECT_EQ(wt.energy_j, ct.energy_j);
  const auto& wc = warm.core().engine().counters();
  const auto& cc = cold.core().engine().counters();
  EXPECT_EQ(wc.program_ops, cc.program_ops);
  EXPECT_EQ(wc.weight_write_energy_j, cc.weight_write_energy_j);
  EXPECT_EQ(wc.mvm_ops, cc.mvm_ops);

  const auto wm = warm.core().engine().program_memo_stats();
  const auto cm = cold.core().engine().program_memo_stats();
  EXPECT_EQ(wm.misses, warm_memo.misses) << "a warm request takes no miss";
  EXPECT_EQ(wm.hits - warm_memo.hits, 40u);
  EXPECT_EQ(cm.misses - cold_memo.misses, 40u);
  EXPECT_EQ(cm.hits, cold_memo.hits);
}

}  // namespace
