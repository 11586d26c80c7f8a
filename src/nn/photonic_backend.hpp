#pragma once
/// \file photonic_backend.hpp
/// Executes trained MLP inference on the photonic accelerator: each dense
/// layer's weight matrix is tiled into N x N blocks mapped onto the MVM
/// core; partial products are accumulated digitally (the standard
/// analog-tile + digital-reduction arrangement). This is the bridge that
/// turns accelerator physics (PCM levels, drift, shot noise, crosstalk)
/// into end-task accuracy numbers for experiment E3.

#include <memory>
#include <vector>

#include "core/gemm_core.hpp"
#include "nn/mlp.hpp"

namespace aspen::nn {

struct PhotonicBackendConfig {
  core::GemmConfig gemm;  ///< engine config; gemm.mvm.ports = tile size
  /// Tile-level recovery (active when gemm.abft.enabled): a tile whose
  /// ABFT check reports uncorrectable columns is reprogrammed and re-run
  /// up to this many times; if the check still fails, the tile's partial
  /// product is recomputed digitally (the host keeps the exact weights).
  unsigned max_tile_retries = 2;
};

/// Aggregated cost of everything executed on the backend so far.
struct BackendTotals {
  std::uint64_t tiles_programmed = 0;
  std::uint64_t macs = 0;
  double optical_time_s = 0.0;
  double energy_j = 0.0;
};

/// Tile-level fault accounting (detect -> bounded retry -> digital
/// fallback); only ABFT-enabled backends ever move these counters.
struct BackendRecoveryStats {
  std::uint64_t tiles_detected = 0;   ///< tiles with >= 1 flagged column
  std::uint64_t tiles_corrected = 0;  ///< tiles ABFT repaired in place
  std::uint64_t tiles_retried = 0;    ///< reprogram+rerun attempts
  std::uint64_t tiles_fell_back = 0;  ///< tiles recomputed digitally
};

class PhotonicBackend {
 public:
  explicit PhotonicBackend(PhotonicBackendConfig cfg);

  /// C = W (out x in) * X (in x batch) via photonic tiles. Inputs are
  /// normalized to the modulator range internally and rescaled back.
  [[nodiscard]] Matrix matmul(const Matrix& w, const Matrix& x);

  /// Full MLP forward pass with all dense products on the accelerator
  /// (bias add and ReLU are digital, as in a host-attached deployment).
  [[nodiscard]] Matrix forward(const Mlp& mlp, const Matrix& x);

  /// Classification accuracy of the photonic-executed model.
  [[nodiscard]] double accuracy(const Mlp& mlp, const Dataset& d);

  /// Evaluate every PCM tile `seconds` after its write, without
  /// recalibrating (drift study hook). Each tile is programmed and
  /// calibrated fresh and then aged, as a deployed tile would be.
  void set_pcm_drift_time(double seconds);

  [[nodiscard]] const BackendTotals& totals() const { return totals_; }
  [[nodiscard]] const BackendRecoveryStats& recovery() const {
    return recovery_;
  }
  [[nodiscard]] core::GemmCore& core() { return gemm_; }

 private:
  /// Exact digital recomputation of one tile product (the fallback
  /// path): the real part of wt * xt, in the real tile layout.
  void digital_tile(const lina::CMat& wt, const std::vector<double>& xt,
                    std::size_t batch, std::vector<double>& re) const;

  PhotonicBackendConfig cfg_;
  core::GemmCore gemm_;
  BackendTotals totals_;
  BackendRecoveryStats recovery_;
};

}  // namespace aspen::nn
