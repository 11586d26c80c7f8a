#include "nn/photonic_backend.hpp"

#include <cmath>
#include <stdexcept>

namespace aspen::nn {

using aspen::lina::CMat;
using aspen::lina::cplx;

PhotonicBackend::PhotonicBackend(PhotonicBackendConfig cfg)
    : cfg_(cfg), gemm_(cfg.gemm) {}

void PhotonicBackend::set_pcm_drift_time(double seconds) {
  gemm_.engine().set_pcm_drift_time(seconds);
}

Matrix PhotonicBackend::matmul(const Matrix& w, const Matrix& x) {
  if (w.cols() != x.rows())
    throw std::invalid_argument("PhotonicBackend::matmul: shape mismatch");
  const std::size_t n = gemm_.config().mvm.ports;
  const std::size_t out_dim = w.rows();
  const std::size_t in_dim = w.cols();
  const std::size_t batch = x.cols();

  // Normalize inputs into the modulator's [-1, 1] range.
  const double xmax = x.max_abs();
  Matrix c(out_dim, batch);
  if (xmax == 0.0) return c;
  const double inv = 1.0 / xmax;

  const std::size_t tiles_r = (out_dim + n - 1) / n;
  const std::size_t tiles_k = (in_dim + n - 1) / n;

  // Tile scratch hoisted out of the loops. The input tile is real and
  // stored port by port (entry (r, b) at xt[r * batch + b]), zero-padded
  // past in_dim; wt's resize() re-zeros it, which doubles as the padding.
  std::vector<double> xt;
  std::vector<double> re;
  std::vector<double> im;
  CMat wt;
  for (std::size_t kt = 0; kt < tiles_k; ++kt) {
    xt.assign(n * batch, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t src = kt * n + r;
      if (src >= in_dim) break;
      for (std::size_t b = 0; b < batch; ++b)
        xt[r * batch + b] = x(src, b) * inv;
    }
    for (std::size_t rt = 0; rt < tiles_r; ++rt) {
      wt.resize(n, n);
      bool nonzero = false;
      for (std::size_t r = 0; r < n; ++r) {
        const std::size_t wr = rt * n + r;
        if (wr >= out_dim) break;
        for (std::size_t col = 0; col < n; ++col) {
          const std::size_t wc = kt * n + col;
          if (wc >= in_dim) break;
          wt(r, col) = cplx{w(wr, wc), 0.0};
          nonzero = nonzero || w(wr, wc) != 0.0;
        }
      }
      if (!nonzero) continue;

      const auto program_and_run = [&] {
        gemm_.set_weights(wt);
        ++totals_.tiles_programmed;
        gemm_.multiply(xt, batch, re, im);
        const auto& st = gemm_.last_stats();
        totals_.macs += st.macs;
        totals_.optical_time_s += st.wall_time_s;
        totals_.energy_j += st.total_energy_j();
      };

      program_and_run();
      if (cfg_.gemm.abft.enabled) {
        // Detect -> bounded retry -> digital fallback. Reprogramming the
        // tile rewrites every mesh phase from the host-held weights, so a
        // retry clears transient configuration upsets; a fault that
        // survives the retry budget is treated as permanent and the tile
        // is recomputed digitally (exact, so the layer output stays
        // trustworthy at the cost of this tile's speedup).
        if (gemm_.last_abft().counts.detected > 0) ++recovery_.tiles_detected;
        if (gemm_.last_abft().counts.corrected > 0)
          ++recovery_.tiles_corrected;
        unsigned tries = 0;
        while (gemm_.last_abft().counts.uncorrectable > 0 &&
               tries < cfg_.max_tile_retries) {
          ++tries;
          ++recovery_.tiles_retried;
          program_and_run();
        }
        if (gemm_.last_abft().counts.uncorrectable > 0) {
          ++recovery_.tiles_fell_back;
          digital_tile(wt, xt, batch, re);
        }
      }

      for (std::size_t r = 0; r < n; ++r) {
        const std::size_t cr = rt * n + r;
        if (cr >= out_dim) break;
        for (std::size_t b = 0; b < batch; ++b)
          c(cr, b) += re[r * batch + b] * xmax;
      }
    }
  }
  return c;
}

void PhotonicBackend::digital_tile(const CMat& wt,
                                   const std::vector<double>& xt,
                                   std::size_t batch,
                                   std::vector<double>& re) const {
  const std::size_t n = wt.rows();
  re.resize(n * batch);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t b = 0; b < batch; ++b) {
      double acc = 0.0;
      for (std::size_t k = 0; k < wt.cols(); ++k)
        acc += wt(r, k).real() * xt[k * batch + b];
      re[r * batch + b] = acc;
    }
}

Matrix PhotonicBackend::forward(const Mlp& mlp, const Matrix& x) {
  Matrix act = x;
  const auto& layers = mlp.layers();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    Matrix z = matmul(layers[l].weights, act);
    for (std::size_t r = 0; r < z.rows(); ++r)
      for (std::size_t col = 0; col < z.cols(); ++col)
        z(r, col) += layers[l].bias[r];
    act = (l + 1 < layers.size()) ? relu(z) : z;
  }
  return act;
}

double PhotonicBackend::accuracy(const Mlp& mlp, const Dataset& d) {
  const Matrix logits = forward(mlp, d.inputs);
  std::size_t hits = 0;
  for (std::size_t c = 0; c < logits.cols(); ++c) {
    std::size_t best = 0;
    for (std::size_t r = 1; r < logits.rows(); ++r)
      if (logits(r, c) > logits(best, c)) best = r;
    if (static_cast<int>(best) == d.labels[c]) ++hits;
  }
  return d.size() ? static_cast<double>(hits) / static_cast<double>(d.size())
                  : 0.0;
}

}  // namespace aspen::nn
