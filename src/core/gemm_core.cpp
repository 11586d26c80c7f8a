#include "core/gemm_core.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "photonics/units.hpp"

namespace aspen::core {

using lina::CMat;
using lina::cplx;

namespace {

/// The engine is built at the physical tile size: two extra ports carry
/// the checksum rows when ABFT is on.
MvmConfig engine_config(const GemmConfig& cfg) {
  MvmConfig m = cfg.mvm;
  if (cfg.abft.enabled) m.ports += kAbftRows;
  return m;
}

}  // namespace

GemmCore::GemmCore(GemmConfig cfg)
    : cfg_(cfg),
      engine_(engine_config(cfg)),
      leak_(std::pow(10.0, -cfg.channel_isolation_db / 20.0)) {
  if (cfg_.wdm_channels < 1)
    throw std::invalid_argument("GemmCore: wdm_channels < 1");
  if (cfg_.channel_isolation_db <= 0.0)
    throw std::invalid_argument("GemmCore: channel_isolation_db <= 0");
  if (cfg_.abft.enabled && cfg_.abft.tolerance <= 0.0)
    throw std::invalid_argument("GemmCore: abft tolerance <= 0");
}

void GemmCore::set_weights(const CMat& w) {
  const double before = engine_.counters().weight_write_energy_j;
  if (cfg_.abft.enabled)
    engine_.set_matrix(abft_augment(w));
  else
    engine_.set_matrix(w);
  stats_.weight_write_energy_j +=
      engine_.counters().weight_write_energy_j - before;

  // Precompute per-channel transfers when dispersion is in play: channel
  // c rides at (c - (K-1)/2) * spacing from the design wavelength.
  channel_transfer_.clear();
  if (cfg_.wdm_channels > 1 && cfg_.channel_spacing_nm != 0.0) {
    channel_transfer_.reserve(static_cast<std::size_t>(cfg_.wdm_channels));
    for (int c = 0; c < cfg_.wdm_channels; ++c) {
      const double nm =
          (c - 0.5 * (cfg_.wdm_channels - 1)) * cfg_.channel_spacing_nm;
      channel_transfer_.push_back(engine_.transfer_at_detuning(nm));
    }
  }
}

template <class Run>
void GemmCore::run_tile(const std::vector<double>& x, std::size_t cols,
                        std::vector<double>& re, std::vector<double>& im,
                        Run&& run) {
  const std::size_t n = data_ports();
  if (x.size() != n * cols)
    throw std::invalid_argument("GemmCore: input rows != data ports");
  if (!cfg_.abft.enabled) {
    run(x);
    return;
  }
  // Port by port, the checksum input rows are the trailing zeros.
  abft_x_real_.assign(x.begin(), x.end());
  abft_x_real_.resize(x.size() + kAbftRows * cols, 0.0);
  run(abft_x_real_);
  abft_y_.resize(n + kAbftRows, cols);
  for (std::size_t i = 0; i < re.size(); ++i)
    abft_y_.raw()[i] = cplx{re[i], im[i]};
  last_abft_ = abft_check(abft_y_, cfg_.abft.tolerance);
  abft_counters_.add(last_abft_.counts);
  re.resize(x.size());
  im.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    re[i] = abft_y_.raw()[i].real();
    im[i] = abft_y_.raw()[i].imag();
  }
}

void GemmCore::multiply(const std::vector<double>& x, std::size_t cols,
                        std::vector<double>& re, std::vector<double>& im) {
  run_tile(x, cols, re, im, [&](const std::vector<double>& tile) {
    multiply_physical(tile, cols, re, im);
  });
}

void GemmCore::multiply_noiseless(const std::vector<double>& x,
                                  std::size_t cols, std::vector<double>& re,
                                  std::vector<double>& im) {
  run_tile(x, cols, re, im, [&](const std::vector<double>& tile) {
    engine_.count_mvm_ops(cols);
    engine_.multiply_noiseless_batch_into(tile, cols, re, im);
  });
}

void GemmCore::load_real_tile(const CMat& x, const char* who) {
  if (x.rows() != data_ports())
    throw std::invalid_argument("GemmCore: input rows != data ports");
  // Row-major CMat storage is already the port-by-port layout.
  tile_x_.resize(x.raw().size());
  for (std::size_t i = 0; i < tile_x_.size(); ++i) {
    if (x.raw()[i].imag() != 0.0)
      throw std::invalid_argument(std::string(who) + ": complex input");
    tile_x_[i] = x.raw()[i].real();
  }
}

CMat GemmCore::multiply(const CMat& x) {
  load_real_tile(x, "GemmCore::multiply");
  multiply(tile_x_, x.cols(), tile_re_, tile_im_);
  CMat out(x.rows(), x.cols());
  for (std::size_t i = 0; i < tile_re_.size(); ++i)
    out.raw()[i] = cplx{tile_re_[i], tile_im_[i]};
  return out;
}

void GemmCore::multiply_noiseless(const CMat& x, CMat& out) {
  load_real_tile(x, "GemmCore::multiply_noiseless");
  multiply_noiseless(tile_x_, x.cols(), tile_re_, tile_im_);
  out.resize(x.rows(), x.cols());
  for (std::size_t i = 0; i < tile_re_.size(); ++i)
    out.raw()[i] = cplx{tile_re_[i], tile_im_[i]};
}

void GemmCore::multiply_physical(const std::vector<double>& x, std::size_t m,
                                 std::vector<double>& re,
                                 std::vector<double>& im) {
  const std::size_t n = engine_.config().ports;
  const auto k = static_cast<std::size_t>(cfg_.wdm_channels);
  const std::uint64_t first_symbol = engine_.counters().mvm_ops;
  engine_.count_mvm_ops(m);
  stats_ = GemmStats{};  // per-call stats exclude programming

  // Encode: the in-phase arms carry the tile, and every quadrature arm
  // drives 0.
  fields_.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    fields_[i] = engine_.arm_field(x[i]);
  quadrature_.assign(n, engine_.arm_field(0.0));

  // Propagate the whole tile. Distinct wavelengths do not interfere, but
  // with dispersion enabled column c rides channel c mod K of its group
  // and sees that channel's (rotated) transfer.
  outputs_.resize(n, m);
  if (channel_transfer_.empty()) {
    engine_.propagate_batch(engine_.physical_transfer(), fields_, m,
                            quadrature_, 0, m, outputs_);
  } else {
    for (std::size_t c = 0; c < m; ++c)
      engine_.propagate_batch(channel_transfer_[c % k], fields_, m,
                              quadrature_, c, c + 1, outputs_);
  }
  // Imperfect demux: each column picks up its group neighbours' fields
  // before detection. The mixing block only exists when there is
  // something to mix — single-channel configs detect the outputs
  // directly.
  CMat* detected = &outputs_;
  if (k > 1) {
    mixed_.resize(n, m);
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t first = c - c % k;
      const std::size_t last = std::min(first + k, m) - 1;
      for (std::size_t p = 0; p < n; ++p) {
        cplx leakage{0.0, 0.0};
        if (c > first) leakage += outputs_(p, c - 1);
        if (c < last) leakage += outputs_(p, c + 1);
        mixed_(p, c) = outputs_(p, c) + leak_ * leakage;
      }
    }
    detected = &mixed_;
  }
  engine_.detect_batch(*detected, first_symbol);
  engine_.rescale_batch(*detected);
  re.resize(n * m);
  im.resize(n * m);
  for (std::size_t i = 0; i < re.size(); ++i) {
    re[i] = detected->raw()[i].real();
    im[i] = detected->raw()[i].imag();
  }

  // Cost model: one symbol slot per WDM group.
  stats_.symbols = (m + k - 1) / k;
  const double t_sym = engine_.symbol_time_s();
  stats_.wall_time_s = static_cast<double>(stats_.symbols) * t_sym;
  stats_.macs = static_cast<std::uint64_t>(n) * n * m;
  const double mods = static_cast<double>(n) * static_cast<double>(m);
  stats_.modulator_energy_j =
      mods * engine_.config().modulator.energy_per_symbol_j;
  // Two quadrature samples per port per column (I/Q receiver).
  stats_.adc_energy_j =
      2.0 * mods * engine_.config().adc.energy_per_sample_j;
  // One laser per WDM channel, on for the whole call.
  stats_.laser_energy_j = static_cast<double>(cfg_.wdm_channels) *
                          phot::wall_plug_power_w(1.0, engine_.config().laser) *
                          stats_.wall_time_s;
}

}  // namespace aspen::core
