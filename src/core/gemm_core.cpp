#include "core/gemm_core.hpp"

#include <cmath>
#include <stdexcept>

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

GemmCore::GemmCore(GemmConfig cfg) : cfg_(cfg), engine_(engine_config(cfg)) {
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

void GemmCore::pad_input(const CMat& x) {
  const std::size_t n = data_ports();
  if (x.rows() != n)
    throw std::invalid_argument("GemmCore: input rows != data ports");
  const std::size_t m = x.cols();
  abft_x_.resize(n + kAbftRows, m);  // resize zero-fills the checksum rows
  for (std::size_t c = 0; c < m; ++c)
    for (std::size_t r = 0; r < n; ++r) abft_x_(r, c) = x(r, c);
}

CMat GemmCore::multiply(const CMat& x) {
  if (!cfg_.abft.enabled) return multiply_physical(x);
  pad_input(x);
  CMat full = multiply_physical(abft_x_);
  last_abft_ = abft_check(full, cfg_.abft.tolerance);
  abft_counters_.add(last_abft_.counts);
  const std::size_t n = data_ports();
  CMat out(n, x.cols());
  for (std::size_t c = 0; c < x.cols(); ++c)
    for (std::size_t r = 0; r < n; ++r) out(r, c) = full(r, c);
  return out;
}

void GemmCore::multiply_noiseless(const std::vector<double>& x,
                                  std::size_t cols, std::vector<double>& re,
                                  std::vector<double>& im) {
  const std::size_t n = data_ports();
  if (x.size() != n * cols)
    throw std::invalid_argument("GemmCore: input rows != data ports");
  engine_.count_mvm_ops(cols);
  if (!cfg_.abft.enabled) {
    engine_.multiply_noiseless_batch_into(x, cols, re, im);
    return;
  }
  // Port by port, the checksum input rows are the trailing zeros.
  abft_x_real_.assign(x.begin(), x.end());
  abft_x_real_.resize(x.size() + kAbftRows * cols, 0.0);
  engine_.multiply_noiseless_batch_into(abft_x_real_, cols, re, im);
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

void GemmCore::multiply_noiseless(const CMat& x, CMat& out) {
  if (x.rows() != data_ports())
    throw std::invalid_argument("GemmCore: input rows != data ports");
  // Row-major CMat storage is already the port-by-port layout.
  tile_x_.resize(x.raw().size());
  for (std::size_t i = 0; i < tile_x_.size(); ++i) {
    if (x.raw()[i].imag() != 0.0)
      throw std::invalid_argument(
          "GemmCore::multiply_noiseless: complex input");
    tile_x_[i] = x.raw()[i].real();
  }
  multiply_noiseless(tile_x_, x.cols(), tile_re_, tile_im_);
  out.resize(x.rows(), x.cols());
  for (std::size_t i = 0; i < tile_re_.size(); ++i)
    out.raw()[i] = cplx{tile_re_[i], tile_im_[i]};
}

CMat GemmCore::multiply_physical(const CMat& x) {
  const std::size_t n = engine_.config().ports;
  if (x.rows() != n)
    throw std::invalid_argument("GemmCore: input rows != engine ports");
  const std::size_t m = x.cols();
  const auto k = static_cast<std::size_t>(cfg_.wdm_channels);
  engine_.count_mvm_ops(m);

  stats_ = GemmStats{};
  stats_.weight_write_energy_j = 0.0;  // per-call stats exclude programming
  CMat out(n, m);

  // Field-level leakage between adjacent DWDM channels after the demux.
  const double leak =
      std::pow(10.0, -cfg_.channel_isolation_db / 20.0);

  for (std::size_t group = 0; group * k < m; ++group) {
    const std::size_t first = group * k;
    const std::size_t count = std::min(k, m - first);

    // Encode the whole group into one ports x count field block, then
    // propagate it as a single matrix-matrix product; distinct
    // wavelengths do not interfere, but with dispersion enabled each
    // channel sees its own (rotated) transfer.
    engine_.encode_batch(x, first, count, fields_);
    if (channel_transfer_.empty()) {
      lina::mul_into(outputs_, engine_.physical_transfer(), fields_);
    } else {
      outputs_.resize(n, count);
      for (std::size_t c = 0; c < count; ++c) {
        const CMat& t = channel_transfer_[c];
        for (std::size_t r = 0; r < n; ++r) {
          cplx s{0.0, 0.0};
          for (std::size_t j = 0; j < n; ++j) s += t(r, j) * fields_(j, c);
          outputs_(r, c) = s;
        }
      }
    }
    // Imperfect demux: neighbour leakage before detection. The mixing
    // block only exists when there is something to mix — single-channel
    // or perfectly isolated configs detect the outputs directly.
    CMat* detected = &outputs_;
    if (count > 1 && leak > 0.0) {
      mixed_.resize(n, count);
      for (std::size_t c = 0; c < count; ++c) {
        for (std::size_t p = 0; p < n; ++p) {
          cplx leakage{0.0, 0.0};
          if (c > 0) leakage += outputs_(p, c - 1);
          if (c + 1 < count) leakage += outputs_(p, c + 1);
          mixed_(p, c) = outputs_(p, c) + leak * leakage;
        }
      }
      detected = &mixed_;
    }
    engine_.detect_batch(*detected);
    engine_.rescale_batch(*detected);
    for (std::size_t c = 0; c < count; ++c)
      for (std::size_t r = 0; r < n; ++r)
        out(r, first + c) = (*detected)(r, c);

    ++stats_.symbols;
  }

  // Cost model.
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
  const double laser_electrical =
      engine_.config().laser.power_w /
      engine_.config().laser.wall_plug_efficiency;
  stats_.laser_energy_j =
      static_cast<double>(cfg_.wdm_channels) * laser_electrical *
      stats_.wall_time_s;
  return out;
}

}  // namespace aspen::core
