#pragma once
/// \file modulator.hpp
/// High-speed Mach-Zehnder input modulator (paper Section 4: "input
/// vectors are encoded into amplitude/phase of individual inputs,
/// typically using high-speed Mach Zehnder modulators"). Models DAC
/// quantization, extinction ratio, insertion loss, modulation rate and
/// per-symbol energy — the front half of the accelerator's ENOB budget.

#include <complex>

namespace aspen::phot {

struct ModulatorConfig {
  int dac_bits = 8;               ///< Drive DAC resolution.
  /// Off-state leakage floor. The field floor 10^(-ER/20) bounds the
  /// encodable dynamic range (~ER/6 bits): 30 dB caps inputs near 5 bits,
  /// 50 dB (a good push-pull MZM, the default) supports 8-bit encoding.
  double extinction_ratio_db = 50.0;
  double insertion_loss_db = 3.0;     ///< On-chip MZM loss.
  double rate_hz = 10e9;          ///< Symbol rate (paper: >50 GHz devices).
  double energy_per_symbol_j = 150e-15;  ///< Driver + DAC energy / symbol.
};

/// Encodes a signed real value in [-1, 1] onto an optical field amplitude
/// (sign realized as a 0 / pi carrier phase — coherent amplitude coding).
class Modulator {
 public:
  explicit Modulator(ModulatorConfig cfg = {});

  /// Field amplitude (relative to the unmodulated carrier) for `value`.
  /// Applies DAC quantization, extinction-ratio floor and insertion loss.
  [[nodiscard]] std::complex<double> encode(double value) const;

  /// Quantized drive value only (for analysis of the DAC transfer).
  [[nodiscard]] double quantize(double value) const;

  /// Seconds per encoded symbol.
  [[nodiscard]] double symbol_time_s() const { return 1.0 / cfg_.rate_hz; }
  /// Field transmission of the modulator (insertion loss only).
  [[nodiscard]] double amplitude_scale() const { return amp_loss_; }
  [[nodiscard]] const ModulatorConfig& config() const { return cfg_; }

 private:
  ModulatorConfig cfg_;
  double amp_loss_;   ///< Field transmission from insertion loss.
  double floor_amp_;  ///< Minimum field amplitude (extinction limit).
  double levels_;     ///< DAC codes minus one
};

}  // namespace aspen::phot
