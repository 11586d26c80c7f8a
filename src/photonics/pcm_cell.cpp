#include "photonics/pcm_cell.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aspen::phot {

PcmCell::PcmCell(PcmCellConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.level_bits < 1 || cfg_.level_bits > 16)
    throw std::invalid_argument("PcmCell: level_bits must be in [1, 16]");
  if (cfg_.patch_length_m <= 0.0 || cfg_.confinement <= 0.0)
    throw std::invalid_argument("PcmCell: non-positive geometry");
}

double PcmCell::phase_of_fraction(double x) const {
  const OpticalConstants base = cfg_.material.at_fraction(0.0);
  const OpticalConstants eff = cfg_.material.at_fraction(x);
  return kTwoPi / cfg_.wavelength_m * cfg_.confinement *
         (eff.n - base.n) * cfg_.patch_length_m;
}

double PcmCell::amplitude_of_fraction(double x) const {
  const OpticalConstants eff = cfg_.material.at_fraction(x);
  // Field attenuation through the patch: exp(-2*pi*k_eff*Gamma*L/lambda).
  const double alpha =
      kTwoPi * eff.k * cfg_.confinement * cfg_.patch_length_m / cfg_.wavelength_m;
  return std::exp(-alpha);
}

double PcmCell::quantize_fraction(double x) const {
  const int n = levels();
  const double step = 1.0 / static_cast<double>(n - 1);
  const double q = std::round(std::clamp(x, 0.0, 1.0) / step) * step;
  return std::clamp(q, 0.0, 1.0);
}

void PcmCell::program_fraction(double x) {
  fraction_ = quantize_fraction(x);
  energy_spent_j_ += pcm_write_energy_j(fraction_, cfg_.material);
}

void PcmCell::accumulate(double strength) {
  if (strength <= 0.0) return;
  fraction_ = std::min(1.0, fraction_ + cfg_.accumulation_step * strength);
  // A sub-switching pulse costs energy proportional to the fraction moved.
  energy_spent_j_ +=
      cfg_.material.set_energy_j * cfg_.accumulation_step * strength;
}

void PcmCell::reset() {
  fraction_ = 0.0;
  energy_spent_j_ += cfg_.material.reset_energy_j;
}

double PcmCell::amplitude() const { return amplitude_of_fraction(fraction_); }

PcmCellConfig pcm_config_for_two_pi(const PcmMaterial& material,
                                    double confinement, double margin,
                                    int level_bits) {
  if (material.delta_n() <= 0.0)
    throw std::invalid_argument("pcm_config_for_two_pi: delta_n <= 0");
  PcmCellConfig cfg;
  cfg.material = material;
  cfg.confinement = confinement;
  cfg.level_bits = level_bits;
  // phase(x=1) = 2 pi / lambda * Gamma * delta_n_eff * L. The effective-
  // medium contrast at x = 1 equals the raw material contrast, so sizing
  // against delta_n is exact at the endpoint.
  cfg.patch_length_m =
      margin * cfg.wavelength_m / (confinement * material.delta_n());
  return cfg;
}

PcmPhaseMap::PcmPhaseMap(const PcmCellConfig& cfg) : cfg_(cfg) {
  const PcmCell probe(cfg);
  const int n = probe.levels();
  phase_.resize(n);
  amplitude_.resize(n);
  fraction_.resize(n);
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n - 1);
    fraction_[i] = x;
    phase_[i] = probe.phase_of_fraction(x);
    amplitude_[i] = probe.amplitude_of_fraction(x);
  }
  covers_two_pi_ = phase_.back() >= kTwoPi;
}

PcmPhaseMap::Quantized PcmPhaseMap::quantize(double phase_rad,
                                             double drift_time_s) const {
  const double target = wrap_phase(phase_rad);
  // Nearest achievable level. Levels are monotone in phase, so a binary
  // search would do; linear scan is fine for <= 2^16 levels at
  // construction-time call rates, but quantize is hot in mesh programming,
  // so use lower_bound.
  const auto it = std::lower_bound(phase_.begin(), phase_.end(), target);
  std::size_t idx;
  if (it == phase_.begin()) {
    idx = 0;
  } else if (it == phase_.end()) {
    idx = phase_.size() - 1;
  } else {
    const std::size_t hi = static_cast<std::size_t>(it - phase_.begin());
    const std::size_t lo = hi - 1;
    idx = (target - phase_[lo] <= phase_[hi] - target) ? lo : hi;
  }
  Quantized q;
  q.amplitude = amplitude_[idx];
  const double drift =
      drift_time_s > 0.0
          ? pcm_drift_factor(fraction_[idx], drift_time_s, cfg_.material)
          : 1.0;
  q.phase = phase_[idx] * drift;
  return q;
}

}  // namespace aspen::phot
