#include "photonics/modulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "photonics/units.hpp"

namespace aspen::phot {

Modulator::Modulator(ModulatorConfig cfg) : cfg_(cfg) {
  if (cfg_.dac_bits < 1 || cfg_.dac_bits > 24)
    throw std::invalid_argument("Modulator: dac_bits must be in [1, 24]");
  if (cfg_.rate_hz <= 0.0)
    throw std::invalid_argument("Modulator: non-positive rate");
  amp_loss_ = loss_db_to_amplitude(cfg_.insertion_loss_db);
  // Extinction ratio bounds the smallest achievable *power* ratio, so the
  // field floor is 10^(-ER/20).
  floor_amp_ = std::pow(10.0, -cfg_.extinction_ratio_db / 20.0);
  levels_ = static_cast<double>((1 << cfg_.dac_bits) - 1);
}

double Modulator::quantize(double value) const {
  const double v = std::clamp(value, -1.0, 1.0);
  // Signed midrise quantizer over [-1, 1] with 2^bits levels.
  return std::round((v + 1.0) / 2.0 * levels_) / levels_ * 2.0 - 1.0;
}

std::complex<double> Modulator::encode(double value) const {
  const double q = quantize(value);
  double mag = std::abs(q);
  // The modulator cannot fully extinguish the carrier.
  mag = std::max(mag, floor_amp_);
  const double sign = (q < 0.0) ? -1.0 : 1.0;
  return {sign * mag * amp_loss_, 0.0};
}

}  // namespace aspen::phot
