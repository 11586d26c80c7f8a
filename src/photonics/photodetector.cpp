#include "photonics/photodetector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "photonics/units.hpp"

namespace aspen::phot {

Photodetector::Photodetector(PhotodetectorConfig cfg) : cfg_(cfg) {
  if (cfg_.responsivity_a_per_w <= 0.0 || cfg_.bandwidth_hz <= 0.0)
    throw std::invalid_argument("Photodetector: non-positive parameter");
}

double Photodetector::ideal_current(double power_w) const {
  return cfg_.responsivity_a_per_w * std::max(power_w, 0.0) +
         cfg_.dark_current_a;
}

double Photodetector::noise_rms_a(double power_w) const {
  const double i = ideal_current(power_w);
  const double shot_var = 2.0 * kElementaryCharge * i * cfg_.bandwidth_hz;
  const double th = cfg_.thermal_noise_a_per_sqrt_hz;
  const double thermal_var = th * th * cfg_.bandwidth_hz;
  return std::sqrt(shot_var + thermal_var);
}

double Photodetector::snr(double power_w) const {
  const double sig = cfg_.responsivity_a_per_w * std::max(power_w, 0.0);
  const double n = noise_rms_a(power_w);
  if (n <= 0.0) return 1e300;
  return (sig * sig) / (n * n);
}

CoherentReceiver::CoherentReceiver(PhotodetectorConfig pd, AdcConfig adc)
    : pd_(pd), adc_(adc), det_(pd) {
  if (adc_.bits < 1 || adc_.bits > 24)
    throw std::invalid_argument("CoherentReceiver: adc bits out of range");
  if (adc_.full_scale_w <= 0.0)
    throw std::invalid_argument("CoherentReceiver: full_scale_w <= 0");
  fs_field_ = std::sqrt(adc_.full_scale_w);
  fs_current_ = pd_.responsivity_a_per_w * adc_.full_scale_w;
  levels_ = static_cast<double>((1 << adc_.bits) - 1);
  field_scale_ = fs_current_ / (pd_.responsivity_a_per_w * fs_field_);
  // Balanced homodyne: shot noise is set by the local-oscillator-dominated
  // level (approximated by half of full scale) plus thermal noise; dark
  // current cancels in the balanced pair.
  noise_a_ = det_.noise_rms_a(adc_.full_scale_w * 0.5);
}

double CoherentReceiver::quantize_current(double current_a) const {
  const double v = std::clamp(current_a / fs_current_, -1.0, 1.0);
  return std::round((v + 1.0) / 2.0 * levels_) / levels_ * 2.0 - 1.0;
}

std::complex<double> CoherentReceiver::measure(std::complex<double> field,
                                               double n_i, double n_q) const {
  // Each quadrature produces a signed photocurrent proportional to the
  // field component (~ R * E * E_LO) plus its noise.
  const double r = pd_.responsivity_a_per_w;
  const double re =
      quantize_current(r * field.real() * fs_field_ + noise_a_ * n_i);
  const double im =
      quantize_current(r * field.imag() * fs_field_ + noise_a_ * n_q);
  return {re * field_scale_, im * field_scale_};
}

}  // namespace aspen::phot
