#include "photonics/laser.hpp"

#include <cmath>
#include <stdexcept>

namespace aspen::phot {

CwLaser::CwLaser(CwLaserConfig cfg) : cfg_(cfg) {
  if (cfg_.power_w <= 0.0 || cfg_.wall_plug_efficiency <= 0.0)
    throw std::invalid_argument("CwLaser: non-positive power/efficiency");
  // RIN integrates to a relative power variance: sigma_rel^2 = RIN * B.
  const double rel_var =
      std::pow(10.0, cfg_.rin_db_per_hz / 10.0) * cfg_.bandwidth_hz;
  rin_rms_w_ = cfg_.power_w * std::sqrt(rel_var);
}

double CwLaser::sample_power(double n) const {
  const double p = cfg_.power_w + rin_rms_w_ * n;
  return p > 0.0 ? p : 0.0;
}

YamadaNeuron::YamadaNeuron(YamadaConfig cfg) : cfg_(cfg) {
  if (cfg_.dt <= 0.0) throw std::invalid_argument("YamadaNeuron: dt <= 0");
  reset();
}

void YamadaNeuron::reset() {
  // Start at the quiescent (off) fixed point.
  g_ = cfg_.big_a;
  q_ = cfg_.big_b;
  i_ = cfg_.eps;
  t_ = 0.0;
  armed_ = true;
  spiked_ = false;
}

double YamadaNeuron::step(double injection) {
  const double inj = injection > 0.0 ? injection : 0.0;
  const auto deriv = [&](double g, double q, double i, double& dg, double& dq,
                         double& di) {
    dg = cfg_.gamma_g * (cfg_.big_a - g - g * i);
    dq = cfg_.gamma_q * (cfg_.big_b - q - cfg_.a * q * i);
    di = (g - q - 1.0) * i + cfg_.eps + inj;
  };

  double k1g, k1q, k1i, k2g, k2q, k2i, k3g, k3q, k3i, k4g, k4q, k4i;
  const double h = cfg_.dt;
  deriv(g_, q_, i_, k1g, k1q, k1i);
  deriv(g_ + 0.5 * h * k1g, q_ + 0.5 * h * k1q, i_ + 0.5 * h * k1i, k2g, k2q,
        k2i);
  deriv(g_ + 0.5 * h * k2g, q_ + 0.5 * h * k2q, i_ + 0.5 * h * k2i, k3g, k3q,
        k3i);
  deriv(g_ + h * k3g, q_ + h * k3q, i_ + h * k3i, k4g, k4q, k4i);

  g_ += h / 6.0 * (k1g + 2.0 * k2g + 2.0 * k3g + k4g);
  q_ += h / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q);
  i_ += h / 6.0 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i);
  if (i_ < 0.0) i_ = 0.0;
  t_ += h;

  // Edge-triggered spike detection with hysteresis.
  spiked_ = false;
  if (armed_ && i_ > cfg_.spike_threshold) {
    spiked_ = true;
    armed_ = false;
  } else if (!armed_ && i_ < 0.5 * cfg_.spike_threshold) {
    armed_ = true;
  }
  return i_;
}

std::vector<double> YamadaNeuron::run(std::size_t steps,
                                      const std::vector<double>& injection) {
  std::vector<double> trace(steps);
  for (std::size_t k = 0; k < steps; ++k) {
    const double inj = k < injection.size() ? injection[k] : 0.0;
    trace[k] = step(inj);
  }
  return trace;
}

}  // namespace aspen::phot
