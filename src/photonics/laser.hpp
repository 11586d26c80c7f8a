#pragma once
/// \file laser.hpp
/// Light sources for the augmented platform (paper Sections 2-3): the
/// III-V materials co-integrated on SOI enable on-chip lasers. Two models:
///
///  - `CwLaser` — continuous-wave pump/carrier source with wall-plug
///    efficiency and relative intensity noise (RIN), feeding the MVM mesh.
///  - `YamadaNeuron` — Q-switched gain + saturable-absorber laser in the
///    excitable regime (Yamada rate equations), the "chipscale excitable
///    spiking source" of Section 3. Sub-threshold optical perturbations
///    decay; supra-threshold ones fire a large calibrated pulse followed
///    by a refractory period — the photonic spiking neuron primitive.

#include <vector>

namespace aspen::phot {

struct CwLaserConfig {
  double power_w = 10e-3;          ///< Optical output power.
  double wall_plug_efficiency = 0.10;
  double rin_db_per_hz = -150.0;   ///< Relative intensity noise.
  double bandwidth_hz = 10e9;      ///< Noise integration bandwidth.
};

/// Electrical (wall-plug) power drawn by `lasers` CW sources: P / eta
/// each.
[[nodiscard]] inline double wall_plug_power_w(double lasers,
                                              const CwLaserConfig& c) {
  return lasers * c.power_w / c.wall_plug_efficiency;
}

/// CW source: optical power with RIN fluctuations.
class CwLaser {
 public:
  explicit CwLaser(CwLaserConfig cfg = {});

  /// Instantaneous emitted power [W] for a RIN draw `n`, a standard
  /// normal: mean power plus n * rin_rms_w(), floored at 0.
  [[nodiscard]] double sample_power(double n) const;
  [[nodiscard]] double mean_power_w() const { return cfg_.power_w; }
  /// RMS of the RIN-induced power fluctuation [W].
  [[nodiscard]] double rin_rms_w() const { return rin_rms_w_; }
  [[nodiscard]] const CwLaserConfig& config() const { return cfg_; }

 private:
  CwLaserConfig cfg_;
  double rin_rms_w_;
};

/// Yamada rate equations (dimensionless, time in cavity-lifetime units):
///   dG/dt = gamma_g (A - G - G I)
///   dQ/dt = gamma_q (B - Q - a Q I)
///   dI/dt = (G - Q - 1) I + eps + injection(t)
/// Excitable when the off fixed point (I ~ 0, G ~ A, Q ~ B) is stable,
/// i.e. A - B < 1, with A large enough that a perturbation tips the net
/// gain above loss.
struct YamadaConfig {
  double big_a = 4.3;     ///< Pump (gain bias).
  double big_b = 3.52;    ///< Absorber bias.
  double a = 1.8;         ///< Differential absorption ratio.
  double gamma_g = 0.05;  ///< Gain relaxation rate.
  double gamma_q = 0.05;  ///< Absorber relaxation rate.
  double eps = 1e-9;      ///< Spontaneous-emission floor.
  double dt = 0.01;       ///< RK4 step (dimensionless time).
  double spike_threshold = 1.0;  ///< Intensity level that counts as a spike.
};

class YamadaNeuron {
 public:
  explicit YamadaNeuron(YamadaConfig cfg = {});

  /// Advance one RK4 step with the given optical injection (>= 0) held
  /// constant across the step. Returns the new intensity.
  double step(double injection = 0.0);

  /// Run for `steps` steps with per-step injection values (zero-padded);
  /// returns the intensity trace.
  [[nodiscard]] std::vector<double> run(std::size_t steps,
                                        const std::vector<double>& injection = {});

  /// True on the step where intensity first rises through the spike
  /// threshold (edge-triggered; rearms after falling below threshold/2).
  [[nodiscard]] bool spiked() const { return spiked_; }

  void reset();

  [[nodiscard]] double gain() const { return g_; }
  [[nodiscard]] double absorber() const { return q_; }
  [[nodiscard]] double intensity() const { return i_; }
  [[nodiscard]] double time() const { return t_; }
  [[nodiscard]] const YamadaConfig& config() const { return cfg_; }

 private:
  YamadaConfig cfg_;
  double g_, q_, i_, t_ = 0.0;
  bool armed_ = true;
  bool spiked_ = false;
};

}  // namespace aspen::phot
