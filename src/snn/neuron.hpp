#pragma once
/// \file neuron.hpp
/// Photonic spiking neurons:
///  - `PcmNeuron`: accumulate-and-fire via PCM pulse accumulation (paper
///    Section 3 "accumulation behavior of PCM-based devices to optical
///    pulses"; Feldmann 2019's integrate-and-fire cell). Non-leaky —
///    the state is non-volatile between pulses.
///  - `YamadaSpikingNeuron`: excitable Q-switched laser neuron driven by
///    optical pulse injections (the III-V spiking source of Section 3),
///    wrapping the Yamada rate equations with physical time scaling.

#include "photonics/laser.hpp"
#include "photonics/pcm_cell.hpp"

namespace aspen::snn {

struct PcmNeuronConfig {
  phot::PcmCellConfig cell;
  /// Crystalline fraction at which the probe branch flips and the neuron
  /// emits an output spike.
  double threshold_fraction = 0.75;
  /// Scale from summed weighted input (in [0, 1] units) to accumulation
  /// strength per pulse slot.
  double integration_gain = 1.0;
  double refractory_s = 20e-9;
  /// Homeostatic threshold adaptation: each output spike raises the
  /// effective threshold by `adaptation_delta`, which then decays with
  /// time constant `adaptation_tau_s`. Keeps any one neuron from
  /// monopolizing a winner-take-all population (0 disables).
  double adaptation_delta = 0.0;
  double adaptation_tau_s = 400e-9;
};

class PcmNeuron {
 public:
  explicit PcmNeuron(PcmNeuronConfig cfg = {});

  /// Deliver the summed weighted optical input of one pulse slot at time
  /// `now`; returns true if the neuron fires (and resets).
  bool inject(double weighted_sum, double now_s);

  /// Would `inject` fire, without changing state? Used by winner-take-all
  /// arbitration to order firing within a pulse slot.
  [[nodiscard]] bool would_fire(double weighted_sum, double now_s) const;
  /// Predicted membrane after such an injection (no state change).
  [[nodiscard]] double predicted_membrane(double weighted_sum) const;

  [[nodiscard]] double membrane() const { return cell_.fraction(); }
  /// Effective threshold right now (base + decayed adaptation).
  [[nodiscard]] double threshold(double now_s) const;
  [[nodiscard]] double base_threshold() const {
    return cfg_.threshold_fraction;
  }
  [[nodiscard]] double last_spike_time() const { return last_spike_s_; }
  [[nodiscard]] std::uint64_t spike_count() const { return spikes_; }
  /// Total energy spent on accumulation + reset writes.
  [[nodiscard]] double energy_j() const { return cell_.energy_spent_j(); }

  /// Apply lateral inhibition: partially amorphize the membrane.
  void inhibit(double amount);

 private:
  PcmNeuronConfig cfg_;
  phot::PcmCell cell_;
  double last_spike_s_ = -1e300;
  std::uint64_t spikes_ = 0;
  double adapt_ = 0.0;           ///< adaptation level at adapt_time_
  double adapt_time_s_ = 0.0;
};

/// Excitable-laser neuron with physical time conversion: the Yamada model
/// runs in cavity-lifetime units; `time_unit_s` converts to seconds
/// (~0.1-1 ns for III-V on SOI lasers).
struct YamadaSpikingConfig {
  phot::YamadaConfig model;
  double time_unit_s = 0.2e-9;
  double injection_gain = 0.3;  ///< optical input to injection conversion
};

class YamadaSpikingNeuron {
 public:
  explicit YamadaSpikingNeuron(YamadaSpikingConfig cfg = {});

  /// Advance to absolute time `until_s`, applying `input` as a constant
  /// injection over the interval; records spike times.
  void advance(double until_s, double input = 0.0);

  [[nodiscard]] const std::vector<double>& spike_times() const {
    return spikes_;
  }
  [[nodiscard]] double intensity() const { return neuron_.intensity(); }
  [[nodiscard]] double now() const { return now_s_; }
  void reset();

 private:
  YamadaSpikingConfig cfg_;
  phot::YamadaNeuron neuron_;
  std::vector<double> spikes_;
  double now_s_ = 0.0;
};

}  // namespace aspen::snn
