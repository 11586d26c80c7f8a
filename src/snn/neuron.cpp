#include "snn/neuron.hpp"

#include <algorithm>
#include <cmath>

namespace aspen::snn {

PcmNeuron::PcmNeuron(PcmNeuronConfig cfg) : cfg_(cfg), cell_(cfg.cell) {}

double PcmNeuron::threshold(double now_s) const {
  if (cfg_.adaptation_delta <= 0.0) return cfg_.threshold_fraction;
  const double dt = now_s - adapt_time_s_;
  const double decayed =
      dt > 0.0 ? adapt_ * std::exp(-dt / cfg_.adaptation_tau_s) : adapt_;
  return cfg_.threshold_fraction + decayed;
}

double PcmNeuron::predicted_membrane(double weighted_sum) const {
  if (weighted_sum <= 0.0) return cell_.fraction();
  return std::min(1.0, cell_.fraction() +
                           cfg_.cell.accumulation_step *
                               cfg_.integration_gain * weighted_sum);
}

bool PcmNeuron::would_fire(double weighted_sum, double now_s) const {
  if (now_s - last_spike_s_ < cfg_.refractory_s) return false;
  if (weighted_sum <= 0.0) return false;
  return predicted_membrane(weighted_sum) >= threshold(now_s);
}

bool PcmNeuron::inject(double weighted_sum, double now_s) {
  if (now_s - last_spike_s_ < cfg_.refractory_s) return false;
  if (weighted_sum <= 0.0) return false;
  cell_.accumulate(cfg_.integration_gain * weighted_sum);
  if (cell_.fraction() >= threshold(now_s)) {
    cell_.reset();  // melt-quench back to amorphous
    last_spike_s_ = now_s;
    ++spikes_;
    if (cfg_.adaptation_delta > 0.0) {
      // Fold the decayed adaptation forward, then bump it.
      adapt_ = threshold(now_s) - cfg_.threshold_fraction +
               cfg_.adaptation_delta;
      adapt_time_s_ = now_s;
    }
    return true;
  }
  return false;
}

void PcmNeuron::inhibit(double amount) {
  // Partial amorphization pulls the membrane away from threshold.
  const double target =
      std::max(0.0, cell_.fraction() - std::abs(amount));
  cell_.program_fraction(target);
}

YamadaSpikingNeuron::YamadaSpikingNeuron(YamadaSpikingConfig cfg)
    : cfg_(cfg), neuron_(cfg.model) {}

void YamadaSpikingNeuron::advance(double until_s, double input) {
  const double dt_s = cfg_.model.dt * cfg_.time_unit_s;
  while (now_s_ + dt_s <= until_s) {
    (void)neuron_.step(cfg_.injection_gain * input);
    now_s_ += dt_s;
    if (neuron_.spiked()) spikes_.push_back(now_s_);
  }
}

void YamadaSpikingNeuron::reset() {
  neuron_.reset();
  spikes_.clear();
  now_s_ = 0.0;
}

}  // namespace aspen::snn
