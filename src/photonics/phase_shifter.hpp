#pragma once
/// \file phase_shifter.hpp
/// Laws of the volatile thermo-optic phase shifter (SOI baseline): a
/// metal heater whose phase is linear in electrical power, so it burns
/// static power to *hold* a phase (Section 3). The non-volatile PCM
/// shifter's laws are in pcm_cell.hpp; the energy-crossover experiment E4
/// compares the two.

#include <stdexcept>

#include "photonics/units.hpp"

namespace aspen::phot {

/// Thermo-optic heater parameters (typical SOI metal heater).
struct ThermoOpticConfig {
  double p_pi_w = 20e-3;           ///< Electrical power for a pi shift.
  double response_time_s = 10e-6;  ///< Settling time of one program step.
};

/// Throws std::invalid_argument unless p_pi_w > 0 and response_time_s
/// >= 0: the laws below would price a write or a hold below zero.
inline void check_thermo_optic_config(const ThermoOpticConfig& t) {
  if (t.p_pi_w <= 0.0)
    throw std::invalid_argument("ThermoOpticConfig: p_pi_w <= 0");
  if (t.response_time_s < 0.0)
    throw std::invalid_argument("ThermoOpticConfig: response_time_s < 0");
}

/// Power that holds a heater at `phase_rad`, wrapped into [0, 2 pi):
/// (phi / pi) * P_pi. Over phases uniform in [0, 2 pi) its mean is the
/// law at phi = pi, P_pi.
[[nodiscard]] inline double heater_power_w(double phase_rad,
                                           const ThermoOpticConfig& t) {
  return wrap_phase(phase_rad) / kPi * t.p_pi_w;
}

/// Energy of `phases` heater program steps at phases uniform in
/// [0, 2 pi): a linear ramp to the new holding power over one response
/// time costs 0.5 * P(phi) * tau, so 0.5 * P_pi * tau on average.
[[nodiscard]] inline double thermo_write_energy_j(double phases,
                                                  const ThermoOpticConfig& t) {
  return phases * (0.5 * t.p_pi_w) * t.response_time_s;
}

}  // namespace aspen::phot
