#pragma once
/// \file units.hpp
/// Physical constants and unit helpers. ASPEN uses SI internally
/// (meters, seconds, watts, joules); helpers convert at the boundaries.

#include <cmath>

namespace aspen::phot {

/// Speed of light in vacuum [m/s].
inline constexpr double kSpeedOfLight = 2.99792458e8;
/// Planck constant [J*s].
inline constexpr double kPlanck = 6.62607015e-34;
/// Elementary charge [C].
inline constexpr double kElementaryCharge = 1.602176634e-19;
/// Boltzmann constant [J/K].
inline constexpr double kBoltzmann = 1.380649e-23;
/// Standard telecom C-band wavelength used throughout the paper [m].
inline constexpr double kTelecomWavelength = 1550e-9;
/// pi and 2 pi, the doubles nearest each.
inline constexpr double kPi = 3.141592653589793238462643383280;
inline constexpr double kTwoPi = 2.0 * kPi;

/// Phase wrapped into [0, 2 pi) (a phase shifter's programmable range).
[[nodiscard]] inline double wrap_phase(double phase_rad) {
  const double p = std::fmod(phase_rad, kTwoPi);
  return p < 0.0 ? p + kTwoPi : p;
}

/// Photon energy at a given vacuum wavelength [J].
[[nodiscard]] inline double photon_energy(double wavelength_m) {
  return kPlanck * kSpeedOfLight / wavelength_m;
}

/// Power conversions. dBm is referenced to 1 mW.
[[nodiscard]] inline double dbm_to_watt(double dbm) {
  return 1e-3 * std::pow(10.0, dbm / 10.0);
}
[[nodiscard]] inline double watt_to_dbm(double watt) {
  return 10.0 * std::log10(watt / 1e-3);
}

/// Field-amplitude <-> power-ratio conversions in dB.
[[nodiscard]] inline double db_to_power_ratio(double db) {
  return std::pow(10.0, db / 10.0);
}
[[nodiscard]] inline double power_ratio_to_db(double ratio) {
  return 10.0 * std::log10(ratio);
}
/// Amplitude transmission for a given (positive) power loss in dB.
[[nodiscard]] inline double loss_db_to_amplitude(double loss_db) {
  return std::pow(10.0, -loss_db / 20.0);
}

}  // namespace aspen::phot
