#pragma once
/// \file pcm_cell.hpp
/// Multilevel non-volatile PCM phase shifter on a waveguide (paper
/// Fig. 2a: PCM patch under a heater, providing a programmable
/// non-volatile optical phase shift):
///  - the device laws: write energy and time, amorphous-phase drift;
///  - `PcmCell`, one patch with crystalline fraction x in [0, 1]: the
///    phase / loss tradeoff set by the material's delta_n / delta_k,
///    multilevel programming (2^bits levels) and pulse *accumulation*
///    (partial SET per pulse, the integrate-and-fire mechanism of
///    Section 3's photonic SNN);
///  - `PcmPhaseMap`, the level grid the mesh quantizes phases to.

#include <cmath>
#include <vector>

#include "photonics/material.hpp"
#include "photonics/units.hpp"

namespace aspen::phot {

/// Energy of one multilevel write to crystalline fraction x: RESET to
/// amorphous, then a partial SET whose energy scales with the
/// crystallized volume fraction (the standard iterative scheme).
[[nodiscard]] inline double pcm_write_energy_j(double x, const PcmMaterial& m) {
  return m.reset_energy_j + x * m.set_energy_j;
}

/// Time of one multilevel write: the RESET pulse, then the SET pulse.
[[nodiscard]] inline double pcm_program_time_s(const PcmMaterial& m) {
  return m.reset_time_s + m.set_time_s;
}

/// Factor on the phase of a cell at fraction x, `t_s` seconds after its
/// write. Structural relaxation of the *amorphous* fraction perturbs the
/// net index contrast, 1 - nu * (1 - x) * ln(1 + t / t0): no drift when
/// fully crystalline, and none in phase when fully amorphous (its phase
/// is zero), so worst at intermediate levels, matching the multilevel
/// retention reported for PCM photonics.
[[nodiscard]] inline double pcm_drift_factor(double x, double t_s,
                                             const PcmMaterial& m) {
  return 1.0 - m.drift_nu * (1.0 - x) * std::log1p(t_s / m.drift_t0_s);
}

/// Geometry + programming parameters of one PCM patch.
struct PcmCellConfig {
  PcmMaterial material = make_gsst();
  double patch_length_m = 12e-6;  ///< PCM patch length along the waveguide.
  double confinement = 0.10;      ///< Modal overlap Gamma with the PCM film.
  double wavelength_m = kTelecomWavelength;
  int level_bits = 6;             ///< Programmable levels = 2^level_bits.
  double accumulation_step = 0.10;///< Delta-x per sub-switching SET pulse.
};

/// One programmable PCM patch. All phase values are radians *relative to
/// the fully amorphous state* (the natural zero of the device).
class PcmCell {
 public:
  explicit PcmCell(PcmCellConfig cfg = {});

  /// Phase shift contributed by crystalline fraction x (no drift).
  [[nodiscard]] double phase_of_fraction(double x) const;
  /// Field-amplitude transmission at fraction x (absorption from k_eff).
  [[nodiscard]] double amplitude_of_fraction(double x) const;
  /// Largest reachable phase shift (x = 1).
  [[nodiscard]] double max_phase() const { return phase_of_fraction(1.0); }

  /// Program to the quantized level nearest the requested fraction,
  /// paying pcm_write_energy_j.
  void program_fraction(double x);

  /// Partial crystallization by one sub-switching pulse scaled by
  /// `strength` (the SNN accumulation primitive). Saturates at x = 1.
  void accumulate(double strength = 1.0);
  /// Melt-quench back to fully amorphous (x = 0).
  void reset();

  /// Current field-amplitude transmission.
  [[nodiscard]] double amplitude() const;
  /// Raw state.
  [[nodiscard]] double fraction() const { return fraction_; }
  [[nodiscard]] int levels() const { return 1 << cfg_.level_bits; }
  [[nodiscard]] double energy_spent_j() const { return energy_spent_j_; }

 private:
  [[nodiscard]] double quantize_fraction(double x) const;

  PcmCellConfig cfg_;
  double fraction_ = 0.0;
  double energy_spent_j_ = 0.0;
};

/// Size the PCM patch so the fully crystalline state reaches `margin`
/// times 2*pi of phase shift at the given confinement — the geometry a
/// designer would pick for a full-range phase shifter in this material.
/// Low-FOM materials (GST) pay for the range with absorption; high-FOM
/// materials (GeSe) need a longer patch but stay transparent, which is
/// exactly the trade Section 3 of the paper discusses.
[[nodiscard]] PcmCellConfig pcm_config_for_two_pi(const PcmMaterial& material,
                                                  double confinement = 0.10,
                                                  double margin = 1.10,
                                                  int level_bits = 6);

/// Stateless precomputed map from target phase to the (achieved phase,
/// amplitude) of the nearest PCM level — used by the mesh simulator to
/// apply PCM quantization to thousands of phase shifters cheaply.
class PcmPhaseMap {
 public:
  explicit PcmPhaseMap(const PcmCellConfig& cfg);

  /// Quantize a requested phase (any real; wrapped into [0, 2pi)) to the
  /// nearest achievable level. Returns achieved phase and amplitude after
  /// `drift_time_s` of drift.
  struct Quantized {
    double phase;
    double amplitude;
  };
  [[nodiscard]] Quantized quantize(double phase_rad,
                                   double drift_time_s = 0.0) const;

  [[nodiscard]] int levels() const { return static_cast<int>(phase_.size()); }
  /// True when the device can reach a full 2*pi of phase.
  [[nodiscard]] bool covers_two_pi() const { return covers_two_pi_; }

 private:
  PcmCellConfig cfg_;
  std::vector<double> phase_;      ///< Per-level phase (no drift).
  std::vector<double> amplitude_;  ///< Per-level amplitude.
  std::vector<double> fraction_;   ///< Per-level crystalline fraction.
  bool covers_two_pi_ = false;
};

}  // namespace aspen::phot
