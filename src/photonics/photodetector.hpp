#pragma once
/// \file photodetector.hpp
/// Output read-out chain: photodetector (responsivity, shot noise, thermal
/// noise, dark current) followed by an ADC. Together with the modulator
/// this closes the electro-optic loop of the MVM engine and sets the
/// achievable end-to-end precision (ENOB) — the paper's platform quotes
/// >50 GHz detectors; the defaults here are conservative 10 GS/s values.

#include <complex>

namespace aspen::phot {

struct PhotodetectorConfig {
  double responsivity_a_per_w = 1.0;
  double bandwidth_hz = 10e9;
  double dark_current_a = 10e-9;
  /// Input-referred thermal (TIA) noise current density [A / sqrt(Hz)].
  double thermal_noise_a_per_sqrt_hz = 10e-12;
  double temperature_k = 300.0;
};

struct AdcConfig {
  int bits = 8;
  double full_scale_w = 1e-3;  ///< Optical power mapped to full scale.
  double rate_hz = 10e9;
  double energy_per_sample_j = 1e-12;
};

/// Direct (power) detection with physical noise.
class Photodetector {
 public:
  explicit Photodetector(PhotodetectorConfig cfg = {});

  /// Noise-free photocurrent (for calibration paths).
  [[nodiscard]] double ideal_current(double power_w) const;

  /// RMS noise current at the configured bandwidth for a given signal
  /// power (shot noise depends on the signal).
  [[nodiscard]] double noise_rms_a(double power_w) const;

  /// Signal-to-noise ratio (power ratio, not dB) at given optical power.
  [[nodiscard]] double snr(double power_w) const;

  [[nodiscard]] const PhotodetectorConfig& config() const { return cfg_; }

 private:
  PhotodetectorConfig cfg_;
};

/// Coherent (I/Q homodyne) read-out of a complex field amplitude, as
/// needed to recover *signed* MVM results. Field is expressed in
/// sqrt(W); both quadratures acquire the detector noise.
class CoherentReceiver {
 public:
  CoherentReceiver(PhotodetectorConfig pd, AdcConfig adc);

  /// Measure a complex field; returns the reconstructed complex amplitude
  /// after detection noise and ADC quantization of both quadratures. The
  /// caller supplies the noise as two standard normals, `n_i` for the
  /// in-phase and `n_q` for the quadrature photocurrent; each is scaled
  /// by noise_rms_a(full_scale / 2) of the detector.
  [[nodiscard]] std::complex<double> measure(std::complex<double> field,
                                             double n_i, double n_q) const;

  /// ADC quantization of a current given the full-scale mapping.
  [[nodiscard]] double quantize_current(double current_a) const;

  [[nodiscard]] double sample_time_s() const { return 1.0 / adc_.rate_hz; }
  [[nodiscard]] const AdcConfig& adc_config() const { return adc_; }
  [[nodiscard]] const PhotodetectorConfig& pd_config() const { return pd_; }

 private:
  PhotodetectorConfig pd_;
  AdcConfig adc_;
  Photodetector det_;
  double fs_field_;    ///< sqrt(full scale): the local-oscillator field
  double fs_current_;  ///< photocurrent at full scale
  double levels_;      ///< ADC codes minus one
  double field_scale_;  ///< quantized current (full scale 1) -> field
  double noise_a_;     ///< RMS noise current per quadrature
};

}  // namespace aspen::phot
