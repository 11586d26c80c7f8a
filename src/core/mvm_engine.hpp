#pragma once
/// \file mvm_engine.hpp
/// The photonic matrix-vector-multiplication engine — the paper's core
/// computing architecture (Section 4): "input vectors are encoded into
/// amplitude/phase of individual inputs ... and the multiplication
/// (weighting) matrix is encoded in the state of the programmable PS
/// blocks".
///
/// An arbitrary (non-unitary) N x N matrix W is realized as
///     W = U . diag(sigma) . V^dagger,   sigma normalized by sigma_max,
/// with V^dagger and U programmed onto two physical MZI meshes and the
/// singular values onto a column of amplitude attenuators. The full
/// electro-optic loop is modelled: input DAC + Mach-Zehnder modulators,
/// CW laser power budget (with RIN), lossy/imperfect meshes (optionally
/// PCM-quantized non-volatile weights), coherent receivers with shot and
/// thermal noise, and output ADCs. A one-time scalar calibration (gain +
/// reference phase) recovers W-units from the measured fields, exactly as
/// a real system would calibrate against known test vectors.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lina/complex_matrix.hpp"
#include "lina/random.hpp"
#include "lina/svd.hpp"
#include "mesh/analysis.hpp"
#include "photonics/laser.hpp"
#include "photonics/modulator.hpp"
#include "photonics/pcm_cell.hpp"
#include "photonics/phase_shifter.hpp"
#include "photonics/photodetector.hpp"

namespace aspen::core {

/// Weight-holding technology for the mesh phase shifters.
enum class WeightTechnology {
  kThermoOptic,  ///< volatile heaters: exact phases, static holding power
  kPcm,          ///< non-volatile multilevel PCM: quantized, zero hold power
};

struct MvmConfig {
  std::size_t ports = 8;
  mesh::Architecture architecture = mesh::Architecture::kClements;
  mesh::MeshErrorModel errors;  ///< fabrication die model (both meshes)
  WeightTechnology weights = WeightTechnology::kThermoOptic;
  phot::PcmCellConfig pcm = phot::pcm_config_for_two_pi(phot::make_gese());
  /// Drift time applied to PCM weights (seconds since programming).
  double pcm_drift_time_s = 0.0;
  /// Error-aware in-situ recalibration after programming.
  bool recalibrate = false;

  phot::ModulatorConfig modulator;
  phot::PhotodetectorConfig detector;
  phot::AdcConfig adc;
  phot::CwLaserConfig laser;
  /// Thermo-optic heater parameters (for the energy model).
  phot::ThermoOpticConfig thermo;

  std::uint64_t noise_seed = 0x5eedULL;
};

/// Cumulative operation counters for energy/latency reporting.
struct MvmCounters {
  std::uint64_t mvm_ops = 0;       ///< vectors pushed through the mesh
  std::uint64_t program_ops = 0;   ///< weight (re)programming events
  double busy_time_s = 0.0;        ///< optical/electrical symbol time
  double weight_write_energy_j = 0.0;
};

class MvmEngine {
 public:
  explicit MvmEngine(MvmConfig cfg);

  /// Program an arbitrary N x N matrix (real matrices: zero imaginary
  /// parts). Throws std::invalid_argument on shape mismatch.
  void set_matrix(const lina::CMat& w);
  [[nodiscard]] const lina::CMat& matrix() const { return weight_; }

  /// End-to-end photonic multiply: encode -> propagate -> detect ->
  /// rescale. Input entries must satisfy |x_i| <= 1 (the modulator range);
  /// the engine does not rescale inputs implicitly.
  [[nodiscard]] lina::CVec multiply(const lina::CVec& x);

  /// Batched end-to-end multiply: every column of `x` (ports x M) is one
  /// symbol pushed through the mesh. Propagation of the whole block is a
  /// single matrix-matrix product on the cached physical transfer, and
  /// encode/detect run allocation-free on reused scratch. Noise draws
  /// (per-symbol RIN, per-sample detection) are consumed in exactly the
  /// same order as the equivalent multiply() loop, so results agree with
  /// it up to floating-point reassociation.
  [[nodiscard]] lina::CMat multiply_batch(const lina::CMat& x);

  /// Real-vector convenience wrapper (returns real parts).
  [[nodiscard]] std::vector<double> multiply_real(
      const std::vector<double>& x);

  /// Deterministic device-error-only result (no shot/RIN/ADC noise):
  /// isolates systematic from stochastic error in the analyses.
  [[nodiscard]] lina::CVec multiply_noiseless(const lina::CVec& x) const;
  /// Allocation-free variant writing into `out` (identical values; the
  /// memory-mapped accelerator's deterministic path streams tiles
  /// through this without per-column heap churn).
  void multiply_noiseless_into(const lina::CVec& x, lina::CVec& out) const;
  /// Whole-tile noiseless evaluation as one matrix product. Accumulation
  /// order matches the per-column path (k-major), but the final rescale
  /// multiplies by one shared reciprocal instead of dividing per
  /// element, so results agree with multiply_noiseless() to ~1 ulp —
  /// compare with a tolerance, not bitwise.
  void multiply_noiseless_batch_into(const lina::CMat& x,
                                     lina::CMat& out) const;

  // -- Lower-level stages (used by the WDM GeMM scheduler) --------------
  /// DAC + modulator encoding into field amplitudes (per-port).
  [[nodiscard]] lina::CVec encode(const lina::CVec& x) const;
  /// Propagate encoded fields through the programmed optical path.
  [[nodiscard]] lina::CVec propagate_fields(const lina::CVec& fields) const;
  /// Coherent detection + ADC of output fields, in field units.
  [[nodiscard]] lina::CVec detect(const lina::CVec& fields);
  /// Undo the calibrated system gain: measured field -> W-units output.
  [[nodiscard]] lina::CVec rescale(const lina::CVec& detected) const;

  // -- Batched stages (used by multiply_batch and the WDM GeMM core) -----
  /// Encode `count` columns of `x` starting at `first` into field
  /// amplitudes; writes a ports x count block into `fields` (storage
  /// reused, no allocation once warm).
  void encode_batch(const lina::CMat& x, std::size_t first,
                    std::size_t count, lina::CMat& fields) const;
  /// Coherent detection + ADC of a block of output fields, in place
  /// (column-major draw order: one symbol after another, matching the
  /// per-vector detect()).
  void detect_batch(lina::CMat& fields);
  /// Undo the calibrated system gain on a detected block, in place.
  void rescale_batch(lina::CMat& detected) const;

  /// Physical (lossy, imperfect) transfer of the whole optical path in
  /// field units, including the sqrt(P_laser / N) launch scale.
  [[nodiscard]] const lina::CMat& physical_transfer() const { return t_phys_; }
  /// Calibrated complex system gain c: T_phys ~= c * W.
  [[nodiscard]] lina::cplx system_gain() const { return gain_; }

  /// Advance the PCM drift clock (no-op for thermo-optic weights). The
  /// system gain calibration is *not* redone: drift error accrues exactly
  /// as it would on hardware between recalibrations.
  void set_pcm_drift_time(double seconds);

  /// Physical transfer seen by a carrier detuned `nm` from the design
  /// wavelength (coupler dispersion). The engine's own state (and its
  /// calibration) stays at the design wavelength — DWDM side channels are
  /// the uncalibrated ones, exactly as on hardware. Detuning is passed
  /// straight through to the mesh evaluation; nothing is mutated.
  [[nodiscard]] lina::CMat transfer_at_detuning(double nm) const;

  /// Total programmable phases across both meshes (fault-injection
  /// surface of the photonic configuration state).
  [[nodiscard]] std::size_t phase_state_size() const;
  /// Additively perturb one programmed phase (index over mesh V then
  /// mesh U) and rebuild the transfer *without* recalibrating — models a
  /// configuration upset in the field.
  void perturb_phase(std::size_t index, double delta_rad);

  /// Time to push one vector (symbol period limited by the slower of the
  /// modulator and ADC; propagation latency is sub-symbol at these sizes).
  [[nodiscard]] double symbol_time_s() const;
  /// Static power drawn while holding the current weights [W].
  [[nodiscard]] double holding_power_w() const;
  /// Time to (re)program the weights once [s].
  [[nodiscard]] double program_time_s() const;

  [[nodiscard]] const MvmCounters& counters() const { return counters_; }
  /// Count vectors pushed through the mesh on paths that do not count
  /// them themselves: the batched stages and the noiseless multiplies,
  /// as GemmCore's physical and noiseless paths drive them.
  void count_mvm_ops(std::uint64_t vectors) { counters_.mvm_ops += vectors; }
  [[nodiscard]] const MvmConfig& config() const { return cfg_; }
  /// Fidelity achieved by the last set_matrix (physical vs target shape).
  [[nodiscard]] double programming_fidelity() const { return fidelity_; }
  /// Worst-path optical insertion loss of the full path [dB].
  [[nodiscard]] double insertion_loss_db() const;

  // -- Snapshot / restore -------------------------------------------------
  /// Complete mutable engine state: mesh programs, calibrated transfer,
  /// noise-stream position and cost counters. The decomposition memo is
  /// a pure cache and deliberately excluded — it survives restore, which
  /// is exactly what makes repeated fault-campaign trials cheap.
  struct Snapshot {
    mesh::PhysicalMesh::Snapshot mesh_u, mesh_v;
    lina::CMat weight;
    lina::SvdResult svd;
    std::vector<double> attenuation;
    double sigma_max = 1.0;
    lina::CMat t_phys;
    lina::cplx gain{1.0, 0.0};
    double fidelity = 0.0;
    double pcm_drift_time_s = 0.0;
    lina::Rng rng;
    MvmCounters counters;
    bool weights_clean = false;
  };
  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& s);
  /// True when restore(s) cannot throw: equal mesh phase counts.
  [[nodiscard]] bool fits(const Snapshot& s) const {
    return s.mesh_u.phases.size() == mesh_u_->phase_count() &&
           s.mesh_v.phases.size() == mesh_v_->phase_count();
  }

 private:
  void refresh_transfer();
  void rebuild_physical_transfer();
  /// out = T_u * diag(attenuation) * T_v, composed without temporaries
  /// beyond the reusable scratch.
  void compose_path_into(const lina::CMat& tu, const lina::CMat& tv,
                         lina::CMat& out) const;
  /// Weight-write cost bookkeeping shared by the full, memoized and
  /// unchanged-weights set_matrix paths (hardware pays the write either
  /// way; only the host-side math is skipped).
  void account_programming();

  /// Memoized pure weight-programming math, keyed by the exact weight
  /// bytes: the SVD plus the final per-mesh phase programs (after any
  /// recalibration) and the attenuator settings. A hit skips the
  /// decomposition entirely; reprogramming from the cached phases is
  /// bit-identical to the recomputed path. Per-engine and therefore
  /// thread-private (campaign workers never share engines).
  struct ProgramMemo {
    std::vector<lina::cplx> key;
    lina::SvdResult svd;
    double sigma_max = 0.0;
    std::vector<double> attenuation;
    std::vector<double> phases_u, phases_v;
  };
  static constexpr std::size_t kProgramMemoCap = 8;

  MvmConfig cfg_;
  lina::Rng rng_;
  lina::CMat weight_;
  lina::SvdResult svd_;
  std::unique_ptr<mesh::PhysicalMesh> mesh_u_;
  std::unique_ptr<mesh::PhysicalMesh> mesh_v_;
  std::vector<double> attenuation_;  ///< per-port sigma / sigma_max
  double sigma_max_ = 1.0;
  lina::CMat t_phys_;
  lina::cplx gain_{1.0, 0.0};
  double fidelity_ = 0.0;
  phot::Modulator modulator_;
  phot::CoherentReceiver receiver_;
  phot::CwLaser laser_;
  MvmCounters counters_;
  mutable lina::CMat scratch_path_;  ///< compose_path_into scratch
  lina::CMat batch_fields_;          ///< multiply_batch encode scratch
  mutable lina::CVec scratch_noiseless_;  ///< multiply_noiseless_into fields
  mutable lina::CMat scratch_noiseless_batch_;  ///< batch variant fields
  std::vector<ProgramMemo> program_memo_;  ///< MRU-ordered, capped
  /// True while the meshes hold exactly what the last set_matrix
  /// programmed (no phase perturbation / drift advance since): lets
  /// set_matrix of the identical matrix reduce to cost accounting.
  bool weights_clean_ = false;
  lina::SvdWorkspace svd_ws_;
  mesh::ProgramScratch program_scratch_;
};

}  // namespace aspen::core
