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
  /// Thermo-optic heater parameters: the holding power and write cost
  /// of thermo-optic weights. The mesh takes its thermal crosstalk from
  /// `errors.thermal_crosstalk` and its shifter loss from
  /// `errors.ps_loss_db`.
  phot::ThermoOpticConfig thermo;

  std::uint64_t noise_seed = 0x5eedULL;
};

/// Energy of writing `phases` weight phases (mesh phases and attenuator
/// settings) once in cfg's technology, at the mean over uniformly
/// distributed phases or levels [J]: the engine charges it per
/// set_matrix and evaluate_accelerator per reprogram.
[[nodiscard]] double weight_write_energy_j(const MvmConfig& cfg,
                                           double phases);
/// Time to (re)program the weights once in cfg's technology [s].
[[nodiscard]] double weight_program_time_s(const MvmConfig& cfg);

/// Cumulative operation counters for energy/latency reporting.
struct MvmCounters {
  std::uint64_t mvm_ops = 0;       ///< vectors pushed through the mesh
  std::uint64_t program_ops = 0;   ///< weight (re)programming events
  double busy_time_s = 0.0;        ///< optical/electrical symbol time
  double weight_write_energy_j = 0.0;
};

/// Host-side effectiveness of the weight-programming memo. A pure-cache
/// diagnostic: not part of the engine's snapshot.
struct ProgramMemoStats {
  std::uint64_t hits = 0;       ///< set_matrix calls served from the memo
  std::uint64_t misses = 0;     ///< set_matrix calls that ran the SVD
  std::uint64_t evictions = 0;  ///< entries dropped to fit the byte budget
  std::size_t entries = 0;      ///< entries held now
  std::size_t bytes = 0;        ///< bytes those entries account for
};

class MvmEngine {
 public:
  explicit MvmEngine(MvmConfig cfg);

  /// Program an arbitrary N x N matrix (real matrices: zero imaginary
  /// parts). Throws std::invalid_argument on shape mismatch.
  void set_matrix(const lina::CMat& w);
  [[nodiscard]] const lina::CMat& matrix() const { return weight_; }

  /// End-to-end photonic multiply of one vector: the batched stages on a
  /// one-column block, as symbol counters().mvm_ops. The real parts drive
  /// the in-phase arms and the imaginary parts the quadrature arms
  /// (arm_field), then propagate_batch, detect_batch (laser RIN and
  /// detector noise) and rescale_batch. Input entries must satisfy
  /// |x_i| <= 1 (the modulator range); the engine does not rescale inputs
  /// implicitly. Throws std::invalid_argument unless x has one entry per
  /// port.
  [[nodiscard]] lina::CVec multiply(const lina::CVec& x);

  /// Deterministic device-error-only result (no shot/RIN/ADC noise):
  /// isolates systematic from stochastic error in the analyses.
  [[nodiscard]] lina::CVec multiply_noiseless(const lina::CVec& x) const;
  /// Whole-tile noiseless evaluation of a real input tile: `x` holds
  /// ports x `cols` real entries stored port by port (entry (k, j) at
  /// x[k * cols + j]); the real and imaginary output parts land in `re`
  /// and `im` in the same layout. Bit-identical to the complex product
  /// T_phys * (launch * x + 0i) followed by one multiply with the shared
  /// reciprocal of the rescale: the imaginary input terms it drops are
  /// exact zeros, and the k sum runs in the same increasing order.
  /// Against the per-vector multiply_noiseless(), which divides per
  /// element, results agree to ~1 ulp — compare with a tolerance, not
  /// bitwise. Throws std::invalid_argument unless x.size() is
  /// ports * cols.
  void multiply_noiseless_batch_into(const std::vector<double>& x,
                                     std::size_t cols,
                                     std::vector<double>& re,
                                     std::vector<double>& im) const;

  // -- Pipeline stages (multiply() and GemmCore::multiply drive them) -----
  // A block holds one symbol per column and is stored port by port: entry
  // (k, j) at [k * cols + j], which is also CMat's row-major layout.
  // Column j of a block is symbol first_symbol + j, its mvm_ops index (the
  // number of vectors pushed before it). The noise is a pure function of
  // noise_seed, the symbol, the port and the draw kind (lina/philox.hpp),
  // so every path draws the same noise for the same symbol, in any order.
  /// Launch field amplitude of one Mach-Zehnder arm driven with `v` in
  /// [-1, 1]: DAC quantization, extinction floor and insertion loss at
  /// the sqrt(P_laser / N) launch amplitude. Real, since the arm encodes
  /// the sign as a 0 / pi carrier phase. A real input drives the
  /// quadrature arm with 0, which the midrise DAC encodes as
  /// arm_field(0.0): one constant field on every port.
  [[nodiscard]] double arm_field(double v) const;
  /// Propagation through `t` (physical_transfer() or a detuned channel
  /// transfer) of columns [j0, j1) of a block of `cols` columns: column j
  /// carries the in-phase arm fields of `in_phase` and every column the
  /// quadrature arm fields `quadrature` (one per port), so out(r, j) =
  /// (t * in_phase)(r, j) + i (t * quadrature)(r). Each product is a
  /// real-input sum over ports in increasing order. `out` must already be
  /// ports x cols; other columns are left alone.
  void propagate_batch(const lina::CMat& t,
                       const std::vector<double>& in_phase, std::size_t cols,
                       const std::vector<double>& quadrature, std::size_t j0,
                       std::size_t j1, lina::CMat& out) const;
  /// Laser RIN, coherent detection and ADC of a block of output fields,
  /// in place, in field units. Column j (symbol first_symbol + j) is
  /// scaled by sqrt(launch_power_w(symbol) / P_laser): RIN is common-mode
  /// and the optical path is linear, so it may act at the detector. Then
  /// each port takes the two detector normals of (symbol, port).
  void detect_batch(lina::CMat& fields, std::uint64_t first_symbol) const;
  /// Launch power of symbol `symbol` [W]: the laser's mean power plus its
  /// RIN draw for that symbol.
  [[nodiscard]] double launch_power_w(std::uint64_t symbol) const;
  /// Undo the calibrated system gain on a detected block, in place:
  /// measured field -> W-units output.
  void rescale_batch(lina::CMat& detected) const;

  /// Physical (lossy, imperfect) transfer of the whole optical path in
  /// field units; the sqrt(P_laser / N) launch scale is arm_field's.
  [[nodiscard]] const lina::CMat& physical_transfer() const { return t_phys_; }
  /// Calibrated complex system gain c: T_phys ~= c * W.
  [[nodiscard]] lina::cplx system_gain() const { return gain_; }

  /// Advance the PCM drift clock (no-op for thermo-optic weights). The
  /// system gain calibration is *not* redone: drift error accrues exactly
  /// as it would on hardware between recalibrations. The time counts from
  /// the last write: set_matrix programs and calibrates fresh cells and
  /// then ages them by the current drift time.
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
  [[nodiscard]] double program_time_s() const {
    return weight_program_time_s(cfg_);
  }

  [[nodiscard]] const MvmCounters& counters() const { return counters_; }
  /// Count vectors pushed through the mesh on paths that do not count
  /// them themselves: the batched stages and the noiseless multiplies,
  /// as GemmCore's physical and noiseless paths drive them. The count is
  /// also the next symbol's noise index.
  void count_mvm_ops(std::uint64_t vectors) { counters_.mvm_ops += vectors; }
  [[nodiscard]] const MvmConfig& config() const { return cfg_; }
  /// Fidelity achieved by the last set_matrix (physical vs target shape).
  [[nodiscard]] double programming_fidelity() const { return fidelity_; }
  /// Worst-path optical insertion loss of the full path [dB].
  [[nodiscard]] double insertion_loss_db() const;

  /// Byte budget of the weight-programming memo, per engine. An 8-port
  /// entry takes 5.4 KiB (188 fit) and a 64-port one 321 KiB (3 fit).
  static constexpr std::size_t kProgramMemoBytes = std::size_t{1} << 20;
  [[nodiscard]] ProgramMemoStats program_memo_stats() const {
    return program_memo_stats_;
  }

  // -- Snapshot / restore -------------------------------------------------
  /// Complete mutable engine state: mesh programs, calibrated transfer
  /// and cost counters. The noise needs no state of its own: its position
  /// is counters.mvm_ops. The programming memo is a pure cache and
  /// deliberately excluded — it survives restore, which is exactly what
  /// makes repeated fault-campaign trials cheap.
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
  /// Per-port launch field amplitude sqrt(P_laser / N).
  [[nodiscard]] double launch_amplitude() const { return launch_; }
  /// Calibrated output scale gain * launch * modulator amplitude /
  /// sigma_max: a detected field divided by it is in W-units.
  [[nodiscard]] lina::cplx output_scale() const;
  /// Move both PCM meshes to cfg_.pcm_drift_time_s and rebuild the
  /// transfer and fidelity, keeping the gain calibrated at write time.
  void age_pcm_weights();
  /// out = T_u * diag(attenuation) * T_v, composed without temporaries
  /// beyond the reusable scratch.
  void compose_path_into(const lina::CMat& tu, const lina::CMat& tv,
                         lina::CMat& out) const;
  /// Weight-write cost bookkeeping shared by the full, memoized and
  /// unchanged-weights set_matrix paths (hardware pays the write either
  /// way; only the host-side math is skipped).
  void account_programming();

  /// Memoized weight programming, keyed by the exact weight bytes: the
  /// SVD, the attenuator settings, the final per-mesh phase programs
  /// (after any recalibration) and what refresh_transfer() made of them
  /// on this die with freshly written cells (t_phys_, gain_, fidelity_).
  /// The die and the PCM config are fixed per engine; the meshes'
  /// wavelength detuning is not (a restored snapshot carries its own), so
  /// an entry holds only at the detuning it was computed at. A hit is a
  /// copy: the meshes take the cached phases and rebuild their own
  /// transfer lazily, and the result is bit-identical to a miss.
  /// Per-engine and therefore thread-private (campaign workers never
  /// share engines).
  struct ProgramMemo {
    std::vector<lina::cplx> key;
    double detuning_u_nm = 0.0, detuning_v_nm = 0.0;
    lina::SvdResult svd;
    double sigma_max = 0.0;
    std::vector<double> attenuation;
    std::vector<double> phases_u, phases_v;
    lina::CMat t_phys;
    lina::cplx gain;
    double fidelity = 0.0;
    std::size_t bytes = 0;       ///< footprint charged against the budget
    std::uint64_t last_use = 0;  ///< use stamp; the smallest is evicted
  };
  /// The entry programming `w` at the meshes' current detuning, or null.
  /// Counts the hit or miss and stamps a hit entry as just used.
  [[nodiscard]] ProgramMemo* find_program_memo(const lina::CMat& w);
  /// Memoize the state the miss path just computed for weight_, evicting
  /// least recently used entries until it fits the byte budget (the new
  /// entry itself is always kept).
  void insert_program_memo();

  MvmConfig cfg_;
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
  double launch_ = 0.0;  ///< launch_amplitude(), fixed per engine
  MvmCounters counters_;
  mutable lina::CMat scratch_path_;  ///< compose_path_into scratch
  mutable std::vector<double> scratch_fields_;  ///< batch variant fields
  mutable std::vector<double> scratch_quadrature_;  ///< t * quadrature
  std::vector<ProgramMemo> program_memo_;  ///< unordered, byte-budgeted
  std::uint64_t program_memo_clock_ = 0;   ///< last use stamp handed out
  ProgramMemoStats program_memo_stats_;    ///< entries/bytes kept current
  /// True while the meshes hold exactly what the last set_matrix
  /// programmed (no phase perturbation / drift advance since): lets
  /// set_matrix of the identical matrix reduce to cost accounting.
  bool weights_clean_ = false;
  lina::SvdWorkspace svd_ws_;
  mesh::ProgramScratch program_scratch_;
};

}  // namespace aspen::core
