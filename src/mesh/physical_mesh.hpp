#pragma once
/// \file physical_mesh.hpp
/// Physical simulation of a programmable interferometer mesh: composes
/// per-device transfer matrices (couplers, MZIs, phase shifters) with
/// fabrication errors, loss, thermal crosstalk and optional PCM phase
/// quantization + drift into the N x N complex transfer of the chip.
///
/// Fabrication imperfections are sampled once at construction (a "die");
/// reprogramming the phases models the heaters / PCM writes on that die.
///
/// The transfer is column-factored and cached: every mesh column c is a
/// block-diagonal matrix C_c (2x2 cell blocks + per-port scalars), and the
/// chip transfer is T = C_{K-1} ... C_1 C_0. The cache keeps the per-column
/// matrices together with prefix products R_c = C_{c-1}...C_0 and suffix
/// products L_c = C_{K-1}...C_{c+1}, so after set_phase() dirties a single
/// column c the new transfer is
///     T' = T + L_c (C_c' - C_c) R_c,
/// a sum of a handful of rank-one updates (C_c' - C_c has O(1) nonzero
/// entries) costing O(N^2) instead of the O(columns * N^2) from-scratch
/// rebuild. Coordinate-descent calibration — which tweaks one phase at a
/// time, in column order — runs entirely on this fast path.
///
/// A full rebuild is a pure function of the phases, the drift time, the
/// detuning, the PCM map and the fixed die, so the mesh keeps the column
/// matrices and transfer its last full rebuild produced, with the inputs
/// they came from; a rebuild from bit-equal inputs copies back only the
/// columns the incremental path replaced since, and keeps every prefix
/// and suffix product that contains none of them. The products are pure
/// functions of the columns, extended in a fixed order, so a kept one is
/// bit-identical to one recomputed from the identity anchors. A fault
/// campaign's phase upsets — restore, then perturb one phase — rebuild
/// the same programmed mesh every trial, take the copy, and extend the
/// products only past columns earlier upsets reverted.

#include <cstdint>
#include <optional>
#include <vector>

#include "lina/complex_matrix.hpp"
#include "lina/random.hpp"
#include "mesh/layout.hpp"
#include "photonics/pcm_cell.hpp"

namespace aspen::mesh {

/// Stochastic + deterministic imperfection parameters of a fabricated die.
struct MeshErrorModel {
  /// Std-dev of the directional-coupler coupling-angle error [rad].
  /// (0.05 rad ~= 2.5 % power-splitting imbalance.)
  double coupler_sigma = 0.0;
  /// Std-dev of static per-phase-shifter fabrication phase offsets [rad].
  double phase_sigma = 0.0;
  /// Deterministic per-component losses.
  double coupler_loss_db = 0.05;
  double ps_loss_db = 0.05;
  double routing_loss_db_per_column = 0.02;
  /// Fraction of a thermo-optic heater's phase leaking into each
  /// vertically adjacent cell in the same column (0 disables). Not
  /// applied when PCM phases are enabled: holding a PCM state draws no
  /// heater power, which is precisely the paper's argument for
  /// non-volatile weights.
  double thermal_crosstalk = 0.0;
  /// Real meshes place matched dummy devices on waveguides a column does
  /// not cover, so every path sees the same nominal loss; without them
  /// edge ports attenuate less and the transfer shape is distorted.
  bool balanced_dummies = true;
  /// Directional-coupler dispersion: systematic coupling-angle shift per
  /// nm of wavelength detuning from the design wavelength. Meshes are
  /// designed at one wavelength; DWDM channels ride detuned carriers and
  /// see a uniformly rotated splitting ratio (~0.006 rad/nm for typical
  /// SOI couplers). Activated via set_wavelength_detuning_nm().
  double coupler_dispersion_rad_per_nm = 0.006;
  /// Die seed for the sampled imperfections.
  std::uint64_t seed = 0xd1e5eedULL;
};

class PhysicalMesh {
 public:
  PhysicalMesh(MeshLayout layout, MeshErrorModel errors = {});

  /// Program all phases (length must equal layout().phase_count()).
  void program(const std::vector<double>& phases);
  [[nodiscard]] std::size_t phase_count() const { return phases_.size(); }
  [[nodiscard]] double phase(std::size_t i) const { return phases_.at(i); }
  /// Set one programmable phase. Dirties only the owning mesh column; the
  /// next transfer() refreshes incrementally in O(N^2).
  void set_phase(std::size_t i, double v);
  [[nodiscard]] const std::vector<double>& phases() const { return phases_; }

  /// Route all programmable phases through a PCM phase map (multilevel
  /// quantization + level-dependent absorption) instead of ideal
  /// thermo-optic holding.
  void enable_pcm(const phot::PcmCellConfig& cfg);
  void disable_pcm();
  [[nodiscard]] bool pcm_enabled() const { return pcm_.has_value(); }
  /// Config of the enabled PCM map (std::nullopt when disabled).
  [[nodiscard]] const std::optional<phot::PcmCellConfig>& pcm_config() const {
    return pcm_cfg_;
  }
  /// Time since the PCM weights were written (drift model input).
  void set_drift_time(double seconds);

  /// Carrier detuning from the design wavelength (DWDM channels); shifts
  /// every coupler by dispersion * detuning.
  void set_wavelength_detuning_nm(double nm);
  [[nodiscard]] double wavelength_detuning_nm() const { return detuning_nm_; }

  /// Full N x N transfer with all imperfections. Served from the
  /// column-factored cache; the returned reference is invalidated by any
  /// subsequent mutation of the mesh (copy it if you need it to persist).
  [[nodiscard]] const lina::CMat& transfer() const;
  /// From-scratch reference evaluation of the same transfer, bypassing the
  /// cache entirely — the ground truth the incremental path is verified
  /// against (and a debugging aid).
  [[nodiscard]] lina::CMat transfer_uncached() const;
  /// Transfer seen by a carrier detuned `nm` from the design wavelength,
  /// evaluated from scratch. Does not touch the mesh's own detuning state
  /// (or its transfer cache) — detuning is an explicit argument here, not
  /// hidden mutable state.
  [[nodiscard]] lina::CMat transfer_at(double detuning_nm) const;
  /// Transfer of the same phases on a perfect, lossless die.
  [[nodiscard]] lina::CMat ideal_transfer() const;

  /// Worst-path nominal insertion loss from the deterministic per-device
  /// losses (excludes PCM state-dependent absorption).
  [[nodiscard]] double nominal_insertion_loss_db() const;

  [[nodiscard]] const MeshLayout& layout() const { return layout_; }
  [[nodiscard]] const MeshErrorModel& errors() const { return errors_; }

  /// Mesh column owning programmable phase slot `i` (cache diagnostics,
  /// calibration scheduling).
  [[nodiscard]] std::size_t column_of_phase(std::size_t i) const {
    return phase_col_.at(i);
  }

  /// Evaluate a layout + phases on a perfect die (static convenience used
  /// by the decomposition tests).
  [[nodiscard]] static lina::CMat ideal_of(const MeshLayout& layout,
                                           const std::vector<double>& phases);

  // -- Snapshot / restore -------------------------------------------------
  /// Programmable state only: phases + drift clock + carrier detuning.
  /// Die imperfections are construction-time constants and the transfer
  /// cache is derived — restore() invalidates it (only when the restored
  /// state actually differs) rather than copying it, and the next
  /// transfer() copies the last full rebuild when its inputs match.
  struct Snapshot {
    std::vector<double> phases;
    double drift_time_s = 0.0;
    double detuning_nm = 0.0;
  };
  [[nodiscard]] Snapshot snapshot() const {
    return {phases_, drift_time_s_, detuning_nm_};
  }
  void restore(const Snapshot& s);

 private:
  /// One mesh column as a compact block-diagonal matrix: 2x2 blocks at the
  /// cell positions, per-port scalars everywhere else. All error terms
  /// (losses, offsets, crosstalk, PCM, routing) are folded in.
  struct ColumnMatrix {
    struct Block {
      std::size_t top = 0;
      lina::cplx a, b, c, d;
    };
    std::vector<Block> blocks;
    std::vector<lina::cplx> diag;          ///< scalar for each uncovered port
    std::vector<unsigned char> covered;    ///< 1 when a block owns the port
  };

  /// m <- C * m (block-sparse left application, O(N^2)).
  static void column_apply_left(const ColumnMatrix& cm, lina::CMat& m);
  /// m <- m * C (block-sparse right application, O(N^2)).
  static void column_apply_right(lina::CMat& m, const ColumnMatrix& cm);

  [[nodiscard]] lina::CMat evaluate(bool with_errors, double detuning_nm) const;
  void build_column(std::size_t c, bool with_errors, double detuning_nm,
                    ColumnMatrix& out) const;
  /// Full refresh: O(columns * N^2), or a copy of the last full rebuild
  /// when its inputs are bit-equal to the current ones.
  void rebuild_cache() const;
  void invalidate_cache() const;   ///< global-parameter change
  /// Apply the single-dirty-column rank update; false -> full rebuild.
  [[nodiscard]] bool try_incremental_update() const;

  MeshLayout layout_;
  MeshErrorModel errors_;
  std::vector<double> phases_;

  // Sampled die imperfections, indexed per phase slot / coupler instance.
  std::vector<double> phase_offset_;     ///< per programmable phase
  std::vector<double> coupler_delta_;    ///< per coupler instance
  std::optional<phot::PcmPhaseMap> pcm_;
  std::optional<phot::PcmCellConfig> pcm_cfg_;
  double drift_time_s_ = 0.0;
  double detuning_nm_ = 0.0;

  // Static layout indexing, computed once in the constructor.
  std::vector<std::size_t> phase_col_;    ///< owning column per phase slot
  std::vector<std::size_t> col_phase0_;   ///< first phase slot per column
  std::vector<std::size_t> col_coup0_;    ///< first coupler index per column

  // -- Column-factored transfer cache (logically const) ------------------
  mutable std::vector<ColumnMatrix> cols_;   ///< per-column matrices
  mutable std::vector<lina::CMat> prefix_;   ///< prefix_[c] = C_{c-1}...C_0
  mutable std::vector<lina::CMat> suffix_;   ///< suffix_[c] = C_{K-1}...C_{c+1}
  mutable lina::CMat t_cache_;
  mutable bool cache_ready_ = false;         ///< cols_/t_cache_ coherent
  mutable std::ptrdiff_t dirty_col_ = -1;    ///< single stale column, -1 none
  mutable std::size_t prefix_valid_ = 0;     ///< prefix_[0..prefix_valid_] valid
  mutable std::size_t suffix_valid_ = 0;     ///< suffix_[suffix_valid_..] valid
  mutable int rank_updates_ = 0;  ///< low-rank steps since last full rebuild
  /// Columns the incremental path replaced since the last full rebuild
  /// (the only ones where cols_ and rebuilt_.cols can differ), 1 each.
  mutable std::vector<unsigned char> replaced_;
  /// What the last full rebuild produced and the inputs it came from;
  /// enable_pcm/disable_pcm drop it (the PCM map is an input too).
  struct Rebuilt {
    bool valid = false;
    std::vector<double> phases;
    double drift_time_s = 0.0;
    double detuning_nm = 0.0;
    std::vector<ColumnMatrix> cols;
    lina::CMat transfer;
  };
  mutable Rebuilt rebuilt_;
  // Reusable scratch (kills the per-column allocations in evaluate()).
  mutable ColumnMatrix scratch_col_;
  mutable std::vector<double> scratch_th_, scratch_ph_;
};

}  // namespace aspen::mesh
