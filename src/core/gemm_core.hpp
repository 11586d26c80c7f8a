#pragma once
/// \file gemm_core.hpp
/// Generalized matrix-matrix (GeMM) scheduling on top of the photonic MVM
/// engine — paper Section 4: "Generalization to GeMM operations can be
/// realized through separating of the input matrix into rows, and
/// processing those either via time-division multiplexing or through
/// encoding into multiple dense wavelength division multiplexed (DWDM)
/// channels that can be processed in parallel in a single multiport
/// interferometer without incurring additional resource costs."
///
/// TDM:  one input column per symbol period.
/// DWDM: `wdm_channels` columns ride distinct wavelengths through the
///       same mesh simultaneously; each channel needs its own modulator /
///       detector bank but no additional mesh. Finite channel isolation
///       leaks a fraction of each neighbouring channel's field into the
///       detected signal (incoherent crosstalk penalty).
///
/// With ABFT enabled the core transparently programs the checksum-
/// augmented (N+2)x(N+2) matrix onto an (N+2)-port engine and verifies /
/// repairs every output column on readout; callers keep the N x N view.

#include "core/abft.hpp"
#include "core/mvm_engine.hpp"

namespace aspen::core {

struct GemmConfig {
  MvmConfig mvm;
  int wdm_channels = 1;
  /// Adjacent-channel isolation of the DWDM (de)mux [dB, positive].
  double channel_isolation_db = 25.0;
  /// DWDM grid spacing [nm]. With coupler dispersion enabled in the mesh
  /// error model, channels away from the design wavelength see rotated
  /// splitting ratios — the physical cost of "free" WDM parallelism.
  /// 0 disables (ideal wavelength-flat mesh).
  double channel_spacing_nm = 0.0;
  /// Checksum-row fault detection/correction on every tile (see abft.hpp).
  AbftConfig abft;
};

/// Cost/throughput statistics of one GeMM call.
struct GemmStats {
  std::uint64_t symbols = 0;       ///< symbol slots used
  double wall_time_s = 0.0;        ///< symbols * symbol period
  std::uint64_t macs = 0;          ///< multiply-accumulates performed
  double modulator_energy_j = 0.0;
  double adc_energy_j = 0.0;
  double laser_energy_j = 0.0;     ///< electrical (wall-plug) energy
  double weight_write_energy_j = 0.0;

  [[nodiscard]] double total_energy_j() const {
    return modulator_energy_j + adc_energy_j + laser_energy_j +
           weight_write_energy_j;
  }
  /// Operations (2 x MAC) per second.
  [[nodiscard]] double ops_per_second() const {
    return wall_time_s > 0.0 ? 2.0 * static_cast<double>(macs) / wall_time_s
                             : 0.0;
  }
  /// Energy efficiency in operations per joule.
  [[nodiscard]] double ops_per_joule() const {
    const double e = total_energy_j();
    return e > 0.0 ? 2.0 * static_cast<double>(macs) / e : 0.0;
  }
};

class GemmCore {
 public:
  explicit GemmCore(GemmConfig cfg);

  /// Program the weight matrix W (N x N, the data tile; checksum rows are
  /// appended internally when ABFT is on).
  void set_weights(const lina::CMat& w);

  /// C = W * X on an N x `cols` real input tile stored port by port
  /// (entry (r, c) at x[r * cols + c], |entries| <= 1; columns are input
  /// vectors), through the whole electro-optic loop: TDM or WDM per
  /// config, with dispersion and demux leakage, laser RIN and detector
  /// noise. Column c is the engine's symbol mvm_ops + c, so it equals the
  /// engine's multiply() of that column at that count, bit for bit, when
  /// no WDM leakage mixes it. The real and imaginary output parts land in
  /// `re` and `im` in the same layout. With ABFT on, the same path runs
  /// on the zero-padded (N+2)-port tile and the checksum verify/repair
  /// runs before the data rows are returned. Throws std::invalid_argument
  /// (counting nothing) unless x.size() is N * cols.
  void multiply(const std::vector<double>& x, std::size_t cols,
                std::vector<double>& re, std::vector<double>& im);
  /// Complex-matrix adapter over the real path for an N x M input whose
  /// imaginary parts are all zero; throws std::invalid_argument on a
  /// shape mismatch or a nonzero imaginary part.
  [[nodiscard]] lina::CMat multiply(const lina::CMat& x);

  /// Deterministic tile path used by the memory-mapped accelerator:
  /// the engine's real-input noiseless kernel on an N x `cols` tile in
  /// multiply()'s layout. With ABFT off this delegates straight to the
  /// engine; with ABFT on the same kernel runs on the zero-padded
  /// (N+2)-port tile and the complex checksum verify/repair runs before
  /// the data rows are returned. Throws std::invalid_argument (counting
  /// nothing) unless x.size() is N * cols.
  void multiply_noiseless(const std::vector<double>& x, std::size_t cols,
                          std::vector<double>& re, std::vector<double>& im);
  /// Complex-matrix adapter over the real path for an N x M input whose
  /// imaginary parts are all zero (bit-identical results); throws
  /// std::invalid_argument on a shape mismatch or a nonzero imaginary
  /// part.
  void multiply_noiseless(const lina::CMat& x, lina::CMat& out);

  /// Rows/columns of the data tile callers see (engine ports minus the
  /// checksum rows when ABFT is on).
  [[nodiscard]] std::size_t data_ports() const { return cfg_.mvm.ports; }

  /// Statistics of the most recent multiply().
  [[nodiscard]] const GemmStats& last_stats() const { return stats_; }
  /// Cumulative ABFT event counts (all zero when ABFT is off).
  [[nodiscard]] const AbftCounters& abft_counters() const {
    return abft_counters_;
  }
  /// ABFT report of the most recent checked multiply.
  [[nodiscard]] const AbftReport& last_abft() const { return last_abft_; }
  [[nodiscard]] MvmEngine& engine() { return engine_; }
  [[nodiscard]] const MvmEngine& engine() const { return engine_; }
  [[nodiscard]] const GemmConfig& config() const { return cfg_; }

  // -- Snapshot / restore -------------------------------------------------
  struct Snapshot {
    MvmEngine::Snapshot engine;
    GemmStats stats;
    std::vector<lina::CMat> channel_transfer;
    AbftCounters abft;
  };
  [[nodiscard]] Snapshot snapshot() const {
    return {engine_.snapshot(), stats_, channel_transfer_, abft_counters_};
  }
  void restore(const Snapshot& s) {
    engine_.restore(s.engine);
    stats_ = s.stats;
    channel_transfer_ = s.channel_transfer;
    abft_counters_ = s.abft;
  }

 private:
  /// Shared body of multiply() and multiply_noiseless(): the shape check,
  /// the ABFT padding and check, and `run` on the engine-sized tile.
  template <class Run>
  void run_tile(const std::vector<double>& x, std::size_t cols,
                std::vector<double>& re, std::vector<double>& im, Run&& run);
  /// The physical multiply at engine dimensions (the pre-ABFT body).
  void multiply_physical(const std::vector<double>& x, std::size_t cols,
                         std::vector<double>& re, std::vector<double>& im);
  /// Load a complex adapter's input into tile_x_; throws unless it has
  /// data_ports() rows and zero imaginary parts.
  void load_real_tile(const lina::CMat& x, const char* who);

  GemmConfig cfg_;
  MvmEngine engine_;
  /// Field-level leakage between adjacent DWDM channels after the demux.
  double leak_;
  GemmStats stats_;
  AbftCounters abft_counters_;
  AbftReport last_abft_;
  /// Per-channel transfers under dispersion (rebuilt on set_weights).
  std::vector<lina::CMat> channel_transfer_;
  /// Reusable scratch of the physical path: in-phase and quadrature arm
  /// fields, propagated outputs, and the leakage-mixed block (only
  /// touched when mixing is actually needed).
  std::vector<double> fields_;
  std::vector<double> quadrature_;
  lina::CMat outputs_;
  lina::CMat mixed_;
  /// ABFT scratch: zero-padded input and the full augmented output block.
  std::vector<double> abft_x_real_;
  lina::CMat abft_y_;
  /// Real input and output parts of the complex-matrix adapters.
  std::vector<double> tile_x_, tile_re_, tile_im_;
};

}  // namespace aspen::core
