#pragma once
/// \file accelerator.hpp
/// The photonic DSA as a memory-mapped device — the paper's Fig. 3
/// architecture: a Compute Unit (the photonic GeMM core of src/core)
/// behind a Communications Interface of memory-mapped registers (MMRs),
/// scratchpad memories (SPMs) for the weight/input/output tiles, and an
/// interrupt line "so the host can utilize the provided interrupt signals
/// for synchronization without the need for constant polling".
///
/// Device memory map (offsets from the device base):
///   0x0000  MMR block
///     0x00 CTRL    bit0 START_COMPUTE, bit1 IRQ_EN, bit2 LOAD_WEIGHTS,
///                  bit3 CHECK_CRC_W, bit4 CHECK_CRC_X
///     0x04 STATUS  bit0 BUSY, bit1 DONE (write 1 to clear),
///                  bit2 ERROR (write 1 to clear; also clears ERR)
///     0x08 COLS    number of input columns M (1 .. max_cols)
///     0x0C PORTS   (RO) mesh size N
///     0x10 CYCLES  (RO) busy cycles of the last operation
///     0x14 ERR     (RO) error cause: bit0 CRC_W, bit1 CRC_X,
///                  bit2 ABFT (uncorrectable checksum miss),
///                  bit3 WATCHDOG
///     0x18 ABFT_DET (RO) cumulative ABFT-detected output columns
///     0x1C ABFT_COR (RO) cumulative ABFT-corrected output columns
///     0x20 CRC_W   (RW) expected CRC-32 of the N*N*2-byte weight tile
///     0x24 CRC_X   (RW) expected CRC-32 of the N*M*2-byte input tile
///     0x28 WDOG    (RW) watchdog: write a cycle deadline to arm, 0 to
///                  disarm; reads the remaining countdown. Disarmed by
///                  operation completion; on expiry latches ERROR
///                  (cause WATCHDOG) and raises the interrupt line even
///                  with IRQ_EN clear, so a WFI'd host always wakes.
///   0x1000  SPM_W  N x N   int16 Q3.12 weights, row-major
///   0x2000  SPM_X  N x M   int16 Q3.12 inputs, column-major
///   0x3000  SPM_Y  N x M   int16 Q3.12 outputs, column-major
/// Each SPM must fit its 4 KiB window: the constructor throws unless
/// N * N and N * max_cols are at most 2048 (so N <= 45). Window bytes past
/// an SPM's populated size read as 0 and drop writes.
///
/// Fault detection: CHECK_CRC_W / CHECK_CRC_X verify the marshalled SPM
/// tile against the CRC_W / CRC_X registers as the operation starts; a
/// mismatch aborts the operation (weights are not programmed, SPM_Y is
/// not written), latches ERROR with the cause bit, and still raises DONE
/// at completion so the host handshake never wedges. With ABFT enabled in
/// the GEMM config the compute unit runs the checksum-augmented (N+2)
/// tile: correctable output corruptions are repaired transparently
/// (counted in ABFT_COR), uncorrectable ones latch ERROR cause ABFT. The
/// ERROR latch mirrors the DMA engine's: it persists across reads and
/// clears only on the documented STATUS write.
///
/// Timing: LOAD_WEIGHTS costs the weight-programming time of the
/// configured technology (micro-seconds for thermo-optic heaters,
/// ~100 ns for PCM); START_COMPUTE costs the optical GeMM wall time plus
/// a fixed handshake overhead. Data conversion is Q3.12 fixed point with
/// saturation (range [-8, 8), resolution 2^-12) — wide enough for N <= 8
/// dot products of [-1, 1] operands without overflow.
///
/// START data path: the tiles stay real end to end. SPM_X is decoded
/// (and CRC-folded when checked) into a real N x M tile stored port by
/// port, GemmCore's real-input noiseless kernel runs on it (ABFT pads and
/// checks inside the core), and SPM_Y takes the rounded real parts, so
/// software-visible results are reproducible. The PE draws no analog
/// noise; noisy photonic compute is studied on GemmCore directly.

#include <memory>

#include "core/gemm_core.hpp"
#include "sysim/memory.hpp"

namespace aspen::sys {

struct AcceleratorConfig {
  core::GemmConfig gemm;
  std::uint32_t max_cols = 64;
  double clock_hz = 1e9;          ///< system clock for cycle conversion
  unsigned handshake_cycles = 20; ///< fixed start/finish overhead
};

class PhotonicAccelerator final : public BusDevice {
 public:
  explicit PhotonicAccelerator(AcceleratorConfig cfg);

  std::uint32_t read(std::uint32_t offset, unsigned size) override;
  void write(std::uint32_t offset, std::uint32_t value, unsigned size) override;
  [[nodiscard]] unsigned access_latency() const override { return 2; }
  [[nodiscard]] std::string name() const override { return "photonic-dsa"; }
  /// CTRL writes start operations and WDOG writes arm a countdown with a
  /// tick()-observable deadline; SPM data and the remaining MMRs (STATUS
  /// clear, COLS, CRC expectations) change no tick()-observable behavior.
  [[nodiscard]] bool write_is_activating(std::uint32_t offset) const override {
    return offset == kRegCtrl || offset == kRegWdog;
  }

  /// Advance one system clock cycle.
  void tick();
  /// Advance `n` cycles at once (event-driven scheduling): the busy
  /// countdown has no per-cycle side effects, so skipping is exact —
  /// completion (DONE/IRQ) fires iff the countdown reaches zero.
  void skip_cycles(std::uint64_t n);

  [[nodiscard]] bool irq_pending() const { return irq_; }
  [[nodiscard]] bool busy() const { return busy_cycles_ > 0; }
  /// Cycles until the running operation completes (0 when idle).
  [[nodiscard]] std::uint64_t busy_cycles_remaining() const {
    return busy_cycles_;
  }
  /// Watchdog countdown state (the event-driven scheduler folds the
  /// deadline into its skip window so bulk skipping stays exact).
  [[nodiscard]] bool watchdog_armed() const { return watchdog_cycles_ > 0; }
  [[nodiscard]] std::uint64_t watchdog_cycles_remaining() const {
    return watchdog_cycles_;
  }
  [[nodiscard]] bool error() const { return error_; }

  /// Direct SPM access for fault injection campaigns.
  [[nodiscard]] Memory& spm_w() { return spm_w_; }
  [[nodiscard]] Memory& spm_x() { return spm_x_; }
  [[nodiscard]] Memory& spm_y() { return spm_y_; }
  /// Perturb one programmed mesh phase (photonic-domain fault).
  void inject_phase_fault(std::size_t phase_index, double delta_rad);
  /// Attach a read trace to the three SPMs and to the phases (nullptr
  /// detaches): every START that computes reports a phase read, the
  /// only way programmed phases reach architectural state, and every
  /// LOAD_WEIGHTS that programs the weights a phase write.
  void set_read_trace(ReadTrace* trace);
  /// Number of programmable phases (the photonic fault surface).
  [[nodiscard]] std::size_t phase_state_size() const {
    return gemm_.engine().phase_state_size();
  }

  [[nodiscard]] const AcceleratorConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t total_busy_cycles() const {
    return total_busy_cycles_;
  }
  /// The photonic compute unit behind the MMRs (engine inspection for
  /// tests / benches: programmed transfer, counters, fidelity).
  [[nodiscard]] const core::GemmCore& gemm() const { return gemm_; }

  // -- Snapshot / restore -------------------------------------------------
  /// MMR block + SPM images + the full photonic compute-unit state.
  struct Snapshot {
    core::GemmCore::Snapshot gemm;
    Memory::Snapshot spm_w, spm_x, spm_y;
    std::uint32_t ctrl = 0, cols = 1;
    bool done = false, irq = false;
    std::uint64_t busy_cycles = 0, total_busy_cycles = 0;
    std::uint32_t last_op_cycles = 0, pending_op = 0;
    bool error = false;
    std::uint32_t err_cause = 0, crc_w_expect = 0, crc_x_expect = 0;
    std::uint64_t watchdog_cycles = 0;
  };
  [[nodiscard]] Snapshot snapshot();
  void restore(const Snapshot& s);
  /// True when restore(s) cannot throw: `s` has this PE's SPM sizes and
  /// mesh phase counts.
  [[nodiscard]] bool fits(const Snapshot& s) const {
    return s.spm_w.size() == spm_w_.size() && s.spm_x.size() == spm_x_.size() &&
           s.spm_y.size() == spm_y_.size() && gemm_.engine().fits(s.gemm.engine);
  }

  static constexpr std::uint32_t kMmrBase = 0x0000;
  static constexpr std::uint32_t kSpmWBase = 0x1000;
  static constexpr std::uint32_t kSpmXBase = 0x2000;
  static constexpr std::uint32_t kSpmYBase = 0x3000;
  static constexpr std::uint32_t kRegCtrl = 0x00;
  static constexpr std::uint32_t kRegStatus = 0x04;
  static constexpr std::uint32_t kRegCols = 0x08;
  static constexpr std::uint32_t kRegPorts = 0x0C;
  static constexpr std::uint32_t kRegCycles = 0x10;
  static constexpr std::uint32_t kRegErr = 0x14;
  static constexpr std::uint32_t kRegAbftDetected = 0x18;
  static constexpr std::uint32_t kRegAbftCorrected = 0x1C;
  static constexpr std::uint32_t kRegCrcW = 0x20;
  static constexpr std::uint32_t kRegCrcX = 0x24;
  static constexpr std::uint32_t kRegWdog = 0x28;
  static constexpr std::uint32_t kCtrlStart = 1u << 0;
  static constexpr std::uint32_t kCtrlIrqEn = 1u << 1;
  static constexpr std::uint32_t kCtrlLoadWeights = 1u << 2;
  static constexpr std::uint32_t kCtrlCrcW = 1u << 3;
  static constexpr std::uint32_t kCtrlCrcX = 1u << 4;
  static constexpr std::uint32_t kStatusBusy = 1u << 0;
  static constexpr std::uint32_t kStatusDone = 1u << 1;
  static constexpr std::uint32_t kStatusError = 1u << 2;
  static constexpr std::uint32_t kErrCrcW = 1u << 0;
  static constexpr std::uint32_t kErrCrcX = 1u << 1;
  static constexpr std::uint32_t kErrAbft = 1u << 2;
  static constexpr std::uint32_t kErrWatchdog = 1u << 3;

  /// Fixed-point format shared with the software baseline workloads.
  static constexpr int kFracBits = 12;  // Q3.12
  [[nodiscard]] static std::int16_t to_fixed(double v);
  [[nodiscard]] static double from_fixed(std::int16_t v);

 private:
  void start_operation(std::uint32_t ctrl);
  void finish_operation();
  void latch_error(std::uint32_t cause) {
    error_ = true;
    err_cause_ |= cause;
  }
  void watchdog_fire();

  AcceleratorConfig cfg_;
  core::GemmCore gemm_;
  Memory spm_w_;
  Memory spm_x_;
  Memory spm_y_;
  std::uint32_t ctrl_ = 0;
  std::uint32_t cols_ = 1;
  bool done_ = false;
  bool irq_ = false;
  std::uint64_t busy_cycles_ = 0;
  std::uint64_t total_busy_cycles_ = 0;
  std::uint32_t last_op_cycles_ = 0;
  std::uint32_t pending_op_ = 0;  ///< latched CTRL of the running op
  bool error_ = false;            ///< ERROR latch (persists until W1C)
  std::uint32_t err_cause_ = 0;
  std::uint32_t crc_w_expect_ = 0;
  std::uint32_t crc_x_expect_ = 0;
  std::uint64_t watchdog_cycles_ = 0;  ///< 0 = disarmed
  ReadTrace* trace_ = nullptr;
  // START tiles, real and stored port by port (entry (r, c) at
  // [r * cols + c]): SPM_X in, the output's real and imaginary parts out.
  std::vector<double> tile_x_;
  std::vector<double> tile_re_;
  std::vector<double> tile_im_;
};

}  // namespace aspen::sys
