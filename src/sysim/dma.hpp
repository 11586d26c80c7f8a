#pragma once
/// \file dma.hpp
/// Descriptor-driven DMA engine (paper Section 5: "the gem5-based
/// infrastructure includes Direct Memory Access (DMA) devices"). A bus
/// master that copies SRC -> DST at a configurable beat width, raising an
/// interrupt line on completion so the host can WFI instead of polling.
///
/// Register map (word offsets):
///   0x00 SRC     source address
///   0x04 DST     destination address
///   0x08 LEN     bytes to copy
///   0x0C CTRL    bit0 START, bit1 IRQ_EN
///   0x10 STATUS  bit0 BUSY, bit1 DONE, bit2 ERROR (DONE/ERROR W1C)
///
/// A bus fault mid-transfer (either endpoint) aborts the transfer:
/// BUSY drops, ERROR rises (DONE stays clear) and the IRQ line is
/// raised when IRQ_EN is set, so guest code polling STATUS or parked
/// in WFI observes the abort instead of spinning forever. Starting a
/// new transfer clears a latched ERROR.

#include <cstdint>

#include "sysim/bus.hpp"

namespace aspen::sys {

class DmaEngine final : public BusDevice {
 public:
  /// `bytes_per_cycle`: transfer beat width (bytes moved per cycle);
  /// throws std::invalid_argument on 0.
  DmaEngine(Bus& bus, unsigned bytes_per_cycle = 4);

  std::uint32_t read(std::uint32_t offset, unsigned size) override;
  void write(std::uint32_t offset, std::uint32_t value, unsigned size) override;
  [[nodiscard]] unsigned access_latency() const override { return 2; }
  [[nodiscard]] std::string name() const override { return "dma"; }
  /// CTRL writes start transfers, and SRC/DST/LEN writes redirect or
  /// resize one in flight; descriptor programming while idle and STATUS
  /// clears are passive.
  [[nodiscard]] bool write_is_activating(std::uint32_t offset) const override {
    return offset == kRegCtrl || (busy_ && offset <= kRegLen);
  }

  /// Advance one cycle (moves data while busy).
  void tick();
  /// Advance `n` cycles at once. While busy, the remaining beats are
  /// bulk-moved in one memcpy when both endpoints resolve to direct
  /// spans covering the rest of the transfer (DRAM<->DRAM, DRAM<->SPM) —
  /// cursor progression, completion cycle and observer notifications are
  /// bit-identical to per-cycle ticking. Otherwise (MMIO endpoint, spans
  /// revoked by stuck-at faults, overlapping ranges) the engine falls
  /// back to per-cycle ticking.
  void skip_cycles(std::uint64_t n);

  /// Cycles until the running transfer completes, provided the remainder
  /// is bulk-movable (see skip_cycles); 0 while idle or when the
  /// transfer must tick per-cycle. The event-driven System uses this to
  /// skip straight to the completion/IRQ edge.
  [[nodiscard]] std::uint64_t bulk_cycles_remaining() const;

  [[nodiscard]] bool irq_pending() const { return irq_; }
  [[nodiscard]] bool busy() const { return busy_; }

  /// Complete register/transfer state (no derived caches to invalidate).
  struct Snapshot {
    std::uint32_t src = 0, dst = 0, len = 0, ctrl = 0;
    std::uint32_t cursor = 0;
    bool busy = false, done = false, irq = false, error = false;
  };
  [[nodiscard]] Snapshot snapshot() const {
    return {src_, dst_, len_, ctrl_, cursor_, busy_, done_, irq_, error_};
  }
  void restore(const Snapshot& s);

  static constexpr std::uint32_t kRegSrc = 0x00;
  static constexpr std::uint32_t kRegDst = 0x04;
  static constexpr std::uint32_t kRegLen = 0x08;
  static constexpr std::uint32_t kRegCtrl = 0x0C;
  static constexpr std::uint32_t kRegStatus = 0x10;
  static constexpr std::uint32_t kCtrlStart = 1u << 0;
  static constexpr std::uint32_t kCtrlIrqEn = 1u << 1;
  static constexpr std::uint32_t kStatusBusy = 1u << 0;
  static constexpr std::uint32_t kStatusDone = 1u << 1;
  static constexpr std::uint32_t kStatusError = 1u << 2;

 private:
  /// Resolved bulk-move endpoints for the remaining [cursor_, len_) range.
  struct BulkPath {
    std::uint8_t* src = nullptr;
    std::uint8_t* dst = nullptr;
    BusDevice* dst_dev = nullptr;
    std::uint32_t dst_dev_offset = 0;  ///< device-relative start of the move
  };
  /// Endpoints of the remaining transfer when every byte can be moved
  /// through raw spans (both windows cover the remainder, ranges do not
  /// overlap); nullptr data pointers otherwise.
  [[nodiscard]] BulkPath resolve_bulk() const;
  /// Advance `cursor` by exactly the bytes `ticks` busy cycles move
  /// (pure arithmetic mirror of tick()'s beat loop); returns the cycles
  /// actually consumed (< ticks when the transfer finishes early).
  [[nodiscard]] std::uint64_t advance_cursor(std::uint32_t& cursor,
                                             std::uint64_t ticks) const;

  /// Abort the running transfer on a mid-transfer bus fault: BUSY drops,
  /// ERROR latches, IRQ rises when enabled.
  void abort_transfer();

  Bus& bus_;
  unsigned beat_;
  std::uint32_t src_ = 0, dst_ = 0, len_ = 0, ctrl_ = 0;
  std::uint32_t cursor_ = 0;
  bool busy_ = false;
  bool done_ = false;
  bool irq_ = false;
  bool error_ = false;
};

}  // namespace aspen::sys
