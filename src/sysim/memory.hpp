#pragma once
/// \file memory.hpp
/// Byte-addressable memories: DRAM-like main memory and on-accelerator
/// scratchpads (SPMs — "these two types of memories occupy the largest
/// part of the area of many accelerators", paper Section 5). Supports the
/// permanent stuck-at fault hooks used by the reliability campaigns.
///
/// Fast path: while no stuck-at faults are armed the raw byte store is
/// exported through `direct_span()`, letting bus masters (the CPU's DRAM
/// fast path) bypass the virtual read/write calls. Every out-of-band
/// mutation — bus writes, host loads, bit flips, stuck-bit changes — is
/// reported to the registered BusWriteObserver so derived caches
/// (predecoded instructions) stay coherent.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sysim/bus.hpp"

namespace aspen::sys {

class Memory final : public BusDevice {
 public:
  Memory(std::string name, std::uint32_t size, unsigned latency_cycles);

  std::uint32_t read(std::uint32_t offset, unsigned size) override;
  void write(std::uint32_t offset, std::uint32_t value, unsigned size) override;
  [[nodiscard]] unsigned access_latency() const override { return latency_; }
  [[nodiscard]] std::string name() const override { return name_; }

  /// Raw store, exported only while reads are transform-free (no stuck
  /// bits): a revoked span forces masters back onto read(), which applies
  /// the fault masks.
  [[nodiscard]] DirectSpan direct_span() override {
    if (!stuck_.empty()) return {};
    return {bytes_.data(), size()};
  }
  void set_write_observer(BusWriteObserver* observer) override {
    observer_ = observer;
  }
  /// Bulk direct-span mutation (DMA bulk moves, a CPU master flushing
  /// its store watermark): marks the span dirty and forwards to the
  /// observer.
  void direct_span_written(std::uint32_t offset,
                           std::uint32_t bytes) override {
    mark_dirty(offset, bytes);
    notify(offset, bytes);
  }
  /// Pure storage: writes never schedule device activity.
  [[nodiscard]] bool write_is_activating(std::uint32_t) const override {
    return false;
  }
  /// True while a master caches state derived from this memory; direct
  /// span writers must then go through write() so the observer fires.
  [[nodiscard]] bool observed() const { return observer_ != nullptr; }

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(bytes_.size());
  }

  /// Bulk host-side access (program loading, result checking) — no
  /// latency modelling.
  void load(std::uint32_t offset, const void* src, std::size_t n);
  void read_block(std::uint32_t offset, void* dst, std::size_t n) const;
  void fill(std::uint8_t value);

  // -- Fault hooks --------------------------------------------------------
  /// Transient: flip one bit now.
  void flip_bit(std::uint32_t offset, unsigned bit);
  /// Permanent: force one bit to `value` on every read from now on.
  void set_stuck_bit(std::uint32_t offset, unsigned bit, bool value);
  void clear_faults();

  // -- Snapshot / restore -------------------------------------------------
  struct Stuck {
    std::uint32_t offset;
    std::uint8_t bit;
    bool value;
  };
  /// Full captured state: the byte image plus the armed stuck-at faults.
  struct Snapshot {
    std::vector<std::uint8_t> bytes;
    std::vector<Stuck> stuck;
  };
  [[nodiscard]] Snapshot snapshot() const { return {bytes_, stuck_}; }
  /// Restore a snapshot taken from an identically sized memory (throws
  /// std::invalid_argument otherwise). One memcpy plus a full-span
  /// observer notification so masters drop derived caches.
  void restore(const Snapshot& s);
  /// Bitwise-equivalent restore that copies (and notifies the observer
  /// about) only the chunks that actually differ from the snapshot image.
  /// Campaign trials restoring a checkpoint rung re-run mostly-identical
  /// prefixes, so the bulk of the image — program text above all — is
  /// already in place; skipping it keeps masters' derived caches
  /// (predecoded instructions) warm for the untouched spans. Falls back
  /// to the full restore when the armed stuck-at fault set differs (the
  /// read transform changed, so every span is stale).
  ///
  /// The scan is bounded to the union of the internal dirty watermark
  /// (every mutation since the last restore — bus writes, bulk moves,
  /// host loads, bit flips; masters writing through direct spans report
  /// via direct_span_written) and the caller-supplied stale span
  /// [stale_lo, stale_lo+stale_len): the bytes where the image last
  /// restored into this memory may differ from `s`. Callers that do not
  /// track which image the memory holds must pass the full span.
  void restore_diff(const Snapshot& s, std::uint32_t stale_lo,
                    std::uint32_t stale_len);
  /// restore_diff with the whole image treated as stale (sound against
  /// any prior contents; still skips copying/notifying matching chunks).
  void restore_diff(const Snapshot& s) { restore_diff(s, 0, size()); }

  /// memcmp granule of the image scans (restore_diff, differing_span).
  /// 256 bytes balances memcmp call overhead against over-invalidation
  /// of a master's predecoded instructions.
  static constexpr std::uint32_t kScanChunk = 256;

 private:
  [[nodiscard]] std::uint8_t read_byte(std::uint32_t offset) const;
  void notify(std::uint32_t offset, std::uint32_t bytes) {
    if (observer_ != nullptr) observer_->bus_memory_written(this, offset, bytes);
  }
  /// Widen the dirty watermark (bytes touched since the last restore).
  void mark_dirty(std::uint32_t offset, std::uint32_t bytes) {
    if (bytes == 0) return;
    dirty_lo_ = std::min(dirty_lo_, offset);
    dirty_hi_ = std::max(dirty_hi_, offset + bytes);
  }

  std::string name_;
  std::vector<std::uint8_t> bytes_;
  unsigned latency_;
  BusWriteObserver* observer_ = nullptr;
  std::vector<Stuck> stuck_;
  /// Dirty watermark [dirty_lo_, dirty_hi_): bytes mutated since the
  /// last restore (lo > hi = clean). Lets restore_diff scan only what
  /// this execution actually touched instead of the whole image.
  std::uint32_t dirty_lo_ = 0xFFFFFFFFu;
  std::uint32_t dirty_hi_ = 0;
};

/// Exact byte range [lo, lo + len) outside which two equally sized
/// images agree; len 0 when they are identical. Scans chunk-wise with
/// memcmp from each end and walks bytes only inside the first and last
/// differing chunks.
struct ByteSpan {
  std::uint32_t lo = 0;
  std::uint32_t len = 0;
};
[[nodiscard]] ByteSpan differing_span(const std::vector<std::uint8_t>& a,
                                      const std::vector<std::uint8_t>& b);

}  // namespace aspen::sys
