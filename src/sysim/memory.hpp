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
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sysim/bus.hpp"

namespace aspen::sys {

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
  /// Immutable byte image, shared by every copy of a snapshot (ladder
  /// rungs, shards, worker replicas).
  using Image = std::vector<std::uint8_t>;
  /// Full captured state: the byte image plus the armed stuck-at faults.
  struct Snapshot {
    std::shared_ptr<const Image> bytes;
    std::vector<Stuck> stuck;
    [[nodiscard]] std::size_t size() const { return bytes ? bytes->size() : 0; }
  };
  /// Capture the current state into a new image, which this memory then
  /// holds.
  [[nodiscard]] Snapshot snapshot();
  /// Restore a snapshot taken from an identically sized memory (throws
  /// std::invalid_argument before changing anything otherwise). Copies
  /// and notifies the observer about only the chunks that differ, so
  /// masters' derived caches (predecoded instructions) stay warm for
  /// untouched spans. Every byte outside the dirty watermark equals the
  /// held image, so the scan covers:
  ///  - the watermark alone when `s` holds the held image;
  ///  - the watermark plus the span where the held image and `s` differ
  ///    when another image is held (computed once per image pair);
  ///  - everything (a full copy) when no image is held or the armed
  ///    stuck-at set differs, since the read transform changed.
  /// Masters writing through direct spans must report those writes
  /// (direct_span_written) first.
  void restore(const Snapshot& s);

  /// memcmp granule of the image scans (restore, differing_span).
  /// 256 bytes balances memcmp call overhead against over-invalidation
  /// of a master's predecoded instructions.
  static constexpr std::uint32_t kScanChunk = 256;

 private:
  [[nodiscard]] std::uint8_t read_byte(std::uint32_t offset) const;
  void notify(std::uint32_t offset, std::uint32_t bytes) {
    if (observer_ != nullptr) observer_->bus_memory_written(this, offset, bytes);
  }
  /// Widen the dirty watermark (bytes touched since the held image).
  void mark_dirty(std::uint32_t offset, std::uint32_t bytes) {
    if (bytes == 0) return;
    dirty_lo_ = std::min(dirty_lo_, offset);
    dirty_hi_ = std::max(dirty_hi_, offset + bytes);
  }
  /// Hold `image`, which bytes_ now equals, with a clean watermark.
  void hold(std::shared_ptr<const Image> image) {
    held_ = std::move(image);
    dirty_lo_ = 0xFFFFFFFFu;
    dirty_hi_ = 0;
  }
  /// Span where the held image and `other` differ, from the pair cache.
  [[nodiscard]] ByteSpan held_delta(const std::shared_ptr<const Image>& other);

  std::string name_;
  std::vector<std::uint8_t> bytes_;
  unsigned latency_;
  BusWriteObserver* observer_ = nullptr;
  std::vector<Stuck> stuck_;
  /// The image last restored from or snapshotted to (a live reference,
  /// so it cannot be freed while held). Every byte outside the dirty
  /// watermark [dirty_lo_, dirty_hi_) equals it (lo > hi = clean).
  std::shared_ptr<const Image> held_;
  std::uint32_t dirty_lo_ = 0xFFFFFFFFu;
  std::uint32_t dirty_hi_ = 0;
  /// differing_span per image pair (either order), least recently used
  /// entry replaced. Keys are weak and compared by owner: an entry whose
  /// image was freed keeps its control block, so it can never match a
  /// new image allocated at the same address. Per memory, so thread
  /// workers with private systems share nothing mutable.
  struct PairSpan {
    std::weak_ptr<const Image> a, b;
    ByteSpan span;
    std::uint64_t used = 0;
  };
  std::array<PairSpan, 32> pairs_{};
  std::uint64_t pair_clock_ = 0;
};

}  // namespace aspen::sys
