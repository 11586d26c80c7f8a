#pragma once
/// \file bus.hpp
/// System interconnect of the gem5-style platform (paper Fig. 3): a
/// single shared bus routing CPU / DMA accesses by address to memories
/// and memory-mapped devices. Each device reports its access latency;
/// the bus adds its own arbitration cost. Cycle accounting is returned
/// with every access so masters can stall accordingly.
///
/// Fast path: plain memories expose their raw backing store through
/// `BusDevice::direct_span()`, and `Bus::direct_window()` resolves it
/// together with the region base and the fixed bus+device latency. A
/// master holding such a window (the CPU's DRAM fast path) can fetch,
/// load and store without the linear region scan or the virtual
/// read()/write() call, at bit-identical cycle cost. The remaining MMIO
/// traffic is served through `find()`, which keeps an MRU region cache.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace aspen::sys {

class BusDevice;

/// Little-endian scalar access on a raw byte store — the one audited
/// spot for the size-switched loads/stores shared by Memory and the
/// direct-span fast paths of bus masters. `size` is 1, 2 or 4.
inline std::uint32_t load_le(const std::uint8_t* p, unsigned size) {
  switch (size) {
    case 4: {
      std::uint32_t v;
      std::memcpy(&v, p, 4);
      return v;
    }
    case 2: {
      std::uint16_t h;
      std::memcpy(&h, p, 2);
      return h;
    }
    default: return *p;
  }
}
inline void store_le(std::uint8_t* p, std::uint32_t value, unsigned size) {
  switch (size) {
    case 4: std::memcpy(p, &value, 4); break;
    case 2: {
      const auto h = static_cast<std::uint16_t>(value);
      std::memcpy(p, &h, 2);
      break;
    }
    default: *p = static_cast<std::uint8_t>(value); break;
  }
}

/// Callback interface for masters that cache state derived from a
/// device's backing store (e.g. predecoded instructions). Registered via
/// `BusDevice::set_write_observer`; single observer per device.
class BusWriteObserver {
 public:
  virtual ~BusWriteObserver() = default;
  /// Bytes [offset, offset+bytes) of `dev` changed — through a bus-side
  /// write (DMA), a host-side load/fill, or an injected fault — or the
  /// device's read transform changed (stuck-at bits armed/cleared, which
  /// notify the full span). Any derived cache must be dropped.
  virtual void bus_memory_written(BusDevice* dev, std::uint32_t offset,
                                  std::uint32_t bytes) = 0;
};

/// Sink for the architectural reads of a run (System::set_read_trace):
/// memory bytes, general-purpose registers and a PE's programmed phases,
/// plus the one write path fault campaigns grade by: a LOAD_WEIGHTS that
/// reprograms a PE's phases. Each access is reported with the stamp held
/// in `now`: System::tick sets it to the cycle it executes before the CPU
/// and the devices act, and back to kEndOfRun when the cycle ends, so
/// reads outside a tick (the output readers after the run) stamp
/// end-of-run. A read may be stamped late, never early: fault campaigns
/// treat a location with no read stamped at or after an injection cycle
/// as dead from that cycle on.
class ReadTrace {
 public:
  static constexpr std::uint64_t kEndOfRun = ~std::uint64_t{0};
  std::uint64_t now = kEndOfRun;
  /// Bytes [offset, offset + bytes) of `memory` were read.
  virtual void memory_read(const BusDevice* memory, std::uint32_t offset,
                           std::uint32_t bytes) = 0;
  /// Register x`reg` was read.
  virtual void register_read(int reg) = 0;
  /// PE `pe` computed a START on its programmed phases.
  virtual void phases_read(const BusDevice* pe) = 0;
  /// A LOAD_WEIGHTS reprogrammed every phase of PE `pe` (one that a CRC
  /// mismatch aborts writes nothing and is not reported). In a combined
  /// LOAD and START it comes before the START's phases_read.
  virtual void phases_written(const BusDevice* pe) = 0;

 protected:
  ~ReadTrace() = default;
};

/// Anything addressable on the bus.
class BusDevice {
 public:
  virtual ~BusDevice() = default;
  /// Read `size` (1, 2 or 4) bytes at device-relative `offset`. Reads
  /// must be pure with respect to tick()-observable state (no
  /// clear-on-read registers): masters rely on this to keep executing
  /// through MMIO loads without a device tick in between.
  virtual std::uint32_t read(std::uint32_t offset, unsigned size) = 0;
  /// Write `size` bytes.
  virtual void write(std::uint32_t offset, std::uint32_t value,
                     unsigned size) = 0;
  /// True when a write at `offset` can change tick()-observable behavior
  /// — start an operation or otherwise schedule future device activity.
  /// Pure storage (memories, SPM windows, address/length registers)
  /// returns false so masters may batch execution across such writes;
  /// the conservative default keeps unknown devices safe.
  [[nodiscard]] virtual bool write_is_activating(
      std::uint32_t /*offset*/) const {
    return true;
  }
  /// Cycles per access (on top of the bus latency).
  [[nodiscard]] virtual unsigned access_latency() const { return 1; }
  [[nodiscard]] virtual std::string name() const { return "device"; }

  /// Raw little-endian backing store for masters that bypass the virtual
  /// read/write calls. Devices whose reads have side effects or apply a
  /// transform (MMIO registers, memories with stuck-at faults armed)
  /// return {nullptr, 0}; a master must then fall back to read()/write().
  struct DirectSpan {
    std::uint8_t* data = nullptr;
    std::uint32_t size = 0;
  };
  [[nodiscard]] virtual DirectSpan direct_span() { return {}; }
  /// Report a bulk out-of-band mutation of the direct span (the DMA
  /// engine's bulk fast path writes straight into the raw store): the
  /// device must forward it to its registered write observer so derived
  /// caches (predecoded instructions) stay coherent. No-op for devices
  /// without a span.
  virtual void direct_span_written(std::uint32_t /*offset*/,
                                   std::uint32_t /*bytes*/) {}
  /// Register the (single) observer notified on out-of-band mutation of
  /// the backing store. Devices without a direct span ignore it.
  virtual void set_write_observer(BusWriteObserver* /*observer*/) {}
};

/// Simple address-routed bus. Regions must not overlap.
class Bus {
 public:
  /// Cycles added by the interconnect itself per transaction.
  explicit Bus(unsigned bus_latency = 1) : bus_latency_(bus_latency) {}

  void attach(std::uint32_t base, std::uint32_t size, BusDevice* dev);

  struct Access {
    std::uint32_t value = 0;
    unsigned latency = 0;
    bool fault = false;       ///< no device at address
    bool activating = false;  ///< write reached an activating register
  };
  [[nodiscard]] Access read(std::uint32_t addr, unsigned size);
  Access write(std::uint32_t addr, std::uint32_t value, unsigned size);

  /// Resolved fast-path window for the region containing `addr`: region
  /// base/size clipped to the device's direct span, the raw data pointer
  /// and the fixed per-access latency (bus + device). `data` is nullptr
  /// when the region cannot be accessed directly (MMIO, or the device
  /// currently refuses a span) — base/size/dev are still filled so
  /// masters can cache the miss; a fully zeroed window means unmapped.
  struct DirectWindow {
    std::uint32_t base = 0;
    std::uint32_t size = 0;
    std::uint8_t* data = nullptr;
    unsigned latency = 0;
    BusDevice* dev = nullptr;
  };
  [[nodiscard]] DirectWindow direct_window(std::uint32_t addr) const;

 private:
  struct Region {
    std::uint32_t base;
    std::uint32_t size;
    BusDevice* dev;
  };
  [[nodiscard]] const Region* find(std::uint32_t addr) const;
  std::vector<Region> regions_;
  unsigned bus_latency_;
  /// Most-recently-used region index: consecutive accesses overwhelmingly
  /// hit the same region, so find() is O(1) on the hot path.
  mutable std::size_t mru_ = 0;
};

}  // namespace aspen::sys
