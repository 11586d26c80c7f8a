#pragma once
/// \file system.hpp
/// Full-platform wiring (paper Fig. 3): RISC-V CPU + shared bus + DRAM +
/// DMA engine + a cluster of photonic DSA processing elements (PEs), with
/// interrupt lines from DMA and every PE OR-ed into the CPU's external
/// interrupt. Synchronous cycle stepping: every tick advances the CPU and
/// all devices by one system clock cycle. run()/run_until() are
/// event-driven by default, at bit-identical cycle counts to per-cycle
/// ticking. Each loop iteration scans the devices once for the next
/// device edge (PE completion, watchdog expiry, bulk DMA completion) and
/// the interrupt line, then:
///  - skips the CPU's stall or WFI cycles in bulk via the per-component
///    skip_cycles() hooks, up to that edge;
///  - or lets the CPU run a burst (Cpu::run_burst) up to that edge while
///    the devices lag behind (SystemC TLM-2.0-style temporal decoupling
///    with the quantum bounded by the next device event). The devices
///    catch up through skip_cycles() before every bus-routed CPU access,
///    before direct accesses that touch an in-flight DMA's remaining
///    bytes, and at the end of the burst. A WFI executed while the line
///    is high wakes inside the burst, and a WFI spin loop that repeats
///    its exact state while the devices hold still (DMA idle, no
///    watchdog armed) is skipped in whole periods up to the edge;
///  - or ticks once when neither is exact: a trap is due, the CPU wakes
///    from a WFI it parked on, a DMA transfer must move one bus beat per
///    cycle (MMIO endpoint, overlapping ranges, revoked span), or the DMA
///    writes translated code.
/// All clocks agree at every loop iteration and on every return.
///
/// Address map:
///   0x8000_0000  DRAM (code + data)
///   0x4000_0000  PE 0 (MMRs + SPM windows, 64 KiB stride per PE)
///   0x4001_0000  PE 1 ...
///   0x4100_0000  DMA engine

#include <memory>
#include <vector>

#include "sysim/accelerator.hpp"
#include "sysim/dma.hpp"
#include "sysim/memory.hpp"
#include "sysim/riscv/cpu.hpp"

namespace aspen::sys {

struct SystemConfig {
  std::uint32_t dram_base = 0x80000000u;
  std::uint32_t dram_size = 4u << 20;
  unsigned dram_latency = 10;
  std::uint32_t accel_base = 0x40000000u;
  std::uint32_t accel_stride = 0x10000u;
  std::uint32_t dma_base = 0x41000000u;
  unsigned bus_latency = 1;
  /// DMA beat width in bytes; at least 1 (construction throws
  /// std::invalid_argument on 0).
  unsigned dma_bytes_per_cycle = 4;
  std::size_t num_pes = 1;
  AcceleratorConfig accel;  ///< configuration shared by all PEs
  rv::CpuConfig cpu;
  std::uint64_t max_cycles = 200'000'000ULL;
  /// Skip idle stretches in bulk inside run()/run_until(). Per-cycle
  /// ticking (false) is kept for differential testing and benchmarking;
  /// results are bit-identical either way.
  bool event_driven = true;
};

/// Event-loop counters (host-side execution strategy, not architectural
/// state: excluded from SystemSnapshot and untouched by restore()). Every
/// cycle run_until() advances is a burst cycle, a skipped cycle or a tick.
struct SystemStats {
  std::uint64_t bursts = 0;          ///< CPU bursts that ran
  std::uint64_t burst_cycles = 0;    ///< cycles the CPU ran in bursts
  std::uint64_t skips = 0;           ///< bulk skips of stall/WFI cycles
  std::uint64_t skipped_cycles = 0;  ///< cycles skipped in bulk
  std::uint64_t ticks = 0;           ///< lockstep tick() cycles
  std::uint64_t catch_ups = 0;       ///< mid-burst device advances
  /// WFI spin loops skipped in whole periods inside a burst, and the
  /// cycles they skipped (counted in burst_cycles too).
  std::uint64_t spin_skips = 0;
  std::uint64_t spin_cycles = 0;
};

class System final : private rv::BurstDevices {
 public:
  explicit System(SystemConfig cfg = {});
  // The CPU and the DMA engine hold references to bus_, so a moved or
  // copied System would run against the original's bus.
  System(const System&) = delete;
  System& operator=(const System&) = delete;
  System(System&&) = delete;
  System& operator=(System&&) = delete;

  /// Copy an assembled program to the reset address.
  void load_program(const std::vector<std::uint32_t>& words);
  /// Host-side data staging in DRAM (offset relative to dram_base).
  void write_dram(std::uint32_t offset, const void* src, std::size_t n);
  void read_dram(std::uint32_t offset, void* dst, std::size_t n) const;

  /// Advance one cycle.
  void tick();

  /// Advance until the CPU halts or the absolute cycle `target` is
  /// reached — event-driven unless cfg.event_driven is false. This is
  /// the exact-cycle entry point fault campaigns use to hit their
  /// injection points: on return (unless halted) now() == target.
  void run_until(std::uint64_t target);

  struct RunResult {
    std::uint64_t cycles = 0;
    std::uint64_t instret = 0;
    rv::Halt halt = rv::Halt::kRunning;
    std::uint32_t exit_code = 0;
    bool timed_out = false;
  };
  /// Run until the CPU halts or max_cycles elapse.
  RunResult run();

  /// Attach a read trace to the CPU, the DRAM, every PE and its SPMs
  /// (nullptr detaches). While it is attached:
  ///  - run_until() drives the CPU through the legacy interpreter, as
  ///    CpuConfig::legacy_decode does, and runs no bursts, so a fetch
  ///    reads once per retired instruction;
  ///  - every memory revokes its direct span, so CPU fetches and loads,
  ///    DMA beats and the PEs' SPM loads all reach Memory::read(), one
  ///    bus beat per cycle (revoked spans are cycle-exact);
  ///  - tick() stamps the trace with the cycle it executes before the
  ///    CPU and the devices act, and with ReadTrace::kEndOfRun when the
  ///    cycle ends, so reads outside a tick stamp end-of-run.
  /// Cycle counts and architectural results are those of an untraced
  /// run.
  void set_read_trace(ReadTrace* trace);

  /// Complete captured platform state, restorable into any System built
  /// from the same SystemConfig. Component snapshots hold architectural
  /// state only; derived caches (translated blocks, bus windows, mesh
  /// transfers) are kept coherent across restores. Memory
  /// images are immutable and shared, so copying a snapshot is cheap, and
  /// a memory unwritten since its last snapshot or restore hands out the
  /// image it holds (the CPU's direct stores are published first). The
  /// fault campaigns stage a workload once, snapshot, and restore per
  /// trial instead of paying construction (DRAM allocation + weight
  /// programming) every run.
  struct SystemSnapshot {
    std::uint64_t cycle = 0;
    Memory::Snapshot dram;
    DmaEngine::Snapshot dma;
    std::vector<PhotonicAccelerator::Snapshot> pes;
    rv::Cpu::Snapshot cpu;
  };
  [[nodiscard]] SystemSnapshot snapshot();
  /// Restore a snapshot taken from an identically configured System. The
  /// whole shape (DRAM size, PE count, SPM sizes, mesh phase counts) is
  /// checked first; a mismatch throws std::invalid_argument with nothing
  /// changed. The cost follows what changed: each memory copies only the
  /// chunks that differ from `s` (see Memory::restore), and the CPU keeps
  /// its direct-memory windows and translated blocks, which the memories'
  /// observer notifications have already invalidated wherever contents
  /// changed.
  void restore(const SystemSnapshot& s);
  /// Alias of restore(), kept because perfbench/ still calls it; the
  /// span arguments are ignored.
  void restore_fast(const SystemSnapshot& s, std::uint32_t = 0,
                    std::uint32_t = 0) { restore(s); }

  [[nodiscard]] rv::Cpu& cpu() { return *cpu_; }
  [[nodiscard]] Memory& dram() { return *dram_; }
  [[nodiscard]] DmaEngine& dma() { return *dma_; }
  [[nodiscard]] Bus& bus() { return bus_; }
  [[nodiscard]] std::size_t pe_count() const { return pes_.size(); }
  [[nodiscard]] PhotonicAccelerator& pe(std::size_t i) { return *pes_.at(i); }
  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t now() const { return cycle_; }
  [[nodiscard]] const SystemStats& stats() const { return stats_; }

 private:
  /// One pass over the devices: the cycles to the nearest device edge
  /// (the edge lands in the last of them; 0 when the DMA must tick per
  /// cycle, ~0 with no event due), and the OR-ed interrupt line in
  /// `line`. An out-parameter rather than a {u64, bool} return, which
  /// GCC builds through a stalled stack round trip on this hot path.
  [[nodiscard]] std::uint64_t scan_devices(bool& line) const;
  /// Let the CPU run up to `window` cycles with the devices lagging;
  /// false when the burst could not start and the cycle must be ticked.
  bool burst(std::uint64_t window, bool line);
  /// rv::BurstDevices: advance the devices to the CPU's issue cycle.
  void catch_up(std::uint64_t issue_cycle) override;
  /// rv::BurstDevices: the DMA is idle and no PE watchdog is armed.
  [[nodiscard]] bool devices_still() const override;
  /// rv::BurstDevices: count a skipped spin.
  void spin_skipped(std::uint64_t cycles) override;
  void advance_devices(std::uint64_t n);
  /// Advance every clock by `n` guaranteed-idle cycles at once.
  void skip_cycles(std::uint64_t n);

  SystemConfig cfg_;
  Bus bus_;
  std::unique_ptr<Memory> dram_;
  std::unique_ptr<DmaEngine> dma_;
  std::vector<std::unique_ptr<PhotonicAccelerator>> pes_;
  std::unique_ptr<rv::Cpu> cpu_;
  std::uint64_t cycle_ = 0;
  // Burst bookkeeping: the devices' cycle while they lag the CPU, and
  // cycle_ minus the CPU's cycle counter (the two can differ after
  // Cpu::set_counters), both fixed when a burst starts.
  std::uint64_t devices_at_ = 0;
  std::uint64_t cpu_offset_ = 0;
  SystemStats stats_;
  ReadTrace* trace_ = nullptr;
};

}  // namespace aspen::sys
