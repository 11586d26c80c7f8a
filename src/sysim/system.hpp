#pragma once
/// \file system.hpp
/// Full-platform wiring (paper Fig. 3): RISC-V CPU + shared bus + DRAM +
/// DMA engine + a cluster of photonic DSA processing elements (PEs), with
/// interrupt lines from DMA and every PE OR-ed into the CPU's external
/// interrupt. Synchronous cycle stepping: every tick advances the CPU and
/// all devices by one system clock cycle. run()/run_until() are
/// event-driven by default: stretches where no component does visible
/// work — the CPU stalled on a memory/multiplier latency or parked in
/// WFI, the DMA engine quiescent, PEs counting down their optical
/// busy time — are skipped in bulk via the per-component skip_cycles()
/// hooks, at bit-identical cycle counts to per-cycle ticking.
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

class System {
 public:
  explicit System(SystemConfig cfg = {});

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

  /// Complete captured platform state, restorable into any System built
  /// from the same SystemConfig. Component snapshots hold architectural
  /// state only; derived caches (predecoded micro-ops, translated blocks,
  /// bus windows, mesh transfers) are kept coherent across restores. Memory
  /// images are immutable and shared, so copying a snapshot is cheap. The
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

 private:
  /// Cycles that can elapse from the current state without any component
  /// doing observable work (0 when the next tick must be stepped).
  [[nodiscard]] std::uint64_t skippable_cycles() const;
  /// True when the CPU can free-run instructions without per-cycle
  /// device ticking (all devices idle, interrupt line low).
  [[nodiscard]] bool can_burst() const;
  /// Advance every clock by `n` guaranteed-idle cycles at once.
  void skip_cycles(std::uint64_t n);

  SystemConfig cfg_;
  Bus bus_;
  std::unique_ptr<Memory> dram_;
  std::unique_ptr<DmaEngine> dma_;
  std::vector<std::unique_ptr<PhotonicAccelerator>> pes_;
  std::unique_ptr<rv::Cpu> cpu_;
  std::uint64_t cycle_ = 0;
};

}  // namespace aspen::sys
