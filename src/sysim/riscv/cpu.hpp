#pragma once
/// \file cpu.hpp
/// RV32IMC instruction-set simulator with simple timing — the host
/// processor of the platform (paper Section 5: gem5-SALAM "ported to
/// support the RISC-V ISA"). Machine mode only, bare metal:
///  - full RV32I + M extension + C (compressed) extension: every RV32C
///    quadrant form that maps to RV32I/M expands to the same micro-op
///    set, with 2-byte PC stepping and misaligned-on-2 fetch traps
///  - machine CSRs (mstatus/mie/mip/mtvec/mepc/mcause/mtval/mscratch,
///    misa, mcycle/mcycleh, minstret/minstreth)
///  - external interrupt line, WFI, MRET
///  - timing: base CPI 1, configurable multiply/divide latencies, memory
///    latency from the bus, +1 cycle on taken branches
///  - microarchitecture-level fault hooks on the register file (transient
///    bit flips and permanent stuck-at bits) for the gem5-MARVEL-style
///    reliability campaigns.
///
/// Execution core: each fetched word is decoded once into a compact
/// micro-op (dense handler tag + pre-extracted fields) stored in a
/// direct-mapped cache keyed by PC, and dispatched through a dense switch
/// in step(). Fetch/load/store to DRAM resolve through a raw-span fast
/// path (Bus::direct_window) instead of the virtual BusDevice call. DRAM
/// stores — from this CPU, the DMA engine, the host, or injected faults —
/// invalidate overlapping cache entries, so self-modifying code and
/// fault flips behave exactly like the decode-every-fetch interpreter.
///
/// Semantics live in two places only: exec_op() defines every micro-op
/// for both fast paths (the uop-at-a-time step() and the block tier's
/// per-op retire, with exec_alu() as the register-op core that static
/// runs call directly), and the legacy exec() interpreter, selected by
/// CpuConfig::legacy_decode, is the independent differential oracle.
/// Cycle counts are bit-identical across all three tiers.

#include <array>
#include <cstdint>
#include <vector>

#include "sysim/bus.hpp"
#include "sysim/riscv/block_cache.hpp"

namespace aspen::sys::rv {

struct CpuConfig {
  std::uint32_t reset_pc = 0x80000000u;
  unsigned mul_latency = 3;
  unsigned div_latency = 20;
  /// Instruction-fetch cycles. Default 0 models a tightly-coupled
  /// instruction memory / perfect i-cache (fetch overlapped with
  /// execute); data accesses always pay the full bus + device latency.
  unsigned fetch_latency = 0;
  /// Use the seed's decode-every-fetch interpreter instead of the
  /// predecoded micro-op cache + DRAM fast path. Kept for differential
  /// testing and before/after benchmarking; results are bit-identical.
  bool legacy_decode = false;
  /// Basic-block translation tier inside run_burst(): straight-line
  /// runs decode once into chained, macro-op-fused blocks. The
  /// uop-at-a-time path (false) and legacy_decode both remain as
  /// differential references — all three tiers are bit-identical.
  bool block_tier = true;
};

enum class Halt {
  kRunning,
  kEbreak,       ///< ebreak retired (normal test exit)
  kEcallExit,    ///< ecall with a7 == 93 (exit syscall convention)
  kBusFault,     ///< access to an unmapped address, no handler
  kIllegal,      ///< illegal instruction, no handler
};

class Cpu final : public BusWriteObserver {
 public:
  Cpu(Bus& bus, CpuConfig cfg = {});
  ~Cpu() override;

  /// Advance one clock cycle (may retire at most one instruction).
  void tick();

  /// Advance the cycle counter through `n` guaranteed-idle cycles in one
  /// call — the event-driven System::run() replacement for ticking
  /// stall/WFI cycles one by one. Contract: n <= stall_remaining()
  /// unless the CPU is waiting in WFI (where any n is idle).
  void skip_cycles(std::uint64_t n);

  struct BurstResult {
    std::uint64_t cycles = 0;  ///< cycles consumed (instructions + stalls)
    bool bus_access = false;   ///< last instruction reached the bus (MMIO)
  };
  /// Execute instructions back-to-back for up to `budget` (>= 1) cycles,
  /// bypassing the per-cycle System loop. Caller guarantees: not halted,
  /// not in WFI, no pending stall, the external interrupt line low and
  /// unable to rise for the window (all devices idle), and the
  /// predecoded engine active. Exits early when the CPU halts, parks on
  /// WFI, or an instruction performs an activating MMIO write, a slow
  /// fetch, or a faulting access — the caller must then run the device
  /// phase of that final cycle, since the write may have started a
  /// device. Pure MMIO reads and passive stores (SPM data, DMA
  /// descriptors) do not end the burst. Architectural state evolves
  /// exactly as under per-cycle tick().
  BurstResult run_burst(std::uint64_t budget);

  [[nodiscard]] bool halted() const { return halt_ != Halt::kRunning; }
  [[nodiscard]] Halt halt_reason() const { return halt_; }
  /// a0 at halt (exit code convention).
  [[nodiscard]] std::uint32_t exit_code() const { return read_reg(10); }

  void set_irq(bool level) { irq_ = level; }

  [[nodiscard]] std::uint32_t pc() const { return pc_; }
  [[nodiscard]] std::uint32_t read_reg(int i) const;
  void write_reg(int i, std::uint32_t v);
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  [[nodiscard]] std::uint64_t instret() const { return instret_; }
  /// Remaining stall cycles before the next instruction can issue.
  [[nodiscard]] unsigned stall_remaining() const { return stall_; }
  /// True while parked on a WFI with no pending interrupt.
  [[nodiscard]] bool waiting_for_interrupt() const { return wfi_; }

  /// Checkpoint/testing hook: preset the 64-bit counter CSRs so guest
  /// reads of mcycleh/minstreth can be exercised without 2^32 real
  /// cycles.
  void set_counters(std::uint64_t cycles, std::uint64_t instret) {
    cycles_ = cycles;
    instret_ = instret;
  }

  void reset();

  // -- Snapshot / restore --------------------------------------------------
  /// Complete architectural + timing state. Derived execution state (the
  /// predecoded micro-op cache, translated blocks, resolved bus windows)
  /// is deliberately excluded and survives restore().
  struct Snapshot {
    std::array<std::uint32_t, 32> regs{};
    std::array<std::uint32_t, 32> stuck_or{};
    std::array<std::uint32_t, 32> stuck_and{};
    bool reg_faults_armed = false;
    std::uint32_t pc = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instret = 0;
    unsigned stall = 0;
    bool irq = false;
    bool wfi = false;
    Halt halt = Halt::kRunning;
    std::uint32_t mstatus = 0, mie = 0, mip = 0, mtvec = 0;
    std::uint32_t mscratch = 0, mepc = 0, mcause = 0, mtval = 0;
  };
  [[nodiscard]] Snapshot snapshot() const;
  /// Restore architectural state and keep the derived caches. Callers
  /// must first publish_store_spans() and restore the memories, whose
  /// observer notifications invalidate every span whose contents changed
  /// — the same protocol that keeps the caches coherent across DMA
  /// writes (System::restore does both).
  void restore(const Snapshot& s);

  // -- Fault hooks ---------------------------------------------------------
  void flip_reg_bit(int reg, unsigned bit);
  void set_reg_stuck_bit(int reg, unsigned bit, bool value);
  void clear_faults();

  /// BusWriteObserver: DRAM mutated behind the CPU's back (DMA, host
  /// load, injected fault) — drop derived state covering the range.
  void bus_memory_written(BusDevice* dev, std::uint32_t offset,
                          std::uint32_t bytes) override;

  /// Report every direct-window store executed since the last publish to
  /// the owning devices (via direct_span_written), so their dirty
  /// watermarks cover the CPU's raw-span writes. Restores call this
  /// first; the per-store bookkeeping is two min/max updates on
  /// addresses the fast path already has in registers.
  void publish_store_spans();

  /// Block-tier diagnostics (blocks built, chained dispatches, fused
  /// pairs, evictions, hit rate). All zero when the tier is off.
  [[nodiscard]] const BlockStats& block_stats() const {
    return blocks_.stats();
  }
  [[nodiscard]] bool block_tier_active() const {
    return cfg_.block_tier && !cfg_.legacy_decode;
  }

 private:
  // MicroOp lives at namespace scope in block_cache.hpp, shared with
  // the block tier.
  struct ICacheEntry {
    std::uint32_t tag = kInvalidTag;
    MicroOp uop;
  };
  /// Tags are always even (odd PCs trap as misaligned before fetch), so
  /// an odd sentinel can never collide with a cached tag.
  static constexpr std::uint32_t kInvalidTag = 0xFFFFFFFFu;
  static constexpr std::uint32_t kICacheEntries = 4096;  // direct-mapped

  [[nodiscard]] static MicroOp decode(std::uint32_t inst);
  /// Expand a 16-bit RV32C halfword ((h & 3) != 3) into its full-width
  /// RV32I/M equivalent encoding; reserved/unsupported forms expand to 0
  /// (a guaranteed-illegal word). Shared by every tier so compressed
  /// forms execute identically on all three.
  [[nodiscard]] static std::uint32_t rvc_expand(std::uint16_t h);
  /// Fetch (icache / DRAM fast path / bus fallback) and dispatch one
  /// instruction.
  void step();
  /// The fast paths' single definition of instruction semantics: one
  /// micro-op's register, memory, CSR and trap effects plus its stall
  /// and instret/pc update. No cycle or budget bookkeeping.
  void exec_op(const MicroOp& u);
  /// One run_burst iteration through step(): its issue cycle, the
  /// instruction, and the stall burn. False when the burst must end
  /// (bus event, halt, WFI, or budget exhausted mid-stall).
  bool burst_step(std::uint64_t& budget, BurstResult& r);
  /// Consume pending stall cycles from the burst budget. False when the
  /// budget ran out before the stall drained.
  bool burn_stall(std::uint64_t& budget, BurstResult& r);
  // -- Block translation tier ----------------------------------------------
  /// run_burst() body when cfg.block_tier is on: dispatch translated
  /// blocks (chain -> lookup -> build), falling back to single-step
  /// step() iterations whenever a block cannot be used (MMIO-resident
  /// code, revoked fetch window, mid-pair resume points).
  BurstResult run_burst_blocks(std::uint64_t budget);
  /// Decode the straight-line run at `start` through the fetch window
  /// into `blk` (with the fusion peephole). False when no instruction
  /// could be read; the block is left invalid.
  bool build_block(Block& blk, std::uint32_t start);
  /// Execute blk's ops with per-op cycle/instret/stall bookkeeping
  /// identical to a run_burst iteration. Returns true when every op
  /// retired (pc_ is at a block successor); false when the block or
  /// burst must stop early (budget/stall exhaustion, bus event, halt,
  /// WFI, or the block was invalidated by one of its own stores).
  bool exec_block(const Block& blk, std::uint64_t& budget, BurstResult& r,
                  std::uint64_t gen0);
  /// One micro-op through the exact run_burst iteration shape: cycle
  /// and budget bookkeeping around exec_op (fetch stall, exit checks,
  /// stall burn). Caller guarantees budget >= 1. Returns false when the
  /// block/burst must stop after this op.
  bool retire_half(const MicroOp& u, std::uint64_t& budget, BurstResult& r);
  /// Compute-only register-op core (LUI/AUIPC, OP-IMM, OP, M, fence):
  /// no cycle/stall/pc bookkeeping — callers account for those. Called
  /// by exec_op and by exec_block's static runs.
  void exec_alu(const MicroOp& u);
  /// Legacy decode-every-fetch path; `len` is the encoded length of the
  /// fetched instruction (2 for an expanded RV32C form).
  void exec(std::uint32_t inst, std::uint32_t len);
  void take_trap(std::uint32_t cause, std::uint32_t epc,
                 std::uint32_t tval = 0);
  [[nodiscard]] std::uint32_t read_csr(std::uint32_t addr) const;
  void write_csr(std::uint32_t addr, std::uint32_t value);
  void mem_fault(std::uint32_t cause, std::uint32_t tval = 0);

  // -- Direct-memory fast path ---------------------------------------------
  // Two cached windows: slot 0 is resolved by instruction fetch (the
  // DRAM code+data region), slot 1 by data accesses (typically an SPM
  // window during copy loops). Windows whose device refuses a span are
  // cached negatively (data == nullptr, region metadata set) so MMIO
  // regions are not re-queried on every access.
  [[nodiscard]] static bool covers(const Bus::DirectWindow& w,
                                   std::uint32_t addr, unsigned size) {
    return size <= w.size && addr - w.base <= w.size - size;
  }
  /// Window serving [addr, addr+size) directly, resolving slot `slot` on
  /// a full miss; nullptr when the access must use the bus.
  const Bus::DirectWindow* lookup_window(std::uint32_t addr, unsigned size,
                                         std::size_t slot);
  /// Re-resolve slot `slot` for `addr`, keeping the write-observer
  /// registration in `observed_devs_` in sync (both positive and
  /// negative windows are observed, so span revocation and re-grant —
  /// stuck-at faults armed/cleared — always reach bus_memory_written).
  void set_window(std::size_t slot, std::uint32_t addr);
  bool fast_read(std::uint32_t addr, unsigned size, std::uint32_t& value);
  bool fast_write(std::uint32_t addr, std::uint32_t value, unsigned size);
  void icache_invalidate(std::uint32_t addr, std::uint32_t bytes);
  void icache_flush();
  /// Flush one slot's accumulated store span into its window's device
  /// and reset it. Must run before the slot's window is re-resolved (the
  /// span is expressed against the current window's device).
  void flush_store_span(std::size_t slot);

  Bus& bus_;
  CpuConfig cfg_;
  std::array<std::uint32_t, 32> regs_{};
  std::array<std::uint32_t, 32> stuck_or_{};   ///< bits forced to 1
  std::array<std::uint32_t, 32> stuck_and_{};  ///< bits forced to 0 (mask)
  std::uint32_t pc_;
  std::uint64_t cycles_ = 0;
  std::uint64_t instret_ = 0;
  unsigned stall_ = 0;
  bool irq_ = false;
  bool wfi_ = false;
  bool bus_access_ = false;  ///< set by the slow paths during step()
  Halt halt_ = Halt::kRunning;

  std::array<Bus::DirectWindow, 2> win_{};  ///< [0] fetch, [1] data
  /// Per-slot store watermark (bus addresses, [lo, hi)): bytes the CPU
  /// wrote through the slot's raw span since the last flush. These are
  /// the only memory mutations invisible to the device, so flushing them
  /// (publish_store_spans / window re-resolution or revocation) is what
  /// makes the memories' dirty watermarks complete.
  std::array<std::uint32_t, 2> store_lo_{0xFFFFFFFFu, 0xFFFFFFFFu};
  std::array<std::uint32_t, 2> store_hi_{0, 0};
  /// Devices this CPU is registered on as write observer, per slot.
  /// Tracked separately from win_ because a revoked window loses its
  /// device pointer while the registration must persist (and be torn
  /// down in the destructor).
  std::array<BusDevice*, 2> observed_devs_{};
  bool reg_faults_armed_ = false;  ///< any stuck bits on the register file
  std::vector<ICacheEntry> icache_;
  /// Byte extent [lo, hi) of cached instructions (entry tag t covers
  /// [t, t+4)) for cheap store-invalidation rejects; exact at both
  /// edges, including half-word-aligned tags.
  ByteExtent icache_ext_;
  BlockCache blocks_;  ///< basic-block translation tier (cfg.block_tier)

  // Machine CSRs.
  std::uint32_t mstatus_ = 0;
  std::uint32_t mie_ = 0;
  std::uint32_t mip_ = 0;
  std::uint32_t mtvec_ = 0;
  std::uint32_t mscratch_ = 0;
  std::uint32_t mepc_ = 0;
  std::uint32_t mcause_ = 0;
  std::uint32_t mtval_ = 0;
};

}  // namespace aspen::sys::rv
