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
/// Execution core: a fetched word decodes into a compact micro-op (dense
/// handler tag + pre-extracted fields). run_burst() decodes straight-line
/// runs once into translated blocks (block_cache.hpp) and dispatches
/// them chained; step() — the per-cycle tick() and the burst's fallback
/// where no block can run — decodes each fetch afresh. Fetch/load/store
/// to DRAM and the SPM windows resolve through a raw-span fast path
/// (Bus::direct_window) instead of the virtual BusDevice call. Stores —
/// from this CPU, the DMA engine, the host, or injected faults — evict
/// overlapping blocks, so self-modifying code and fault flips behave
/// exactly like the decode-every-fetch interpreter.
///
/// Semantics live in two places only: exec_op() defines every micro-op
/// for the fast path (step() and the block tier's per-op retire, with
/// exec_alu() as the register-op core that static runs call directly),
/// and the legacy exec() interpreter, selected by
/// CpuConfig::legacy_decode, is the independent differential oracle.
/// Cycle counts are bit-identical between the two, whether the fast path
/// is ticked per cycle or run in bursts.

#include <array>
#include <cstdint>

#include "sysim/bus.hpp"
#include "sysim/riscv/block_cache.hpp"

namespace aspen::sys::rv {

struct CpuConfig {
  std::uint32_t reset_pc = 0x80000000u;
  /// Cycles a multiply / divide occupies, issue cycle included; at least
  /// 1 (the Cpu constructor throws std::invalid_argument on 0).
  unsigned mul_latency = 3;
  unsigned div_latency = 20;
  /// Instruction-fetch cycles. Default 0 models a tightly-coupled
  /// instruction memory / perfect i-cache (fetch overlapped with
  /// execute); data accesses always pay the full bus + device latency.
  unsigned fetch_latency = 0;
  /// Use the seed's decode-every-fetch interpreter instead of the
  /// micro-op decoder, block tier and direct-memory fast path. Kept as
  /// the differential oracle; results are bit-identical.
  bool legacy_decode = false;
};

enum class Halt {
  kRunning,
  kEbreak,       ///< ebreak retired (normal test exit)
  kEcallExit,    ///< ecall with a7 == 93 (exit syscall convention)
  kBusFault,     ///< access to an unmapped address, no handler
  kIllegal,      ///< illegal instruction, no handler
};

/// The devices a burst runs ahead of; System implements it.
class BurstDevices {
 public:
  /// Advance every device through the cycles before `issue_cycle`, the
  /// cycle (on the CPU's cycle counter, zero-based) in which the CPU
  /// issues the access it is about to make.
  virtual void catch_up(std::uint64_t issue_cycle) = 0;
  /// True when no device register the CPU can read changes before the
  /// burst's window ends: no DMA transfer is in flight and no watchdog
  /// counts down. Asked only when a WFI spin loop is about to be skipped.
  [[nodiscard]] virtual bool devices_still() const = 0;
  /// The burst skipped `cycles` cycles of a WFI spin loop in whole
  /// periods (host-side bookkeeping only).
  virtual void spin_skipped(std::uint64_t cycles) = 0;

 protected:
  ~BurstDevices() = default;
};

/// Bus-address spans an in-flight DMA transfer has yet to read (`src`)
/// and write (`dst`), as of the start of a burst.
struct DmaInFlight {
  ByteExtent src;
  ByteExtent dst;
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

  /// Execute instructions back-to-back for up to `budget` (>= 1) cycles
  /// while the devices lag behind (temporal decoupling); returns the
  /// cycles consumed. Caller guarantees: not halted, not in WFI, no
  /// pending stall, legacy_decode off, no read trace attached, the
  /// interrupt line level loaded with set_irq(), and no device event
  /// (PE completion, watchdog expiry, DMA completion) before the device
  /// phase of the window's last cycle, so the line holds its level
  /// unless the CPU itself writes a device. `dma` is the in-flight bulk
  /// DMA transfer, or nullptr when the engine is idle.
  ///
  /// The devices stay at the cycle the burst started in until the CPU
  /// needs them: every bus-routed access (MMIO load or store, slow
  /// fetch) first calls `devices.catch_up()`, and so does a direct load
  /// overlapping the DMA's remaining destination or a direct store
  /// overlapping its remaining source or destination. The caller
  /// advances the devices the rest of the way after the burst.
  ///
  /// Returns 0 without executing when a trap is due (line high, MIE and
  /// MEIE set), the DMA destination overlaps translated code, or the first
  /// fetch overlaps the DMA's remaining destination; the caller must
  /// then tick. Otherwise ends early when the CPU halts, parks on WFI
  /// with the line low, faults on the bus or writes an activating
  /// register; before an instruction whose fetch overlaps the DMA's
  /// remaining destination; and, when the line is high, after any MMIO
  /// store (a W1C may lower it), CSR instruction or mret (either may make
  /// the trap due).
  ///
  /// A WFI executed while the line is high does not end the burst: at
  /// the start of the next cycle the CPU wakes as tick() would (pc steps
  /// past the WFI, which instret does not count) and dispatches on. Only
  /// a budget that runs out on the WFI leaves it parked there. At each
  /// such wake point the CPU compares its state (pc, registers, machine
  /// CSRs, pending stall and the number of stores executed) with the
  /// previous wake point of the same burst. When they are equal and
  /// `devices.devices_still()`, the loop between them repeats exactly
  /// until the window ends, so whole periods are added to cycles and
  /// instret without executing them (`devices.spin_skipped()`).
  /// Architectural state evolves exactly as under per-cycle tick().
  std::uint64_t run_burst(std::uint64_t budget, BurstDevices& devices,
                          const DmaInFlight* dma);

  [[nodiscard]] bool halted() const { return halt_ != Halt::kRunning; }
  [[nodiscard]] Halt halt_reason() const { return halt_; }
  /// a0 at halt (exit code convention).
  [[nodiscard]] std::uint32_t exit_code() const { return read_reg(10); }

  void set_irq(bool level) { irq_ = level; }

  [[nodiscard]] std::uint32_t pc() const { return pc_; }
  /// Register read; reports x`i` to the attached read trace.
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

  // -- Snapshot / restore --------------------------------------------------
  /// Complete architectural + timing state. Derived execution state
  /// (translated blocks, resolved bus windows) is deliberately excluded
  /// and survives restore().
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

  /// Attach a read trace (nullptr detaches). While attached, tick()
  /// runs the legacy interpreter, which fetches and loads through the
  /// bus and reads the rs1/rs2 fields of every instruction, and
  /// read_reg() takes its masked branch and reports each read. The
  /// caller must not run bursts meanwhile (System::set_read_trace).
  void set_read_trace(ReadTrace* trace);

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

  /// Block-tier diagnostics (blocks built, chained dispatches,
  /// evictions, hit rate). Only bursts build blocks, so all zero under
  /// legacy_decode or per-cycle ticking.
  [[nodiscard]] const BlockStats& block_stats() const {
    return blocks_.stats();
  }

 private:
  [[nodiscard]] static MicroOp decode(std::uint32_t inst);
  /// Decode the instruction at `pc` from the raw window `w`, which must
  /// cover [pc, pc+2): the one direct-window decode step() and
  /// build_block() share. False when a 32-bit instruction's upper parcel
  /// lies past the window edge.
  [[nodiscard]] static bool decode_at(const Bus::DirectWindow& w,
                                      std::uint32_t pc, MicroOp& u);
  /// Expand a 16-bit RV32C halfword ((h & 3) != 3) into its full-width
  /// RV32I/M equivalent encoding; reserved/unsupported forms expand to 0
  /// (a guaranteed-illegal word). Shared by the legacy interpreter and
  /// the fast path, so compressed forms execute identically on both.
  [[nodiscard]] static std::uint32_t rvc_expand(std::uint16_t h);
  /// Fetch (direct window, else the bus), decode and dispatch one
  /// instruction: the per-cycle tick()'s path and the burst's fallback
  /// step where no block can run.
  void step();
  /// The fast path's single definition of instruction semantics: one
  /// micro-op's register, memory, CSR and trap effects plus its stall
  /// and instret/pc update. No cycle or budget bookkeeping.
  void exec_op(const MicroOp& u);
  /// The burst's fallback step through step(): the fetch check against
  /// the DMA destination, its issue cycle, the instruction, and the
  /// stall burn. False when the burst must end (fetch from the DMA
  /// destination, burst-ending event, halt, WFI, or budget exhausted
  /// mid-stall).
  bool burst_step(std::uint64_t& budget);
  /// Consume pending stall cycles from the burst budget. False when the
  /// budget ran out before the stall drained.
  bool burn_stall(std::uint64_t& budget);
  /// A burst instruction just parked the CPU on WFI: with the line high,
  /// skip whole periods of a repeating spin loop, burn the stall and
  /// wake at the start of the next cycle. False when the burst must end
  /// with the CPU parked (line low, or the budget ran out).
  bool wake_in_burst(std::uint64_t& budget);
  /// The wake point's spin check (see run_burst): record the state, and
  /// when it equals the previous wake point's, skip whole periods.
  void skip_spin(std::uint64_t& budget);
  // -- Block translation tier ----------------------------------------------
  /// run_burst()'s dispatch loop: translated blocks (chain -> lookup ->
  /// build), falling back to burst_step() whenever a block cannot be
  /// used (MMIO-resident code, revoked or unresolved fetch window,
  /// misaligned pc), and waking WFIs with the line high (wake_in_burst).
  void run_burst_blocks(std::uint64_t& budget);
  /// Decode the straight-line run at `start` through the fetch window
  /// into `blk` and carve it into segments. False when no instruction
  /// could be read; the block is left invalid.
  bool build_block(Block& blk, std::uint32_t start);
  /// Execute blk's ops with per-op cycle/instret/stall bookkeeping
  /// identical to per-cycle ticking. Returns true when every op
  /// retired (pc_ is at a block successor); false when the block or
  /// burst must stop early (budget/stall exhaustion, bus event, halt,
  /// WFI, or the block was invalidated by one of its own stores).
  bool exec_block(const Block& blk, std::uint64_t& budget,
                  std::uint64_t gen0);
  /// One micro-op through the exact burst_step() shape: cycle and
  /// budget bookkeeping around exec_op (fetch stall, exit checks, stall
  /// burn). Caller guarantees budget >= 1. Returns false when the
  /// block/burst must stop after this op.
  bool retire_op(const MicroOp& u, std::uint64_t& budget);
  /// read_reg()'s branch for armed stuck bits or an attached trace.
  [[nodiscard]] std::uint32_t read_reg_slow(int i) const;
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
  /// Inside a burst, bring the lagging devices up to the current
  /// instruction's issue cycle before a bus-routed access; a no-op
  /// under per-cycle tick().
  void sync_devices() {
    if (devices_ != nullptr) devices_->catch_up(cycles_ - 1);
  }
  /// Catch the devices up before a direct access that touches bytes the
  /// in-flight DMA transfer has yet to write (loads and stores) or read
  /// (stores). Called only while `dma_` is set.
  void guard_dma(std::uint32_t addr, unsigned size, bool store) {
    if (dma_->dst.overlaps(addr, size) ||
        (store && dma_->src.overlaps(addr, size)))
      devices_->catch_up(cycles_ - 1);
  }
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
  /// Set during a burst by an event that must end it (see run_burst).
  bool end_burst_ = false;
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
  /// read_reg() takes its masked branch: stuck bits armed or a trace
  /// attached.
  bool reg_read_slow_ = false;
  BlockCache blocks_;  ///< basic-block translation tier
  /// Set only inside run_burst: the lagging devices and, while a DMA
  /// transfer is in flight, its remaining spans. `dma_` doubles as the
  /// guard flag every direct access tests.
  BurstDevices* devices_ = nullptr;
  const DmaInFlight* dma_ = nullptr;

  // Machine CSRs.
  std::uint32_t mstatus_ = 0;
  std::uint32_t mie_ = 0;
  std::uint32_t mip_ = 0;
  std::uint32_t mtvec_ = 0;
  std::uint32_t mscratch_ = 0;
  std::uint32_t mepc_ = 0;
  std::uint32_t mcause_ = 0;
  std::uint32_t mtval_ = 0;
  /// tick() runs the legacy interpreter: legacy_decode or a trace.
  bool legacy_ = false;
  ReadTrace* trace_ = nullptr;
  /// Stores executed on the fast path (host-side: the spin check's proof
  /// that a loop left memory alone).
  std::uint64_t stores_ = 0;
  /// CPU state at the last wake point of the running burst.
  struct SpinMark {
    bool valid = false;
    std::uint32_t pc = 0;
    unsigned stall = 0;
    std::uint64_t stores = 0;
    std::array<std::uint32_t, 32> regs{};
    std::array<std::uint32_t, 8> csrs{};
    std::uint64_t cycles = 0, instret = 0;
  };
  SpinMark spin_;
};

}  // namespace aspen::sys::rv
