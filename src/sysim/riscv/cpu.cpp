#include "sysim/riscv/cpu.hpp"

#include <cstring>
#include <stdexcept>

#include "sysim/riscv/assembler.hpp"  // CSR number constants

namespace aspen::sys::rv {

namespace {
constexpr std::uint32_t kMstatusMie = 1u << 3;
constexpr std::uint32_t kMstatusMpie = 1u << 7;
constexpr std::uint32_t kMeip = 1u << 11;
constexpr std::uint32_t kCauseExternal = 0x8000000Bu;
/// misa: MXL=1 (RV32) plus the implemented extension letters I, M, C.
constexpr std::uint32_t kMisaValue =
    (1u << 30) | (1u << 8) | (1u << 12) | (1u << 2);

std::int32_t sign_extend(std::uint32_t v, unsigned bits) {
  const unsigned shift = 32 - bits;
  return static_cast<std::int32_t>(v << shift) >> shift;
}
}  // namespace

Cpu::Cpu(Bus& bus, CpuConfig cfg)
    : bus_(bus), cfg_(cfg), pc_(cfg.reset_pc), legacy_(cfg.legacy_decode) {
  // Every tier adds `latency - 1` to the unsigned stall counter for a
  // multiply/divide; a zero latency would wrap it.
  if (cfg.mul_latency == 0 || cfg.div_latency == 0)
    throw std::invalid_argument("Cpu: mul/div latency must be >= 1");
  stuck_and_.fill(0xFFFFFFFFu);
}

Cpu::~Cpu() {
  if (observed_devs_[0] != nullptr)
    observed_devs_[0]->set_write_observer(nullptr);
  if (observed_devs_[1] != nullptr && observed_devs_[1] != observed_devs_[0])
    observed_devs_[1]->set_write_observer(nullptr);
}

Cpu::Snapshot Cpu::snapshot() const {
  Snapshot s;
  s.regs = regs_;
  s.stuck_or = stuck_or_;
  s.stuck_and = stuck_and_;
  s.reg_faults_armed = reg_faults_armed_;
  s.pc = pc_;
  s.cycles = cycles_;
  s.instret = instret_;
  s.stall = stall_;
  s.irq = irq_;
  s.wfi = wfi_;
  s.halt = halt_;
  s.mstatus = mstatus_;
  s.mie = mie_;
  s.mip = mip_;
  s.mtvec = mtvec_;
  s.mscratch = mscratch_;
  s.mepc = mepc_;
  s.mcause = mcause_;
  s.mtval = mtval_;
  return s;
}

void Cpu::restore(const Snapshot& s) {
  regs_ = s.regs;
  stuck_or_ = s.stuck_or;
  stuck_and_ = s.stuck_and;
  reg_faults_armed_ = s.reg_faults_armed;
  reg_read_slow_ = reg_faults_armed_ || trace_ != nullptr;
  pc_ = s.pc;
  cycles_ = s.cycles;
  instret_ = s.instret;
  stall_ = s.stall;
  irq_ = s.irq;
  wfi_ = s.wfi;
  halt_ = s.halt;
  mstatus_ = s.mstatus;
  mie_ = s.mie;
  mip_ = s.mip;
  mtvec_ = s.mtvec;
  mscratch_ = s.mscratch;
  mepc_ = s.mepc;
  mcause_ = s.mcause;
  mtval_ = s.mtval;
  end_burst_ = false;
}

std::uint32_t Cpu::read_reg(int i) const {
  // x0 stays 0 in regs_ (write_reg guards it), so the fault-free,
  // untraced fast path is a single load.
  if (!reg_read_slow_) return regs_[static_cast<std::size_t>(i)];
  return read_reg_slow(i);
}

// Out of line: exec_block flattens every read_reg into its dispatch
// loop, where an inlined trace call at each site grows the loop by a
// third and slows e6_sw_gemm.
#if defined(__GNUC__)
__attribute__((noinline))
#endif
std::uint32_t Cpu::read_reg_slow(int i) const {
  if (trace_ != nullptr) trace_->register_read(i);
  if (i == 0) return 0;
  return (regs_[static_cast<std::size_t>(i)] |
          stuck_or_[static_cast<std::size_t>(i)]) &
         stuck_and_[static_cast<std::size_t>(i)];
}

void Cpu::write_reg(int i, std::uint32_t v) {
  if (i != 0) regs_[static_cast<std::size_t>(i)] = v;
}

void Cpu::flip_reg_bit(int reg, unsigned bit) {
  if (reg <= 0 || reg > 31 || bit > 31)
    throw std::out_of_range("Cpu::flip_reg_bit");
  regs_[static_cast<std::size_t>(reg)] ^= (1u << bit);
}

void Cpu::set_reg_stuck_bit(int reg, unsigned bit, bool value) {
  if (reg <= 0 || reg > 31 || bit > 31)
    throw std::out_of_range("Cpu::set_reg_stuck_bit");
  if (value)
    stuck_or_[static_cast<std::size_t>(reg)] |= (1u << bit);
  else
    stuck_and_[static_cast<std::size_t>(reg)] &= ~(1u << bit);
  reg_faults_armed_ = true;
  reg_read_slow_ = true;
}

void Cpu::clear_faults() {
  stuck_or_.fill(0);
  stuck_and_.fill(0xFFFFFFFFu);
  reg_faults_armed_ = false;
  reg_read_slow_ = trace_ != nullptr;
}

void Cpu::set_read_trace(ReadTrace* trace) {
  trace_ = trace;
  legacy_ = cfg_.legacy_decode || trace != nullptr;
  reg_read_slow_ = reg_faults_armed_ || trace != nullptr;
}

std::uint32_t Cpu::read_csr(std::uint32_t addr) const {
  switch (addr) {
    case kCsrMstatus: return mstatus_;
    case kCsrMisa: return kMisaValue;
    case kCsrMie: return mie_;
    case kCsrMip: return mip_;
    case kCsrMtvec: return mtvec_;
    case kCsrMscratch: return mscratch_;
    case kCsrMepc: return mepc_;
    case kCsrMcause: return mcause_;
    case kCsrMtval: return mtval_;
    case kCsrMcycle: return static_cast<std::uint32_t>(cycles_);
    case kCsrMcycleH: return static_cast<std::uint32_t>(cycles_ >> 32);
    case kCsrMinstret: return static_cast<std::uint32_t>(instret_);
    case kCsrMinstretH: return static_cast<std::uint32_t>(instret_ >> 32);
    default: return 0;
  }
}

void Cpu::write_csr(std::uint32_t addr, std::uint32_t value) {
  switch (addr) {
    case kCsrMstatus: mstatus_ = value; break;
    case kCsrMisa: break;  // WARL read-only: the extension set is fixed
    case kCsrMie: mie_ = value; break;
    case kCsrMip: break;  // MEIP is wired to the interrupt line
    case kCsrMtvec: mtvec_ = value; break;
    case kCsrMscratch: mscratch_ = value; break;
    case kCsrMepc: mepc_ = value; break;
    case kCsrMcause: mcause_ = value; break;
    case kCsrMtval: mtval_ = value; break;
    default: break;
  }
}

void Cpu::take_trap(std::uint32_t cause, std::uint32_t epc,
                    std::uint32_t tval) {
  mepc_ = epc;
  mcause_ = cause;
  mtval_ = tval;
  if (mstatus_ & kMstatusMie)
    mstatus_ |= kMstatusMpie;
  else
    mstatus_ &= ~kMstatusMpie;
  mstatus_ &= ~kMstatusMie;
  pc_ = mtvec_ & ~3u;
}

void Cpu::mem_fault(std::uint32_t cause, std::uint32_t tval) {
  if (mtvec_ != 0) {
    take_trap(cause, pc_, tval);
  } else {
    // No handler installed: cause 2 is an illegal instruction, the rest
    // are access faults.
    halt_ = cause == 2 ? Halt::kIllegal : Halt::kBusFault;
  }
}

void Cpu::tick() {
  if (halt_ != Halt::kRunning) return;
  ++cycles_;
  if (stall_ > 0) {
    --stall_;
    return;
  }

  // External interrupt line -> MEIP; WFI wakes on pending regardless of
  // the global enable, per the privileged spec.
  if (irq_)
    mip_ |= kMeip;
  else
    mip_ &= ~kMeip;

  if (wfi_) {
    if (mip_ & kMeip) {
      wfi_ = false;
      pc_ += 4;  // retire the WFI
    } else {
      return;  // idle
    }
  }

  if ((mstatus_ & kMstatusMie) && (mie_ & kMeip) && (mip_ & kMeip)) {
    take_trap(kCauseExternal, pc_);
    return;
  }

  if (legacy_) {
    if (pc_ & 1u) {
      // 2-byte alignment is the fetch granule with RV32C: bit 0 set is
      // the only misaligned case, reported with the faulting pc in
      // mtval. Reachable only through a software-written mepc + mret.
      mem_fault(0, pc_);  // instruction address misaligned
      return;
    }
    // Halfword-first fetch: a compressed parcel ((h & 3) != 3) is the
    // whole instruction; otherwise the second parcel completes the
    // 32-bit word. Fetch ignores bus access latency (tightly-coupled
    // instruction path), so the split read leaves timing unchanged.
    const Bus::Access lo = bus_.read(pc_, 2);
    if (lo.fault) {
      mem_fault(1, pc_);  // instruction access fault
      return;
    }
    std::uint32_t inst = lo.value;
    std::uint32_t len = 2;
    if ((inst & 3u) == 3u) {
      const Bus::Access hi = bus_.read(pc_ + 2, 2);
      if (hi.fault) {
        mem_fault(1, pc_);
        return;
      }
      inst |= hi.value << 16;
      len = 4;
    } else {
      inst = rvc_expand(static_cast<std::uint16_t>(inst));
    }
    stall_ += cfg_.fetch_latency;
    exec(inst, len);
    return;
  }
  step();
}

void Cpu::skip_cycles(std::uint64_t n) {
  if (halt_ != Halt::kRunning || n == 0) return;
  cycles_ += n;
  const auto burn =
      static_cast<unsigned>(n < stall_ ? n : static_cast<std::uint64_t>(stall_));
  stall_ -= burn;
}

std::uint64_t Cpu::run_burst(std::uint64_t budget, BurstDevices& devices,
                             const DmaInFlight* dma) {
  // A due trap is taken by the per-cycle prologue in tick().
  if (irq_ && (mstatus_ & kMstatusMie) && (mie_ & kMeip)) return 0;
  // DMA writes into translated code would evict it only when the
  // devices catch up, after the CPU may already have run the stale copy.
  if (dma != nullptr && blocks_.extent().overlaps(dma->dst)) return 0;
  // The line holds its level for the whole window, and no trap can
  // become due without ending the burst, so the per-tick irq/WFI/trap
  // prologue reduces to this one mip update. end_burst_ latches only on
  // burst-ending events, so one reset serves the whole burst.
  mip_ = irq_ ? mip_ | kMeip : mip_ & ~kMeip;
  end_burst_ = false;
  spin_.valid = false;
  devices_ = &devices;
  dma_ = dma;
  std::uint64_t left = budget;
  run_burst_blocks(left);
  devices_ = nullptr;
  dma_ = nullptr;
  return budget - left;
}

bool Cpu::burst_step(std::uint64_t& budget) {
  // Bytes the DMA has yet to write may differ between memory and the
  // oracle's view at this cycle: end the burst before fetching them.
  if (dma_ != nullptr && dma_->dst.overlaps(pc_, 4)) return false;
  ++cycles_;
  --budget;
  step();
  if (end_burst_ || halt_ != Halt::kRunning || wfi_) return false;
  return burn_stall(budget);
}

bool Cpu::burn_stall(std::uint64_t& budget) {
  if (stall_ == 0) return true;
  const std::uint64_t burn =
      stall_ < budget ? static_cast<std::uint64_t>(stall_) : budget;
  cycles_ += burn;
  budget -= burn;
  stall_ -= static_cast<unsigned>(burn);
  return stall_ == 0;  // false: budget exhausted mid-stall
}

// ------------------------------------------------- block translation tier

bool Cpu::build_block(Block& blk, std::uint32_t start) {
  const Bus::DirectWindow& w = win_[0];
  blk.valid = false;
  blk.ops.clear();
  blk.start = start;
  blk.taken_pc = Block::kNoPc;
  blk.fall_pc = Block::kNoPc;
  blk.taken_link = -1;
  blk.fall_link = -1;
  constexpr std::size_t kMaxOps = 64;
  BlockStats& st = blocks_.stats();

  if (start & 1u) return false;  // misaligned entry traps via step()
  std::uint32_t p = start;
  bool terminated = false;
  while (!terminated && blk.ops.size() < kMaxOps && covers(w, p, 2)) {
    MicroOp u;
    // A 32-bit instruction whose upper parcel lies past the window edge
    // ends the block; the fallback step fetches it over the bus.
    if (!decode_at(w, p, u)) break;
    if (u.len == 2) ++st.rvc_built;
    st.fetch_bytes += u.len;
    const bool is_branch = u.op >= MicroOp::kBeq && u.op <= MicroOp::kBgeu;
    const bool is_term =
        is_branch || u.op == MicroOp::kJal || u.op == MicroOp::kJalr ||
        u.op == MicroOp::kEcall || u.op == MicroOp::kEbreak ||
        u.op == MicroOp::kWfi || u.op == MicroOp::kMret ||
        u.op == MicroOp::kIllegal;

    blk.ops.push_back(u);
    if (is_term) {
      if (is_branch) {
        blk.taken_pc = p + u.imm;
        blk.fall_pc = p + u.len;
      } else if (u.op == MicroOp::kJal) {
        blk.taken_pc = p + u.imm;
      }
      // jalr/mret: indirect; ecall/ebreak/wfi/illegal: terminal or trap.
      terminated = true;
    }
    p += u.len;
  }
  if (blk.ops.empty()) return false;
  blk.end = p;
  if (!terminated) blk.fall_pc = p;  // window edge / length cap

  // Resolve auipc into a kLui constant: the block is keyed by its entry
  // PC, so every op's PC is static and the result can be precomputed
  // (the op then no longer reads pc_ and qualifies for static runs).
  std::uint32_t op_pc = blk.start;
  for (MicroOp& u : blk.ops) {
    if (u.op == MicroOp::kAuipc) {
      u.op = MicroOp::kLui;
      u.imm = op_pc + u.imm;
    }
    op_pc += u.len;
  }
  // Then carve the exec plan into segments: consecutive pure register
  // ops — no faults, traps, bus traffic, or cycles_/pc_ reads, cycle
  // cost known now — form a static run the executor retires with one
  // batched budget/counter update; every other op gets a per-op
  // segment. Cost 0 marks a dynamic op (the constructor rejects a zero
  // latency, so an M op always costs at least 1).
  const auto static_cost = [this](const MicroOp& u) -> std::uint32_t {
    const std::uint8_t op = u.op;
    if (op == MicroOp::kLui || op == MicroOp::kFence ||
        (op >= MicroOp::kAddi && op <= MicroOp::kAnd))
      return 1;
    if (op >= MicroOp::kMul && op <= MicroOp::kRemu)
      return op <= MicroOp::kMulhu ? cfg_.mul_latency : cfg_.div_latency;
    return 0;
  };
  blk.segs.clear();
  for (std::uint32_t i = 0; i < blk.ops.size();) {
    Segment s;
    s.first = i;
    std::uint32_t c = static_cost(blk.ops[i]);
    if (c == 0) {
      // Consecutive dynamic ops share one segment: the per-op executor
      // walks [first, first+count) anyway, so splitting them only adds
      // segment-loop overhead on memory-heavy blocks.
      do {
        ++s.count;
        ++i;
      } while (i < blk.ops.size() && static_cost(blk.ops[i]) == 0);
    } else {
      s.static_run = true;
      do {
        s.cycles += c;
        s.pc_bump += blk.ops[i].len;
        ++s.count;
        ++i;
        c = i < blk.ops.size() ? static_cost(blk.ops[i]) : 0;
      } while (c != 0);
    }
    blk.segs.push_back(s);
  }
  blocks_.commit(blk);
  return true;
}

void Cpu::exec_alu(const MicroOp& u) {
  switch (u.op) {
    case MicroOp::kLui:
      write_reg(u.rd, u.imm);
      break;
    case MicroOp::kAuipc:
      // Only reachable with pc_ current (per-op paths): block building
      // resolves auipc to a kLui constant, so static runs — which batch
      // the pc_ update — never see this case.
      write_reg(u.rd, pc_ + u.imm);
      break;
    case MicroOp::kAddi:
      write_reg(u.rd, read_reg(u.rs1) + u.imm);
      break;
    case MicroOp::kSlti:
      write_reg(u.rd, static_cast<std::int32_t>(read_reg(u.rs1)) <
                              static_cast<std::int32_t>(u.imm)
                          ? 1
                          : 0);
      break;
    case MicroOp::kSltiu:
      write_reg(u.rd, read_reg(u.rs1) < u.imm ? 1 : 0);
      break;
    case MicroOp::kXori:
      write_reg(u.rd, read_reg(u.rs1) ^ u.imm);
      break;
    case MicroOp::kOri:
      write_reg(u.rd, read_reg(u.rs1) | u.imm);
      break;
    case MicroOp::kAndi:
      write_reg(u.rd, read_reg(u.rs1) & u.imm);
      break;
    case MicroOp::kSlli:
      write_reg(u.rd, read_reg(u.rs1) << u.imm);
      break;
    case MicroOp::kSrli:
      write_reg(u.rd, read_reg(u.rs1) >> u.imm);
      break;
    case MicroOp::kSrai:
      write_reg(u.rd,
                static_cast<std::uint32_t>(
                    static_cast<std::int32_t>(read_reg(u.rs1)) >> u.imm));
      break;
    case MicroOp::kAdd:
      write_reg(u.rd, read_reg(u.rs1) + read_reg(u.rs2));
      break;
    case MicroOp::kSub:
      write_reg(u.rd, read_reg(u.rs1) - read_reg(u.rs2));
      break;
    case MicroOp::kSll:
      write_reg(u.rd, read_reg(u.rs1) << (read_reg(u.rs2) & 0x1F));
      break;
    case MicroOp::kSlt:
      write_reg(u.rd, static_cast<std::int32_t>(read_reg(u.rs1)) <
                              static_cast<std::int32_t>(read_reg(u.rs2))
                          ? 1
                          : 0);
      break;
    case MicroOp::kSltu:
      write_reg(u.rd, read_reg(u.rs1) < read_reg(u.rs2) ? 1 : 0);
      break;
    case MicroOp::kXor:
      write_reg(u.rd, read_reg(u.rs1) ^ read_reg(u.rs2));
      break;
    case MicroOp::kSrl:
      write_reg(u.rd, read_reg(u.rs1) >> (read_reg(u.rs2) & 0x1F));
      break;
    case MicroOp::kSra:
      write_reg(u.rd, static_cast<std::uint32_t>(
                          static_cast<std::int32_t>(read_reg(u.rs1)) >>
                          (read_reg(u.rs2) & 0x1F)));
      break;
    case MicroOp::kOr:
      write_reg(u.rd, read_reg(u.rs1) | read_reg(u.rs2));
      break;
    case MicroOp::kAnd:
      write_reg(u.rd, read_reg(u.rs1) & read_reg(u.rs2));
      break;
    case MicroOp::kMul:
    case MicroOp::kMulh:
    case MicroOp::kMulhsu:
    case MicroOp::kMulhu:
    case MicroOp::kDiv:
    case MicroOp::kDivu:
    case MicroOp::kRem:
    case MicroOp::kRemu: {
      const std::uint32_t a = read_reg(u.rs1);
      const std::uint32_t b = read_reg(u.rs2);
      const auto sa = static_cast<std::int64_t>(static_cast<std::int32_t>(a));
      const auto sb = static_cast<std::int64_t>(static_cast<std::int32_t>(b));
      const auto ua = static_cast<std::uint64_t>(a);
      const auto ub = static_cast<std::uint64_t>(b);
      switch (u.op) {
        case MicroOp::kMul:
          write_reg(u.rd, static_cast<std::uint32_t>(sa * sb));
          break;
        case MicroOp::kMulh:
          write_reg(u.rd, static_cast<std::uint32_t>((sa * sb) >> 32));
          break;
        case MicroOp::kMulhsu:
          write_reg(u.rd, static_cast<std::uint32_t>(
                              (sa * static_cast<std::int64_t>(ub)) >> 32));
          break;
        case MicroOp::kMulhu:
          write_reg(u.rd, static_cast<std::uint32_t>((ua * ub) >> 32));
          break;
        case MicroOp::kDiv:
          if (b == 0)
            write_reg(u.rd, 0xFFFFFFFFu);
          else if (a == 0x80000000u && b == 0xFFFFFFFFu)
            write_reg(u.rd, 0x80000000u);
          else
            write_reg(u.rd, static_cast<std::uint32_t>(
                                static_cast<std::int32_t>(a) /
                                static_cast<std::int32_t>(b)));
          break;
        case MicroOp::kDivu:
          write_reg(u.rd, b == 0 ? 0xFFFFFFFFu : a / b);
          break;
        case MicroOp::kRem:
          if (b == 0)
            write_reg(u.rd, a);
          else if (a == 0x80000000u && b == 0xFFFFFFFFu)
            write_reg(u.rd, 0);
          else
            write_reg(u.rd, static_cast<std::uint32_t>(
                                static_cast<std::int32_t>(a) %
                                static_cast<std::int32_t>(b)));
          break;
        default:
          write_reg(u.rd, b == 0 ? a : a % b);
          break;
      }
      break;
    }
    default:
      break;  // kFence: architectural no-op
  }
}

bool Cpu::retire_op(const MicroOp& u, std::uint64_t& budget) {
  ++cycles_;
  --budget;
  stall_ += cfg_.fetch_latency;
  exec_op(u);
  // Burst-ending events, halts and WFI stop before the stall burn,
  // exactly like burst_step (the remaining stall drains via skip_cycles,
  // or a WFI with the line high wakes in run_burst_blocks).
  if (end_burst_ || halt_ != Halt::kRunning || wfi_) return false;
  return burn_stall(budget);
}

// Flattening inlines retire_op, exec_op and the exec_alu switch into
// the dispatch loop — the per-op call overhead is the dominant simulator
// cost on memory-heavy workloads (perfbench's e6_sw_gemm and
// e6_dma_stream). Its speed also depends on where the entry lands: with
// no source change inside it, a 10 KB shrink of code linked before it
// moved it from 16 to 48 mod 64 and cost e6_sw_gemm about 10% of its
// ops/s (x86-64, GCC 12 Release). Pinning the entry to a 64-byte
// boundary, as nn::Matrix::operator* is pinned, read at parity.
#if defined(__GNUC__)
__attribute__((flatten, aligned(64)))
#endif
bool Cpu::exec_block(const Block& blk, std::uint64_t& budget,
                     std::uint64_t gen0) {
  // Static runs batch the bookkeeping of ops that each take their static
  // cost in cycles. Per-instruction fetch stalls and stuck-at masking of
  // register reads both need per-op bookkeeping, so either one sends
  // every op through retire_op (bit-exact).
  const bool static_ok = cfg_.fetch_latency == 0 && !reg_faults_armed_;
  for (const Segment& seg : blk.segs) {
    // Static runs: nothing inside can fault, trap, touch the bus, or
    // observe cycles_/pc_, so when the budget covers the whole run the
    // budget/cycle/instret/pc bookkeeping collapses to one update.
    if (seg.static_run && static_ok && budget >= seg.cycles) {
      const MicroOp* u = &blk.ops[seg.first];
      for (std::uint32_t n = seg.count; n != 0; --n, ++u) exec_alu(*u);
      cycles_ += seg.cycles;
      budget -= seg.cycles;
      instret_ += seg.count;
      pc_ += seg.pc_bump;
      continue;
    }
    // Per-op path: dynamic ops, budget shortfall, armed register
    // faults, or nonzero fetch latency.
    const std::uint32_t seg_end = seg.first + seg.count;
    for (std::uint32_t oi = seg.first; oi < seg_end; ++oi) {
      const MicroOp& u = blk.ops[oi];
      if (budget == 0 || !retire_op(u, budget)) return false;
      // A store that invalidated cached code (possibly this block)
      // bumps the generation: stop and re-resolve from pc_.
      if (u.op >= MicroOp::kSb && u.op <= MicroOp::kSw &&
          blocks_.generation() != gen0)
        return false;
    }
  }
  return true;
}

void Cpu::run_burst_blocks(std::uint64_t& budget) {
  BlockStats& st = blocks_.stats();
  Block* prev = nullptr;  // last fully executed block, for chaining
  while (budget > 0) {
    Block* blk = nullptr;
    std::int32_t* linkp = nullptr;
    // Blocks execute without re-touching the fetch window, so dispatch
    // requires the window to still cover pc_. When it does not (first
    // fetch from a new region, revoked spans under memory stuck-at
    // faults, MMIO-resident code), fall back to burst_step(), whose
    // step() re-resolves the window or takes the slow bus fetch.
    if ((pc_ & 1u) == 0 && covers(win_[0], pc_, 2) &&
        win_[0].data != nullptr) {
      if (prev != nullptr) {
        if (pc_ == prev->taken_pc)
          linkp = &prev->taken_link;
        else if (pc_ == prev->fall_pc)
          linkp = &prev->fall_link;
        if (linkp != nullptr && *linkp >= 0) {
          Block& cand = blocks_.block_at(static_cast<std::uint32_t>(*linkp));
          if (cand.valid && cand.start == pc_) {
            blk = &cand;
            ++st.chained;
          } else {
            *linkp = -1;  // stale hint; self-heals below
          }
        }
      }
      if (blk == nullptr) {
        blk = blocks_.lookup(pc_);
        if (blk == nullptr) {
          Block& slot = blocks_.prepare_slot(pc_);
          if (build_block(slot, pc_)) blk = &slot;
        }
        if (blk != nullptr && linkp != nullptr)
          *linkp = static_cast<std::int32_t>(BlockCache::slot_index(pc_));
      }
    }
    if (blk == nullptr) {
      // Single-step fallback through step().
      prev = nullptr;
      ++st.fallback_steps;
      if (burst_step(budget)) continue;
    } else {
      // The block-tier form of burst_step's fetch check: stop before
      // running code the DMA has yet to write.
      if (dma_ != nullptr &&
          dma_->dst.overlaps(blk->start, blk->end - blk->start))
        break;
      const bool done = exec_block(*blk, budget, blocks_.generation());
      if (!end_burst_ && halt_ == Halt::kRunning && !wfi_ && stall_ == 0) {
        prev = done ? blk : nullptr;
        continue;
      }
    }
    // An event, a halt, a WFI or a budget exhausted mid-stall stopped the
    // step or block; only a WFI with the line high lets the burst go on.
    if (!wfi_ || end_burst_ || halt_ != Halt::kRunning ||
        !wake_in_burst(budget))
      break;
    prev = nullptr;
  }
}

// Out of line, like read_reg_slow: exec_block's dispatch loop must not
// grow by the spin check.
#if defined(__GNUC__)
__attribute__((noinline))
#endif
bool Cpu::wake_in_burst(std::uint64_t& budget) {
  if (!irq_) return false;  // parked until the line rises
  skip_spin(budget);
  // tick() drains the WFI's stall first, then wakes at the top of the
  // next cycle and dispatches in that same cycle. No trap can be due:
  // run_burst refuses to start with one due, and the line holds.
  if (!burn_stall(budget) || budget == 0) return false;
  wfi_ = false;
  pc_ += 4;  // retire the WFI, as tick() does: instret does not count it
  return true;
}

void Cpu::skip_spin(std::uint64_t& budget) {
  const std::array<std::uint32_t, 8> csrs{mstatus_, mie_,  mip_,    mtvec_,
                                          mscratch_, mepc_, mcause_, mtval_};
  // Between two equal wake points the loop read only registers, CSRs
  // (no CSR instruction runs while the line is high without ending the
  // burst) and memory it did not store to. When the devices hold still
  // too, each further period repeats the last one exactly.
  if (spin_.valid && spin_.pc == pc_ && spin_.stall == stall_ &&
      spin_.stores == stores_ && spin_.regs == regs_ && spin_.csrs == csrs &&
      devices_->devices_still()) {
    const std::uint64_t period = cycles_ - spin_.cycles;
    const std::uint64_t periods = budget / period;
    if (periods > 0) {
      cycles_ += periods * period;
      budget -= periods * period;
      instret_ += periods * (instret_ - spin_.instret);
      devices_->spin_skipped(periods * period);
    }
  }
  spin_.valid = true;
  spin_.pc = pc_;
  spin_.stall = stall_;
  spin_.stores = stores_;
  spin_.regs = regs_;
  spin_.csrs = csrs;
  spin_.cycles = cycles_;
  spin_.instret = instret_;
}

// ------------------------------------------------ direct-memory fast path

void Cpu::flush_store_span(std::size_t slot) {
  const std::uint32_t lo = store_lo_[slot], hi = store_hi_[slot];
  if (lo >= hi) return;
  // Cleared before reporting: the device's observer callback may revoke
  // this window and flush again.
  store_lo_[slot] = 0xFFFFFFFFu;
  store_hi_[slot] = 0;
  const Bus::DirectWindow& w = win_[slot];
  if (w.dev != nullptr && w.data != nullptr)
    w.dev->direct_span_written(lo - w.base, hi - lo);
}

void Cpu::publish_store_spans() {
  flush_store_span(0);
  flush_store_span(1);
}

void Cpu::set_window(std::size_t slot, std::uint32_t addr) {
  flush_store_span(slot);
  win_[slot] = bus_.direct_window(addr);
  BusDevice* const dev = win_[slot].dev;
  BusDevice*& cur = observed_devs_[slot];
  if (cur != dev) {
    BusDevice* const other = observed_devs_[1 - slot];
    if (cur != nullptr && cur != other) cur->set_write_observer(nullptr);
    if (dev != nullptr && dev != other) dev->set_write_observer(this);
    cur = dev;
  }
}

const Bus::DirectWindow* Cpu::lookup_window(std::uint32_t addr, unsigned size,
                                            std::size_t slot) {
  if (covers(win_[0], addr, size))
    return win_[0].data != nullptr ? &win_[0] : nullptr;
  if (covers(win_[1], addr, size))
    return win_[1].data != nullptr ? &win_[1] : nullptr;
  set_window(slot, addr);
  const Bus::DirectWindow& w = win_[slot];
  if (covers(w, addr, size) && w.data != nullptr) return &w;
  return nullptr;
}

bool Cpu::fast_read(std::uint32_t addr, unsigned size, std::uint32_t& value) {
  const Bus::DirectWindow* w = lookup_window(addr, size, 1);
  if (w == nullptr) return false;
  if (dma_ != nullptr) guard_dma(addr, size, /*store=*/false);
  value = load_le(w->data + (addr - w->base), size);
  stall_ += w->latency;
  return true;
}

bool Cpu::fast_write(std::uint32_t addr, std::uint32_t value, unsigned size) {
  const Bus::DirectWindow* w = lookup_window(addr, size, 1);
  if (w == nullptr) return false;
  if (dma_ != nullptr) guard_dma(addr, size, /*store=*/true);
  store_le(w->data + (addr - w->base), value, size);
  const std::size_t slot = w == &win_[0] ? 0 : 1;
  store_lo_[slot] = std::min(store_lo_[slot], addr);
  store_hi_[slot] = std::max(store_hi_[slot], addr + size);
  stall_ += w->latency;
  blocks_.invalidate_range(addr, size);  // self-modifying code support
  return true;
}

void Cpu::bus_memory_written(BusDevice* dev, std::uint32_t offset,
                             std::uint32_t bytes) {
  const bool has_span = dev->direct_span().data != nullptr;
  for (std::size_t slot = 0; slot < win_.size(); ++slot) {
    Bus::DirectWindow& w = win_[slot];
    if (w.dev != dev) continue;
    if (w.data != nullptr) {
      blocks_.invalidate_range(w.base + offset, bytes);
      // A revoked span (stuck-at faults armed) forces every access back
      // onto the virtual read path, where the fault masks are applied.
      // Stores made through it are reported first, so the device's dirty
      // watermark still covers them.
      if (!has_span) {
        flush_store_span(slot);
        w = Bus::DirectWindow{};
      }
    } else if (has_span) {
      // Stale negative entry: the device re-granted its span (faults
      // cleared) — drop it so the next access resolves positively.
      w = Bus::DirectWindow{};
    }
  }
}

// ---------------------------------------------------- predecoded dispatch

MicroOp Cpu::decode(std::uint32_t inst) {
  MicroOp u;
  const unsigned opcode = inst & 0x7F;
  u.rd = static_cast<std::uint8_t>((inst >> 7) & 0x1F);
  const unsigned funct3 = (inst >> 12) & 0x7;
  u.rs1 = static_cast<std::uint8_t>((inst >> 15) & 0x1F);
  u.rs2 = static_cast<std::uint8_t>((inst >> 20) & 0x1F);
  const unsigned funct7 = inst >> 25;

  switch (opcode) {
    case 0x37:
      u.op = MicroOp::kLui;
      u.imm = inst & 0xFFFFF000u;
      break;
    case 0x17:
      u.op = MicroOp::kAuipc;
      u.imm = inst & 0xFFFFF000u;
      break;
    case 0x6F: {
      const std::uint32_t imm =
          (((inst >> 31) & 1u) << 20) | (((inst >> 12) & 0xFFu) << 12) |
          (((inst >> 20) & 1u) << 11) | (((inst >> 21) & 0x3FFu) << 1);
      u.op = MicroOp::kJal;
      u.imm = static_cast<std::uint32_t>(sign_extend(imm, 21));
      break;
    }
    case 0x67:
      u.op = MicroOp::kJalr;
      u.imm = static_cast<std::uint32_t>(sign_extend(inst >> 20, 12));
      break;
    case 0x63: {
      const std::uint32_t imm =
          (((inst >> 31) & 1u) << 12) | (((inst >> 7) & 1u) << 11) |
          (((inst >> 25) & 0x3Fu) << 5) | (((inst >> 8) & 0xFu) << 1);
      u.imm = static_cast<std::uint32_t>(sign_extend(imm, 13));
      switch (funct3) {
        case 0: u.op = MicroOp::kBeq; break;
        case 1: u.op = MicroOp::kBne; break;
        case 4: u.op = MicroOp::kBlt; break;
        case 5: u.op = MicroOp::kBge; break;
        case 6: u.op = MicroOp::kBltu; break;
        case 7: u.op = MicroOp::kBgeu; break;
        default: u.op = MicroOp::kIllegal; break;
      }
      break;
    }
    case 0x03:
      u.imm = static_cast<std::uint32_t>(sign_extend(inst >> 20, 12));
      // The seed interpreter treats unknown load funct3 as a plain byte
      // load without sign extension, i.e. LBU; preserved bit-exactly.
      switch (funct3) {
        case 0: u.op = MicroOp::kLb; break;
        case 1: u.op = MicroOp::kLh; break;
        case 2: u.op = MicroOp::kLw; break;
        case 5: u.op = MicroOp::kLhu; break;
        default: u.op = MicroOp::kLbu; break;
      }
      break;
    case 0x23:
      u.imm = static_cast<std::uint32_t>(
          sign_extend(((inst >> 25) << 5) | ((inst >> 7) & 0x1Fu), 12));
      // Unknown store funct3 degrades to a byte store, as in the seed.
      switch (funct3) {
        case 1: u.op = MicroOp::kSh; break;
        case 2: u.op = MicroOp::kSw; break;
        default: u.op = MicroOp::kSb; break;
      }
      break;
    case 0x13:
      switch (funct3) {
        case 0: u.op = MicroOp::kAddi; break;
        case 1: u.op = MicroOp::kSlli; break;
        case 2: u.op = MicroOp::kSlti; break;
        case 3: u.op = MicroOp::kSltiu; break;
        case 4: u.op = MicroOp::kXori; break;
        case 5: u.op = (funct7 & 0x20) ? MicroOp::kSrai : MicroOp::kSrli; break;
        case 6: u.op = MicroOp::kOri; break;
        default: u.op = MicroOp::kAndi; break;
      }
      if (funct3 == 1 || funct3 == 5)
        u.imm = (inst >> 20) & 0x1F;  // shamt
      else
        u.imm = static_cast<std::uint32_t>(sign_extend(inst >> 20, 12));
      break;
    case 0x33:
      if (funct7 == 0x01) {
        switch (funct3) {
          case 0: u.op = MicroOp::kMul; break;
          case 1: u.op = MicroOp::kMulh; break;
          case 2: u.op = MicroOp::kMulhsu; break;
          case 3: u.op = MicroOp::kMulhu; break;
          case 4: u.op = MicroOp::kDiv; break;
          case 5: u.op = MicroOp::kDivu; break;
          case 6: u.op = MicroOp::kRem; break;
          default: u.op = MicroOp::kRemu; break;
        }
      } else {
        // The seed ignores funct7 apart from bit 5 (SUB/SRA selection).
        switch (funct3) {
          case 0: u.op = (funct7 & 0x20) ? MicroOp::kSub : MicroOp::kAdd; break;
          case 1: u.op = MicroOp::kSll; break;
          case 2: u.op = MicroOp::kSlt; break;
          case 3: u.op = MicroOp::kSltu; break;
          case 4: u.op = MicroOp::kXor; break;
          case 5: u.op = (funct7 & 0x20) ? MicroOp::kSra : MicroOp::kSrl; break;
          case 6: u.op = MicroOp::kOr; break;
          default: u.op = MicroOp::kAnd; break;
        }
      }
      break;
    case 0x0F:
      u.op = MicroOp::kFence;
      break;
    case 0x73:
      if (inst == 0x00000073u) {
        u.op = MicroOp::kEcall;
      } else if (inst == 0x00100073u) {
        u.op = MicroOp::kEbreak;
      } else if (inst == 0x10500073u) {
        u.op = MicroOp::kWfi;
      } else if (inst == 0x30200073u) {
        u.op = MicroOp::kMret;
      } else {
        u.imm = inst >> 20;  // CSR number
        switch (funct3) {
          case 1: u.op = MicroOp::kCsrrw; break;
          case 2: u.op = MicroOp::kCsrrs; break;
          case 3: u.op = MicroOp::kCsrrc; break;
          case 5: u.op = MicroOp::kCsrrwi; break;
          case 6: u.op = MicroOp::kCsrrsi; break;
          case 7: u.op = MicroOp::kCsrrci; break;
          default: u.op = MicroOp::kIllegal; break;
        }
      }
      break;
    default:
      u.op = MicroOp::kIllegal;
      break;
  }
  return u;
}

std::uint32_t Cpu::rvc_expand(std::uint16_t h) {
  // Full-width encoders for the expansion targets. Register fields are
  // already 0..31; immediates are passed as the final signed offset /
  // unsigned immediate and repacked into the instruction format.
  const auto i_type = [](std::int32_t imm, unsigned rs1, unsigned f3,
                         unsigned rd, unsigned opc) -> std::uint32_t {
    return (static_cast<std::uint32_t>(imm) & 0xFFFu) << 20 | rs1 << 15 |
           f3 << 12 | rd << 7 | opc;
  };
  const auto s_type = [](std::int32_t imm, unsigned rs2,
                         unsigned rs1) -> std::uint32_t {
    const auto u = static_cast<std::uint32_t>(imm);
    return ((u >> 5) & 0x7Fu) << 25 | rs2 << 20 | rs1 << 15 | 2u << 12 |
           (u & 0x1Fu) << 7 | 0x23u;
  };
  const auto r_type = [](unsigned f7, unsigned rs2, unsigned rs1, unsigned f3,
                         unsigned rd) -> std::uint32_t {
    return f7 << 25 | rs2 << 20 | rs1 << 15 | f3 << 12 | rd << 7 | 0x33u;
  };
  const auto b_type = [](std::int32_t off, unsigned rs2, unsigned rs1,
                         unsigned f3) -> std::uint32_t {
    const auto u = static_cast<std::uint32_t>(off);
    return ((u >> 12) & 1u) << 31 | ((u >> 5) & 0x3Fu) << 25 | rs2 << 20 |
           rs1 << 15 | f3 << 12 | ((u >> 1) & 0xFu) << 8 |
           ((u >> 11) & 1u) << 7 | 0x63u;
  };
  const auto j_type = [](std::int32_t off, unsigned rd) -> std::uint32_t {
    const auto u = static_cast<std::uint32_t>(off);
    return ((u >> 20) & 1u) << 31 | ((u >> 1) & 0x3FFu) << 21 |
           ((u >> 11) & 1u) << 20 | ((u >> 12) & 0xFFu) << 12 | rd << 7 |
           0x6Fu;
  };

  const unsigned funct3 = (h >> 13) & 7u;
  const unsigned rc = 8u + ((h >> 2) & 7u);   // rd'/rs2' (x8..x15)
  const unsigned rc1 = 8u + ((h >> 7) & 7u);  // rd'/rs1'
  const unsigned rfull = (h >> 7) & 31u;      // full-width rd/rs1 field
  // 6-bit immediate shared by c.addi / c.li / c.lui / c.andi / shifts.
  const std::uint32_t imm6 = ((h >> 12) & 1u) << 5 | ((h >> 2) & 0x1Fu);

  switch (h & 3u) {
    case 0:  // quadrant C0
      switch (funct3) {
        case 0: {  // c.addi4spn rd', sp, nzuimm
          const std::uint32_t nz = ((h >> 7) & 0xFu) << 6 |
                                   ((h >> 11) & 3u) << 4 |
                                   ((h >> 5) & 1u) << 3 | ((h >> 6) & 1u) << 2;
          if (nz == 0) return 0;  // reserved (canonical illegal 0x0000)
          return i_type(static_cast<std::int32_t>(nz), 2, 0, rc, 0x13);
        }
        case 2: {  // c.lw rd', uimm(rs1')
          const std::uint32_t uimm = ((h >> 10) & 7u) << 3 |
                                     ((h >> 5) & 1u) << 6 |
                                     ((h >> 6) & 1u) << 2;
          return i_type(static_cast<std::int32_t>(uimm), rc1, 2, rc, 0x03);
        }
        case 6: {  // c.sw rs2', uimm(rs1')
          const std::uint32_t uimm = ((h >> 10) & 7u) << 3 |
                                     ((h >> 5) & 1u) << 6 |
                                     ((h >> 6) & 1u) << 2;
          return s_type(static_cast<std::int32_t>(uimm), rc, rc1);
        }
        default:
          return 0;  // FP loads/stores: D/F not implemented
      }
    case 1:  // quadrant C1
      switch (funct3) {
        case 0:  // c.addi (c.nop when rd == x0)
          return i_type(sign_extend(imm6, 6), rfull, 0, rfull, 0x13);
        case 1:    // c.jal (RV32)
        case 5: {  // c.j
          const std::uint32_t off =
              ((h >> 12) & 1u) << 11 | ((h >> 11) & 1u) << 4 |
              ((h >> 9) & 3u) << 8 | ((h >> 8) & 1u) << 10 |
              ((h >> 7) & 1u) << 6 | ((h >> 6) & 1u) << 7 |
              ((h >> 3) & 7u) << 1 | ((h >> 2) & 1u) << 5;
          return j_type(sign_extend(off, 12), funct3 == 1 ? 1 : 0);
        }
        case 2:  // c.li
          return i_type(sign_extend(imm6, 6), 0, 0, rfull, 0x13);
        case 3: {
          if (rfull == 2) {  // c.addi16sp
            const std::uint32_t im =
                ((h >> 12) & 1u) << 9 | ((h >> 3) & 3u) << 7 |
                ((h >> 5) & 1u) << 6 | ((h >> 2) & 1u) << 5 |
                ((h >> 6) & 1u) << 4;
            if (im == 0) return 0;  // reserved
            return i_type(sign_extend(im, 10), 2, 0, 2, 0x13);
          }
          // c.lui (rd == x0 is a HINT; lui x0 retires as a no-op)
          if (imm6 == 0) return 0;  // reserved
          const auto val =
              static_cast<std::uint32_t>(sign_extend(imm6, 6)) << 12;
          return (val & 0xFFFFF000u) | rfull << 7 | 0x37u;
        }
        case 4:
          switch ((h >> 10) & 3u) {
            case 0:  // c.srli
              if (imm6 & 0x20u) return 0;  // shamt[5]: RV64-only
              return i_type(static_cast<std::int32_t>(imm6), rc1, 5, rc1,
                            0x13);
            case 1:  // c.srai
              if (imm6 & 0x20u) return 0;
              return i_type(static_cast<std::int32_t>(imm6 | 0x400u), rc1, 5,
                            rc1, 0x13);
            case 2:  // c.andi
              return i_type(sign_extend(imm6, 6), rc1, 7, rc1, 0x13);
            default: {
              if ((h >> 12) & 1u) return 0;  // c.subw/c.addw: RV64-only
              static constexpr unsigned kF7[4] = {0x20, 0, 0, 0};
              static constexpr unsigned kF3[4] = {0, 4, 6, 7};
              const unsigned sel = (h >> 5) & 3u;  // sub/xor/or/and
              return r_type(kF7[sel], rc, rc1, kF3[sel], rc1);
            }
          }
        case 6:  // c.beqz rs1', off
        case 7: {  // c.bnez
          const std::uint32_t off =
              ((h >> 12) & 1u) << 8 | ((h >> 10) & 3u) << 3 |
              ((h >> 5) & 3u) << 6 | ((h >> 3) & 3u) << 1 |
              ((h >> 2) & 1u) << 5;
          return b_type(sign_extend(off, 9), 0, rc1, funct3 == 6 ? 0 : 1);
        }
        default:
          return 0;
      }
    default:  // quadrant C2
      switch (funct3) {
        case 0:  // c.slli
          if (imm6 & 0x20u) return 0;  // shamt[5]: RV64-only
          return i_type(static_cast<std::int32_t>(imm6), rfull, 1, rfull,
                        0x13);
        case 2: {  // c.lwsp rd, uimm(sp)
          if (rfull == 0) return 0;  // reserved
          const std::uint32_t uimm = ((h >> 12) & 1u) << 5 |
                                     ((h >> 4) & 7u) << 2 |
                                     ((h >> 2) & 3u) << 6;
          return i_type(static_cast<std::int32_t>(uimm), 2, 2, rfull, 0x03);
        }
        case 4: {
          const unsigned rs2 = (h >> 2) & 31u;
          if (((h >> 12) & 1u) == 0) {
            if (rs2 == 0) {  // c.jr
              if (rfull == 0) return 0;  // reserved
              return i_type(0, rfull, 0, 0, 0x67);
            }
            return r_type(0, rs2, 0, 0, rfull);  // c.mv -> add rd, x0, rs2
          }
          if (rs2 == 0)
            return rfull == 0 ? 0x00100073u            // c.ebreak
                              : i_type(0, rfull, 0, 1, 0x67);  // c.jalr
          return r_type(0, rs2, rfull, 0, rfull);  // c.add
        }
        case 6: {  // c.swsp rs2, uimm(sp)
          const std::uint32_t uimm =
              ((h >> 9) & 0xFu) << 2 | ((h >> 7) & 3u) << 6;
          return s_type(static_cast<std::int32_t>(uimm), (h >> 2) & 31u, 2);
        }
        default:
          return 0;  // FP stack loads/stores: not implemented
      }
  }
}

bool Cpu::decode_at(const Bus::DirectWindow& w, std::uint32_t pc,
                    MicroOp& u) {
  std::uint16_t half;
  std::memcpy(&half, w.data + (pc - w.base), 2);
  if ((half & 3u) != 3u) {
    u = decode(rvc_expand(half));
    u.len = 2;
    return true;
  }
  if (!covers(w, pc, 4)) return false;
  std::uint32_t word;
  std::memcpy(&word, w.data + (pc - w.base), 4);
  u = decode(word);
  return true;
}

void Cpu::step() {
  const std::uint32_t pc = pc_;
  if (pc & 1u) {
    // 2-byte alignment is the fetch granule with RV32C: bit 0 set is
    // the only misaligned case (software-written mepc + mret).
    mem_fault(0, pc);  // instruction address misaligned
    return;
  }
  const Bus::DirectWindow& w = win_[0];
  if (!covers(w, pc, 2)) {
    // Fetch owns slot 0; a miss (first fetch, revoked span, or region
    // change) re-resolves it — negatively for MMIO-resident code.
    BusDevice* const prev_dev = w.data != nullptr ? w.dev : nullptr;
    set_window(0, pc);
    // Blocks decoded from a previous fetch device would no longer be
    // invalidated on writes to it: drop them when the device changes.
    if (prev_dev != nullptr && w.dev != prev_dev) blocks_.flush();
  }
  MicroOp u;
  if (w.data == nullptr || !covers(w, pc, 2) || !decode_at(w, pc, u)) {
    // Slow fetch (MMIO-resident code, spans revoked by stuck-at faults,
    // a 32-bit instruction straddling the window edge). Two halfword
    // reads so a compressed tail at the end of a region cannot fault on
    // the phantom upper parcel.
    sync_devices();
    const Bus::Access lo = bus_.read(pc, 2);
    if (lo.fault) {
      mem_fault(1, pc);  // instruction access fault
      return;
    }
    if ((lo.value & 3u) != 3u) {
      u = decode(rvc_expand(static_cast<std::uint16_t>(lo.value)));
      u.len = 2;
    } else {
      const Bus::Access hi = bus_.read(pc + 2, 2);
      if (hi.fault) {
        mem_fault(1, pc);
        return;
      }
      u = decode(lo.value | hi.value << 16);
    }
  }
  stall_ += cfg_.fetch_latency;
  exec_op(u);
}

void Cpu::exec_op(const MicroOp& u) {
  // Each case reads only the registers it uses: an up-front read of both
  // sources is measurable overhead on the block tier's per-op path.
  std::uint32_t next_pc = pc_ + u.len;
  // One jump-table dispatch; `default` covers exactly the single-cycle
  // register-op group (lui/auipc/OP-IMM/OP/fence) — every other op has
  // an explicit label.
  switch (u.op) {
    default:
      exec_alu(u);
      break;
    case MicroOp::kMul:
    case MicroOp::kMulh:
    case MicroOp::kMulhsu:
    case MicroOp::kMulhu:
    case MicroOp::kDiv:
    case MicroOp::kDivu:
    case MicroOp::kRem:
    case MicroOp::kRemu:
      exec_alu(u);
      stall_ += (u.op <= MicroOp::kMulhu) ? cfg_.mul_latency - 1
                                          : cfg_.div_latency - 1;
      break;
    case MicroOp::kJal:
      write_reg(u.rd, pc_ + u.len);
      next_pc = pc_ + u.imm;
      ++stall_;  // taken-control-flow penalty
      break;
    case MicroOp::kJalr: {
      const std::uint32_t base = read_reg(u.rs1);  // before rd: rd may be rs1
      write_reg(u.rd, pc_ + u.len);
      next_pc = (base + u.imm) & ~1u;
      ++stall_;
      break;
    }
    case MicroOp::kBeq:
    case MicroOp::kBne:
    case MicroOp::kBlt:
    case MicroOp::kBge:
    case MicroOp::kBltu:
    case MicroOp::kBgeu: {
      const std::uint32_t a = read_reg(u.rs1);
      const std::uint32_t b = read_reg(u.rs2);
      bool taken = false;
      switch (u.op) {
        case MicroOp::kBeq: taken = a == b; break;
        case MicroOp::kBne: taken = a != b; break;
        case MicroOp::kBlt: taken = static_cast<std::int32_t>(a) <
                                    static_cast<std::int32_t>(b); break;
        case MicroOp::kBge: taken = static_cast<std::int32_t>(a) >=
                                    static_cast<std::int32_t>(b); break;
        case MicroOp::kBltu: taken = a < b; break;
        default: taken = a >= b; break;
      }
      if (taken) {
        next_pc = pc_ + u.imm;
        ++stall_;
      }
      break;
    }
    case MicroOp::kLb:
    case MicroOp::kLh:
    case MicroOp::kLw:
    case MicroOp::kLbu:
    case MicroOp::kLhu: {
      const std::uint32_t addr = read_reg(u.rs1) + u.imm;
      unsigned size = 1;
      if (u.op == MicroOp::kLh || u.op == MicroOp::kLhu) size = 2;
      if (u.op == MicroOp::kLw) size = 4;
      std::uint32_t v;
      if (!fast_read(addr, size, v)) {
        // MMIO reads are pure (BusDevice contract), so a burst keeps
        // running through them once the devices have caught up; only a
        // fault ends it.
        sync_devices();
        const Bus::Access acc = bus_.read(addr, size);
        if (acc.fault) {
          end_burst_ = true;
          mem_fault(5);  // load access fault
          return;
        }
        stall_ += acc.latency;
        v = acc.value;
      }
      if (u.op == MicroOp::kLb)
        v = static_cast<std::uint32_t>(sign_extend(v, 8));
      if (u.op == MicroOp::kLh)
        v = static_cast<std::uint32_t>(sign_extend(v, 16));
      write_reg(u.rd, v);
      break;
    }
    case MicroOp::kSb:
    case MicroOp::kSh:
    case MicroOp::kSw: {
      ++stores_;
      const std::uint32_t addr = read_reg(u.rs1) + u.imm;
      const std::uint32_t v = read_reg(u.rs2);
      unsigned size = 1;
      if (u.op == MicroOp::kSh) size = 2;
      if (u.op == MicroOp::kSw) size = 4;
      if (!fast_write(addr, v, size)) {
        sync_devices();
        const Bus::Access acc = bus_.write(addr, v, size);
        if (acc.fault) {
          end_burst_ = true;
          mem_fault(7);  // store access fault
          return;
        }
        // Writes that can schedule a device event (CTRL, WDOG, a busy
        // DMA's descriptor) end the burst, whose window no longer
        // bounds the next edge; so does any store while the line is
        // high (a W1C may lower it). Passive stores keep it going.
        end_burst_ = end_burst_ || acc.activating || irq_;
        stall_ += acc.latency;
      }
      break;
    }
    case MicroOp::kEcall:
      if (read_reg(17) == 93) {  // exit syscall convention (a7 = 93)
        halt_ = Halt::kEcallExit;
        return;
      }
      if (mtvec_ != 0) {
        take_trap(11, pc_);  // environment call from M-mode
        return;
      }
      halt_ = Halt::kIllegal;
      return;
    case MicroOp::kEbreak:
      halt_ = Halt::kEbreak;
      return;
    case MicroOp::kWfi:
      wfi_ = true;
      return;  // pc advances when an interrupt becomes pending
    case MicroOp::kMret:
      end_burst_ = end_burst_ || irq_;  // may make a pending trap due
      if (mstatus_ & kMstatusMpie)
        mstatus_ |= kMstatusMie;
      else
        mstatus_ &= ~kMstatusMie;
      mstatus_ |= kMstatusMpie;
      next_pc = mepc_;
      ++stall_;
      break;
    case MicroOp::kCsrrw:
    case MicroOp::kCsrrs:
    case MicroOp::kCsrrc:
    case MicroOp::kCsrrwi:
    case MicroOp::kCsrrsi:
    case MicroOp::kCsrrci: {
      end_burst_ = end_burst_ || irq_;  // may make a pending trap due
      const std::uint32_t csr = u.imm;
      const std::uint32_t old = read_csr(csr);
      const std::uint32_t a = read_reg(u.rs1);
      const auto zimm = static_cast<std::uint32_t>(u.rs1);
      switch (u.op) {
        case MicroOp::kCsrrw: write_csr(csr, a); break;
        case MicroOp::kCsrrs:
          if (u.rs1 != 0) write_csr(csr, old | a);
          break;
        case MicroOp::kCsrrc:
          if (u.rs1 != 0) write_csr(csr, old & ~a);
          break;
        case MicroOp::kCsrrwi: write_csr(csr, zimm); break;
        case MicroOp::kCsrrsi: write_csr(csr, old | zimm); break;
        default: write_csr(csr, old & ~zimm); break;
      }
      write_reg(u.rd, old);
      break;
    }
    case MicroOp::kIllegal:
      mem_fault(2);  // illegal instruction
      return;
  }

  ++instret_;
  pc_ = next_pc;
}

// --------------------------------------------- legacy decode-every-fetch

void Cpu::exec(std::uint32_t inst, std::uint32_t len) {
  const unsigned opcode = inst & 0x7F;
  const int rd = static_cast<int>((inst >> 7) & 0x1F);
  const unsigned funct3 = (inst >> 12) & 0x7;
  const int rs1 = static_cast<int>((inst >> 15) & 0x1F);
  const int rs2 = static_cast<int>((inst >> 20) & 0x1F);
  const unsigned funct7 = inst >> 25;
  std::uint32_t next_pc = pc_ + len;
  bool retired = true;

  const std::uint32_t a = read_reg(rs1);
  const std::uint32_t b = read_reg(rs2);

  switch (opcode) {
    case 0x37:  // LUI
      write_reg(rd, inst & 0xFFFFF000u);
      break;
    case 0x17:  // AUIPC
      write_reg(rd, pc_ + (inst & 0xFFFFF000u));
      break;
    case 0x6F: {  // JAL
      const std::uint32_t imm =
          (((inst >> 31) & 1u) << 20) | (((inst >> 12) & 0xFFu) << 12) |
          (((inst >> 20) & 1u) << 11) | (((inst >> 21) & 0x3FFu) << 1);
      write_reg(rd, pc_ + len);
      next_pc = pc_ + static_cast<std::uint32_t>(sign_extend(imm, 21));
      ++stall_;  // taken-control-flow penalty
      break;
    }
    case 0x67: {  // JALR
      const auto imm = sign_extend(inst >> 20, 12);
      const std::uint32_t target =
          (a + static_cast<std::uint32_t>(imm)) & ~1u;
      write_reg(rd, pc_ + len);
      next_pc = target;
      ++stall_;
      break;
    }
    case 0x63: {  // branches
      const std::uint32_t imm =
          (((inst >> 31) & 1u) << 12) | (((inst >> 7) & 1u) << 11) |
          (((inst >> 25) & 0x3Fu) << 5) | (((inst >> 8) & 0xFu) << 1);
      const auto offset = static_cast<std::uint32_t>(sign_extend(imm, 13));
      bool taken = false;
      switch (funct3) {
        case 0: taken = a == b; break;
        case 1: taken = a != b; break;
        case 4: taken = static_cast<std::int32_t>(a) <
                        static_cast<std::int32_t>(b); break;
        case 5: taken = static_cast<std::int32_t>(a) >=
                        static_cast<std::int32_t>(b); break;
        case 6: taken = a < b; break;
        case 7: taken = a >= b; break;
        default:
          retired = false;
          mem_fault(2);
          return;
      }
      if (taken) {
        next_pc = pc_ + offset;
        ++stall_;
      }
      break;
    }
    case 0x03: {  // loads
      const auto imm = sign_extend(inst >> 20, 12);
      const std::uint32_t addr = a + static_cast<std::uint32_t>(imm);
      unsigned size = 1;
      if (funct3 == 1 || funct3 == 5) size = 2;
      if (funct3 == 2) size = 4;
      const Bus::Access acc = bus_.read(addr, size);
      if (acc.fault) {
        mem_fault(5);  // load access fault
        return;
      }
      stall_ += acc.latency;
      std::uint32_t v = acc.value;
      if (funct3 == 0) v = static_cast<std::uint32_t>(sign_extend(v, 8));
      if (funct3 == 1) v = static_cast<std::uint32_t>(sign_extend(v, 16));
      write_reg(rd, v);
      break;
    }
    case 0x23: {  // stores
      const std::uint32_t imm =
          ((inst >> 25) << 5) | ((inst >> 7) & 0x1Fu);
      const auto offset = sign_extend(imm, 12);
      const std::uint32_t addr = a + static_cast<std::uint32_t>(offset);
      unsigned size = 1;
      if (funct3 == 1) size = 2;
      if (funct3 == 2) size = 4;
      const Bus::Access acc = bus_.write(addr, b, size);
      if (acc.fault) {
        mem_fault(7);  // store access fault
        return;
      }
      stall_ += acc.latency;
      break;
    }
    case 0x13: {  // OP-IMM
      const auto imm = sign_extend(inst >> 20, 12);
      const auto ui = static_cast<std::uint32_t>(imm);
      const unsigned shamt = (inst >> 20) & 0x1F;
      switch (funct3) {
        case 0: write_reg(rd, a + ui); break;
        case 1: write_reg(rd, a << shamt); break;
        case 2: write_reg(rd, static_cast<std::int32_t>(a) < imm ? 1 : 0); break;
        case 3: write_reg(rd, a < ui ? 1 : 0); break;
        case 4: write_reg(rd, a ^ ui); break;
        case 5:
          if (funct7 & 0x20)
            write_reg(rd, static_cast<std::uint32_t>(
                              static_cast<std::int32_t>(a) >> shamt));
          else
            write_reg(rd, a >> shamt);
          break;
        case 6: write_reg(rd, a | ui); break;
        case 7: write_reg(rd, a & ui); break;
        default: break;
      }
      break;
    }
    case 0x33: {  // OP
      if (funct7 == 0x01) {  // M extension
        const auto sa = static_cast<std::int64_t>(static_cast<std::int32_t>(a));
        const auto sb = static_cast<std::int64_t>(static_cast<std::int32_t>(b));
        const auto ua = static_cast<std::uint64_t>(a);
        const auto ub = static_cast<std::uint64_t>(b);
        switch (funct3) {
          case 0: write_reg(rd, static_cast<std::uint32_t>(sa * sb)); break;
          case 1:
            write_reg(rd, static_cast<std::uint32_t>(
                              (sa * sb) >> 32));
            break;
          case 2:
            write_reg(rd, static_cast<std::uint32_t>(
                              (sa * static_cast<std::int64_t>(ub)) >> 32));
            break;
          case 3:
            write_reg(rd, static_cast<std::uint32_t>((ua * ub) >> 32));
            break;
          case 4:  // DIV
            if (b == 0)
              write_reg(rd, 0xFFFFFFFFu);
            else if (a == 0x80000000u && b == 0xFFFFFFFFu)
              write_reg(rd, 0x80000000u);
            else
              write_reg(rd, static_cast<std::uint32_t>(
                                static_cast<std::int32_t>(a) /
                                static_cast<std::int32_t>(b)));
            break;
          case 5:  // DIVU
            write_reg(rd, b == 0 ? 0xFFFFFFFFu : a / b);
            break;
          case 6:  // REM
            if (b == 0)
              write_reg(rd, a);
            else if (a == 0x80000000u && b == 0xFFFFFFFFu)
              write_reg(rd, 0);
            else
              write_reg(rd, static_cast<std::uint32_t>(
                                static_cast<std::int32_t>(a) %
                                static_cast<std::int32_t>(b)));
            break;
          case 7:  // REMU
            write_reg(rd, b == 0 ? a : a % b);
            break;
          default: break;
        }
        stall_ += (funct3 <= 3) ? cfg_.mul_latency - 1 : cfg_.div_latency - 1;
      } else {
        switch (funct3) {
          case 0:
            write_reg(rd, (funct7 & 0x20) ? a - b : a + b);
            break;
          case 1: write_reg(rd, a << (b & 0x1F)); break;
          case 2:
            write_reg(rd, static_cast<std::int32_t>(a) <
                                  static_cast<std::int32_t>(b)
                              ? 1
                              : 0);
            break;
          case 3: write_reg(rd, a < b ? 1 : 0); break;
          case 4: write_reg(rd, a ^ b); break;
          case 5:
            if (funct7 & 0x20)
              write_reg(rd, static_cast<std::uint32_t>(
                                static_cast<std::int32_t>(a) >> (b & 0x1F)));
            else
              write_reg(rd, a >> (b & 0x1F));
            break;
          case 6: write_reg(rd, a | b); break;
          case 7: write_reg(rd, a & b); break;
          default: break;
        }
      }
      break;
    }
    case 0x0F:  // FENCE — no-op on this single-hart platform
      break;
    case 0x73: {  // SYSTEM
      if (inst == 0x00000073) {  // ECALL
        if (read_reg(17) == 93) {  // exit syscall convention (a7 = 93)
          halt_ = Halt::kEcallExit;
          return;
        }
        if (mtvec_ != 0) {
          take_trap(11, pc_);  // environment call from M-mode
          return;
        }
        halt_ = Halt::kIllegal;
        return;
      }
      if (inst == 0x00100073) {  // EBREAK
        halt_ = Halt::kEbreak;
        return;
      }
      if (inst == 0x10500073) {  // WFI
        wfi_ = true;
        return;  // pc advances when an interrupt becomes pending
      }
      if (inst == 0x30200073) {  // MRET
        if (mstatus_ & kMstatusMpie)
          mstatus_ |= kMstatusMie;
        else
          mstatus_ &= ~kMstatusMie;
        mstatus_ |= kMstatusMpie;
        next_pc = mepc_;
        ++stall_;
        break;
      }
      // Zicsr
      const std::uint32_t csr = inst >> 20;
      const std::uint32_t old = read_csr(csr);
      switch (funct3) {
        case 1: write_csr(csr, a); break;                       // CSRRW
        case 2: if (rs1 != 0) write_csr(csr, old | a); break;   // CSRRS
        case 3: if (rs1 != 0) write_csr(csr, old & ~a); break;  // CSRRC
        case 5: write_csr(csr, static_cast<std::uint32_t>(rs1)); break;
        case 6: write_csr(csr, old | static_cast<std::uint32_t>(rs1)); break;
        case 7: write_csr(csr, old & ~static_cast<std::uint32_t>(rs1)); break;
        default:
          retired = false;
          mem_fault(2);
          return;
      }
      if (funct3 >= 1 && funct3 <= 7) write_reg(rd, old);
      break;
    }
    default:
      retired = false;
      mem_fault(2);  // illegal instruction
      return;
  }

  if (retired) ++instret_;
  pc_ = next_pc;
}

}  // namespace aspen::sys::rv
