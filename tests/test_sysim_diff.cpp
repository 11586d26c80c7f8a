// Differential suite for the event-driven sysim rebuild: every workload
// program plus interrupt/WFI, self-modifying-code and fault-injection
// scenarios run through ALL THREE execution configurations —
//   legacy: decode-every-fetch interpreter + per-cycle System ticking
//   step:   the fast path's step() on every cycle: micro-op decode,
//           exec_op semantics and the direct-memory fast path under
//           per-cycle System ticking
//   block:  event-driven run: CPU bursts through the basic-block tier
//           (block cache, chaining, static runs, fallback steps) plus
//           bulk cycle skipping
// — asserting bit-identical cycles, instret, halt reason, exit code,
// final register file and final DRAM image. This is the contract that
// lets the fault campaigns trust the optimized simulator.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>

#include "guest_programs.hpp"
#include "sysim/fault.hpp"
#include "sysim/system.hpp"
#include "sysim/workloads.hpp"

namespace {

using namespace aspen::sys;
using namespace aspen::sys::rv;
using aspen::testing::build_counter_probe;
using aspen::testing::build_rvc_loop;

std::vector<std::int16_t> random_fixed(std::size_t count, std::uint64_t seed) {
  aspen::lina::Rng rng(seed);
  std::vector<std::int16_t> v(count);
  for (auto& x : v) x = PhotonicAccelerator::to_fixed(rng.uniform(-0.9, 0.9));
  return v;
}

/// Execution configurations under differential test. The per-cycle
/// interpreter is the oracle; the fast path ticked per cycle and the
/// event-driven block tier must both match it bit for bit.
enum class Tier { kLegacy, kStep, kBlock };

constexpr Tier kFastTiers[] = {Tier::kStep, Tier::kBlock};

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kLegacy: return "legacy";
    case Tier::kStep: return "step";
    default: return "block";
  }
}

SystemConfig with_tier(SystemConfig sc, Tier t) {
  // Per-cycle ticking sends every fast-path instruction through step(),
  // so decode and exec_op stay diffed against the oracle on code that
  // the event-driven run executes as blocks.
  sc.event_driven = t == Tier::kBlock;
  sc.cpu.legacy_decode = t == Tier::kLegacy;
  return sc;
}

/// Everything architecturally observable after a run (bstats is
/// diagnostic-only: captured for block-tier assertions, not diffed).
struct Capture {
  System::RunResult result;
  std::uint64_t system_cycle = 0;
  std::array<std::uint32_t, 32> regs{};
  std::vector<std::uint8_t> dram;
  BlockStats bstats;
};

/// Everything a trial can observe, captured from a live system.
Capture capture_state(System& system) {
  Capture c;
  c.result.cycles = system.cpu().cycles();
  c.result.instret = system.cpu().instret();
  c.result.halt = system.cpu().halt_reason();
  c.result.exit_code = system.cpu().halted() ? system.cpu().exit_code() : 0;
  c.result.timed_out = !system.cpu().halted();
  c.system_cycle = system.now();
  for (int i = 0; i < 32; ++i)
    c.regs[static_cast<std::size_t>(i)] = system.cpu().read_reg(i);
  c.dram.resize(system.config().dram_size);
  system.read_dram(0, c.dram.data(), c.dram.size());
  c.bstats = system.cpu().block_stats();
  return c;
}

Capture run_tier(const SystemConfig& sc_base, Tier tier,
                 const std::vector<std::uint32_t>& program,
                 const std::function<void(System&)>& stage = {}) {
  System system(with_tier(sc_base, tier));
  if (stage) stage(system);
  system.load_program(program);
  const System::RunResult result = system.run();
  Capture c = capture_state(system);
  c.result = result;
  return c;
}

void expect_identical(const Capture& legacy, const Capture& fast,
                      const char* what) {
  EXPECT_EQ(legacy.result.cycles, fast.result.cycles) << what;
  EXPECT_EQ(legacy.result.instret, fast.result.instret) << what;
  EXPECT_EQ(legacy.result.halt, fast.result.halt) << what;
  EXPECT_EQ(legacy.result.exit_code, fast.result.exit_code) << what;
  EXPECT_EQ(legacy.result.timed_out, fast.result.timed_out) << what;
  EXPECT_EQ(legacy.system_cycle, fast.system_cycle) << what;
  EXPECT_EQ(legacy.regs, fast.regs) << what << ": register file differs";
  EXPECT_EQ(legacy.dram == fast.dram, true) << what << ": DRAM image differs";
}

void diff_program(const SystemConfig& sc,
                  const std::vector<std::uint32_t>& program, const char* what,
                  const std::function<void(System&)>& stage = {}) {
  const Capture legacy = run_tier(sc, Tier::kLegacy, program, stage);
  for (const Tier tier : kFastTiers) {
    const Capture fast = run_tier(sc, tier, program, stage);
    expect_identical(
        legacy, fast,
        (std::string(what) + " [" + tier_name(tier) + "]").c_str());
  }
}

/// Drive a fresh system per tier through an arbitrary scenario (mid-run
/// injections, staged runs), diff both fast tiers against legacy, and
/// return the block-tier capture for tier-specific assertions.
Capture diff_drive(const SystemConfig& sc, const char* what,
                   const std::function<void(System&)>& drive) {
  System legacy_sys(with_tier(sc, Tier::kLegacy));
  drive(legacy_sys);
  const Capture legacy = capture_state(legacy_sys);
  Capture block;
  for (const Tier tier : kFastTiers) {
    System system(with_tier(sc, tier));
    drive(system);
    Capture c = capture_state(system);
    expect_identical(
        legacy, c,
        (std::string(what) + " [" + tier_name(tier) + "]").c_str());
    if (tier == Tier::kBlock) block = c;
  }
  return block;
}

AcceleratorConfig small_accel() {
  AcceleratorConfig cfg;
  cfg.gemm.mvm.ports = 8;
  cfg.max_cols = 16;
  return cfg;
}

std::function<void(System&)> gemm_stager(const GemmWorkload& wl,
                                         std::uint64_t seed) {
  const auto a = random_fixed(wl.n * wl.n, seed);
  const auto x = random_fixed(wl.n * wl.m, seed + 1);
  return [wl, a, x](System& s) { stage_gemm_data(s, wl, a, x); };
}

// ------------------------------------------------- workload programs

TEST(SysimDiffTest, SoftwareGemm) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  diff_program(sc, build_gemm_software(wl, sc), "software gemm",
               gemm_stager(wl, 301));
}

TEST(SysimDiffTest, SoftwareGemmStopsAtEveryCycleOfTwoInnerIterations) {
  // Stops the software GEMM at every cycle from reset to the end of its
  // first two inner-loop iterations (the second taken branch's penalty
  // cycle included). Each stop restores a cycle-0 snapshot and calls
  // run_until(c), so on the block tier a burst budget runs out at every
  // offset: inside the inner loop's mul; add; addi static run, inside
  // each load's DRAM stall and on each taken-branch penalty.
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto program = build_gemm_software(wl, sc);
  const auto stage = gemm_stager(wl, 301);

  // The prologue is straight-line code, so the first two backward pc
  // moves are the inner loop's first two taken branches.
  System oracle(with_tier(sc, Tier::kLegacy));
  stage(oracle);
  oracle.load_program(program);
  for (int back_edges = 0; back_edges < 2 && !oracle.cpu().halted();) {
    const std::uint32_t pc = oracle.cpu().pc();
    oracle.tick();
    if (oracle.cpu().pc() < pc) ++back_edges;
  }
  ASSERT_FALSE(oracle.cpu().halted());
  const std::uint64_t last = oracle.now() + 1;
  ASSERT_GT(last, 60u) << "two iterations with two DRAM loads each";

  struct Stop {
    std::uint64_t now = 0, cycles = 0, instret = 0;
    std::uint32_t pc = 0;
    unsigned stall = 0;
    std::array<std::uint32_t, 32> regs{};
  };
  std::vector<Stop> want;
  for (const Tier tier : {Tier::kLegacy, Tier::kStep, Tier::kBlock}) {
    System system(with_tier(sc, tier));
    stage(system);
    system.load_program(program);
    const System::SystemSnapshot start = system.snapshot();
    for (std::uint64_t c = 0; c <= last; ++c) {
      system.restore(start);
      system.run_until(c);
      Stop got;
      got.now = system.now();
      got.cycles = system.cpu().cycles();
      got.instret = system.cpu().instret();
      got.pc = system.cpu().pc();
      got.stall = system.cpu().stall_remaining();
      for (int i = 0; i < 32; ++i)
        got.regs[static_cast<std::size_t>(i)] = system.cpu().read_reg(i);
      ASSERT_EQ(got.now, c) << tier_name(tier);
      if (tier == Tier::kLegacy) {
        want.push_back(got);
        continue;
      }
      const Stop& w = want[c];
      const std::string at =
          std::string(tier_name(tier)) + " stopped at cycle " +
          std::to_string(c);
      EXPECT_EQ(got.cycles, w.cycles) << at;
      EXPECT_EQ(got.instret, w.instret) << at;
      EXPECT_EQ(got.pc, w.pc) << at;
      EXPECT_EQ(got.stall, w.stall) << at;
      EXPECT_EQ(got.regs, w.regs) << at << ": register file differs";
    }
  }
}

TEST(SysimDiffTest, UnitMulDivLatencyLoop) {
  // mul_latency = div_latency = 1, the smallest the Cpu accepts: every
  // M op costs one cycle and stalls none, on every tier, on operands
  // from registers and behind a load. Fetch latency 1 sends every
  // block-tier op through the per-op path instead of static runs.
  SystemConfig sc;
  sc.accel = small_accel();
  sc.cpu.mul_latency = 1;
  sc.cpu.div_latency = 1;
  Assembler as(sc.dram_base);
  as.li(s0, sc.dram_base + 0x40000);
  as.li(s1, 0);   // i
  as.li(s2, 50);  // iterations
  as.li(a0, 1);
  as.li(a1, 3);
  as.label("loop");
  as.mul(a0, a0, a1);
  as.addi(a0, a0, 7);
  as.div(a2, a0, a1);
  as.rem(a3, a0, a1);
  as.mulhu(a4, a0, a0);
  as.divu(a5, a0, s2);
  as.sw(a2, s0, 0);
  as.lw(t0, s0, 0);
  as.mulh(t1, t0, a1);  // consumes the load
  as.remu(t2, t0, a1);
  as.addi(s1, s1, 1);
  as.blt(s1, s2, "loop");
  as.ebreak();
  const auto program = as.assemble();
  for (const unsigned fetch_latency : {0u, 1u}) {
    SystemConfig pass = sc;
    pass.cpu.fetch_latency = fetch_latency;
    diff_program(pass, program,
                 ("unit mul/div latency, fetch latency " +
                  std::to_string(fetch_latency))
                     .c_str());
  }
  const Capture legacy = run_tier(sc, Tier::kLegacy, program);
  EXPECT_EQ(legacy.result.halt, Halt::kEbreak);
  // One cycle per retired instruction and for the ebreak, plus 49 taken
  // branch penalties and the bus + DRAM latency of each store and load.
  EXPECT_EQ(legacy.result.cycles,
            legacy.result.instret + 1 + 49 +
                50 * 2 * (sc.bus_latency + sc.dram_latency));
}

class DiffOffloadTest : public ::testing::TestWithParam<OffloadPath> {};

TEST_P(DiffOffloadTest, OffloadPathsIdentical) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 8;
  diff_program(sc, build_gemm_offload(wl, sc, GetParam()), "offload",
               gemm_stager(wl, 311));
}

INSTANTIATE_TEST_SUITE_P(Paths, DiffOffloadTest,
                         ::testing::Values(OffloadPath::kMmrPolling,
                                           OffloadPath::kMmrInterrupt,
                                           OffloadPath::kDmaInterrupt));

TEST(SysimDiffTest, OffloadThermoOpticLongBusyWindow) {
  // Thermo-optic programming parks the CPU for ~10k cycles — the bulk
  // skip's best case must still land DONE/IRQ on the exact same cycle.
  SystemConfig sc;
  sc.accel = small_accel();
  sc.accel.gemm.mvm.weights = aspen::core::WeightTechnology::kThermoOptic;
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 8;
  diff_program(sc, build_gemm_offload(wl, sc, OffloadPath::kDmaInterrupt),
               "thermo offload", gemm_stager(wl, 321));
}

TEST(SysimDiffTest, StreamingOffload) {
  // Weights once + 8 tiles back to back: long CPU bursts interleaved
  // with device-busy windows and WFI wakes.
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload tile;
  tile.n = 8;
  tile.m = 4;
  GemmWorkload full = tile;
  full.m = tile.m * 8;
  diff_program(sc,
               build_gemm_offload_stream(tile, sc, OffloadPath::kMmrInterrupt,
                                         8),
               "streaming offload", gemm_stager(full, 361));
  diff_program(sc,
               build_gemm_offload_stream(tile, sc, OffloadPath::kDmaInterrupt,
                                         8),
               "streaming offload dma", gemm_stager(full, 362));
  diff_program(sc,
               build_gemm_offload_stream(tile, sc, OffloadPath::kMmrPolling,
                                         8),
               "streaming offload polling", gemm_stager(full, 363));
}

TEST(SysimDiffTest, MultiPe) {
  SystemConfig sc;
  sc.accel = small_accel();
  sc.num_pes = 2;
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 8;
  diff_program(sc, build_gemm_multi_pe(wl, sc), "multi-pe",
               gemm_stager(wl, 331));
}

TEST(SysimDiffTest, CounterProbe) {
  SystemConfig sc;
  sc.accel = small_accel();
  diff_program(sc, build_counter_probe(sc, 0x40000), "counter probe");
}

// --------------------------------------- interrupt / WFI / timeout

TEST(SysimDiffTest, WfiDeadlockTimesOutAtSameCycle) {
  SystemConfig sc;
  sc.accel = small_accel();
  sc.max_cycles = 5000;  // nothing will ever wake the CPU
  Assembler as(sc.dram_base);
  as.nop();
  as.wfi();
  as.ebreak();
  const auto program = as.assemble();
  const Capture legacy = run_tier(sc, Tier::kLegacy, program);
  EXPECT_TRUE(legacy.result.timed_out);
  for (const Tier tier : kFastTiers) {
    const Capture fast = run_tier(sc, tier, program);
    EXPECT_TRUE(fast.result.timed_out) << tier_name(tier);
    expect_identical(legacy, fast, "wfi deadlock");
  }
}

TEST(SysimDiffTest, DmaInterruptTrapHandler) {
  // Spin loop + asynchronous DMA-completion interrupt through mtvec:
  // the trap must be taken at the identical instruction boundary.
  SystemConfig sc;
  sc.accel = small_accel();
  Assembler as(sc.dram_base);
  as.li(t0, sc.dram_base + 256);  // handler
  as.csrrw(zero, kCsrMtvec, t0);
  as.li(t0, 1u << 11);  // MEIE
  as.csrrw(zero, kCsrMie, t0);
  as.li(t0, 1u << 3);  // MIE
  as.csrrs(zero, kCsrMstatus, t0);
  as.li(s7, sc.dma_base);
  as.li(t1, sc.dram_base + 0x10000);
  as.sw(t1, s7, DmaEngine::kRegSrc);
  as.li(t1, sc.dram_base + 0x11000);
  as.sw(t1, s7, DmaEngine::kRegDst);
  as.li(t1, 256);
  as.sw(t1, s7, DmaEngine::kRegLen);
  as.li(t1, DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn);
  as.sw(t1, s7, DmaEngine::kRegCtrl);
  as.label("spin");
  as.j("spin");
  while (as.current_address() < sc.dram_base + 256) as.nop();
  as.label("handler");
  as.csrrs(a1, kCsrMcause, zero);
  as.li(t0, DmaEngine::kStatusDone);
  as.sw(t0, s7, DmaEngine::kRegStatus);
  as.li(a0, 7);
  as.li(a7, 93);
  as.ecall();
  const auto program = as.assemble();
  const auto stage = [](System& s) {
    std::vector<std::uint8_t> src(256);
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = static_cast<std::uint8_t>(i * 3 + 1);
    s.write_dram(0x10000, src.data(), src.size());
  };
  const Capture legacy = run_tier(sc, Tier::kLegacy, program, stage);
  for (const Tier tier : kFastTiers) {
    const Capture fast = run_tier(sc, tier, program, stage);
    EXPECT_EQ(fast.result.halt, Halt::kEcallExit) << tier_name(tier);
    EXPECT_EQ(fast.regs[11], 0x8000000Bu);  // mcause: machine external irq
    expect_identical(legacy, fast, "dma interrupt trap");
  }
}

TEST(SysimDiffTest, DmaFaultAbortObservedIdentically) {
  // A DMA transfer whose destination runs past the end of DRAM aborts
  // mid-flight: BUSY drops, ERROR latches and the completion IRQ fires.
  // The guest parks in a spin loop and the trap handler reads STATUS,
  // W1C-clears ERROR and exits with the observed status — the abort
  // cycle, the latched status and the wakeup must be bit-identical
  // between per-cycle ticking and the event-driven core (a faulting
  // transfer is never bulk-movable, so the fast path must fall back to
  // ticking the engine to the exact faulting beat).
  SystemConfig sc;
  sc.accel = small_accel();
  Assembler as(sc.dram_base);
  as.li(t0, sc.dram_base + 256);  // handler
  as.csrrw(zero, kCsrMtvec, t0);
  as.li(t0, 1u << 11);  // MEIE
  as.csrrw(zero, kCsrMie, t0);
  as.li(t0, 1u << 3);  // MIE
  as.csrrs(zero, kCsrMstatus, t0);
  as.li(s7, sc.dma_base);
  as.li(t1, sc.dram_base + 0x10000);
  as.sw(t1, s7, DmaEngine::kRegSrc);
  as.li(t1, sc.dram_base + sc.dram_size - 8);  // 56 of 64 bytes past the end
  as.sw(t1, s7, DmaEngine::kRegDst);
  as.li(t1, 64);
  as.sw(t1, s7, DmaEngine::kRegLen);
  as.li(t1, DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn);
  as.sw(t1, s7, DmaEngine::kRegCtrl);
  as.label("spin");
  as.j("spin");
  while (as.current_address() < sc.dram_base + 256) as.nop();
  as.label("handler");
  as.csrrs(a2, kCsrMcause, zero);
  as.lw(a1, s7, DmaEngine::kRegStatus);  // ERROR set, BUSY/DONE clear
  as.li(t0, DmaEngine::kStatusError);
  as.sw(t0, s7, DmaEngine::kRegStatus);  // W1C drops the IRQ line
  as.lw(a3, s7, DmaEngine::kRegStatus);  // now fully clear
  as.mv(a0, a1);
  as.li(a7, 93);
  as.ecall();
  const auto program = as.assemble();
  const auto stage = [](System& s) {
    std::vector<std::uint8_t> src(64);
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = static_cast<std::uint8_t>(i + 1);
    s.write_dram(0x10000, src.data(), src.size());
  };
  const Capture legacy = run_tier(sc, Tier::kLegacy, program, stage);
  for (const Tier tier : kFastTiers) {
    const Capture fast = run_tier(sc, tier, program, stage);
    EXPECT_EQ(fast.result.halt, Halt::kEcallExit) << tier_name(tier);
    EXPECT_EQ(fast.result.exit_code, DmaEngine::kStatusError);
    EXPECT_EQ(fast.regs[11], DmaEngine::kStatusError);
    EXPECT_EQ(fast.regs[12], 0x8000000Bu);  // mcause: machine external irq
    EXPECT_EQ(fast.regs[13], 0u);           // W1C cleared ERROR
    expect_identical(legacy, fast, "dma fault abort");
  }
}

// ------------------------------------------------ self-modifying code

TEST(SysimDiffTest, SelfModifyingCodeReexecutesPatchedWord) {
  SystemConfig sc;
  sc.accel = small_accel();

  // Encoding of the replacement instruction.
  Assembler enc(sc.dram_base);
  enc.addi(a0, zero, 77);
  const std::uint32_t patched_word = enc.assemble()[0];

  // The li expansion length depends on the patch address, which depends
  // on the layout: iterate to a fixed point.
  std::uint32_t patch_addr = sc.dram_base;
  std::vector<std::uint32_t> program;
  for (int iter = 0; iter < 4; ++iter) {
    Assembler as(sc.dram_base);
    as.li(t0, patch_addr);
    as.li(t1, patched_word);
    as.li(s0, 0);
    as.li(s1, 2);
    as.label("loop");
    as.label("patch");
    as.addi(a0, zero, 11);
    as.sw(t1, t0, 0);  // overwrite the instruction just executed
    as.addi(s0, s0, 1);
    as.blt(s0, s1, "loop");
    as.ebreak();
    const std::uint32_t found = as.address_of("patch");
    program = as.assemble();
    if (found == patch_addr) break;
    patch_addr = found;
  }

  const Capture legacy = run_tier(sc, Tier::kLegacy, program);
  for (const Tier tier : kFastTiers) {
    const Capture fast = run_tier(sc, tier, program);
    EXPECT_EQ(fast.result.halt, Halt::kEbreak) << tier_name(tier);
    EXPECT_EQ(fast.regs[10], 77u)
        << "second loop iteration must execute the patched instruction";
    expect_identical(legacy, fast, "self-modifying code");
  }
}

TEST(SysimDiffTest, SmcPatchesMiddleOfChainedHotLoop) {
  // A hot loop split into chained blocks by an inner branch runs long
  // enough for the block tier to chain it; then a store from one block
  // rewrites an instruction in the middle of another. The patched word
  // must take effect on the very next iteration in every tier, and the
  // block tier must observably evict and rebuild.
  SystemConfig sc;
  sc.accel = small_accel();

  Assembler enc(sc.dram_base);
  enc.addi(a0, zero, 77);
  const std::uint32_t patched_word = enc.assemble()[0];

  // li expansion length depends on the patch address: fixed point.
  std::uint32_t patch_addr = sc.dram_base;
  std::vector<std::uint32_t> program;
  for (int iter = 0; iter < 4; ++iter) {
    Assembler as(sc.dram_base);
    as.li(t0, patch_addr);
    as.li(t1, patched_word);
    as.li(s0, 0);
    as.li(s1, 60);  // total iterations
    as.li(s2, 40);  // start patching after this many
    as.label("loop");
    as.addi(s0, s0, 1);
    as.blt(s0, s2, "mid");  // splits the loop body into two blocks
    as.sw(t1, t0, 0);       // rewrite 'mid' (hot and chained by now)
    as.label("mid");
    as.addi(a0, zero, 11);
    as.blt(s0, s1, "loop");
    as.ebreak();
    const std::uint32_t found = as.address_of("mid");
    program = as.assemble();
    if (found == patch_addr) break;
    patch_addr = found;
  }

  const Capture block = diff_drive(sc, "smc chained hot loop",
                                   [&](System& system) {
                                     system.load_program(program);
                                     system.run();
                                   });
  EXPECT_EQ(block.result.halt, Halt::kEbreak);
  EXPECT_EQ(block.regs[10], 77u) << "patched instruction must execute";
  EXPECT_GE(block.bstats.evictions, 1u) << "store must evict the block";
  EXPECT_GT(block.bstats.chained, 0u) << "loop must chain before the patch";
}

TEST(SysimDiffTest, DmaOverwritesCachedBlock) {
  // A DMA transfer lands on an instruction inside an already-translated
  // hot loop between two passes over it: bus-side writes must evict
  // blocks through the same coherence path as CPU stores.
  SystemConfig sc;
  sc.accel = small_accel();

  Assembler enc(sc.dram_base);
  enc.addi(a0, zero, 77);
  const std::uint32_t patched_word = enc.assemble()[0];

  std::uint32_t patch_addr = sc.dram_base;
  std::vector<std::uint32_t> program;
  for (int iter = 0; iter < 4; ++iter) {
    Assembler as(sc.dram_base);
    as.li(s7, sc.dma_base);
    as.li(s1, 30);  // iterations per pass
    as.li(s3, 0);   // pass counter
    as.label("again");
    as.li(s0, 0);
    as.label("loop");
    as.label("patchme");
    as.addi(a0, zero, 11);
    as.addi(s0, s0, 1);
    as.blt(s0, s1, "loop");
    as.bne(s3, zero, "done");
    // Between passes: DMA the staged replacement word over 'patchme'.
    as.li(t1, sc.dram_base + 0x10000);
    as.sw(t1, s7, DmaEngine::kRegSrc);
    as.li(t1, patch_addr);
    as.sw(t1, s7, DmaEngine::kRegDst);
    as.li(t1, 4);
    as.sw(t1, s7, DmaEngine::kRegLen);
    as.li(t1, DmaEngine::kCtrlStart);
    as.sw(t1, s7, DmaEngine::kRegCtrl);
    as.label("poll");
    as.lw(t1, s7, DmaEngine::kRegStatus);
    as.andi(t1, t1, DmaEngine::kStatusDone);
    as.beq(t1, zero, "poll");
    as.li(t1, DmaEngine::kStatusDone);
    as.sw(t1, s7, DmaEngine::kRegStatus);  // W1C
    as.li(s3, 1);
    as.j("again");
    as.label("done");
    as.ebreak();
    const std::uint32_t found = as.address_of("patchme");
    program = as.assemble();
    if (found == patch_addr) break;
    patch_addr = found;
  }

  const auto stage = [&](System& s) {
    std::uint8_t bytes[4];
    std::memcpy(bytes, &patched_word, 4);
    s.write_dram(0x10000, bytes, 4);
  };
  const Capture block = diff_drive(sc, "dma overwrites cached block",
                                   [&](System& system) {
                                     stage(system);
                                     system.load_program(program);
                                     system.run();
                                   });
  EXPECT_EQ(block.result.halt, Halt::kEbreak);
  EXPECT_EQ(block.regs[10], 77u)
      << "second pass must execute the DMA-patched instruction";
  EXPECT_GE(block.bstats.evictions, 1u) << "DMA write must evict the block";
}

TEST(SysimDiffTest, FaultFlipInsideFusedPair) {
  // Transient bit flip in the addi of a lui+addi constant inside a hot
  // loop (one static run in the block tier): invalidation must evict
  // the block and the rebuilt run must materialize the corrupted
  // constant, bit-identical to the decode-every-fetch oracle.
  SystemConfig sc;
  sc.accel = small_accel();
  Assembler as(sc.dram_base);
  as.li(s0, 0);    // one word (addi)
  as.li(s1, 200);  // one word (addi)
  as.label("loop");
  as.li(a0, 0x12345678);  // lui+addi at byte offsets 8 and 12
  as.addi(s0, s0, 1);
  as.blt(s0, s1, "loop");
  as.ebreak();
  const auto program = as.assemble();
  ASSERT_EQ(as.address_of("loop"), sc.dram_base + 8);

  const Capture block =
      diff_drive(sc, "flip inside lui+addi pair", [&](System& system) {
        system.load_program(program);
        system.run_until(100);  // loop is hot, its block is built
        // Flip imm[4] of the addi half (code byte 15, bit 0).
        system.dram().flip_bit(15, 0);
        system.run_until(500000);
      });
  EXPECT_EQ(block.result.halt, Halt::kEbreak);
  EXPECT_EQ(block.regs[10], 0x12345668u)
      << "remaining iterations must materialize the corrupted constant";
  EXPECT_GE(block.bstats.evictions, 1u) << "flip must evict the block";
}

// ---------------------------------------------------------- RV32C

TEST(SysimDiffTest, RvcDenseLoop) {
  // The compressed workload: mixed 2/4-byte fetch through all three
  // tiers, bit-identical, with the block tier demonstrating the fetch
  // traffic reduction through its counters.
  SystemConfig sc;
  sc.accel = small_accel();
  constexpr std::uint32_t kWords = 96;
  std::vector<std::uint32_t> data(kWords);
  for (std::uint32_t i = 0; i < kWords; ++i)
    data[i] = 0x9E3779B9u * (i + 1);  // deterministic scramble input
  const auto program = build_rvc_loop(sc, 0x40000, 0x48000, kWords);

  const Capture block = diff_drive(sc, "rvc dense loop", [&](System& system) {
    system.write_dram(0x40000, data.data(), data.size() * 4);
    system.load_program(program);
    system.run();
  });
  EXPECT_EQ(block.result.halt, Halt::kEcallExit);
  EXPECT_EQ(block.result.exit_code, 0);
  EXPECT_GT(block.bstats.rvc_built, 0u);
  // 2-byte forms must dominate the decode traffic: total bytes fetched
  // into blocks stays below 4 bytes per compressed op alone.
  EXPECT_LT(block.bstats.fetch_bytes, 4 * block.bstats.rvc_built);
}

TEST(SysimDiffTest, MisaAndMisalignedFetchTrap) {
  // misa reports RV32IMC; an mret to an odd mepc takes the
  // instruction-address-misaligned trap (cause 0) with the faulting pc
  // in both mtval and mepc — identically on every tier.
  SystemConfig sc;
  sc.accel = small_accel();
  std::uint32_t handler_addr = sc.dram_base;
  std::vector<std::uint32_t> program;
  for (int iter = 0; iter < 4; ++iter) {
    Assembler as(sc.dram_base);
    as.csrrs(a1, kCsrMisa, zero);
    as.li(t0, handler_addr);
    as.csrrw(zero, kCsrMtvec, t0);
    as.li(t1, sc.dram_base + 0x201);  // odd resume target
    as.csrrw(zero, kCsrMepc, t1);
    as.mret();
    as.label("handler");
    as.csrrs(a2, kCsrMcause, zero);
    as.csrrs(a3, kCsrMtval, zero);
    as.csrrs(a4, kCsrMepc, zero);
    as.ebreak();
    const std::uint32_t found = as.address_of("handler");
    program = as.assemble();
    if (found == handler_addr) break;
    handler_addr = found;
  }

  const Capture block =
      diff_drive(sc, "misa + misaligned fetch", [&](System& system) {
        system.load_program(program);
        system.run();
      });
  EXPECT_EQ(block.result.halt, Halt::kEbreak);
  EXPECT_EQ(block.regs[11], 0x40001104u) << "misa: MXL=1 + I, M, C";
  EXPECT_EQ(block.regs[12], 0u) << "mcause: instruction address misaligned";
  EXPECT_EQ(block.regs[13], sc.dram_base + 0x201) << "mtval: faulting pc";
  EXPECT_EQ(block.regs[14], sc.dram_base + 0x201) << "mepc: faulting pc";
}

TEST(SysimDiffTest, StoreOverwritesAdjacentCompressedPair) {
  // A 4-byte store rewrites two adjacent 2-byte instructions inside a
  // hot compressed loop: the block tier must evict on the clipped pair
  // and every tier must execute the patched full-width instruction.
  SystemConfig sc;
  sc.accel = small_accel();

  Assembler enc(sc.dram_base);
  enc.addi(a0, zero, 77);
  const std::uint32_t patched_word = enc.assemble()[0];

  std::uint32_t patch_addr = sc.dram_base;
  std::vector<std::uint32_t> program;
  for (int iter = 0; iter < 6; ++iter) {
    Assembler as(sc.dram_base, /*compress=*/true);
    as.li(t0, patch_addr);
    as.li(t1, patched_word);
    as.li(s0, 0);
    as.li(s1, 60);  // total iterations
    as.li(s2, 40);  // start patching after this many
    as.label("loop");
    as.addi(s0, s0, 1);  // c.addi
    as.blt(s0, s2, "mid");
    as.sw(t1, t0, 0);  // full-width store over the compressed pair
    as.label("mid");
    as.addi(a0, zero, 11);  // c.li  \ the adjacent 2-byte pair the
    as.addi(a0, a0, 1);     // c.addi / store overwrites
    as.blt(s0, s1, "loop");
    as.ebreak();
    const std::uint32_t found = as.address_of("mid");
    program = as.assemble();
    if (found == patch_addr) break;
    patch_addr = found;
  }

  const Capture block = diff_drive(sc, "store over compressed pair",
                                   [&](System& system) {
                                     system.load_program(program);
                                     system.run();
                                   });
  EXPECT_EQ(block.result.halt, Halt::kEbreak);
  EXPECT_EQ(block.regs[10], 77u)
      << "patched full-width instruction must execute";
  EXPECT_GE(block.bstats.evictions, 1u) << "store must evict the block";
  EXPECT_GT(block.bstats.rvc_built, 0u);
}

TEST(SysimDiffTest, SmcPatchesHalfOfWideInstructionAtBlockTail) {
  // A 2-byte store rewrites only the upper parcel of a 32-bit
  // instruction sitting at the tail of a translated block: the
  // clipped-half invalidation must evict, and the re-decoded word
  // (old lower half + new upper half) must execute on every tier.
  SystemConfig sc;
  sc.accel = small_accel();

  Assembler enc(sc.dram_base);
  enc.addi(a0, zero, 77);   // target word after the patch
  enc.addi(a0, zero, 11);   // word initially at the patch site
  const auto enc_words = enc.assemble();
  // Both words share the lower parcel (same rd/funct3/opcode bits), so
  // patching just the upper half switches the immediate 11 -> 77.
  ASSERT_EQ(enc_words[0] & 0xFFFFu, enc_words[1] & 0xFFFFu);
  const std::uint32_t patch_half = enc_words[0] >> 16;

  std::uint32_t patch_addr = sc.dram_base;
  std::vector<std::uint32_t> program;
  for (int iter = 0; iter < 4; ++iter) {
    Assembler as(sc.dram_base);
    as.li(t0, patch_addr);
    as.li(t1, patch_half);
    as.li(s0, 0);
    as.li(s1, 60);
    as.li(s2, 40);
    as.label("loop");
    as.addi(s0, s0, 1);
    as.blt(s0, s2, "mid");
    as.sh(t1, t0, 2);  // clip only the upper half of the tail op
    as.label("mid");
    as.addi(a0, zero, 11);  // tail of the 'mid' block (branch terminates)
    as.blt(s0, s1, "loop");
    as.ebreak();
    const std::uint32_t found = as.address_of("mid");
    program = as.assemble();
    if (found == patch_addr) break;
    patch_addr = found;
  }

  const Capture block = diff_drive(sc, "smc patches half of wide op",
                                   [&](System& system) {
                                     system.load_program(program);
                                     system.run();
                                   });
  EXPECT_EQ(block.result.halt, Halt::kEbreak);
  EXPECT_EQ(block.regs[10], 77u) << "half-patched instruction must execute";
  EXPECT_GE(block.bstats.evictions, 1u)
      << "half-word store must evict the block";
}

TEST(SysimDiffTest, InstructionStraddlesWindowEdge) {
  // A compressed run at the very top of DRAM ends with a 32-bit
  // instruction whose upper parcel lies past the end of memory: block
  // building must stop at the straddle, and the eventual fetch must
  // fault identically on every tier (two-parcel fetch, lower read ok,
  // upper read faults).
  SystemConfig sc;
  sc.accel = small_accel();

  Assembler tail(sc.dram_base + sc.dram_size - 6, /*compress=*/true);
  tail.addi(a0, a0, 1);   // c.addi
  tail.addi(a0, a0, 2);   // c.addi
  tail.addi(a0, a0, 77);  // 4-byte: imm 77 does not fit a C form
  const auto tail_words = tail.assemble();
  ASSERT_EQ(tail_words.size(), 2u);  // 2 + 2 + 4 bytes
  std::uint8_t tail_bytes[8];
  std::memcpy(tail_bytes, tail_words.data(), 8);

  Assembler as(sc.dram_base);
  as.li(a0, 0);
  as.li(t0, sc.dram_base + sc.dram_size - 6);
  as.jalr(zero, t0, 0);
  const auto program = as.assemble();

  const Capture block =
      diff_drive(sc, "instruction straddles window edge", [&](System& system) {
        // Only the first 6 bytes fit: the straddling word's upper
        // parcel has no backing memory.
        system.write_dram(sc.dram_size - 6, tail_bytes, 6);
        system.load_program(program);
        system.run();
      });
  EXPECT_EQ(block.result.halt, Halt::kBusFault);
  EXPECT_EQ(block.regs[10], 3u)
      << "both compressed adds must retire before the faulting fetch";
}

TEST(SysimDiffTest, FaultFlipInsideFoldedChain) {
  // Transient bit flip lands inside a chain of register ops fed by a
  // lui+addi constant in a hot loop (a static run in the block tier):
  // invalidation must evict the block, and the rebuilt chain must
  // propagate the corrupted immediate — bit-identical to the
  // decode-every-fetch oracle.
  SystemConfig sc;
  sc.accel = small_accel();
  Assembler as(sc.dram_base);
  as.li(s0, 0);    // one word (addi)
  as.li(s1, 200);  // one word (addi)
  as.label("loop");
  as.li(a0, 0x12345678);  // lui+addi
  as.addi(a1, a0, 0x10);  // a1 = const + 0x10
  as.slli(a2, a1, 1);     // chained through a1
  as.addi(s0, s0, 1);
  as.blt(s0, s1, "loop");
  as.ebreak();
  const auto program = as.assemble();
  ASSERT_EQ(as.address_of("loop"), sc.dram_base + 8);

  const Capture block =
      diff_drive(sc, "flip inside folded chain", [&](System& system) {
        system.load_program(program);
        system.run_until(100);  // loop is hot, its block is built
        // Flip imm[4] of the chained addi (code byte 19, bit 0):
        // 0x10 -> 0, so the rebuilt chain yields a1 = const + 0.
        system.dram().flip_bit(19, 0);
        system.run_until(500000);
      });
  EXPECT_EQ(block.result.halt, Halt::kEbreak);
  EXPECT_EQ(block.regs[11], 0x12345678u)
      << "rebuilt chain must propagate the corrupted immediate";
  EXPECT_EQ(block.regs[12], 0x2468ACF0u)
      << "downstream op must chain through the corrupted value";
  EXPECT_GE(block.bstats.evictions, 1u) << "flip must evict the block";
}

// ------------------------------------------------------ ISA spec vectors

/// One register op with its expected result, taken from the RISC-V
/// unprivileged ISA manual rather than from any tier: `emit` writes
/// rd = op(rs1, rs2) (OP-IMM forms carry their immediate and ignore rs2).
struct AluVector {
  const char* what;
  void (*emit)(Assembler&, int rd, int rs1, int rs2);
  std::uint32_t a, b, want;
};

/// `emit` for an R-type Assembler member.
template <void (Assembler::*Op)(int, int, int)>
void rr(Assembler& as, int rd, int rs1, int rs2) {
  (as.*Op)(rd, rs1, rs2);
}

const AluVector kAluVectors[] = {
    // M extension, "division by zero and division overflow" table.
    {"div by zero", rr<&Assembler::div>, 7, 0, 0xFFFFFFFFu},
    {"divu by zero", rr<&Assembler::divu>, 7, 0, 0xFFFFFFFFu},
    {"rem by zero", rr<&Assembler::rem>, 0xFFFFFFF9u, 0, 0xFFFFFFF9u},
    {"remu by zero", rr<&Assembler::remu>, 7, 0, 7},
    {"div INT_MIN/-1", rr<&Assembler::div>, 0x80000000u, 0xFFFFFFFFu,
     0x80000000u},
    {"rem INT_MIN/-1", rr<&Assembler::rem>, 0x80000000u, 0xFFFFFFFFu, 0},
    // Signed division rounds toward zero; a remainder takes the
    // dividend's sign; the unsigned forms see 0xFFFFFFFF as 2^32 - 1.
    {"div -7/2", rr<&Assembler::div>, 0xFFFFFFF9u, 2, 0xFFFFFFFDu},
    {"rem -7/2", rr<&Assembler::rem>, 0xFFFFFFF9u, 2, 0xFFFFFFFFu},
    {"divu 2^31/(2^32-1)", rr<&Assembler::divu>, 0x80000000u, 0xFFFFFFFFu, 0},
    {"remu 2^31/(2^32-1)", rr<&Assembler::remu>, 0x80000000u, 0xFFFFFFFFu,
     0x80000000u},
    // Upper halves of the 64-bit product: signed x signed (mulh), signed
    // rs1 x unsigned rs2 (mulhsu), unsigned x unsigned (mulhu).
    {"mul INT_MIN*-1", rr<&Assembler::mul>, 0x80000000u, 0xFFFFFFFFu,
     0x80000000u},
    {"mulh -1*-1", rr<&Assembler::mulh>, 0xFFFFFFFFu, 0xFFFFFFFFu, 0},
    {"mulh INT_MIN*INT_MIN", rr<&Assembler::mulh>, 0x80000000u, 0x80000000u,
     0x40000000u},
    {"mulh -2*3", rr<&Assembler::mulh>, 0xFFFFFFFEu, 3, 0xFFFFFFFFu},
    {"mulhsu -1*(2^32-1)", rr<&Assembler::mulhsu>, 0xFFFFFFFFu, 0xFFFFFFFFu,
     0xFFFFFFFFu},
    {"mulhsu INT_MIN*(2^32-1)", rr<&Assembler::mulhsu>, 0x80000000u,
     0xFFFFFFFFu, 0x80000000u},
    {"mulhsu 2*(2^32-1)", rr<&Assembler::mulhsu>, 2, 0xFFFFFFFFu, 1},
    {"mulhu (2^32-1)^2", rr<&Assembler::mulhu>, 0xFFFFFFFFu, 0xFFFFFFFFu,
     0xFFFFFFFEu},
    {"mulhu (2^32-2)*3", rr<&Assembler::mulhu>, 0xFFFFFFFEu, 3, 2},
    // Register shifts use only the low 5 bits of rs2.
    {"sll by 32", rr<&Assembler::sll>, 1, 32, 1},
    {"sll by 33", rr<&Assembler::sll>, 1, 33, 2},
    {"srl by 32", rr<&Assembler::srl>, 0x80000000u, 32, 0x80000000u},
    {"srl by 33", rr<&Assembler::srl>, 0x80000000u, 33, 0x40000000u},
    {"sra by 32", rr<&Assembler::sra>, 0x80000000u, 32, 0x80000000u},
    {"sra by 33", rr<&Assembler::sra>, 0x80000000u, 33, 0xC0000000u},
    {"srai by 31", [](Assembler& as, int d, int x, int) { as.srai(d, x, 31); },
     0x80000000u, 0, 0xFFFFFFFFu},
    // Signed vs unsigned compares; sltiu sign-extends its immediate and
    // then compares unsigned.
    {"slt -1<1", rr<&Assembler::slt>, 0xFFFFFFFFu, 1, 1},
    {"sltu 2^32-1<1", rr<&Assembler::sltu>, 0xFFFFFFFFu, 1, 0},
    {"sltiu 2^32-2<-1",
     [](Assembler& as, int d, int x, int) { as.sltiu(d, x, -1); }, 0xFFFFFFFEu,
     0, 1},
};

TEST(SysimDiffTest, IsaSpecVectorsOnEveryTier) {
  // Edge vectors from the ISA manual, checked on every tier against the
  // manual's values (not just against each other). Each ALU vector runs
  // twice, once on operands from li and once behind the load that
  // supplies rs1; a jump after each case starts the next one in a fresh
  // block. The program runs twice: at fetch latency 0 the block tier
  // retires every ALU op in a static run, and at fetch latency 1 it
  // sends every op through retire_op -> exec_op, so both block-tier
  // dispatch shapes execute every vector.
  SystemConfig sc;
  sc.accel = small_accel();
  constexpr std::uint32_t kData = 0x48000;  // operands, then load bytes
  constexpr std::uint32_t kRes = 0x40000;   // one result word per check

  std::vector<std::uint32_t> data;
  for (const AluVector& v : kAluVectors) data.push_back(v.a);
  const auto bytes_off = static_cast<std::int32_t>(4 * data.size());
  data.push_back(0x017FFF80u);  // bytes 80 FF 7F 01

  Assembler as(sc.dram_base);
  std::vector<std::string> names;
  std::vector<std::uint32_t> want;
  int case_no = 0;
  const auto check = [&](int reg, std::uint32_t value, std::string name) {
    as.sw(reg, s1, static_cast<std::int32_t>(4 * want.size()));
    names.push_back(std::move(name));
    want.push_back(value);
  };
  const auto next_case = [&] {
    const std::string l = "case" + std::to_string(case_no++);
    as.j(l);
    as.label(l);
  };
  as.li(s0, sc.dram_base + kData);
  as.li(s1, sc.dram_base + kRes);
  next_case();
  // Poisoned before each shape, so a dropped write cannot pass on the
  // previous shape's result.
  constexpr std::uint32_t kPoison = 0x5A5A5A5Au;
  std::int32_t a_off = 0;
  for (const AluVector& v : kAluVectors) {
    as.li(a0, kPoison);
    as.li(a1, v.a);
    as.li(a2, v.b);
    v.emit(as, a0, a1, a2);
    check(a0, v.want, std::string(v.what) + " (li operands)");
    next_case();
    as.li(a0, kPoison);
    as.li(a2, v.b);
    as.lw(a1, s0, a_off);
    v.emit(as, a0, a1, a2);
    check(a0, v.want, std::string(v.what) + " (behind a load)");
    next_case();
    a_off += 4;
  }

  // x0 is hardwired to zero: ALU and load writes to it are discarded.
  as.li(a1, 5);
  as.addi(zero, a1, 1);
  check(zero, 0, "addi to x0 (li operands)");
  next_case();
  as.li(a2, 3);
  as.lw(a1, s0, 0);
  as.add(zero, a1, a2);
  check(zero, 0, "add to x0 (behind a load)");
  next_case();
  as.lw(zero, s0, bytes_off);
  check(zero, 0, "lw to x0");
  as.addi(a0, zero, 9);
  check(a0, 9, "x0 as a source after the writes");
  next_case();

  // lb/lh sign-extend, lbu/lhu zero-extend (no two neighbours expect
  // the same value, so a dropped load cannot pass on its predecessor).
  const struct {
    void (Assembler::*load)(int, int, std::int32_t);
    std::int32_t off;
    std::uint32_t want;
    const char* what;
  } loads[] = {
      {&Assembler::lb, 0, 0xFFFFFF80u, "lb 0x80"},
      {&Assembler::lbu, 0, 0x00000080u, "lbu 0x80"},
      {&Assembler::lb, 1, 0xFFFFFFFFu, "lb 0xFF"},
      {&Assembler::lbu, 1, 0x000000FFu, "lbu 0xFF"},
      {&Assembler::lb, 2, 0x0000007Fu, "lb 0x7F"},
      {&Assembler::lh, 0, 0xFFFFFF80u, "lh 0xFF80"},
      {&Assembler::lh, 2, 0x0000017Fu, "lh 0x017F"},
      {&Assembler::lhu, 0, 0x0000FF80u, "lhu 0xFF80"},
      {&Assembler::lhu, 2, 0x0000017Fu, "lhu 0x017F"},
  };
  for (const auto& l : loads) {
    (as.*l.load)(a0, s0, bytes_off + l.off);
    check(a0, l.want, l.what);
  }
  next_case();

  // jalr with rd == rs1 jumps through the old rs1 (bit 0 cleared) and
  // then links pc + 4: after an addi, and right behind its auipc.
  as.li(a0, 0);
  as.label("jalr_plain");
  as.auipc(t0, 0);
  as.addi(t0, t0, 16);
  as.jalr(t0, t0, 5);   // target (jalr_plain + 21) & ~1 = jalr_plain + 20
  as.addi(a0, a0, 1);   // skipped
  as.addi(a0, a0, 1);   // skipped
  const std::size_t plain_link = want.size();
  check(t0, 0, "jalr rd == rs1 link");
  as.label("jalr_auipc");
  as.auipc(t1, 0);
  as.jalr(t1, t1, 12);  // target jalr_auipc + 12
  as.addi(a0, a0, 1);   // skipped
  const std::size_t auipc_link = want.size();
  check(t1, 0, "auipc+jalr rd == rs1 link");
  check(a0, 0, "jalr skipped the fall-through");
  as.li(a0, 0);
  as.li(a7, 93);
  as.ecall();
  const auto program = as.assemble();
  want[plain_link] = as.address_of("jalr_plain") + 12;
  want[auipc_link] = as.address_of("jalr_auipc") + 8;

  const auto stage = [&](System& s) {
    s.write_dram(kData, data.data(), data.size() * 4);
  };
  for (const unsigned fetch_latency : {0u, 1u}) {
    SystemConfig pass = sc;
    pass.cpu.fetch_latency = fetch_latency;
    const Capture legacy = run_tier(pass, Tier::kLegacy, program, stage);
    for (const Tier tier : {Tier::kLegacy, Tier::kStep, Tier::kBlock}) {
      const std::string what = std::string(tier_name(tier)) +
                               ", fetch latency " +
                               std::to_string(fetch_latency);
      const Capture c = tier == Tier::kLegacy
                            ? legacy
                            : run_tier(pass, tier, program, stage);
      ASSERT_EQ(c.result.halt, Halt::kEcallExit) << what;
      for (std::size_t i = 0; i < want.size(); ++i) {
        std::uint32_t got = 0;
        std::memcpy(&got, c.dram.data() + kRes + 4 * i, 4);
        EXPECT_EQ(got, want[i]) << names[i] << " [" << what << "]";
      }
      expect_identical(legacy, c, what.c_str());
    }
  }
}

// ------------------------------------------------------ fault flips

struct FaultScenario {
  const char* what;
  FaultSpec spec;
};

// The label is already the test-name suffix; print the injection point.
// gtest's default would dump the struct's bytes — the label pointer and
// padding — which differ between runs and leak into the CTest names.
void PrintTo(const FaultScenario& s, std::ostream* os) {
  *os << '@' << s.spec.cycle << " idx " << s.spec.index << " bit "
      << s.spec.bit;
}

class DiffFaultTest : public ::testing::TestWithParam<FaultScenario> {};

TEST_P(DiffFaultTest, InjectedRunsIdentical) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto stage = gemm_stager(wl, 341);
  const auto program = build_gemm_offload(wl, sc, OffloadPath::kMmrPolling);
  const FaultSpec& spec = GetParam().spec;
  constexpr std::uint64_t kMax = 500000;

  diff_drive(sc, GetParam().what, [&](System& system) {
    stage(system);
    system.load_program(program);
    system.run_until(std::min<std::uint64_t>(spec.cycle, kMax));
    switch (spec.target) {
      case FaultTarget::kCpuRegfile:
        if (spec.model == FaultModel::kTransientFlip)
          system.cpu().flip_reg_bit(static_cast<int>(spec.index), spec.bit);
        else
          system.cpu().set_reg_stuck_bit(static_cast<int>(spec.index),
                                         spec.bit,
                                         spec.model == FaultModel::kStuckAt1);
        break;
      case FaultTarget::kDramData:
        if (spec.model == FaultModel::kTransientFlip)
          system.dram().flip_bit(spec.index, spec.bit);
        else
          system.dram().set_stuck_bit(spec.index, spec.bit,
                                      spec.model == FaultModel::kStuckAt1);
        break;
      case FaultTarget::kAccelSpmW:
        system.pe(0).spm_w().set_stuck_bit(spec.index, spec.bit, true);
        break;
      default:
        system.pe(0).inject_phase_fault(spec.index, spec.phase_delta_rad);
        break;
    }
    system.run_until(kMax);
  });
}

FaultScenario scenario(const char* what, FaultTarget target, FaultModel model,
                       std::uint64_t cycle, std::uint32_t index,
                       unsigned bit) {
  FaultScenario s;
  s.what = what;
  s.spec.target = target;
  s.spec.model = model;
  s.spec.cycle = cycle;
  s.spec.index = index;
  s.spec.bit = bit;
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, DiffFaultTest,
    ::testing::Values(
        scenario("reg transient flip", FaultTarget::kCpuRegfile,
                 FaultModel::kTransientFlip, 200, 10, 3),
        scenario("reg stuck-at-1", FaultTarget::kCpuRegfile,
                 FaultModel::kStuckAt1, 150, 6, 0),
        // Data-region flip: exercises icache-range rejection.
        scenario("dram data flip", FaultTarget::kDramData,
                 FaultModel::kTransientFlip, 300, 0x20004, 5),
        // Code-region flip: the cached micro-op must be re-decoded.
        scenario("dram code flip", FaultTarget::kDramData,
                 FaultModel::kTransientFlip, 250, 24, 1),
        // Code-region stuck-at: revokes the DRAM direct span mid-run.
        scenario("dram code stuck-at-1", FaultTarget::kDramData,
                 FaultModel::kStuckAt1, 220, 16, 6),
        scenario("spm-w stuck-at-1", FaultTarget::kAccelSpmW,
                 FaultModel::kStuckAt1, 1, 3, 6),
        scenario("phase fault", FaultTarget::kAccelPhase,
                 FaultModel::kTransientFlip, 400, 5, 0)),
    [](const ::testing::TestParamInfo<FaultScenario>& info) {
      std::string name = info.param.what;
      for (auto& ch : name)
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      return name;
    });

TEST(SysimDiffTest, StuckArmThenClearMidRun) {
  // Arm a stuck-at bit on the DRAM code region mid-run (revoking the
  // direct span), then clear it again later: the fast engine must fall
  // back to masked reads and recover the fast path, matching the
  // per-cycle interpreter cycle for cycle.
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto stage = gemm_stager(wl, 371);
  const auto program = build_gemm_software(wl, sc);

  diff_drive(sc, "stuck arm + clear mid-run", [&](System& system) {
    stage(system);
    system.load_program(program);
    system.run_until(300);
    system.dram().set_stuck_bit(16, 1, true);  // code region
    system.run_until(600);
    system.dram().clear_faults();
    system.run_until(500000);
  });
}

// ------------------------------------------------ DMA bulk fast path

/// DMA DRAM->DRAM copy with WFI/irq synchronization; parameterized
/// offsets/length stress the beat-alignment arithmetic of the bulk move.
std::vector<std::uint32_t> build_dma_copy(const SystemConfig& sc,
                                          std::uint32_t src_off,
                                          std::uint32_t dst_off,
                                          std::uint32_t len) {
  Assembler as(sc.dram_base);
  as.li(t0, sc.dram_base + 0x200);  // handler
  as.csrrw(zero, kCsrMtvec, t0);
  as.li(t0, 1u << 11);  // MEIE
  as.csrrw(zero, kCsrMie, t0);
  as.li(t0, 1u << 3);  // MIE
  as.csrrs(zero, kCsrMstatus, t0);
  as.li(s7, sc.dma_base);
  as.li(t1, sc.dram_base + src_off);
  as.sw(t1, s7, DmaEngine::kRegSrc);
  as.li(t1, sc.dram_base + dst_off);
  as.sw(t1, s7, DmaEngine::kRegDst);
  as.li(t1, len);
  as.sw(t1, s7, DmaEngine::kRegLen);
  as.li(t1, DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn);
  as.sw(t1, s7, DmaEngine::kRegCtrl);
  as.wfi();
  as.label("spin");
  as.j("spin");
  while (as.current_address() < sc.dram_base + 0x200) as.nop();
  as.label("handler");
  as.li(t0, DmaEngine::kStatusDone);
  as.sw(t0, s7, DmaEngine::kRegStatus);
  as.li(a0, 0);
  as.li(a7, 93);
  as.ecall();
  return as.assemble();
}

struct DmaCase {
  const char* what;
  std::uint32_t src_off, dst_off, len;
};

// Deterministic print for the CTest name, as for FaultScenario.
void PrintTo(const DmaCase& c, std::ostream* os) {
  *os << std::hex << "0x" << c.src_off << "->0x" << c.dst_off << std::dec
      << " len " << c.len;
}

class DiffDmaTest : public ::testing::TestWithParam<DmaCase> {};

TEST_P(DiffDmaTest, BulkMoveCycleExact) {
  SystemConfig sc;
  sc.accel = small_accel();
  const DmaCase& dc = GetParam();
  const auto stage = [&](System& s) {
    std::vector<std::uint8_t> src(dc.len);
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = static_cast<std::uint8_t>(i * 7 + 3);
    s.write_dram(dc.src_off, src.data(), src.size());
  };
  diff_program(sc, build_dma_copy(sc, dc.src_off, dc.dst_off, dc.len),
               dc.what, stage);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DiffDmaTest,
    ::testing::Values(
        DmaCase{"aligned", 0x10000, 0x11000, 0x400},
        // Congruent but unaligned: byte prologue, then word beats.
        DmaCase{"congruent_unaligned", 0x10001, 0x11001, 253},
        // Incongruent: every beat degrades to byte transfers.
        DmaCase{"incongruent", 0x10001, 0x11002, 251},
        // Odd tail: last beat shorter than the word width.
        DmaCase{"odd_tail", 0x10000, 0x11000, 0x3F5},
        // Overlapping ranges: the bulk move must refuse and the exact
        // per-cycle path take over (forward copy duplicates bytes).
        DmaCase{"overlap_forward", 0x10000, 0x10080, 0x100},
        DmaCase{"overlap_backward", 0x10080, 0x10000, 0x100}),
    [](const ::testing::TestParamInfo<DmaCase>& info) {
      return std::string(info.param.what);
    });

// ------------------------------------------ bursts while devices are busy
//
// The CPU runs ahead of busy devices inside a burst, and the devices
// catch up before every MMIO access, before direct accesses touching an
// in-flight DMA's remaining bytes, and at the end of the burst. Each
// case below lands a CPU access on a device edge or on an in-flight
// DMA span and must match the per-cycle oracle on every tier.

/// Program the DMA engine at s7 to copy `bytes` from the address in
/// `src` to the one in `dst` and start it. Clobbers t1.
void emit_dma_start(Assembler& as, int src, int dst, std::uint32_t bytes,
                    std::uint32_t ctrl = DmaEngine::kCtrlStart) {
  as.sw(src, s7, DmaEngine::kRegSrc);
  as.sw(dst, s7, DmaEngine::kRegDst);
  as.li(t1, bytes);
  as.sw(t1, s7, DmaEngine::kRegLen);
  as.li(t1, ctrl);
  as.sw(t1, s7, DmaEngine::kRegCtrl);
}

/// Spin on the DMA STATUS at s7 until DONE, then W1C it. Clobbers t1.
void emit_dma_wait(Assembler& as, const std::string& tag) {
  as.label(tag);
  as.lw(t1, s7, DmaEngine::kRegStatus);
  as.andi(t1, t1, DmaEngine::kStatusDone);
  as.beq(t1, zero, tag);
  as.li(t1, DmaEngine::kStatusDone);
  as.sw(t1, s7, DmaEngine::kRegStatus);
}

void emit_exit(Assembler& as) {
  as.li(a7, 93);
  as.ecall();
}

/// Stage `bytes` of distinct nonzero data at DRAM offset `off`.
std::function<void(System&)> pattern_stager(std::uint32_t off,
                                            std::uint32_t bytes) {
  return [off, bytes](System& s) {
    std::vector<std::uint8_t> v(bytes);
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = static_cast<std::uint8_t>(i * 13 + 7) | 1u;
    s.write_dram(off, v.data(), v.size());
  };
}

TEST(SysimDiffTest, BurstPollsDmaStatusMidTransfer) {
  // No WFI: the CPU spins on STATUS while a 1 KiB transfer is in
  // flight, logging every value it reads. Each poll is an MMIO read in
  // the middle of a burst.
  SystemConfig sc;
  sc.accel = small_accel();
  Assembler as(sc.dram_base);
  as.li(s7, sc.dma_base);
  as.li(a1, sc.dram_base + 0x10000);
  as.li(a2, sc.dram_base + 0x11000);
  as.li(s1, sc.dram_base + 0x20000);  // poll log
  emit_dma_start(as, a1, a2, 0x400);
  as.li(a0, 0);
  as.label("poll");
  as.lw(t1, s7, DmaEngine::kRegStatus);
  as.sw(t1, s1, 0);
  as.addi(s1, s1, 4);
  as.addi(a0, a0, 1);
  as.andi(t1, t1, DmaEngine::kStatusDone);
  as.beq(t1, zero, "poll");
  emit_exit(as);
  diff_program(sc, as.assemble(), "poll dma status",
               pattern_stager(0x10000, 0x400));
}

/// A sweep over every CPU issue cycle of one 64-byte (16-beat) transfer:
/// for each delay d (unrolled nops after START) and each word j (a
/// runtime loop), a fresh transfer, then one access to word j of the
/// source or destination. Loads are logged at 0x30000; stores write a
/// marker the DRAM image records. Each transfer gets its own source and
/// destination, so every access meets untouched bytes.
enum class SpanAccess { kLoadDst, kStoreSrc, kStoreDst };

std::vector<std::uint32_t> build_dma_span_sweep(const SystemConfig& sc,
                                                SpanAccess access) {
  constexpr int kDelays = 20;
  constexpr std::uint32_t kBytes = 64;
  Assembler as(sc.dram_base);
  as.li(s7, sc.dma_base);
  as.li(a1, sc.dram_base + 0x40000);  // source cursor
  as.li(a2, sc.dram_base + 0x60000);  // destination cursor
  as.li(s1, sc.dram_base + 0x30000);  // load log
  as.li(s3, 0xDEADBEEFu);             // store marker
  for (int d = 0; d < kDelays; ++d) {
    const std::string tag = "d" + std::to_string(d);
    as.li(s2, 0);  // 4 * j
    as.label(tag);
    as.add(t3, access == SpanAccess::kStoreSrc ? a1 : a2, s2);
    emit_dma_start(as, a1, a2, kBytes);
    for (int i = 0; i < d; ++i) as.nop();
    if (access == SpanAccess::kLoadDst) {
      as.lw(t2, t3, 0);
      as.sw(t2, s1, 0);
      as.addi(s1, s1, 4);
    } else {
      as.sw(s3, t3, 0);
    }
    emit_dma_wait(as, tag + "_wait");
    as.addi(a1, a1, kBytes);
    as.addi(a2, a2, kBytes);
    as.addi(s2, s2, 4);
    as.li(t1, kBytes);
    as.blt(s2, t1, tag);
  }
  emit_exit(as);
  return as.assemble();
}

TEST(SysimDiffTest, BurstReadsDmaDestinationAtEveryBeat) {
  SystemConfig sc;
  sc.accel = small_accel();
  diff_program(sc, build_dma_span_sweep(sc, SpanAccess::kLoadDst),
               "read dma destination", pattern_stager(0x40000, 0x10000));
}

TEST(SysimDiffTest, BurstStoresIntoDmaSpansAtEveryBeat) {
  SystemConfig sc;
  sc.accel = small_accel();
  diff_program(sc, build_dma_span_sweep(sc, SpanAccess::kStoreSrc),
               "store into dma source", pattern_stager(0x40000, 0x10000));
  diff_program(sc, build_dma_span_sweep(sc, SpanAccess::kStoreDst),
               "store into dma destination",
               pattern_stager(0x40000, 0x10000));
}

TEST(SysimDiffTest, BurstSeesPeDoneLandWhileSpinning) {
  // The CPU spins on PE STATUS through a weight load with IRQ_EN set and
  // interrupts masked: DONE lands mid-spin, the line rises, and the
  // spin ends in a burst with the line high. The W1C must end that
  // burst, so the mip read after it sees MEIP clear.
  SystemConfig sc;
  sc.accel = small_accel();
  Assembler as(sc.dram_base);
  as.li(s0, sc.accel_base);
  as.li(t0, PhotonicAccelerator::kCtrlLoadWeights |
                PhotonicAccelerator::kCtrlIrqEn);
  as.sw(t0, s0, PhotonicAccelerator::kRegCtrl);
  as.li(a0, 0);
  as.label("spin");
  as.lw(t1, s0, PhotonicAccelerator::kRegStatus);
  as.addi(a0, a0, 1);
  as.andi(t1, t1, PhotonicAccelerator::kStatusDone);
  as.beq(t1, zero, "spin");
  as.csrrs(a1, kCsrMip, zero);
  as.li(t1, PhotonicAccelerator::kStatusDone);
  as.sw(t1, s0, PhotonicAccelerator::kRegStatus);  // W1C lowers the line
  as.csrrs(a2, kCsrMip, zero);
  emit_exit(as);
  const auto program = as.assemble();
  const Capture block = diff_drive(sc, "pe done while spinning",
                                   [&](System& system) {
                                     system.load_program(program);
                                     system.run();
                                   });
  EXPECT_EQ(block.result.halt, Halt::kEcallExit);
  EXPECT_GT(block.regs[10], 1u) << "the spin must see BUSY first";
  EXPECT_EQ(block.regs[11] & (1u << 11), 1u << 11) << "MEIP before the W1C";
  EXPECT_EQ(block.regs[12] & (1u << 11), 0u) << "MEIP after the W1C";
}

TEST(SysimDiffTest, BurstSeesWatchdogExpireWhileSpinning) {
  // The CPU arms the watchdog and spins reading WDOG, logging each
  // remaining count, until it reads 0. Every read must see the
  // countdown of its own cycle, and the expiry must latch ERROR with
  // cause WATCHDOG and raise the line on the exact cycle.
  SystemConfig sc;
  sc.accel = small_accel();
  Assembler as(sc.dram_base);
  as.li(s0, sc.accel_base);
  as.li(s1, sc.dram_base + 0x20000);  // WDOG log
  as.li(t0, 150);
  as.sw(t0, s0, PhotonicAccelerator::kRegWdog);
  as.label("spin");
  as.lw(t1, s0, PhotonicAccelerator::kRegWdog);
  as.sw(t1, s1, 0);
  as.addi(s1, s1, 4);
  as.bne(t1, zero, "spin");
  as.lw(a1, s0, PhotonicAccelerator::kRegStatus);
  as.lw(a2, s0, PhotonicAccelerator::kRegErr);
  as.csrrs(a3, kCsrMip, zero);
  as.li(t1, PhotonicAccelerator::kStatusError);
  as.sw(t1, s0, PhotonicAccelerator::kRegStatus);
  as.csrrs(a4, kCsrMip, zero);
  as.li(a0, 0);
  emit_exit(as);
  const auto program = as.assemble();
  const Capture block = diff_drive(sc, "watchdog expiry while spinning",
                                   [&](System& system) {
                                     system.load_program(program);
                                     system.run();
                                   });
  EXPECT_EQ(block.result.halt, Halt::kEcallExit);
  EXPECT_EQ(block.regs[11] & PhotonicAccelerator::kStatusError,
            PhotonicAccelerator::kStatusError);
  EXPECT_NE(block.regs[12], 0u) << "ERR must name the watchdog";
  EXPECT_EQ(block.regs[13] & (1u << 11), 1u << 11);
  EXPECT_EQ(block.regs[14] & (1u << 11), 0u);
}

TEST(SysimDiffTest, BurstJumpsIntoCodeTheDmaIsWriting) {
  // The DMA copies 8 padding nops and a routine (8 x "addi a0, a0, 100"
  // and a ret) over an older copy whose routine adds 1, and the CPU
  // calls the routine d cycles after START: a0 tells how many new
  // instructions it ran. The padding lets the DMA's cursor reach the
  // routine after the CPU could first fetch it, so a sweep over d lands
  // the call before, on and after the beats that rewrite it. Cold: the
  // routine never ran, so a burst must stop before fetching bytes the
  // DMA has yet to write. Warm: it ran once first and is cached, so the
  // transfer must take the lockstep path. The copies land in DRAM, where
  // the call's first fetch dispatches a block, or in PE 0's SPM_X
  // window, where it re-resolves the fetch window and so runs as the
  // burst's fallback step. (Returning to DRAM changes the fetch device
  // and flushes the blocks, so in SPM_X a warm routine is no longer
  // cached when the DMA starts.)
  constexpr int kDelays = 14;
  constexpr std::uint32_t kPad = 8 * 4;
  constexpr std::uint32_t kNew = 0x8000, kOld = 0x10000, kStride = 128;
  for (const bool spm : {false, true}) {
    SystemConfig sc;
    sc.accel = small_accel();
    // 28 copies at a 128-byte stride fill SPM_X's 4 KiB window.
    if (spm) sc.accel.max_cols = 256;
    const auto image = [&](std::int32_t step) {
      Assembler r(sc.dram_base);
      for (int i = 0; i < 8; ++i) r.nop();
      for (int i = 0; i < 8; ++i) r.addi(a0, a0, step);
      r.ret();
      return r.assemble();
    };
    const auto fresh = image(100);
    const auto old = image(1);
    const auto image_bytes = static_cast<std::uint32_t>(fresh.size() * 4);

    Assembler as(sc.dram_base);
    as.li(s7, sc.dma_base);
    as.li(a1, sc.dram_base + kNew);
    // Destination cursor.
    as.li(s2, spm ? sc.accel_base + PhotonicAccelerator::kSpmXBase
                  : sc.dram_base + kOld);
    as.li(s1, sc.dram_base + 0x20000);  // a0 log
    for (int d = 0; d < kDelays; ++d) {
      for (const bool warm : {false, true}) {
        as.addi(s3, s2, kPad);  // the routine
        if (warm) as.jalr(ra, s3, 0);
        as.li(a0, 0);
        emit_dma_start(as, a1, s2, image_bytes);
        for (int i = 0; i < d; ++i) as.nop();
        as.jalr(ra, s3, 0);
        as.sw(a0, s1, 0);
        as.addi(s1, s1, 4);
        emit_dma_wait(as, "w" + std::to_string(d) + (warm ? "w" : "c"));
        as.addi(s2, s2, kStride);
      }
    }
    emit_exit(as);
    const auto program = as.assemble();
    const auto stage = [&](System& s) {
      s.write_dram(kNew, fresh.data(), image_bytes);
      for (int k = 0; k < 2 * kDelays; ++k) {
        const std::uint32_t off = static_cast<std::uint32_t>(k) * kStride;
        if (spm)
          s.pe(0).spm_x().load(off, old.data(), image_bytes);
        else
          s.write_dram(kOld + off, old.data(), image_bytes);
      }
    };
    diff_program(sc, program,
                 spm ? "dma writes spm_x code the cpu jumps into"
                     : "dma writes code the cpu jumps into",
                 stage);
  }
}

TEST(SysimDiffTest, BurstEndsWhenInterruptBecomesDue) {
  // A DMA completion raises the line while MIE is clear. The CPU then
  // runs on with the line high and masked, until a csrrs sets MIE (or an
  // mret restores it from MPIE): the trap is due from the very next
  // instruction, so the burst must end right after the CSR write or the
  // mret. The handler logs mepc and exits with the pre-trap count.
  SystemConfig sc;
  sc.accel = small_accel();
  for (const bool via_mret : {false, true}) {
    Assembler as(sc.dram_base);
    as.li(t0, sc.dram_base + 0x400);  // handler
    as.csrrw(zero, kCsrMtvec, t0);
    as.li(t0, 1u << 11);  // MEIE; MIE stays clear
    as.csrrw(zero, kCsrMie, t0);
    as.li(s7, sc.dma_base);
    as.li(a1, sc.dram_base + 0x10000);
    as.li(a2, sc.dram_base + 0x11000);
    emit_dma_start(as, a1, a2, 128,
                   DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn);
    as.label("poll");
    as.lw(t1, s7, DmaEngine::kRegStatus);
    as.andi(t1, t1, DmaEngine::kStatusDone);
    as.beq(t1, zero, "poll");
    as.li(a0, 0);
    for (int i = 0; i < 6; ++i) as.addi(a0, a0, 1);
    if (via_mret) {
      as.li(t0, 1u << 7);  // MPIE
      as.csrrs(zero, kCsrMstatus, t0);
      as.jal(t0, "resume");  // t0 = address of "resume"
      as.label("resume");
      as.addi(t0, t0, 12);  // skip this addi, csrrw and mret
      as.csrrw(zero, kCsrMepc, t0);
      as.mret();
    } else {
      as.li(t0, 1u << 3);  // MIE
      as.csrrs(zero, kCsrMstatus, t0);
    }
    for (int i = 0; i < 6; ++i) as.addi(a0, a0, 100);
    as.label("stuck");
    as.j("stuck");
    while (as.current_address() < sc.dram_base + 0x400) as.nop();
    as.label("handler");
    as.csrrs(a3, kCsrMepc, zero);
    as.csrrs(a4, kCsrMcause, zero);
    as.li(t1, DmaEngine::kStatusDone);
    as.sw(t1, s7, DmaEngine::kRegStatus);
    emit_exit(as);
    const auto program = as.assemble();
    const Capture block = diff_drive(
        sc, via_mret ? "mret makes the trap due" : "csrrs makes the trap due",
        [&](System& system) {
          pattern_stager(0x10000, 128)(system);
          system.load_program(program);
          system.run();
        });
    EXPECT_EQ(block.result.halt, Halt::kEcallExit);
    EXPECT_EQ(block.regs[14], 0x8000000Bu);
    EXPECT_EQ(block.result.exit_code, 6u)
        << "no instruction after the enabling one may run before the trap";
  }
}

TEST(SysimDiffTest, BurstShortensBusyDmaTransfer) {
  // Mid-transfer, the CPU rewrites LEN of a 1 KiB transfer to 64 bytes
  // and counts in a loop with interrupts enabled: the transfer now ends
  // long before the edge the burst started with, and the completion
  // trap must still land on its exact cycle. A LEN below the bytes
  // already moved ends the transfer on the next beat.
  SystemConfig sc;
  sc.accel = small_accel();
  for (const int delay : {0, 40}) {
    Assembler as(sc.dram_base);
    as.li(t0, sc.dram_base + 0x400);  // handler
    as.csrrw(zero, kCsrMtvec, t0);
    as.li(t0, 1u << 11);  // MEIE
    as.csrrw(zero, kCsrMie, t0);
    as.li(t0, 1u << 3);  // MIE
    as.csrrs(zero, kCsrMstatus, t0);
    as.li(s7, sc.dma_base);
    as.li(a1, sc.dram_base + 0x10000);
    as.li(a2, sc.dram_base + 0x11000);
    emit_dma_start(as, a1, a2, 0x400,
                   DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn);
    for (int i = 0; i < delay; ++i) as.nop();
    as.li(t0, 64);
    as.sw(t0, s7, DmaEngine::kRegLen);
    as.li(a0, 0);
    as.label("count");
    as.addi(a0, a0, 1);
    as.j("count");
    while (as.current_address() < sc.dram_base + 0x400) as.nop();
    as.label("handler");
    as.csrrs(a3, kCsrMepc, zero);
    as.li(t1, DmaEngine::kStatusDone);
    as.sw(t1, s7, DmaEngine::kRegStatus);
    emit_exit(as);
    diff_program(sc, as.assemble(), "shorten a busy dma transfer",
                 pattern_stager(0x10000, 0x400));
  }
}

TEST(SysimDiffTest, DmaWithMmioEndpointKeepsLockstep) {
  // The DMA copies the PE's MMR block to DRAM: every beat is a device
  // read, so the transfer cannot bulk-move and the event loop must tick
  // every cycle of it while the CPU polls.
  SystemConfig sc;
  sc.accel = small_accel();
  constexpr std::uint32_t kBytes = PhotonicAccelerator::kRegWdog + 4;
  Assembler as(sc.dram_base);
  as.li(s0, sc.accel_base);
  as.li(s7, sc.dma_base);
  as.li(t0, 0x1234);
  as.sw(t0, s0, PhotonicAccelerator::kRegCrcW);
  as.li(t0, 0x5678);
  as.sw(t0, s0, PhotonicAccelerator::kRegCrcX);
  as.li(a1, sc.accel_base);
  as.li(a2, sc.dram_base + 0x20000);
  emit_dma_start(as, a1, a2, kBytes);
  as.li(a0, 0);
  as.label("poll");
  as.lw(t1, s7, DmaEngine::kRegStatus);
  as.addi(a0, a0, 1);
  as.andi(t1, t1, DmaEngine::kStatusDone);
  as.beq(t1, zero, "poll");
  emit_exit(as);
  const auto program = as.assemble();
  diff_drive(sc, "dma with an mmio endpoint", [&](System& system) {
    system.load_program(program);
    system.run();
    // The first beat moves in the device phase of the START store's
    // cycle, which ends the burst that issued it; every later beat
    // must be ticked.
    if (system.config().event_driven) {
      EXPECT_GE(system.stats().ticks, kBytes / 4 - 1);
    }
  });
}

// ---------------------------------------------- snapshot / restore

TEST(SnapshotTest, MutateRestoreRoundTripEqualsFreshSystem) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto stage = gemm_stager(wl, 411);
  const auto program = build_gemm_offload(wl, sc, OffloadPath::kMmrPolling);

  System system(sc);
  stage(system);
  system.load_program(program);
  const System::SystemSnapshot snap = system.snapshot();

  // Beat the system up: run, arm every fault class, run some more.
  system.run_until(400);
  system.cpu().flip_reg_bit(9, 4);
  system.cpu().set_reg_stuck_bit(12, 2, true);
  system.dram().flip_bit(0x20008, 3);
  system.dram().set_stuck_bit(20, 1, true);  // code region, revokes span
  system.pe(0).spm_w().set_stuck_bit(5, 7, true);
  system.pe(0).inject_phase_fault(2, 0.9);
  system.run_until(2000);

  system.restore(snap);

  // A freshly staged identical system is the ground truth.
  System fresh(sc);
  stage(fresh);
  fresh.load_program(program);

  // Registers, counters, DRAM image.
  const Capture restored = capture_state(system);
  const Capture baseline = capture_state(fresh);
  expect_identical(baseline, restored, "restored vs fresh");

  // SPM images and the programmed photonic transfer, bit for bit.
  for (std::uint32_t off = 0; off < system.pe(0).spm_w().size(); ++off)
    ASSERT_EQ(system.pe(0).spm_w().read(off, 1), fresh.pe(0).spm_w().read(off, 1));
  const auto& t_restored = system.pe(0).gemm().engine().physical_transfer();
  const auto& t_fresh = fresh.pe(0).gemm().engine().physical_transfer();
  EXPECT_EQ(t_restored.raw(), t_fresh.raw()) << "mesh transfer differs";

  // And both runs from here must be indistinguishable to completion.
  system.run_until(500000);
  fresh.run_until(500000);
  expect_identical(capture_state(fresh), capture_state(system),
                   "post-restore execution");
}

TEST(SnapshotTest, RestoredTrialMatchesRebuiltSystemPerScenario) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto stage = gemm_stager(wl, 421);
  const auto program = build_gemm_offload(wl, sc, OffloadPath::kMmrPolling);
  constexpr std::uint64_t kMax = 500000;

  const FaultSpec specs[] = {
      {FaultTarget::kCpuRegfile, FaultModel::kTransientFlip, 200, 10, 3, 0.5},
      {FaultTarget::kCpuRegfile, FaultModel::kStuckAt0, 150, 6, 0, 0.5},
      {FaultTarget::kDramData, FaultModel::kTransientFlip, 300, 0x20004, 5,
       0.5},
      {FaultTarget::kDramData, FaultModel::kStuckAt1, 220, 16, 6, 0.5},
      {FaultTarget::kAccelSpmW, FaultModel::kStuckAt1, 1, 3, 6, 0.5},
      {FaultTarget::kAccelSpmX, FaultModel::kTransientFlip, 350, 17, 2, 0.5},
      {FaultTarget::kAccelPhase, FaultModel::kTransientFlip, 400, 5, 0, 0.9},
  };

  const auto run_spec = [&](System& system, const FaultSpec& spec) {
    system.run_until(std::min(spec.cycle, kMax));
    switch (spec.target) {
      case FaultTarget::kCpuRegfile:
        if (spec.model == FaultModel::kTransientFlip)
          system.cpu().flip_reg_bit(static_cast<int>(spec.index), spec.bit);
        else
          system.cpu().set_reg_stuck_bit(static_cast<int>(spec.index),
                                         spec.bit,
                                         spec.model == FaultModel::kStuckAt1);
        break;
      case FaultTarget::kDramData:
        if (spec.model == FaultModel::kTransientFlip)
          system.dram().flip_bit(spec.index, spec.bit);
        else
          system.dram().set_stuck_bit(spec.index, spec.bit,
                                      spec.model == FaultModel::kStuckAt1);
        break;
      case FaultTarget::kAccelSpmW:
        system.pe(0).spm_w().set_stuck_bit(spec.index, spec.bit, true);
        break;
      case FaultTarget::kAccelSpmX:
        system.pe(0).spm_x().flip_bit(spec.index, spec.bit);
        break;
      default:
        system.pe(0).inject_phase_fault(spec.index, spec.phase_delta_rad);
        break;
    }
    system.run_until(kMax);
  };

  // One long-lived system restored between trials (the campaign pattern)
  // vs a freshly constructed system per trial (the PR 3 behavior).
  System reused(sc);
  stage(reused);
  reused.load_program(program);
  const System::SystemSnapshot snap = reused.snapshot();

  for (const FaultSpec& spec : specs) {
    reused.restore(snap);
    run_spec(reused, spec);

    System rebuilt(sc);
    stage(rebuilt);
    rebuilt.load_program(program);
    run_spec(rebuilt, spec);

    expect_identical(capture_state(rebuilt), capture_state(reused),
                     (std::string("spec target ") + to_string(spec.target) +
                      " model " + to_string(spec.model))
                         .c_str());
  }
}

/// Raw SPM images of every PE (stuck-at masks not applied).
std::vector<std::uint8_t> spm_images(System& system) {
  std::vector<std::uint8_t> out;
  for (std::size_t p = 0; p < system.pe_count(); ++p)
    for (Memory* m : {&system.pe(p).spm_w(), &system.pe(p).spm_x(),
                      &system.pe(p).spm_y()}) {
      const std::size_t at = out.size();
      out.resize(at + m->size());
      m->read_block(0, out.data() + at, m->size());
    }
  return out;
}

/// Restore `system` from `snap` and diff it against the oracle, a fresh
/// system restored from the same snapshot (it holds no image, so it takes
/// the full-copy path): right after the restore and again after both run
/// to completion.
void expect_restore_matches_fresh(System& system,
                                  const System::SystemSnapshot& snap,
                                  const std::string& what) {
  system.restore(snap);
  System fresh(system.config());
  fresh.restore(snap);
  expect_identical(capture_state(fresh), capture_state(system), what.c_str());
  EXPECT_EQ(spm_images(fresh) == spm_images(system), true)
      << what << ": SPM images differ";
  fresh.run();
  system.run();
  const std::string done = what + ", run to completion";
  expect_identical(capture_state(fresh), capture_state(system), done.c_str());
  EXPECT_EQ(spm_images(fresh) == spm_images(system), true)
      << done << ": SPM images differ";
}

/// Host-driven DMA of `len` bytes between DRAM offsets, run to its end.
void dma_in_dram(System& system, std::uint32_t src, std::uint32_t dst,
                 std::uint32_t len) {
  DmaEngine& dma = system.dma();
  const std::uint32_t base = system.config().dram_base;
  dma.write(DmaEngine::kRegSrc, base + src, 4);
  dma.write(DmaEngine::kRegDst, base + dst, 4);
  dma.write(DmaEngine::kRegLen, len, 4);
  dma.write(DmaEngine::kRegCtrl, DmaEngine::kCtrlStart, 4);
  dma.skip_cycles(len);
  ASSERT_FALSE(dma.busy());
  dma.write(DmaEngine::kRegStatus, DmaEngine::kStatusDone, 4);  // W1C
}

TEST(SnapshotTest, CrossImageRestoresMatchFreshRestore) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto stage = gemm_stager(wl, 441);
  const std::pair<const char*, std::vector<std::uint32_t>> programs[] = {
      {"software", build_gemm_software(wl, sc)},
      {"dma offload", build_gemm_offload(wl, sc, OffloadPath::kDmaInterrupt)},
  };
  for (const Tier tier : {Tier::kLegacy, Tier::kStep, Tier::kBlock}) {
    for (const auto& [name, program] : programs) {
      const std::string what = std::string(name) + " [" + tier_name(tier) + "]";
      System system(with_tier(sc, tier));
      stage(system);
      system.load_program(program);
      const System::SystemSnapshot a = system.snapshot();
      System golden_run(system.config());
      golden_run.restore(a);
      const std::uint64_t golden = golden_run.run().cycles;
      system.run_until(golden / 2);
      System::SystemSnapshot b = system.snapshot();
      system.run_until(golden / 2 + golden / 8);  // restore mid-run

      // A -> B -> A -> B. Each run to completion leaves CPU stores
      // unpublished; a host DMA and bit flips (code and data) follow.
      for (int round = 0; round < 4; ++round) {
        expect_restore_matches_fresh(system, round % 2 == 0 ? a : b,
                                     what + " round " + std::to_string(round));
        dma_in_dram(system, wl.x_offset, 0x3A000 + 0x100 * round, 64);
        system.dram().flip_bit(8 + 4 * round, round);
        system.dram().flip_bit(wl.y_offset + 2, round);
      }

      // A stuck bit changes the read transform: full-copy path.
      system.dram().set_stuck_bit(12, 3, true);
      expect_restore_matches_fresh(system, a, what + " after a stuck bit");
      // Stores made through a window that a stuck bit then revokes must
      // still reach the watermark when the stuck set matches the target.
      system.restore(a);
      system.dram().set_stuck_bit(0x3F000, 3, true);
      const System::SystemSnapshot stuck = system.snapshot();
      system.dram().clear_faults();
      system.run_until(golden / 2);
      system.dram().set_stuck_bit(0x3F000, 3, true);
      expect_restore_matches_fresh(system, stuck, what + " stuck set kept");

      // Address reuse: with the pair (A, B) cached, drop B and take C,
      // which differs from A where B did not (a flipped code byte). C's
      // image may land at B's freed address (MemoryTest.PairSpanNever-
      // MatchesAFreedImage forces that case); the cache must not match.
      expect_restore_matches_fresh(system, b, what + " before dropping B");
      expect_restore_matches_fresh(system, a, what + " holding A");
      system.restore(a);
      system.run_until(golden / 3);
      system.dram().flip_bit(40, 5);
      b = {};
      const System::SystemSnapshot c = system.snapshot();
      expect_restore_matches_fresh(system, a, what + " A after taking C");
      expect_restore_matches_fresh(system, c, what + " C");
    }
  }
}

TEST(SnapshotTest, CopiesShareImages) {
  SystemConfig sc;
  sc.accel = small_accel();
  System system(sc);
  const System::SystemSnapshot snap = system.snapshot();
  const System::SystemSnapshot copy = snap;
  EXPECT_EQ(copy.dram.bytes, snap.dram.bytes);
  EXPECT_EQ(copy.pes[0].spm_w.bytes, snap.pes[0].spm_w.bytes);
  EXPECT_EQ(copy.pes[0].spm_x.bytes, snap.pes[0].spm_x.bytes);
  EXPECT_EQ(copy.pes[0].spm_y.bytes, snap.pes[0].spm_y.bytes);
}

TEST(SnapshotTest, WarmRestoreKeepsTranslatedBlocks) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto stage = gemm_stager(wl, 451);
  const auto program = build_gemm_software(wl, sc);
  System fresh(sc);
  stage(fresh);
  fresh.load_program(program);
  fresh.run();

  System system(sc);
  stage(system);
  system.load_program(program);
  const System::SystemSnapshot snap = system.snapshot();
  const auto built = [&] { return system.cpu().block_stats().blocks_built; };
  system.run();
  system.restore(snap);
  system.run();
  const std::uint64_t cold = built();
  ASSERT_GT(cold, 0u);
  system.restore(snap);
  system.run();
  EXPECT_EQ(built(), cold) << "a second restore and run must build no block";
  expect_identical(capture_state(fresh), capture_state(system), "warm rerun");

  // A flip in the code region between restores: the restore copies the
  // byte back and only the blocks covering it are rebuilt.
  system.dram().flip_bit(4 * static_cast<std::uint32_t>(program.size()) - 2, 1);
  system.restore(snap);
  system.run();
  EXPECT_GE(built(), cold + 1) << "the block covering the flip is rebuilt";
  expect_identical(capture_state(fresh), capture_state(system),
                   "rerun after a code flip");
}

TEST(SnapshotTest, ShapeMismatchThrowsBeforeChangingAnything) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto program = build_gemm_offload(wl, sc, OffloadPath::kMmrPolling);
  const auto staged = [&](const SystemConfig& cfg) {
    auto system = std::make_unique<System>(cfg);
    gemm_stager(wl, 461)(*system);
    system->load_program(program);
    return system;
  };

  const auto with = [&](const std::function<void(SystemConfig&)>& edit) {
    SystemConfig cfg = sc;
    edit(cfg);
    return cfg;
  };
  const std::pair<const char*, SystemConfig> others[] = {
      {"max_cols", with([](SystemConfig& c) { c.accel.max_cols = 32; })},
      {"ports", with([](SystemConfig& c) { c.accel.gemm.mvm.ports = 4; })},
      {"num_pes", with([](SystemConfig& c) { c.num_pes = 2; })},
      {"dram_size", with([](SystemConfig& c) { c.dram_size = 1u << 20; })},
  };
  for (const auto& [what, cfg] : others) {
    auto donor = staged(cfg);
    donor->write_dram(0x100, "\xAB", 1);
    const System::SystemSnapshot foreign = donor->snapshot();

    auto system = staged(sc);
    const System::SystemSnapshot own = system->snapshot();
    system->run_until(300);
    const Capture before = capture_state(*system);
    const std::vector<std::uint8_t> spm_before = spm_images(*system);
    EXPECT_THROW(system->restore(foreign), std::invalid_argument) << what;
    expect_identical(before, capture_state(*system), what);
    EXPECT_EQ(spm_images(*system) == spm_before, true) << what;

    // The held image is unchanged too: restoring the system's own
    // snapshot still matches a fresh run.
    auto fresh = staged(sc);
    system->restore(own);
    system->run();
    fresh->run();
    expect_identical(capture_state(*fresh), capture_state(*system), what);
  }
}

TEST(SnapshotTest, SerialAndParallelCampaignVerdictsIdentical) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto a = random_fixed(wl.n * wl.n, 431);
  const auto x = random_fixed(wl.n * wl.m, 432);
  const auto program = build_gemm_offload(wl, sc, OffloadPath::kMmrPolling);
  FaultCampaign campaign(
      [&]() {
        auto system = std::make_unique<System>(sc);
        stage_gemm_data(*system, wl, a, x);
        system->load_program(program);
        return system;
      },
      [&](System& s) {
        const auto y = read_gemm_result(s, wl);
        std::vector<std::uint8_t> bytes(y.size() * 2);
        memcpy(bytes.data(), y.data(), bytes.size());
        return bytes;
      },
      500000);

  aspen::lina::Rng rng(433);
  const std::pair<FaultTarget, FaultModel> points[] = {
      {FaultTarget::kCpuRegfile, FaultModel::kTransientFlip},
      {FaultTarget::kCpuRegfile, FaultModel::kStuckAt1},
      {FaultTarget::kDramData, FaultModel::kTransientFlip},
      {FaultTarget::kAccelSpmW, FaultModel::kStuckAt0},
      {FaultTarget::kAccelSpmX, FaultModel::kTransientFlip},
      {FaultTarget::kAccelPhase, FaultModel::kTransientFlip},
  };
  for (const auto& [target, model] : points) {
    const auto specs = campaign.sample_specs(target, model, 6, rng);
    const auto serial = campaign.run_trials(specs, 1);
    const auto parallel = campaign.run_trials(specs, 4);
    EXPECT_EQ(serial, parallel)
        << "verdicts diverge for " << to_string(target) << "/"
        << to_string(model);
  }
}

TEST(SysimDiffTest, CampaignVerdictsIdentical) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto a = random_fixed(wl.n * wl.n, 351);
  const auto x = random_fixed(wl.n * wl.m, 352);
  const auto program = build_gemm_offload(wl, sc, OffloadPath::kMmrPolling);
  const auto read_y = [wl](System& s) {
    const auto y = read_gemm_result(s, wl);
    std::vector<std::uint8_t> bytes(y.size() * 2);
    memcpy(bytes.data(), y.data(), bytes.size());
    return bytes;
  };

  const auto campaign_counts = [&](Tier tier) {
    const SystemConfig mode_sc = with_tier(sc, tier);
    FaultCampaign campaign(
        [&, mode_sc]() {
          auto system = std::make_unique<System>(mode_sc);
          stage_gemm_data(*system, wl, a, x);
          system->load_program(program);
          return system;
        },
        read_y, 500000);
    aspen::lina::Rng rng(353);  // same draw sequence in every tier
    CampaignResult res;
    for (const FaultTarget target :
         {FaultTarget::kCpuRegfile, FaultTarget::kDramData}) {
      const auto part = campaign.run_campaign(
          target, FaultModel::kTransientFlip, 15, rng);
      for (const auto& [o, n] : part.counts) res.counts[o] += n;
      res.total += part.total;
    }
    return res;
  };

  const CampaignResult legacy = campaign_counts(Tier::kLegacy);
  for (const Tier tier : kFastTiers) {
    const CampaignResult fast = campaign_counts(tier);
    EXPECT_EQ(legacy.total, fast.total) << tier_name(tier);
    EXPECT_EQ(legacy.counts, fast.counts) << tier_name(tier);
  }
}

// ------------------------------------------ WFI wake and spin skip

/// The architectural state at a stop, for cycle-by-cycle diffs.
struct StopState {
  std::uint64_t now = 0, cycles = 0, instret = 0;
  std::uint32_t pc = 0;
  bool wfi = false;
  unsigned stall = 0;
  std::array<std::uint32_t, 32> regs{};
};

StopState stop_state(System& system) {
  StopState s;
  s.now = system.now();
  s.cycles = system.cpu().cycles();
  s.instret = system.cpu().instret();
  s.pc = system.cpu().pc();
  s.wfi = system.cpu().waiting_for_interrupt();
  s.stall = system.cpu().stall_remaining();
  for (int i = 0; i < 32; ++i)
    s.regs[static_cast<std::size_t>(i)] = system.cpu().read_reg(i);
  return s;
}

void expect_same_stop(const StopState& want, const StopState& got,
                      const std::string& at) {
  EXPECT_EQ(got.now, want.now) << at;
  EXPECT_EQ(got.cycles, want.cycles) << at;
  EXPECT_EQ(got.instret, want.instret) << at;
  EXPECT_EQ(got.pc, want.pc) << at;
  EXPECT_EQ(got.wfi, want.wfi) << at;
  EXPECT_EQ(got.stall, want.stall) << at;
  EXPECT_EQ(got.regs, want.regs) << at << ": register file differs";
}

/// Stops a run of `program` at each cycle of `stops` on every tier,
/// restoring a reset snapshot before each stop, and diffs every stop
/// against the legacy interpreter's. Returns the block tier's event-loop
/// counters over all its stops.
SystemStats diff_stops(const SystemConfig& sc,
                       const std::vector<std::uint32_t>& program,
                       const std::vector<std::uint64_t>& stops,
                       const std::string& what) {
  std::vector<StopState> want;
  SystemStats block_stats;
  for (const Tier tier : {Tier::kLegacy, Tier::kStep, Tier::kBlock}) {
    System system(with_tier(sc, tier));
    system.load_program(program);
    const System::SystemSnapshot start = system.snapshot();
    for (std::size_t i = 0; i < stops.size(); ++i) {
      system.restore(start);
      system.run_until(stops[i]);
      const StopState got = stop_state(system);
      if (tier == Tier::kLegacy) {
        EXPECT_EQ(got.now, stops[i]) << what;
        want.push_back(got);
        continue;
      }
      expect_same_stop(want[i], got,
                       what + " [" + tier_name(tier) + "] stopped at cycle " +
                           std::to_string(stops[i]));
    }
    if (tier == Tier::kBlock) block_stats = system.stats();
  }
  return block_stats;
}

std::vector<std::uint64_t> cycle_range(std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t c = lo; c <= hi; ++c) v.push_back(c);
  return v;
}

/// Raises the line with a 4-byte DMA copy whose DONE (IRQ_EN set) is
/// polled and never cleared, with interrupts globally masked so no trap
/// is taken, then spins: `body`, wfi, and a jump back. s1 points at a
/// DRAM flag word nothing sets, a0 is 0 on entry; "out" exits.
std::vector<std::uint32_t> build_line_high_spin(
    const SystemConfig& sc, const std::function<void(Assembler&)>& prologue,
    const std::function<void(Assembler&)>& body) {
  Assembler as(sc.dram_base);
  as.li(s7, sc.dma_base);
  as.li(a1, sc.dram_base + 0x10000);
  as.li(a2, sc.dram_base + 0x11000);
  as.li(s1, sc.dram_base + 0x20000);
  emit_dma_start(as, a1, a2, 4, DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn);
  as.label("dma_wait");
  as.lw(t1, s7, DmaEngine::kRegStatus);
  as.andi(t1, t1, DmaEngine::kStatusDone);
  as.beq(t1, zero, "dma_wait");
  if (prologue) prologue(as);
  as.li(a0, 0);
  as.label("spin");
  body(as);
  as.wfi();
  as.j("spin");
  as.label("out");
  emit_exit(as);
  return as.assemble();
}

TEST(SysimDiffTest, WfiWithLineHighWakesInsideBurstAtEveryCycle) {
  // The line is high for the whole spin, so every WFI wakes at the top
  // of the next cycle. A counting spin never repeats its state; a flag
  // poll repeats it every period, so bursts skip it in whole periods.
  // Both stop at every cycle from reset through several iterations (the
  // cycle after each WFI included), and the poll also at every cycle of
  // a later stretch, with and without a fetch stall after every WFI.
  for (const unsigned fetch_latency : {0u, 2u}) {
    SystemConfig sc;
    sc.accel = small_accel();
    sc.cpu.fetch_latency = fetch_latency;
    const std::string tag = " (fetch latency " + std::to_string(fetch_latency) + ")";

    const auto counting = build_line_high_spin(sc, {}, [](Assembler& as) {
      as.lw(t1, s1, 0);
      as.addi(a0, a0, 1);
    });
    const SystemStats counted =
        diff_stops(sc, counting, cycle_range(0, 260), "counting spin" + tag);
    EXPECT_EQ(counted.spin_skips, 0u) << tag;

    const auto polling = build_line_high_spin(sc, {}, [](Assembler& as) {
      as.lw(t1, s1, 0);
      as.bne(t1, zero, "out");
    });
    std::vector<std::uint64_t> stops = cycle_range(0, 260);
    for (const std::uint64_t c : cycle_range(5000, 5060)) stops.push_back(c);
    const SystemStats polled = diff_stops(sc, polling, stops, "flag poll" + tag);
    EXPECT_GT(polled.spin_skips, 0u) << tag;
    EXPECT_GT(polled.spin_cycles, 4000u) << tag;
  }
}

TEST(SysimDiffTest, SpinSkipNeedsStillDevicesAndNoStores) {
  // Three flag polls with the line high that repeat their registers but
  // must run in full: a watchdog armed before the spin (its count is a
  // readable register that moves), a DMA transfer in flight through it
  // (a memory writer besides the CPU), and a spin that stores on every
  // iteration. Each matches legacy and takes no skip.
  SystemConfig sc;
  sc.accel = small_accel();
  const auto poll = [](Assembler& as) {
    as.lw(t1, s1, 0);
    as.bne(t1, zero, "out");
  };
  const std::vector<std::uint64_t> stops = cycle_range(2980, 3000);

  const auto watchdog = build_line_high_spin(
      sc,
      [&](Assembler& as) {
        as.li(s0, sc.accel_base);
        as.li(t0, 100000);
        as.sw(t0, s0, PhotonicAccelerator::kRegWdog);
      },
      poll);
  EXPECT_EQ(diff_stops(sc, watchdog, stops, "watchdog armed").spin_skips, 0u);

  const auto dma = build_line_high_spin(
      sc,
      [&](Assembler& as) {
        as.li(a1, sc.dram_base + 0x40000);
        as.li(a2, sc.dram_base + 0x60000);
        emit_dma_start(as, a1, a2, 0x8000);  // 8 192 beats, no IRQ
      },
      poll);
  EXPECT_EQ(diff_stops(sc, dma, stops, "dma in flight").spin_skips, 0u);

  const auto storing = build_line_high_spin(sc, {}, [&](Assembler& as) {
    poll(as);
    as.sw(zero, s1, 4);
  });
  EXPECT_EQ(diff_stops(sc, storing, stops, "storing spin").spin_skips, 0u);
}

/// Copies 1 KiB from DRAM 0x40000 to 0x60000 by DMA with IRQ_EN, waits in
/// a WFI poll, clears DONE, then sums the destination's 256 words into
/// a0 and exits.
std::vector<std::uint32_t> build_dma_copy_and_sum(const SystemConfig& sc) {
  Assembler as(sc.dram_base);
  as.li(s7, sc.dma_base);
  as.li(a1, sc.dram_base + 0x40000);
  as.li(a2, sc.dram_base + 0x60000);
  emit_dma_start(as, a1, a2, 0x400,
                 DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn);
  as.label("wait");
  as.lw(t1, s7, DmaEngine::kRegStatus);
  as.andi(t1, t1, DmaEngine::kStatusDone);
  as.bne(t1, zero, "done");
  as.wfi();
  as.j("wait");
  as.label("done");
  as.li(t1, DmaEngine::kStatusDone);
  as.sw(t1, s7, DmaEngine::kRegStatus);
  as.li(a0, 0);
  as.li(t2, 256);
  as.label("sum");
  as.lw(t1, a2, 0);
  as.add(a0, a0, t1);
  as.addi(a2, a2, 4);
  as.addi(t2, t2, -1);
  as.bne(t2, zero, "sum");
  emit_exit(as);
  return as.assemble();
}

TEST(SysimDiffTest, SnapshotMidDmaTransferRestoresIntoFreshSystem) {
  // A snapshot taken while the DMA is mid-transfer, restored into a
  // fresh system and run to the end, ends where an uninterrupted legacy
  // run does. The snapshot is the second of two taken back to back, so
  // it shares the first one's memory images.
  SystemConfig sc;
  sc.accel = small_accel();
  const auto program = build_dma_copy_and_sum(sc);
  const auto stage = pattern_stager(0x40000, 0x400);
  const Capture legacy = run_tier(sc, Tier::kLegacy, program, stage);
  for (const Tier tier : {Tier::kLegacy, Tier::kStep, Tier::kBlock}) {
    const std::string tag = tier_name(tier);
    System system(with_tier(sc, tier));
    stage(system);
    system.load_program(program);
    system.run_until(80);
    ASSERT_TRUE(system.dma().busy()) << tag << ": the transfer is in flight";
    const System::SystemSnapshot first = system.snapshot();
    const System::SystemSnapshot mid = system.snapshot();
    EXPECT_EQ(first.dram.bytes, mid.dram.bytes) << tag;
    EXPECT_EQ(first.pes[0].spm_w.bytes, mid.pes[0].spm_w.bytes) << tag;

    System fresh(with_tier(sc, tier));
    fresh.restore(mid);
    fresh.run();
    expect_identical(legacy, capture_state(fresh),
                     ("restored mid-transfer [" + tag + "]").c_str());
    system.run();
    expect_identical(legacy, capture_state(system),
                     ("continued after the snapshot [" + tag + "]").c_str());
  }
}

TEST(SysimDiffTest, StuckBitArmedOnDmaEndpointMidTransfer) {
  // A stuck-at bit armed mid-transfer on a byte the DMA has yet to read
  // (source) or write (destination) revokes that memory's span under the
  // in-flight transfer; the sum over the destination sees the forced bit
  // exactly when legacy does.
  SystemConfig sc;
  sc.accel = small_accel();
  const auto program = build_dma_copy_and_sum(sc);
  const auto stage = pattern_stager(0x40000, 0x400);
  // Pattern byte 0x300 is 0x1F: bit 6 is clear in both images.
  for (const std::uint32_t at : {0x40300u, 0x60300u}) {
    const std::string tag = at == 0x40300u ? "source" : "destination";
    const Capture block = diff_drive(sc, tag.c_str(), [&](System& system) {
      stage(system);
      system.load_program(program);
      system.run_until(80);
      ASSERT_TRUE(system.dma().busy()) << tag;
      system.dram().set_stuck_bit(at, 6, true);
      system.run();
    });
    EXPECT_EQ(block.result.halt, Halt::kEcallExit) << tag;
  }
}

TEST(SnapshotTest, UnchangedMemoriesShareTheirImage) {
  // Two snapshots with no write between them share every image. A CPU
  // store through its direct window between two snapshots is published
  // first, so the second snapshot holds a new DRAM image with the store.
  // Each snapshot restores to the state of a fresh run stopped there.
  SystemConfig sc;
  sc.accel = small_accel();
  Assembler as(sc.dram_base);
  as.li(s1, sc.dram_base + 0x20000);
  as.li(t0, 0x12345678u);
  for (int i = 0; i < 20; ++i) as.nop();
  as.sw(t0, s1, 0);
  for (int i = 0; i < 20; ++i) as.nop();
  as.ebreak();
  const auto program = as.assemble();
  for (const Tier tier : kFastTiers) {
    const std::string tag = tier_name(tier);
    System system(with_tier(sc, tier));
    system.load_program(program);
    system.run_until(10);
    const System::SystemSnapshot a = system.snapshot();
    const System::SystemSnapshot b = system.snapshot();
    EXPECT_EQ(a.dram.bytes, b.dram.bytes) << tag;
    EXPECT_EQ(a.pes[0].spm_x.bytes, b.pes[0].spm_x.bytes) << tag;
    system.run_until(40);
    const System::SystemSnapshot c = system.snapshot();
    EXPECT_NE(c.dram.bytes, b.dram.bytes) << tag;
    EXPECT_EQ(c.pes[0].spm_y.bytes, b.pes[0].spm_y.bytes) << tag;
    std::uint32_t stored = 0;
    std::memcpy(&stored, c.dram.bytes->data() + 0x20000, 4);
    EXPECT_EQ(stored, 0x12345678u) << tag;
    std::memcpy(&stored, b.dram.bytes->data() + 0x20000, 4);
    EXPECT_EQ(stored, 0u) << tag;

    for (const auto& [snap, at] :
         {std::make_pair(&b, std::uint64_t{10}), std::make_pair(&c, std::uint64_t{40})}) {
      System fresh(with_tier(sc, tier));
      fresh.load_program(program);
      fresh.run_until(at);
      System restored(with_tier(sc, tier));
      restored.restore(*snap);
      expect_identical(capture_state(fresh), capture_state(restored),
                       (tag + " snapshot at cycle " + std::to_string(at)).c_str());
      expect_same_stop(stop_state(fresh), stop_state(restored),
                       tag + " snapshot at cycle " + std::to_string(at));
    }
  }
}

/// perfbench's seed mixer (perfbench/src/harness.hpp).
std::uint64_t perfbench_stream_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TEST(SpinSkipTest, PerfbenchE7RegfileSpecsMatchLegacy) {
  // Every regfile transient spec of perfbench's e7_campaign platform
  // (an 8x8 MMR-interrupt offload, 25 000-cycle budget), seeds 1-10:
  // the default path, which wakes and skips WFI spins inside bursts,
  // ends each trial in the legacy interpreter's state with its verdict.
  // A flip of s0 (x8, the PE base) can make the STATUS poll miss the PE
  // while its IRQ stays high: the guest spins to the budget. Every hang
  // that spins so takes the skip, and no other trial does; seed 1 has 13
  // of them, all s0 flips.
  constexpr std::uint64_t kMaxCycles = 25000;
  constexpr unsigned kRungs = 16;
  SystemConfig sc;
  sc.accel.gemm.mvm.ports = 8;
  sc.accel.max_cols = 64;
  sc.dram_size = 1u << 18;
  sc.accel.gemm.mvm.weights = aspen::core::WeightTechnology::kThermoOptic;
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 8;
  const auto program = build_gemm_offload(wl, sc, OffloadPath::kMmrInterrupt);
  const auto read_y = [wl](System& s) {
    const auto y = read_gemm_result(s, wl);
    std::vector<std::uint8_t> bytes(y.size() * 2);
    memcpy(bytes.data(), y.data(), bytes.size());
    return bytes;
  };
  std::size_t seed1_spins = 0, s0_spins = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    aspen::lina::Rng data_rng(perfbench_stream_seed(seed, 0xe7));
    std::vector<std::int16_t> a(64), x(64);
    for (auto* v : {&a, &x})
      for (auto& e : *v)
        e = PhotonicAccelerator::to_fixed(data_rng.uniform(-0.9, 0.9));
    const auto stage = [&](System& s) {
      stage_gemm_data(s, wl, a, x);
      s.load_program(program);
    };
    FaultCampaign campaign(
        [&] {
          auto s = std::make_unique<System>(sc);
          stage(*s);
          return s;
        },
        read_y, kMaxCycles);
    aspen::lina::Rng spec_rng(perfbench_stream_seed(seed, 0xe75));
    const std::vector<FaultSpec> specs = campaign.sample_specs(
        FaultTarget::kCpuRegfile, FaultModel::kTransientFlip, 1024, spec_rng);
    const std::vector<std::uint8_t>& golden = campaign.golden();

    // Rungs along the golden run, which both paths restore from.
    System fast(with_tier(sc, Tier::kBlock));
    System legacy(with_tier(sc, Tier::kLegacy));
    stage(fast);
    stage(legacy);
    std::vector<System::SystemSnapshot> rungs{fast.snapshot()};
    for (unsigned k = 1; k < kRungs; ++k) {
      fast.run_until(campaign.golden_cycles() * k / kRungs);
      rungs.push_back(fast.snapshot());
    }
    for (const FaultSpec& spec : specs) {
      std::size_t r = rungs.size() - 1;
      while (rungs[r].cycle > spec.cycle) --r;
      const std::string at = "seed " + std::to_string(seed) + ", x" +
                             std::to_string(spec.index % 31 + 1) + " bit " +
                             std::to_string(spec.bit) + " @" +
                             std::to_string(spec.cycle);
      StopState want;
      std::vector<std::uint8_t> want_out;
      Outcome want_verdict = Outcome::kMasked;
      for (System* system : {&legacy, &fast}) {
        system->restore(rungs[r]);
        system->run_until(spec.cycle);
        FaultCampaign::inject(*system, spec);
        const SystemStats before = system->stats();
        const std::uint64_t from = system->now();
        system->run_until(kMaxCycles);
        const StopState got = stop_state(*system);
        const std::vector<std::uint8_t> out = read_y(*system);
        const Outcome verdict = FaultCampaign::classify(*system, read_y, golden);
        if (system == &legacy) {
          want = got;
          want_out = out;
          want_verdict = verdict;
          continue;
        }
        expect_same_stop(want, got, at);
        EXPECT_EQ(want.wfi, system->cpu().waiting_for_interrupt()) << at;
        EXPECT_EQ(want_out, out) << at;
        EXPECT_EQ(want_verdict, verdict) << at;
        // Every advanced cycle is a burst cycle (skipped spins
        // included), a bulk skip or a tick.
        const SystemStats& st = system->stats();
        EXPECT_EQ(system->now() - from,
                  (st.burst_cycles - before.burst_cycles) +
                      (st.skipped_cycles - before.skipped_cycles) +
                      (st.ticks - before.ticks))
            << at;
        EXPECT_LE(st.spin_cycles - before.spin_cycles,
                  st.burst_cycles - before.burst_cycles)
            << at;
        // A hang that ends with the line high spins through WFIs that
        // wake at once; one with the line low parks on a WFI (bulk
        // skipped already) or loops without one (x7's copy-loop bound).
        const bool spins = verdict == Outcome::kDueHang &&
                           (system->pe(0).irq_pending() ||
                            system->dma().irq_pending());
        EXPECT_EQ(st.spin_skips > before.spin_skips, spins) << at;
        if (seed == 1 && spins) {
          ++seed1_spins;
          if (spec.index % 31 + 1 == 8) ++s0_spins;
        }
      }
    }
  }
  EXPECT_EQ(seed1_spins, 13u);
  EXPECT_EQ(s0_spins, 13u);
}

}  // namespace
