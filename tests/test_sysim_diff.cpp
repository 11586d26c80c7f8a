// Differential suite for the event-driven sysim rebuild: every workload
// program plus interrupt/WFI, self-modifying-code and fault-injection
// scenarios run through ALL THREE execution tiers —
//   legacy: decode-every-fetch interpreter + per-cycle System ticking
//   uop:    predecoded micro-op cache + DRAM fast path + bulk cycle
//           skipping
//   block:  basic-block translation (block cache, chaining, macro-op
//           fusion) on top of the uop engine
// — asserting bit-identical cycles, instret, halt reason, exit code,
// final register file and final DRAM image. This is the contract that
// lets the fault campaigns trust the optimized simulator.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>

#include "sysim/fault.hpp"
#include "sysim/system.hpp"
#include "sysim/workloads.hpp"

namespace {

using namespace aspen::sys;
using namespace aspen::sys::rv;

std::vector<std::int16_t> random_fixed(std::size_t count, std::uint64_t seed) {
  aspen::lina::Rng rng(seed);
  std::vector<std::int16_t> v(count);
  for (auto& x : v) x = PhotonicAccelerator::to_fixed(rng.uniform(-0.9, 0.9));
  return v;
}

/// Execution tiers under differential test. The per-cycle interpreter
/// is the oracle; the uop-at-a-time engine and the block translation
/// tier built on top of it must both match it bit for bit.
enum class Tier { kLegacy, kUop, kBlock };

constexpr Tier kFastTiers[] = {Tier::kUop, Tier::kBlock};

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kLegacy: return "legacy";
    case Tier::kUop: return "uop";
    default: return "block";
  }
}

SystemConfig with_tier(SystemConfig sc, Tier t) {
  sc.event_driven = t != Tier::kLegacy;
  sc.cpu.legacy_decode = t == Tier::kLegacy;
  // Explicit on both fast tiers: the block tier is the default, so the
  // uop tier exists only where a caller turns it off, as here.
  sc.cpu.block_tier = t == Tier::kBlock;
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
  // Transient bit flip in the second half of a lui+addi fused pair
  // inside a hot loop: invalidation must evict the block and the
  // rebuilt pair must fuse around the corrupted word, bit-identical to
  // the decode-every-fetch oracle.
  SystemConfig sc;
  sc.accel = small_accel();
  Assembler as(sc.dram_base);
  as.li(s0, 0);    // one word (addi)
  as.li(s1, 200);  // one word (addi)
  as.label("loop");
  as.li(a0, 0x12345678);  // lui+addi at byte offsets 8 and 12
  as.addi(s0, s0, 1);
  as.blt(s0, s1, "loop");  // fuses with the addi (op+branch)
  as.ebreak();
  const auto program = as.assemble();
  ASSERT_EQ(as.address_of("loop"), sc.dram_base + 8);

  const Capture block =
      diff_drive(sc, "flip inside fused pair", [&](System& system) {
        system.load_program(program);
        system.run_until(100);  // loop is hot, pair is fused
        // Flip imm[4] of the addi half (code byte 15, bit 0).
        system.dram().flip_bit(15, 0);
        system.run_until(500000);
      });
  EXPECT_EQ(block.result.halt, Halt::kEbreak);
  EXPECT_EQ(block.regs[10], 0x12345668u)
      << "remaining iterations must materialize the corrupted constant";
  EXPECT_GE(block.bstats.evictions, 1u) << "flip must evict the block";
  EXPECT_GT(block.bstats.fused_exec, 0u);
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
  as.li(a0, 0x12345678);  // lui+addi fused pair
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
  // twice, once in a static register run and once fused behind the load
  // that supplies rs1, so both block-tier dispatch shapes execute it;
  // a jump after each case starts the next one in a fresh block.
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
    check(a0, v.want, std::string(v.what) + " (static run)");
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
  check(zero, 0, "addi to x0 (static run)");
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
  // then links pc + 4: standalone, and as a fused auipc+jalr pair.
  as.li(a0, 0);
  as.label("jalr_plain");
  as.auipc(t0, 0);
  as.addi(t0, t0, 16);
  as.jalr(t0, t0, 5);   // target (jalr_plain + 21) & ~1 = jalr_plain + 20
  as.addi(a0, a0, 1);   // skipped
  as.addi(a0, a0, 1);   // skipped
  const std::size_t plain_link = want.size();
  check(t0, 0, "jalr rd == rs1 link");
  as.label("jalr_fused");
  as.auipc(t1, 0);
  as.jalr(t1, t1, 12);  // target jalr_fused + 12
  as.addi(a0, a0, 1);   // skipped
  const std::size_t fused_link = want.size();
  check(t1, 0, "auipc+jalr rd == rs1 link");
  check(a0, 0, "jalr skipped the fall-through");
  as.li(a0, 0);
  as.li(a7, 93);
  as.ecall();
  const auto program = as.assemble();
  want[plain_link] = as.address_of("jalr_plain") + 12;
  want[fused_link] = as.address_of("jalr_fused") + 8;

  const auto stage = [&](System& s) {
    s.write_dram(kData, data.data(), data.size() * 4);
  };
  const Capture legacy = run_tier(sc, Tier::kLegacy, program, stage);
  for (const Tier tier : {Tier::kLegacy, Tier::kUop, Tier::kBlock}) {
    const Capture c =
        tier == Tier::kLegacy ? legacy : run_tier(sc, tier, program, stage);
    ASSERT_EQ(c.result.halt, Halt::kEcallExit) << tier_name(tier);
    for (std::size_t i = 0; i < want.size(); ++i) {
      std::uint32_t got = 0;
      std::memcpy(&got, c.dram.data() + kRes + 4 * i, 4);
      EXPECT_EQ(got, want[i]) << names[i] << " [" << tier_name(tier) << "]";
    }
    expect_identical(legacy, c, tier_name(tier));
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
  for (const Tier tier : {Tier::kLegacy, Tier::kUop, Tier::kBlock}) {
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

}  // namespace
