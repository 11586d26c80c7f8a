// Tests for the system-level simulator (S7): bus, memory, RV32IM ISS,
// assembler, DMA, accelerator device, full-system workloads, faults.
#include <gtest/gtest.h>

#include "sysim/fault.hpp"
#include "sysim/system.hpp"
#include "sysim/workloads.hpp"

namespace {

using namespace aspen::sys;
using namespace aspen::sys::rv;

// ---------------------------------------------------------------- memory

TEST(MemoryTest, ByteHalfWordAccess) {
  Memory m("m", 64, 1);
  m.write(0, 0xDDCCBBAA, 4);
  EXPECT_EQ(m.read(0, 4), 0xDDCCBBAAu);
  EXPECT_EQ(m.read(0, 1), 0xAAu);
  EXPECT_EQ(m.read(1, 1), 0xBBu);
  EXPECT_EQ(m.read(2, 2), 0xDDCCu);
}

TEST(MemoryTest, BusFacingOutOfRangeIsLenient) {
  // Wild accesses (possible under injected faults) must not kill the
  // simulator: reads-as-zero, writes ignored.
  Memory m("m", 16, 1);
  EXPECT_EQ(m.read(16, 1), 0u);
  m.write(15, 0xFFFFFFFFu, 4);  // crosses the boundary: ignored
  EXPECT_EQ(m.read(12, 4) >> 24, 0u);
  // Host-side bulk access stays strict.
  std::uint8_t buf[4] = {0};
  EXPECT_THROW(m.load(14, buf, 4), std::out_of_range);
  EXPECT_THROW(m.read_block(14, buf, 4), std::out_of_range);
}

TEST(MemoryTest, TransientFlipAndStuckBits) {
  Memory m("m", 8, 1);
  m.write(3, 0x00, 1);
  m.flip_bit(3, 4);
  EXPECT_EQ(m.read(3, 1), 0x10u);
  m.set_stuck_bit(3, 0, true);
  EXPECT_EQ(m.read(3, 1), 0x11u);
  m.write(3, 0x00, 1);
  EXPECT_EQ(m.read(3, 1), 0x01u) << "stuck bit persists across writes";
  m.clear_faults();
  EXPECT_EQ(m.read(3, 1), 0x00u);
}

TEST(MemoryTest, DifferingSpanExactAtChunkEdges) {
  // The checkpoint ladder's stale-span scan: memcmp chunks from both ends
  // must still yield the exact first/last differing byte.
  constexpr std::uint32_t kC = Memory::kScanChunk;
  struct Case {
    const char* what;
    std::uint32_t size;
    std::vector<std::uint32_t> diffs;  ///< byte offsets that differ
    std::uint32_t lo, len;             ///< expected span
  };
  const Case cases[] = {
      {"identical", 4 * kC, {}, 0, 0},
      {"byte 0", 4 * kC, {0}, 0, 1},
      {"last byte", 4 * kC, {4 * kC - 1}, 4 * kC - 1, 1},
      {"across a chunk boundary", 4 * kC, {kC - 1, kC}, kC - 1, 2},
      {"partial tail chunk", 3 * kC + 40, {3 * kC + 7, 3 * kC + 39}, 3 * kC + 7,
       33},
      {"first and tail chunk", 3 * kC + 40, {5, 3 * kC + 20}, 5, 3 * kC + 16},
      {"image below one chunk", kC / 2, {kC / 4}, kC / 4, 1},
  };
  for (const Case& c : cases) {
    std::vector<std::uint8_t> a(c.size);
    for (std::uint32_t i = 0; i < c.size; ++i)
      a[i] = static_cast<std::uint8_t>(i * 7);
    std::vector<std::uint8_t> b = a;
    for (const std::uint32_t d : c.diffs) b[d] ^= 0x40;
    const ByteSpan got = differing_span(a, b);
    EXPECT_EQ(got.lo, c.lo) << c.what;
    EXPECT_EQ(got.len, c.len) << c.what;
  }
  EXPECT_THROW((void)differing_span(std::vector<std::uint8_t>(4),
                                    std::vector<std::uint8_t>(5)),
               std::invalid_argument);
}

TEST(MemoryTest, PairSpanNeverMatchesAFreedImage) {
  // Restores across images reuse one differing span per image pair. An
  // image allocated right after another is freed typically lands at the
  // freed address; the cached (B, A) span must not stand in for (C, A).
  Memory m("m", 4096, 1);
  const Memory::Snapshot a = m.snapshot();
  m.write(100, 0xAB, 1);
  Memory::Snapshot b = m.snapshot();
  m.restore(a);  // caches the (B, A) span: byte 100
  m.restore(b);
  m.restore(a);
  b = {};
  m.write(3000, 0xCD, 1);
  const Memory::Snapshot c = m.snapshot();  // differs from A at byte 3000
  m.restore(a);
  EXPECT_EQ(m.read(100, 1), 0u);
  EXPECT_EQ(m.read(3000, 1), 0u) << "restore used a freed image's span";
  m.restore(c);
  EXPECT_EQ(m.read(3000, 1), 0xCDu);
}

// ------------------------------------------------------------------ bus

TEST(BusTest, RoutesByAddress) {
  Bus bus(1);
  Memory a("a", 16, 1), b("b", 16, 2);
  bus.attach(0x1000, 16, &a);
  bus.attach(0x2000, 16, &b);
  (void)bus.write(0x1004, 42, 4);
  (void)bus.write(0x2008, 77, 4);
  EXPECT_EQ(bus.read(0x1004, 4).value, 42u);
  EXPECT_EQ(bus.read(0x2008, 4).value, 77u);
  EXPECT_EQ(bus.read(0x2008, 4).latency, 1u + 2u);
}

TEST(BusTest, UnmappedAccessFaults) {
  Bus bus;
  EXPECT_TRUE(bus.read(0xdeadbeef, 4).fault);
}

TEST(BusTest, OverlappingRegionRejected) {
  Bus bus;
  Memory a("a", 32, 1);
  bus.attach(0x1000, 32, &a);
  Memory b("b", 32, 1);
  EXPECT_THROW(bus.attach(0x1010, 32, &b), std::invalid_argument);
}

// ------------------------------------------------------------ assembler

TEST(AssemblerTest, LiHandlesFullRange) {
  for (std::uint32_t v : {0u, 1u, 0xFFFu, 0x800u, 0x7FFFFFFFu, 0x80000000u,
                          0xFFFFFFFFu, 0x12345678u}) {
    Assembler as(0x80000000);
    as.li(a0, v);
    as.ebreak();
    Bus bus(0);
    Memory ram("ram", 1 << 16, 0);
    bus.attach(0x80000000u, 1 << 16, &ram);
    const auto words = as.assemble();
    ram.load(0, words.data(), words.size() * 4);
    Cpu cpu(bus);
    for (int i = 0; i < 10 && !cpu.halted(); ++i) cpu.tick();
    EXPECT_EQ(cpu.read_reg(a0), v) << std::hex << v;
  }
}

TEST(AssemblerTest, UnknownLabelThrows) {
  Assembler as;
  as.j("nowhere");
  EXPECT_THROW((void)as.assemble(), std::invalid_argument);
}

TEST(AssemblerTest, DuplicateLabelThrows) {
  Assembler as;
  as.label("x");
  EXPECT_THROW(as.label("x"), std::invalid_argument);
}

// ---------------------------------------------------------------- cpu

/// Helper: run a program on a bare CPU+RAM system; returns the CPU.
struct MiniSystem {
  Bus bus{0};
  Memory ram{"ram", 1 << 20, 0};
  std::unique_ptr<Cpu> cpu;

  explicit MiniSystem(Assembler& as, CpuConfig cfg = {}) {
    bus.attach(0x80000000u, 1 << 20, &ram);
    const auto words = as.assemble();
    ram.load(0, words.data(), words.size() * 4);
    cpu = std::make_unique<Cpu>(bus, cfg);
  }
  Halt run(std::uint64_t max = 100000) {
    while (!cpu->halted() && cpu->cycles() < max) cpu->tick();
    return cpu->halt_reason();
  }
};

TEST(CpuTest, ArithmeticLoop) {
  // sum 1..10 -> a0 = 55
  Assembler as;
  as.li(a0, 0);
  as.li(t0, 1);
  as.li(t1, 11);
  as.label("loop");
  as.add(a0, a0, t0);
  as.addi(t0, t0, 1);
  as.blt(t0, t1, "loop");
  as.ebreak();
  MiniSystem sys(as);
  EXPECT_EQ(sys.run(), Halt::kEbreak);
  EXPECT_EQ(sys.cpu->read_reg(a0), 55u);
}

TEST(CpuTest, LoadStoreRoundTrip) {
  Assembler as;
  as.li(t0, 0x80010000u);
  as.li(t1, 0xCAFEBABEu);
  as.sw(t1, t0, 0);
  as.lw(a0, t0, 0);
  as.lhu(a1, t0, 0);
  as.lbu(a2, t0, 3);
  as.lh(a3, t0, 2);  // sign-extended 0xCAFE
  as.ebreak();
  MiniSystem sys(as);
  sys.run();
  EXPECT_EQ(sys.cpu->read_reg(a0), 0xCAFEBABEu);
  EXPECT_EQ(sys.cpu->read_reg(a1), 0xBABEu);
  EXPECT_EQ(sys.cpu->read_reg(a2), 0xCAu);
  EXPECT_EQ(sys.cpu->read_reg(a3), 0xFFFFCAFEu);
}

TEST(CpuTest, MExtension) {
  Assembler as;
  as.li(t0, static_cast<std::uint32_t>(-7));
  as.li(t1, 3);
  as.mul(a0, t0, t1);    // -21
  as.div(a1, t0, t1);    // -2 (toward zero)
  as.rem(a2, t0, t1);    // -1
  as.li(t2, 0);
  as.div(a3, t0, t2);    // div by zero -> -1
  as.rem(a4, t0, t2);    // rem by zero -> dividend
  as.mulhu(a5, t0, t1);  // high bits of unsigned product
  as.ebreak();
  MiniSystem sys(as);
  sys.run();
  EXPECT_EQ(static_cast<std::int32_t>(sys.cpu->read_reg(a0)), -21);
  EXPECT_EQ(static_cast<std::int32_t>(sys.cpu->read_reg(a1)), -2);
  EXPECT_EQ(static_cast<std::int32_t>(sys.cpu->read_reg(a2)), -1);
  EXPECT_EQ(sys.cpu->read_reg(a3), 0xFFFFFFFFu);
  EXPECT_EQ(static_cast<std::int32_t>(sys.cpu->read_reg(a4)), -7);
  // (2^32-7)*3 = 3*2^32 - 21 -> high word = 2 (borrow from the -21).
  EXPECT_EQ(sys.cpu->read_reg(a5), 2u);
}

TEST(CpuTest, ShiftsAndCompares) {
  Assembler as;
  as.li(t0, 0x80000000u);
  as.srai(a0, t0, 4);  // arithmetic: 0xF8000000
  as.srli(a1, t0, 4);  // logical:    0x08000000
  as.li(t1, 5);
  as.slt(a2, t0, t1);   // signed: 0x80000000 < 5 -> 1
  as.sltu(a3, t0, t1);  // unsigned -> 0
  as.ebreak();
  MiniSystem sys(as);
  sys.run();
  EXPECT_EQ(sys.cpu->read_reg(a0), 0xF8000000u);
  EXPECT_EQ(sys.cpu->read_reg(a1), 0x08000000u);
  EXPECT_EQ(sys.cpu->read_reg(a2), 1u);
  EXPECT_EQ(sys.cpu->read_reg(a3), 0u);
}

TEST(CpuTest, FunctionCallAndReturn) {
  Assembler as;
  as.li(a0, 5);
  as.jal(ra, "double_it");
  as.jal(ra, "double_it");
  as.ebreak();
  as.label("double_it");
  as.add(a0, a0, a0);
  as.ret();
  MiniSystem sys(as);
  EXPECT_EQ(sys.run(), Halt::kEbreak);
  EXPECT_EQ(sys.cpu->read_reg(a0), 20u);
}

TEST(CpuTest, EcallExitConvention) {
  Assembler as;
  as.li(a0, 42);
  as.li(a7, 93);
  as.ecall();
  MiniSystem sys(as);
  EXPECT_EQ(sys.run(), Halt::kEcallExit);
  EXPECT_EQ(sys.cpu->exit_code(), 42u);
}

TEST(CpuTest, IllegalInstructionHaltsWithoutHandler) {
  Assembler as;
  as.nop();
  MiniSystem sys(as);
  sys.ram.write(4, 0xFFFFFFFFu, 4);  // garbage after the nop
  EXPECT_EQ(sys.run(), Halt::kIllegal);
}

TEST(CpuTest, TrapToHandlerAndMret) {
  // mtvec-directed trap on ecall (a7 != 93), handler sets a1 and returns
  // past the ecall via mepc += 4.
  Assembler as;
  as.li(t0, 0x80000000u + 64);  // handler address (word 16)
  as.csrrw(zero, kCsrMtvec, t0);
  as.li(a7, 1);
  as.ecall();
  as.li(a2, 7);  // must execute after the handler returns
  as.ebreak();
  while (as.current_address() < 0x80000000u + 64) as.nop();
  as.label("handler");
  as.li(a1, 99);
  as.csrrs(t1, kCsrMepc, zero);
  as.addi(t1, t1, 4);
  as.csrrw(zero, kCsrMepc, t1);
  as.mret();
  MiniSystem sys(as);
  EXPECT_EQ(sys.run(), Halt::kEbreak);
  EXPECT_EQ(sys.cpu->read_reg(a1), 99u);
  EXPECT_EQ(sys.cpu->read_reg(a2), 7u);
}

TEST(CpuTest, WfiWakesOnInterrupt) {
  Assembler as;
  as.wfi();
  as.li(a0, 1);
  as.ebreak();
  MiniSystem sys(as);
  for (int i = 0; i < 100; ++i) sys.cpu->tick();
  EXPECT_FALSE(sys.cpu->halted()) << "WFI must idle without an interrupt";
  sys.cpu->set_irq(true);
  for (int i = 0; i < 100 && !sys.cpu->halted(); ++i) sys.cpu->tick();
  EXPECT_TRUE(sys.cpu->halted());
  EXPECT_EQ(sys.cpu->read_reg(a0), 1u);
}

TEST(CpuTest, ExternalInterruptTrapsWhenEnabled) {
  Assembler as;
  as.li(t0, 0x80000000u + 64);
  as.csrrw(zero, kCsrMtvec, t0);
  as.li(t0, 1u << 11);  // MEIE
  as.csrrw(zero, kCsrMie, t0);
  as.li(t0, 1u << 3);  // MIE
  as.csrrs(zero, kCsrMstatus, t0);
  as.label("spin");
  as.j("spin");
  while (as.current_address() < 0x80000000u + 64) as.nop();
  as.label("handler");
  as.csrrs(a1, kCsrMcause, zero);
  as.ebreak();
  MiniSystem sys(as);
  for (int i = 0; i < 50; ++i) sys.cpu->tick();
  sys.cpu->set_irq(true);
  for (int i = 0; i < 50 && !sys.cpu->halted(); ++i) sys.cpu->tick();
  EXPECT_TRUE(sys.cpu->halted());
  EXPECT_EQ(sys.cpu->read_reg(a1), 0x8000000Bu);
}

TEST(CpuTest, RegfileFaultHooks) {
  Assembler as;
  as.li(a0, 0);
  as.ebreak();
  MiniSystem sys(as);
  sys.run();
  sys.cpu->flip_reg_bit(10, 3);
  EXPECT_EQ(sys.cpu->read_reg(10), 8u);
  sys.cpu->set_reg_stuck_bit(10, 0, true);
  EXPECT_EQ(sys.cpu->read_reg(10), 9u);
  sys.cpu->clear_faults();
  EXPECT_EQ(sys.cpu->read_reg(10), 8u);
}

TEST(CpuTest, CounterCsrHighWordsReadable) {
  // Guest code reading the 64-bit counters must see the high words in
  // mcycleh/minstreth (0xB80/0xB82) rather than silently reading 0.
  Assembler as;
  as.csrrs(a0, kCsrMcycle, zero);
  as.csrrs(a1, kCsrMcycleH, zero);
  as.csrrs(a2, kCsrMinstret, zero);
  as.csrrs(a3, kCsrMinstretH, zero);
  as.ebreak();
  MiniSystem sys(as);
  sys.cpu->set_counters(0x0000000512345678ULL, 0x00000002AABBCCDDULL);
  sys.run(0x0000000512345678ULL + 100);  // budget is an absolute cycle count
  // The first csrrs retires after one cycle: low words advance past the
  // preset values while the high words stay put.
  EXPECT_EQ(sys.cpu->read_reg(a0), 0x12345679u);
  EXPECT_EQ(sys.cpu->read_reg(a1), 5u);
  EXPECT_EQ(sys.cpu->read_reg(a2), 0xAABBCCDFu);
  EXPECT_EQ(sys.cpu->read_reg(a3), 2u);
}

TEST(SystemTest, CounterProbeWorkloadStoresBothWords) {
  SystemConfig sc;
  System system(sc);
  system.load_program(build_counter_probe(sc, 0x40000));
  const auto result = system.run();
  ASSERT_EQ(result.halt, Halt::kEcallExit);
  std::uint32_t words[4];
  system.read_dram(0x40000, words, sizeof(words));
  EXPECT_GT(words[0], 0u);             // mcycle low
  EXPECT_EQ(words[1], 0u);             // mcycle high (short run)
  EXPECT_GT(words[2], 0u);             // minstret low
  EXPECT_EQ(words[3], 0u);             // minstret high
}

TEST(CpuTest, CyclesExceedInstret) {
  Assembler as;
  as.li(t0, 0x80010000u);
  as.lw(a0, t0, 0);  // memory latency makes cycles > instret
  as.ebreak();
  MiniSystem sys(as, CpuConfig{});
  sys.run();
  EXPECT_GT(sys.cpu->cycles(), sys.cpu->instret());
}

// ---------------------------------------------------------------- dma

TEST(DmaTest, CopiesBlockAndRaisesIrq) {
  Bus bus(0);
  Memory ram("ram", 4096, 1);
  bus.attach(0x80000000u, 4096, &ram);
  DmaEngine dma(bus, 4);
  bus.attach(0x40000000u, 0x1000, &dma);

  const std::uint8_t pattern[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ram.load(0, pattern, 8);
  (void)bus.write(0x40000000u + DmaEngine::kRegSrc, 0x80000000u, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegDst, 0x80000100u, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegLen, 8, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegCtrl,
                  DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn, 4);
  for (int i = 0; i < 100 && dma.busy(); ++i) dma.tick();
  EXPECT_FALSE(dma.busy());
  EXPECT_TRUE(dma.irq_pending());
  std::uint8_t out[8];
  ram.read_block(0x100, out, 8);
  EXPECT_EQ(0, memcmp(pattern, out, 8));
  // Clearing DONE clears the IRQ.
  (void)bus.write(0x40000000u + DmaEngine::kRegStatus, DmaEngine::kStatusDone,
                  4);
  EXPECT_FALSE(dma.irq_pending());
}

TEST(DmaTest, BulkCycleCountMatchesTickingExhaustively) {
  // The event-driven System trusts bulk_cycles_remaining() to predict
  // the exact completion cycle of a bulk-movable transfer; sweep beat
  // widths, alignments and lengths and pin the closed form against
  // per-cycle ticking.
  for (const unsigned beat : {1u, 2u, 3u, 4u, 6u, 8u}) {
    for (std::uint32_t src_off = 0; src_off < 4; ++src_off) {
      for (std::uint32_t dst_off = 0; dst_off < 4; ++dst_off) {
        for (std::uint32_t len : {1u, 3u, 4u, 5u, 7u, 8u, 13u, 32u, 61u,
                                  64u, 100u}) {
          Bus bus(0);
          Memory ram("ram", 4096, 1);
          bus.attach(0x80000000u, 4096, &ram);
          DmaEngine dma(bus, beat);
          bus.attach(0x40000000u, 0x1000, &dma);
          (void)bus.write(0x40000000u + DmaEngine::kRegSrc,
                          0x80000000u + src_off, 4);
          (void)bus.write(0x40000000u + DmaEngine::kRegDst,
                          0x80000800u + dst_off, 4);
          (void)bus.write(0x40000000u + DmaEngine::kRegLen, len, 4);
          (void)bus.write(0x40000000u + DmaEngine::kRegCtrl,
                          DmaEngine::kCtrlStart, 4);
          const std::uint64_t predicted = dma.bulk_cycles_remaining();
          ASSERT_GT(predicted, 0u);
          std::uint64_t ticked = 0;
          while (dma.busy()) {
            dma.tick();
            ++ticked;
            ASSERT_LT(ticked, 10000u);
          }
          EXPECT_EQ(predicted, ticked)
              << "beat=" << beat << " src_off=" << src_off
              << " dst_off=" << dst_off << " len=" << len;
        }
      }
    }
  }
}

TEST(DmaTest, FaultMidTransferLatchesErrorAndRaisesIrq) {
  // A transfer whose destination runs past the mapped region must abort:
  // BUSY drops, ERROR latches (DONE stays clear) and the IRQ line rises
  // when IRQ_EN is set — guest code polling STATUS or parked in WFI
  // observes the abort instead of spinning forever.
  Bus bus(0);
  Memory ram("ram", 4096, 1);
  bus.attach(0x80000000u, 4096, &ram);
  DmaEngine dma(bus, 4);
  bus.attach(0x40000000u, 0x1000, &dma);

  (void)bus.write(0x40000000u + DmaEngine::kRegSrc, 0x80000000u, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegDst, 0x80000FF8u, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegLen, 16, 4);  // crosses end
  (void)bus.write(0x40000000u + DmaEngine::kRegCtrl,
                  DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn, 4);
  for (int i = 0; i < 100 && dma.busy(); ++i) dma.tick();
  EXPECT_FALSE(dma.busy());
  EXPECT_TRUE(dma.irq_pending());
  const std::uint32_t status = bus.read(0x40000000u + DmaEngine::kRegStatus, 4).value;
  EXPECT_EQ(status & DmaEngine::kStatusError, DmaEngine::kStatusError);
  EXPECT_EQ(status & DmaEngine::kStatusDone, 0u);
  EXPECT_EQ(status & DmaEngine::kStatusBusy, 0u);

  // ERROR is W1C like DONE: clearing it also drops the IRQ.
  (void)bus.write(0x40000000u + DmaEngine::kRegStatus, DmaEngine::kStatusError,
                  4);
  EXPECT_FALSE(dma.irq_pending());
  EXPECT_EQ(bus.read(0x40000000u + DmaEngine::kRegStatus, 4).value &
                DmaEngine::kStatusError,
            0u);
}

TEST(DmaTest, StartClearsLatchedError) {
  Bus bus(0);
  Memory ram("ram", 4096, 1);
  bus.attach(0x80000000u, 4096, &ram);
  DmaEngine dma(bus, 4);
  bus.attach(0x40000000u, 0x1000, &dma);

  // Fault once (source past the mapped region this time).
  (void)bus.write(0x40000000u + DmaEngine::kRegSrc, 0x80001000u, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegDst, 0x80000000u, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegLen, 8, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegCtrl, DmaEngine::kCtrlStart, 4);
  for (int i = 0; i < 100 && dma.busy(); ++i) dma.tick();
  ASSERT_EQ(bus.read(0x40000000u + DmaEngine::kRegStatus, 4).value &
                DmaEngine::kStatusError,
            DmaEngine::kStatusError);

  // A new valid START clears the latched ERROR without a STATUS write.
  const std::uint8_t pattern[8] = {9, 8, 7, 6, 5, 4, 3, 2};
  ram.load(0, pattern, 8);
  (void)bus.write(0x40000000u + DmaEngine::kRegSrc, 0x80000000u, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegDst, 0x80000100u, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegCtrl, DmaEngine::kCtrlStart, 4);
  EXPECT_EQ(bus.read(0x40000000u + DmaEngine::kRegStatus, 4).value &
                DmaEngine::kStatusError,
            0u);
  for (int i = 0; i < 100 && dma.busy(); ++i) dma.tick();
  const std::uint32_t status = bus.read(0x40000000u + DmaEngine::kRegStatus, 4).value;
  EXPECT_EQ(status & DmaEngine::kStatusDone, DmaEngine::kStatusDone);
  EXPECT_EQ(status & DmaEngine::kStatusError, 0u);
  std::uint8_t out[8];
  ram.read_block(0x100, out, 8);
  EXPECT_EQ(0, memcmp(pattern, out, 8));
}

TEST(DmaTest, ErrorLatchLifecycle) {
  // Pin the full ERROR-latch contract: reads never clear it, STATUS W1C
  // is per-bit, a zero STATUS write is a no-op, a START that does not
  // actually launch (len == 0) leaves the latch alone, and checkpoints
  // carry the latch through snapshot/restore.
  Bus bus(0);
  Memory ram("ram", 4096, 1);
  bus.attach(0x80000000u, 4096, &ram);
  DmaEngine dma(bus, 4);
  bus.attach(0x40000000u, 0x1000, &dma);

  const auto status = [&] {
    return bus.read(0x40000000u + DmaEngine::kRegStatus, 4).value;
  };

  // Latch ERROR via an unmapped source, IRQ enabled.
  (void)bus.write(0x40000000u + DmaEngine::kRegSrc, 0x80001000u, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegDst, 0x80000000u, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegLen, 8, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegCtrl,
                  DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn, 4);
  for (int i = 0; i < 100 && dma.busy(); ++i) dma.tick();
  ASSERT_EQ(status() & DmaEngine::kStatusError, DmaEngine::kStatusError);
  ASSERT_TRUE(dma.irq_pending());

  // STATUS is a latch, not a read-to-clear register.
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(status() & DmaEngine::kStatusError, DmaEngine::kStatusError);
  EXPECT_TRUE(dma.irq_pending());

  // Writing 0 acknowledges nothing.
  (void)bus.write(0x40000000u + DmaEngine::kRegStatus, 0, 4);
  EXPECT_EQ(status() & DmaEngine::kStatusError, DmaEngine::kStatusError);
  EXPECT_TRUE(dma.irq_pending());

  // W1C is per-bit: acknowledging DONE drops the IRQ line but must not
  // swallow the ERROR cause a handler has not looked at yet.
  (void)bus.write(0x40000000u + DmaEngine::kRegStatus, DmaEngine::kStatusDone,
                  4);
  EXPECT_EQ(status() & DmaEngine::kStatusError, DmaEngine::kStatusError);
  EXPECT_FALSE(dma.irq_pending());

  // A START that does not launch (len == 0) leaves the latch alone.
  (void)bus.write(0x40000000u + DmaEngine::kRegLen, 0, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegCtrl, DmaEngine::kCtrlStart, 4);
  EXPECT_FALSE(dma.busy());
  EXPECT_EQ(status() & DmaEngine::kStatusError, DmaEngine::kStatusError);

  // Checkpoint-ladder campaigns restore DMA state mid-trial; the latch
  // must survive the round trip so a post-restore guest still sees it.
  const DmaEngine::Snapshot snap = dma.snapshot();
  DmaEngine twin(bus, 4);
  twin.restore(snap);
  EXPECT_EQ(twin.read(DmaEngine::kRegStatus, 4) & DmaEngine::kStatusError,
            DmaEngine::kStatusError);

  // Finally the documented acknowledge: W1C of ERROR clears it for good.
  (void)bus.write(0x40000000u + DmaEngine::kRegStatus, DmaEngine::kStatusError,
                  4);
  EXPECT_EQ(status() & DmaEngine::kStatusError, 0u);
  EXPECT_EQ(status(), 0u);
}

TEST(DmaTest, AdjacentRangesTakeBulkPath) {
  // dst == src + len: the ranges touch but do not overlap, so the bulk
  // mover must accept the transfer. Pin the bulk-moved image and cycle
  // count against per-cycle ticking on an identical twin.
  constexpr std::uint32_t kLen = 64;
  const auto setup = [](Bus& bus, Memory& ram, DmaEngine& dma) {
    bus.attach(0x80000000u, 4096, &ram);
    bus.attach(0x40000000u, 0x1000, &dma);
    for (std::uint32_t i = 0; i < kLen; ++i) {
      const std::uint8_t b = static_cast<std::uint8_t>(i * 7 + 3);
      ram.load(i, &b, 1);
    }
    (void)bus.write(0x40000000u + DmaEngine::kRegSrc, 0x80000000u, 4);
    (void)bus.write(0x40000000u + DmaEngine::kRegDst, 0x80000000u + kLen, 4);
    (void)bus.write(0x40000000u + DmaEngine::kRegLen, kLen, 4);
    (void)bus.write(0x40000000u + DmaEngine::kRegCtrl, DmaEngine::kCtrlStart,
                    4);
  };

  Bus bus_a(0);
  Memory ram_a("ram", 4096, 1);
  DmaEngine dma_a(bus_a, 4);
  setup(bus_a, ram_a, dma_a);
  const std::uint64_t predicted = dma_a.bulk_cycles_remaining();
  ASSERT_GT(predicted, 0u) << "adjacent ranges must be bulk-movable";
  dma_a.skip_cycles(predicted);
  EXPECT_FALSE(dma_a.busy());

  Bus bus_b(0);
  Memory ram_b("ram", 4096, 1);
  DmaEngine dma_b(bus_b, 4);
  setup(bus_b, ram_b, dma_b);
  std::uint64_t ticked = 0;
  while (dma_b.busy()) {
    dma_b.tick();
    ++ticked;
    ASSERT_LT(ticked, 10000u);
  }
  EXPECT_EQ(predicted, ticked);

  std::uint8_t img_a[2 * kLen], img_b[2 * kLen];
  ram_a.read_block(0, img_a, sizeof(img_a));
  ram_b.read_block(0, img_b, sizeof(img_b));
  EXPECT_EQ(0, memcmp(img_a, img_b, sizeof(img_a)));
  EXPECT_EQ(0, memcmp(img_a, img_a + kLen, kLen)) << "copy must be exact";
}

TEST(DmaTest, ZeroLengthStartIsIgnored) {
  // LEN == 0 has nothing to move: START must not latch BUSY (the
  // event-driven System would otherwise wait on a transfer that never
  // completes), and a subsequent nonzero transfer must run normally.
  Bus bus(0);
  Memory ram("ram", 4096, 1);
  bus.attach(0x80000000u, 4096, &ram);
  DmaEngine dma(bus, 4);
  bus.attach(0x40000000u, 0x1000, &dma);

  (void)bus.write(0x40000000u + DmaEngine::kRegSrc, 0x80000000u, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegDst, 0x80000100u, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegLen, 0, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegCtrl,
                  DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn, 4);
  EXPECT_FALSE(dma.busy());
  EXPECT_FALSE(dma.irq_pending());
  EXPECT_EQ(dma.bulk_cycles_remaining(), 0u);
  dma.tick();
  EXPECT_EQ(bus.read(0x40000000u + DmaEngine::kRegStatus, 4).value, 0u);

  const std::uint8_t pattern[4] = {0xAA, 0xBB, 0xCC, 0xDD};
  ram.load(0, pattern, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegLen, 4, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegCtrl,
                  DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn, 4);
  EXPECT_TRUE(dma.busy());
  for (int i = 0; i < 100 && dma.busy(); ++i) dma.tick();
  EXPECT_TRUE(dma.irq_pending());
  std::uint8_t out[4];
  ram.read_block(0x100, out, 4);
  EXPECT_EQ(0, memcmp(pattern, out, 4));
}

TEST(DmaTest, SourceWindowEndingExactlyAtRegionEnd) {
  // src + len == window base + size: the final beat reads the last
  // mapped byte. The bulk path must accept this (the remainder is fully
  // covered) and the transfer must complete without a fault.
  constexpr std::uint32_t kLen = 64;
  Bus bus(0);
  Memory ram("ram", 4096, 1);
  bus.attach(0x80000000u, 4096, &ram);
  DmaEngine dma(bus, 4);
  bus.attach(0x40000000u, 0x1000, &dma);

  std::uint8_t pattern[kLen];
  for (std::uint32_t i = 0; i < kLen; ++i)
    pattern[i] = static_cast<std::uint8_t>(i ^ 0x5A);
  ram.load(4096 - kLen, pattern, kLen);
  (void)bus.write(0x40000000u + DmaEngine::kRegSrc,
                  0x80000000u + 4096 - kLen, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegDst, 0x80000000u, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegLen, kLen, 4);
  (void)bus.write(0x40000000u + DmaEngine::kRegCtrl, DmaEngine::kCtrlStart, 4);
  const std::uint64_t predicted = dma.bulk_cycles_remaining();
  ASSERT_GT(predicted, 0u) << "window-exact source must be bulk-movable";
  std::uint64_t ticked = 0;
  while (dma.busy()) {
    dma.tick();
    ++ticked;
    ASSERT_LT(ticked, 10000u);
  }
  EXPECT_EQ(predicted, ticked);
  const std::uint32_t status = bus.read(0x40000000u + DmaEngine::kRegStatus, 4).value;
  EXPECT_EQ(status & DmaEngine::kStatusDone, DmaEngine::kStatusDone);
  EXPECT_EQ(status & DmaEngine::kStatusError, 0u);
  std::uint8_t out[kLen];
  ram.read_block(0, out, kLen);
  EXPECT_EQ(0, memcmp(pattern, out, kLen));
}

// ------------------------------------------------------------ accelerator

AcceleratorConfig small_accel() {
  AcceleratorConfig cfg;
  cfg.gemm.mvm.ports = 8;
  cfg.max_cols = 16;
  return cfg;
}

TEST(AcceleratorTest, FixedPointRoundTrip) {
  EXPECT_EQ(PhotonicAccelerator::to_fixed(0.5), 0x800);
  EXPECT_NEAR(PhotonicAccelerator::from_fixed(
                  PhotonicAccelerator::to_fixed(-1.25)),
              -1.25, 1e-3);
  EXPECT_EQ(PhotonicAccelerator::to_fixed(100.0), 32767);  // saturates
  EXPECT_EQ(PhotonicAccelerator::to_fixed(-100.0), -32768);
}

TEST(AcceleratorTest, HostDrivenGemmMatchesGolden) {
  PhotonicAccelerator accel(small_accel());
  const std::size_t n = 8, m = 4;
  GemmWorkload wl;
  wl.n = n;
  wl.m = m;

  std::vector<std::int16_t> a(n * n), x(n * m);
  aspen::lina::Rng rng(5);
  for (auto& v : a)
    v = PhotonicAccelerator::to_fixed(rng.uniform(-0.9, 0.9));
  for (auto& v : x)
    v = PhotonicAccelerator::to_fixed(rng.uniform(-0.9, 0.9));

  for (std::size_t i = 0; i < a.size(); ++i)
    accel.write(PhotonicAccelerator::kSpmWBase +
                    static_cast<std::uint32_t>(2 * i),
                static_cast<std::uint16_t>(a[i]), 2);
  for (std::size_t i = 0; i < x.size(); ++i)
    accel.write(PhotonicAccelerator::kSpmXBase +
                    static_cast<std::uint32_t>(2 * i),
                static_cast<std::uint16_t>(x[i]), 2);
  accel.write(PhotonicAccelerator::kRegCols, m, 4);
  accel.write(PhotonicAccelerator::kRegCtrl,
              PhotonicAccelerator::kCtrlStart |
                  PhotonicAccelerator::kCtrlLoadWeights,
              4);
  EXPECT_TRUE(accel.busy());
  for (int i = 0; i < 1000000 && accel.busy(); ++i) accel.tick();
  EXPECT_FALSE(accel.busy());
  EXPECT_EQ(accel.read(PhotonicAccelerator::kRegStatus, 4) &
                PhotonicAccelerator::kStatusDone,
            PhotonicAccelerator::kStatusDone);

  const auto golden = golden_gemm(wl, a, x);
  int max_lsb_err = 0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const auto got = static_cast<std::int16_t>(
        accel.read(PhotonicAccelerator::kSpmYBase +
                       static_cast<std::uint32_t>(2 * i),
                   2));
    max_lsb_err = std::max(max_lsb_err, std::abs(got - golden[i]));
  }
  // Analog compute + Q3.12 boundary conversion: worst case a few LSB.
  EXPECT_LE(max_lsb_err, 4);
}

TEST(AcceleratorTest, ColsRegisterClamped) {
  PhotonicAccelerator accel(small_accel());
  accel.write(PhotonicAccelerator::kRegCols, 9999, 4);
  EXPECT_EQ(accel.read(PhotonicAccelerator::kRegCols, 4), 1u)
      << "out-of-range writes are ignored";
  accel.write(PhotonicAccelerator::kRegCols, 8, 4);
  EXPECT_EQ(accel.read(PhotonicAccelerator::kRegCols, 4), 8u);
}

TEST(AcceleratorTest, ThermoSlowerProgrammingThanPcm) {
  AcceleratorConfig thermo = small_accel();
  thermo.gemm.mvm.weights = aspen::core::WeightTechnology::kThermoOptic;
  AcceleratorConfig pcm = small_accel();
  pcm.gemm.mvm.weights = aspen::core::WeightTechnology::kPcm;
  PhotonicAccelerator at(thermo), ap(pcm);
  const auto kick = [](PhotonicAccelerator& acc) {
    acc.write(PhotonicAccelerator::kRegCtrl,
              PhotonicAccelerator::kCtrlLoadWeights, 4);
    std::uint64_t cycles = 0;
    while (acc.busy()) {
      acc.tick();
      ++cycles;
    }
    return cycles;
  };
  EXPECT_GT(kick(at), kick(ap))
      << "thermo-optic settling (~10 us) >> PCM write (~110 ns)";
}

// ----------------------------------------------------------- full system

std::vector<std::int16_t> random_fixed(std::size_t count, double lim,
                                       std::uint64_t seed) {
  aspen::lina::Rng rng(seed);
  std::vector<std::int16_t> v(count);
  for (auto& x : v) x = PhotonicAccelerator::to_fixed(rng.uniform(-lim, lim));
  return v;
}

TEST(SystemTest, SoftwareGemmMatchesGoldenExactly) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  System system(sc);
  const auto a = random_fixed(wl.n * wl.n, 0.9, 1);
  const auto x = random_fixed(wl.n * wl.m, 0.9, 2);
  stage_gemm_data(system, wl, a, x);
  system.load_program(build_gemm_software(wl, sc));
  const auto result = system.run();
  EXPECT_EQ(result.halt, Halt::kEcallExit);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(read_gemm_result(system, wl), golden_gemm(wl, a, x));
}

class OffloadTest : public ::testing::TestWithParam<OffloadPath> {};

TEST_P(OffloadTest, OffloadMatchesGoldenWithinTolerance) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 8;
  System system(sc);
  const auto a = random_fixed(wl.n * wl.n, 0.9, 3);
  const auto x = random_fixed(wl.n * wl.m, 0.9, 4);
  stage_gemm_data(system, wl, a, x);
  system.load_program(build_gemm_offload(wl, sc, GetParam()));
  const auto result = system.run();
  ASSERT_EQ(result.halt, Halt::kEcallExit) << "timed_out=" << result.timed_out;

  const auto golden = golden_gemm(wl, a, x);
  const auto got = read_gemm_result(system, wl);
  int max_err = 0;
  for (std::size_t i = 0; i < golden.size(); ++i)
    max_err = std::max(max_err, std::abs(got[i] - golden[i]));
  EXPECT_LE(max_err, 4) << "analog vs integer rounding";
}

INSTANTIATE_TEST_SUITE_P(Paths, OffloadTest,
                         ::testing::Values(OffloadPath::kMmrPolling,
                                           OffloadPath::kMmrInterrupt,
                                           OffloadPath::kDmaInterrupt));

class OffloadWidthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OffloadWidthTest, AllWidthsMatchGolden) {
  // Property sweep: the offload path must be correct for any column
  // count, including single-column and SPM-filling widths.
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = GetParam();
  System system(sc);
  const auto a = random_fixed(wl.n * wl.n, 0.9, 100 + wl.m);
  const auto x = random_fixed(wl.n * wl.m, 0.9, 200 + wl.m);
  stage_gemm_data(system, wl, a, x);
  system.load_program(
      build_gemm_offload(wl, sc, OffloadPath::kDmaInterrupt));
  const auto result = system.run();
  ASSERT_EQ(result.halt, Halt::kEcallExit) << "m=" << wl.m;
  const auto golden = golden_gemm(wl, a, x);
  const auto got = read_gemm_result(system, wl);
  int max_err = 0;
  for (std::size_t i = 0; i < golden.size(); ++i)
    max_err = std::max(max_err, std::abs(got[i] - golden[i]));
  EXPECT_LE(max_err, 4) << "m=" << wl.m;
}

INSTANTIATE_TEST_SUITE_P(Widths, OffloadWidthTest,
                         ::testing::Values(1, 2, 3, 7, 8, 15, 16));

TEST(SystemTest, DmaOffloadFasterThanMmrCopyLoops) {
  SystemConfig sc;
  sc.accel = small_accel();
  sc.accel.gemm.mvm.weights = aspen::core::WeightTechnology::kPcm;
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 16;

  const auto a = random_fixed(wl.n * wl.n, 0.9, 5);
  const auto x = random_fixed(wl.n * wl.m, 0.9, 6);

  const auto run_path = [&](OffloadPath p) {
    System system(sc);
    stage_gemm_data(system, wl, a, x);
    system.load_program(build_gemm_offload(wl, sc, p));
    return system.run().cycles;
  };
  EXPECT_LT(run_path(OffloadPath::kDmaInterrupt),
            run_path(OffloadPath::kMmrPolling));
}

TEST(SystemTest, MultiPePartitionsWork) {
  SystemConfig sc;
  sc.accel = small_accel();
  sc.num_pes = 2;
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 8;
  System system(sc);
  const auto a = random_fixed(wl.n * wl.n, 0.9, 7);
  const auto x = random_fixed(wl.n * wl.m, 0.9, 8);
  stage_gemm_data(system, wl, a, x);
  system.load_program(build_gemm_multi_pe(wl, sc));
  const auto result = system.run();
  ASSERT_EQ(result.halt, Halt::kEcallExit);

  const auto golden = golden_gemm(wl, a, x);
  const auto got = read_gemm_result(system, wl);
  int max_err = 0;
  for (std::size_t i = 0; i < golden.size(); ++i)
    max_err = std::max(max_err, std::abs(got[i] - golden[i]));
  EXPECT_LE(max_err, 4);
}

TEST(SystemTest, StreamingOffloadMatchesGolden) {
  // Weights programmed once, four tiles streamed through the PE: the
  // result must equal one wide GEMM over all tiles.
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload tile;
  tile.n = 8;
  tile.m = 4;
  const std::size_t batches = 4;
  GemmWorkload full = tile;
  full.m = tile.m * batches;

  System system(sc);
  const auto a = random_fixed(full.n * full.n, 0.9, 21);
  const auto x = random_fixed(full.n * full.m, 0.9, 22);
  stage_gemm_data(system, full, a, x);
  system.load_program(build_gemm_offload_stream(
      tile, sc, OffloadPath::kMmrInterrupt, batches));
  const auto result = system.run();
  ASSERT_EQ(result.halt, Halt::kEcallExit) << "timed_out=" << result.timed_out;

  const auto golden = golden_gemm(full, a, x);
  const auto got = read_gemm_result(system, full);
  int max_err = 0;
  for (std::size_t i = 0; i < golden.size(); ++i)
    max_err = std::max(max_err, std::abs(got[i] - golden[i]));
  EXPECT_LE(max_err, 4);
}

// ---------------------------------------------------------------- faults

FaultCampaign::SystemFactory make_factory(const SystemConfig& sc,
                                          const GemmWorkload& wl,
                                          std::vector<std::int16_t> a,
                                          std::vector<std::int16_t> x,
                                          OffloadPath path) {
  return [=]() {
    auto system = std::make_unique<System>(sc);
    stage_gemm_data(*system, wl, a, x);
    system->load_program(build_gemm_offload(wl, sc, path));
    return system;
  };
}

TEST(FaultTest, GoldenRunIsStable) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  FaultCampaign campaign(
      make_factory(sc, wl, random_fixed(64, 0.9, 9), random_fixed(32, 0.9, 10),
                   OffloadPath::kMmrPolling),
      [wl](System& s) {
        const auto y = read_gemm_result(s, wl);
        std::vector<std::uint8_t> bytes(y.size() * 2);
        memcpy(bytes.data(), y.data(), bytes.size());
        return bytes;
      },
      500000);
  EXPECT_FALSE(campaign.golden().empty());
  EXPECT_GT(campaign.golden_cycles(), 0u);
}

TEST(FaultTest, OutcomesClassified) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  FaultCampaign campaign(
      make_factory(sc, wl, random_fixed(64, 0.9, 11),
                   random_fixed(32, 0.9, 12), OffloadPath::kMmrPolling),
      [wl](System& s) {
        const auto y = read_gemm_result(s, wl);
        std::vector<std::uint8_t> bytes(y.size() * 2);
        memcpy(bytes.data(), y.data(), bytes.size());
        return bytes;
      },
      500000);

  aspen::lina::Rng rng(13);
  const auto res = campaign.run_campaign(FaultTarget::kCpuRegfile,
                                         FaultModel::kTransientFlip, 20, rng);
  EXPECT_EQ(res.total, 20);
  int sum = 0;
  for (const auto& [o, c] : res.counts) sum += c;
  EXPECT_EQ(sum, 20);
  // Transient regfile flips on a mostly-idle workload: some must be
  // masked (dead registers / already-consumed values).
  EXPECT_GT(res.fraction(Outcome::kMasked), 0.0);
}

TEST(FaultTest, SpmWeightFaultCausesSdcNotCrash) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  FaultCampaign campaign(
      make_factory(sc, wl, random_fixed(64, 0.9, 14),
                   random_fixed(32, 0.9, 15), OffloadPath::kMmrPolling),
      [wl](System& s) {
        const auto y = read_gemm_result(s, wl);
        std::vector<std::uint8_t> bytes(y.size() * 2);
        memcpy(bytes.data(), y.data(), bytes.size());
        return bytes;
      },
      500000);
  // A high-bit stuck-at fault in the weight SPM, injected at cycle 1 so it
  // lands before LOAD_WEIGHTS consumes the SPM.
  FaultSpec spec;
  spec.target = FaultTarget::kAccelSpmW;
  spec.model = FaultModel::kStuckAt1;
  spec.cycle = 1;
  spec.index = 3;
  spec.bit = 6;
  const Outcome o = campaign.run_one(spec);
  EXPECT_TRUE(o == Outcome::kSdc || o == Outcome::kMasked);
}

TEST(FaultTest, PhaseFaultDegradesOutput) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  FaultCampaign campaign(
      make_factory(sc, wl, random_fixed(64, 0.9, 16),
                   random_fixed(32, 0.9, 17), OffloadPath::kMmrPolling),
      [wl](System& s) {
        const auto y = read_gemm_result(s, wl);
        std::vector<std::uint8_t> bytes(y.size() * 2);
        memcpy(bytes.data(), y.data(), bytes.size());
        return bytes;
      },
      500000);
  // A large phase upset injected mid-run (after programming): the analog
  // result shifts -> SDC expected, never a crash.
  FaultSpec spec;
  spec.target = FaultTarget::kAccelPhase;
  spec.model = FaultModel::kTransientFlip;
  spec.cycle = campaign.golden_cycles() / 2;
  spec.index = 5;
  spec.phase_delta_rad = 1.0;
  const Outcome o = campaign.run_one(spec);
  EXPECT_TRUE(o == Outcome::kSdc || o == Outcome::kMasked);
}

FaultCampaign make_small_campaign(std::uint64_t seed_a, std::uint64_t seed_x,
                                  std::uint64_t max_cycles = 500000) {
  SystemConfig sc;
  sc.accel = small_accel();
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  return FaultCampaign(
      make_factory(sc, wl, random_fixed(64, 0.9, seed_a),
                   random_fixed(32, 0.9, seed_x), OffloadPath::kMmrPolling),
      [wl](System& s) {
        const auto y = read_gemm_result(s, wl);
        std::vector<std::uint8_t> bytes(y.size() * 2);
        memcpy(bytes.data(), y.data(), bytes.size());
        return bytes;
      },
      max_cycles);
}

TEST(FaultTest, SampleSpecsHonorIndexBoundsForEveryTarget) {
  // index_lo/index_hi must constrain every target — the regfile and
  // phase targets used to ignore them and sample the whole structure.
  FaultCampaign campaign = make_small_campaign(31, 32);
  aspen::lina::Rng rng(33);
  const std::uint64_t window = campaign.golden_cycles();

  const auto check_bounds = [&](FaultTarget target, std::uint32_t lo,
                                std::uint32_t hi) {
    const auto specs = campaign.sample_specs(
        target, FaultModel::kTransientFlip, 40, rng, lo, hi);
    ASSERT_EQ(specs.size(), 40u);
    for (const FaultSpec& s : specs) {
      EXPECT_GE(s.index, lo) << to_string(target);
      EXPECT_LE(s.index, hi) << to_string(target);
      EXPECT_LE(s.cycle, window) << "closed injection window";
    }
  };
  check_bounds(FaultTarget::kCpuRegfile, 4, 9);
  check_bounds(FaultTarget::kAccelPhase, 2, 5);
  check_bounds(FaultTarget::kDramData, 0x100, 0x1FF);
  check_bounds(FaultTarget::kAccelSpmW, 8, 15);

  // An oversized hi clamps to the structure (31 regfile entries: index
  // i = x(i+1), so max index 30).
  const auto clamped = campaign.sample_specs(
      FaultTarget::kCpuRegfile, FaultModel::kTransientFlip, 40, rng, 0, 1000);
  for (const FaultSpec& s : clamped) EXPECT_LE(s.index, 30u);

  // An empty clamped range is an error, not a silent whole-structure
  // default: lo > hi directly, and lo past the structure end.
  EXPECT_THROW((void)campaign.sample_specs(FaultTarget::kCpuRegfile,
                                           FaultModel::kTransientFlip, 4, rng,
                                           20, 5),
               std::invalid_argument);
  EXPECT_THROW((void)campaign.sample_specs(FaultTarget::kCpuRegfile,
                                           FaultModel::kTransientFlip, 4, rng,
                                           31, 0),
               std::invalid_argument);
  EXPECT_THROW((void)campaign.sample_specs(FaultTarget::kAccelPhase,
                                           FaultModel::kTransientFlip, 4, rng,
                                           100000, 0),
               std::invalid_argument);
}

TEST(FaultTest, InjectionCycleWindowIsClosedAndBudgetBounded) {
  FaultCampaign campaign = make_small_campaign(34, 35);
  const std::uint64_t window = campaign.golden_cycles();
  ASSERT_GT(window, 0u);

  // Both window endpoints are legal injection points: cycle 0 lands
  // before the first executed cycle, golden_cycles() exactly at
  // completion (trivially masked — the run already finished).
  FaultSpec spec;
  spec.target = FaultTarget::kCpuRegfile;
  spec.model = FaultModel::kTransientFlip;
  spec.index = 5;
  spec.bit = 0;
  spec.cycle = 0;
  const Outcome at_start = campaign.run_one(spec);
  (void)at_start;  // any verdict is legal; the call must not throw
  spec.cycle = window;
  EXPECT_EQ(campaign.run_one(spec), Outcome::kMasked)
      << "a flip at the completion cycle can no longer corrupt the output";

  // Beyond the cycle budget the fault can never be injected: rejected
  // loudly instead of silently applied after completion.
  spec.cycle = 500001;
  EXPECT_THROW((void)campaign.run_one(spec), std::invalid_argument);
}

TEST(FaultTest, LadderVerdictsMatchRung0Oracle) {
  // The checkpoint ladder is a pure restore-path optimization: verdicts
  // must be bit-identical to the restore-from-cycle-0 oracle, serially
  // and across a thread pool.
  FaultCampaign campaign = make_small_campaign(36, 37);
  aspen::lina::Rng rng(38);
  std::vector<FaultSpec> specs;
  for (const FaultTarget t :
       {FaultTarget::kCpuRegfile, FaultTarget::kDramData,
        FaultTarget::kAccelSpmW, FaultTarget::kAccelPhase}) {
    const auto s = campaign.sample_specs(t, FaultModel::kTransientFlip, 8, rng);
    specs.insert(specs.end(), s.begin(), s.end());
  }

  const std::vector<Outcome> oracle = campaign.run_trials(specs, 1);
  campaign.build_ladder(8);
  ASSERT_EQ(campaign.ladder_rungs(), 8u);
  const std::vector<Outcome> laddered = campaign.run_trials(specs, 1);
  EXPECT_EQ(oracle, laddered) << "ladder changed a verdict";
  const std::vector<Outcome> threaded = campaign.run_trials(specs, 4);
  EXPECT_EQ(oracle, threaded) << "ladder + threads changed a verdict";
  campaign.build_ladder(1);  // tear down: back to the rung-0 path
  EXPECT_EQ(campaign.ladder_rungs(), 0u);
  EXPECT_EQ(oracle, campaign.run_trials(specs, 1));
}

// --------------------------------------- cached-code extent arithmetic

TEST(ByteExtentTest, ExactEdgesNoSlack) {
  ByteExtent e;
  EXPECT_TRUE(e.empty());
  EXPECT_FALSE(e.overlaps(0, 4));
  e.grow(0x100, 0x140);  // covers [0x100, 0x140)
  EXPECT_FALSE(e.empty());
  // Spans ending exactly at lo or starting exactly at hi do not touch.
  EXPECT_FALSE(e.overlaps(0xFC, 4));
  EXPECT_FALSE(e.overlaps(0x140, 4));
  // One byte inside either edge does.
  EXPECT_TRUE(e.overlaps(0xFD, 4));
  EXPECT_TRUE(e.overlaps(0x13F, 1));
  // Halfword spans landing exactly on either edge.
  EXPECT_TRUE(e.overlaps(0x13E, 2));
  EXPECT_TRUE(e.overlaps(0xFF, 2));
  EXPECT_FALSE(e.overlaps(0xFE, 2));
  // Zero-length spans never overlap.
  EXPECT_FALSE(e.overlaps(0x120, 0));
}

TEST(ByteExtentTest, TopOfAddressSpaceDoesNotWrap) {
  ByteExtent e;
  e.grow(0xFFFFFFF0u, 0xFFFFFFF8u);
  EXPECT_TRUE(e.overlaps(0xFFFFFFF4u, 0x10));  // span runs past 2^32
  EXPECT_FALSE(e.overlaps(0xFFFFFFF8u, 0xFF));
  e.reset();
  EXPECT_TRUE(e.empty());
  EXPECT_FALSE(e.overlaps(0xFFFFFFF4u, 0x10));
}

TEST(ByteExtentTest, HalfwordStoreOnTailOfCachedInstructionRedecodes) {
  // sh whose two bytes cover only the upper half of an already-executed
  // instruction: the exact [lo, hi) extent arithmetic must still evict
  // and re-decode it in both the micro-op cache and the block cache (a
  // rounding or slack bug here silently executes stale code).
  SystemConfig sc;
  Assembler enc(sc.dram_base);
  enc.addi(a0, zero, 77);
  // addi a0,zero,11 and addi a0,zero,77 differ only in the upper half.
  const std::uint32_t hi_half = enc.assemble()[0] >> 16;

  // li expansion length depends on the patch address: fixed point.
  std::uint32_t patch_addr = sc.dram_base;
  std::vector<std::uint32_t> program;
  for (int iter = 0; iter < 4; ++iter) {
    Assembler as(sc.dram_base);
    as.li(t0, patch_addr);
    as.li(t1, hi_half);
    as.li(s0, 0);
    as.li(s1, 2);
    as.label("loop");
    as.label("patch");
    as.addi(a0, zero, 11);
    as.sh(t1, t0, 2);  // touches only bytes [patch+2, patch+4)
    as.addi(s0, s0, 1);
    as.blt(s0, s1, "loop");
    as.ebreak();
    const std::uint32_t found = as.address_of("patch");
    program = as.assemble();
    if (found == patch_addr) break;
    patch_addr = found;
  }

  System system(sc);
  system.load_program(program);
  const System::RunResult res = system.run();
  EXPECT_EQ(res.halt, Halt::kEbreak);
  EXPECT_EQ(system.cpu().read_reg(10), 77u)
      << "patched upper half must be re-decoded on the next iteration";
}

}  // namespace
