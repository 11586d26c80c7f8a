#pragma once
// Guest programs only the sysim tests run: a 64-bit counter read and an
// RVC-dense loop. Both are diffed across the CPU paths, so they stay
// deterministic and end with the ecall exit the workloads use.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sysim/riscv/assembler.hpp"
#include "sysim/system.hpp"

namespace aspen::testing {

using namespace sys::rv;

/// Emit `ecall` exit with code 0.
inline void emit_exit(Assembler& as) {
  as.li(a7, 93);
  as.li(a0, 0);
  as.ecall();
}

/// Read the 64-bit mcycle and minstret counter pairs with the standard
/// high/low/high re-read loop and store {mcycle_lo, mcycle_hi,
/// minstret_lo, minstret_hi} at DRAM offset `out_offset`; exercises the
/// mcycleh/minstreth CSRs guest code uses for long campaign timing.
inline std::vector<std::uint32_t> build_counter_probe(
    const sys::SystemConfig& sys, std::uint32_t out_offset) {
  Assembler as(sys.dram_base);
  as.li(a0, sys.dram_base + out_offset);

  // mcycle: high, low, high — retry if the low word wrapped in between.
  as.label("cycle_retry");
  as.csrrs(t0, kCsrMcycleH, zero);
  as.csrrs(t1, kCsrMcycle, zero);
  as.csrrs(t2, kCsrMcycleH, zero);
  as.bne(t0, t2, "cycle_retry");
  as.sw(t1, a0, 0);
  as.sw(t0, a0, 4);

  as.label("instret_retry");
  as.csrrs(t0, kCsrMinstretH, zero);
  as.csrrs(t1, kCsrMinstret, zero);
  as.csrrs(t2, kCsrMinstretH, zero);
  as.bne(t0, t2, "instret_retry");
  as.sw(t1, a0, 8);
  as.sw(t0, a0, 12);

  emit_exit(as);
  return as.assemble();
}

/// RVC-dense scramble/checksum loop assembled with compress=true: the
/// hot loop is almost entirely 2-byte forms (c.lw/c.sw, c.addi, c.mv,
/// CA/CB ALU ops) plus c.lwsp/c.swsp epilogue traffic and a c.jr
/// subroutine return, so it exercises mixed 2/4-byte fetch, block
/// building over compressed runs, and the compressed-fetch counters.
/// Reads `words` 32-bit words at `src_offset`, writes the scrambled
/// words to `dst_offset` followed by {checksum, 0} — all diffable
/// through the DRAM image.
inline std::vector<std::uint32_t> build_rvc_loop(const sys::SystemConfig& sys,
                                                 std::uint32_t src_offset,
                                                 std::uint32_t dst_offset,
                                                 std::uint32_t words) {
  if (words == 0) throw std::invalid_argument("build_rvc_loop: words == 0");
  Assembler as(sys.dram_base, /*compress=*/true);
  as.li(s0, sys.dram_base + src_offset);   // source cursor (prime reg)
  as.li(s1, sys.dram_base + dst_offset);   // destination cursor
  as.li(sp, sys.dram_base + dst_offset + words * 4);  // epilogue scratch
  as.li(a0, words);                        // loop counter
  as.li(a3, 0);                            // checksum accumulator

  // Hot loop: every instruction except the back-branch picks its C form
  // (branches stay full-width — fixups never relax).
  as.label("rvc_loop");
  as.lw(a2, s0, 0);       // c.lw
  as.mv(a4, a2);          // c.mv
  as.slli(a4, a4, 3);     // c.slli
  as.srli(a4, a4, 1);     // c.srli
  as.xor_(a4, a4, a2);    // c.xor
  as.andi(a2, a2, 0x1F);  // c.andi
  as.or_(a4, a4, a2);     // c.or
  as.add(a3, a3, a4);     // c.add
  as.sw(a4, s1, 0);       // c.sw
  as.addi(s0, s0, 4);     // c.addi
  as.addi(s1, s1, 4);     // c.addi
  as.addi(a0, a0, -1);    // c.addi
  as.bne(a0, zero, "rvc_loop");

  // Epilogue: stack-pointer forms, a compressed call return, and a
  // self-cancelling c.sub so the scratch slot lands deterministic.
  as.jal(ra, "rvc_fin");  // returns via c.jr ra
  as.sw(a3, sp, 0);       // c.swsp: checksum at dst + words*4
  as.lw(a5, sp, 0);       // c.lwsp
  as.sub(a5, a5, a3);     // c.sub -> 0
  as.sw(a5, sp, 4);       // c.swsp
  emit_exit(as);
  as.label("rvc_fin");
  as.addi(a3, a3, 1);     // c.addi: fold the call into the checksum
  as.ret();               // c.jr ra
  return as.assemble();
}

}  // namespace aspen::testing
