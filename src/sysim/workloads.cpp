#include "sysim/workloads.hpp"

#include <stdexcept>

#include "sysim/crc32.hpp"

namespace aspen::sys {

using namespace rv;

namespace {

/// Emit `ecall` exit with code 0.
void emit_exit(Assembler& as) {
  as.li(a7, 93);
  as.li(a0, 0);
  as.ecall();
}

/// Word-copy: copies `bytes` from the address in `src_reg` to the
/// address in `dst_reg` (both preserved), clobbering t0-t3. Pointer
/// cursors with a 4x-unrolled body (plus a straight-line word tail)
/// keep the loop overhead per word low, as hand-written bare-metal
/// copies do.
void emit_copy_words(Assembler& as, int src_reg, int dst_reg,
                     std::uint32_t bytes, const std::string& tag) {
  if (bytes % 4 != 0)
    throw std::invalid_argument("emit_copy_words: bytes % 4 != 0");
  constexpr std::uint32_t kUnroll = 32;  // bytes per unrolled iteration
  as.addi(t0, src_reg, 0);
  as.addi(t1, dst_reg, 0);
  if (bytes >= kUnroll) {
    as.li(t2, bytes - bytes % kUnroll);
    as.add(t2, t2, t0);  // end of the unrolled region
    as.label(tag);
    for (std::uint32_t off = 0; off < kUnroll; off += 4) {
      as.lw(t3, t0, static_cast<std::int32_t>(off));
      as.sw(t3, t1, static_cast<std::int32_t>(off));
    }
    as.addi(t0, t0, static_cast<std::int32_t>(kUnroll));
    as.addi(t1, t1, static_cast<std::int32_t>(kUnroll));
    as.bltu(t0, t2, tag);
  }
  for (std::uint32_t off = 0; off < bytes % kUnroll; off += 4) {
    as.lw(t3, t0, static_cast<std::int32_t>(off));
    as.sw(t3, t1, static_cast<std::int32_t>(off));
  }
}

/// Wait for STATUS bit1 (DONE), or any bit of `wake_mask`, on the device
/// whose base is in `base_reg`, at STATUS offset `status_off`; optionally
/// sleeps with WFI between polls. Clears DONE/IRQ afterwards and leaves
/// any other latch (the accelerator's ERROR) for the caller to inspect.
/// Clobbers t0.
void emit_wait_done(Assembler& as, int base_reg, std::int32_t status_off,
                    bool use_wfi, const std::string& tag,
                    std::uint32_t wake_mask = 2) {
  as.label(tag);
  as.lw(t0, base_reg, status_off);
  as.andi(t0, t0, static_cast<std::int32_t>(wake_mask));
  as.bne(t0, zero, tag + "_done");
  if (use_wfi) as.wfi();
  as.j(tag);
  as.label(tag + "_done");
  as.li(t0, 2);
  as.sw(t0, base_reg, status_off);
}

/// PE prologue shared by the offload programs: s0 = the base of PE
/// `pe_index`, a0-a2 = the DRAM A/X/Y addresses, s4-s6 = the PE's
/// SPM_W/X/Y windows. Returns the PE base.
std::uint32_t emit_pe_prologue(Assembler& as, const GemmWorkload& wl,
                               const SystemConfig& sys, std::size_t pe_index) {
  const std::uint32_t pe_base =
      sys.accel_base + static_cast<std::uint32_t>(pe_index) * sys.accel_stride;
  as.li(s0, pe_base);
  as.li(a0, sys.dram_base + wl.a_offset);
  as.li(a1, sys.dram_base + wl.x_offset);
  as.li(a2, sys.dram_base + wl.y_offset);
  as.li(s4, pe_base + PhotonicAccelerator::kSpmWBase);
  as.li(s5, pe_base + PhotonicAccelerator::kSpmXBase);
  as.li(s6, pe_base + PhotonicAccelerator::kSpmYBase);
  return pe_base;
}

/// Scalar triple-loop GEMM body reading A/X from DRAM and writing Y —
/// shared between the standalone software baseline and the checked
/// offload's fallback path. Re-establishes a0-a2 itself; clobbers
/// a0-a2, t0-t5 and s0-s3 (labels are `tag`-prefixed so the body can be
/// emitted alongside other code).
void emit_software_gemm(Assembler& as, const GemmWorkload& wl,
                        const SystemConfig& sys, const std::string& tag) {
  const auto n = static_cast<std::uint32_t>(wl.n);
  const auto m = static_cast<std::uint32_t>(wl.m);

  as.li(a0, sys.dram_base + wl.a_offset);
  as.li(a1, sys.dram_base + wl.x_offset);
  as.li(a2, sys.dram_base + wl.y_offset);
  as.li(t4, n);
  as.li(t5, m);

  as.li(s0, 0);  // r
  as.label(tag + "r_loop");
  as.li(s1, 0);  // c
  as.label(tag + "c_loop");
  as.li(s3, 0);           // acc
  as.li(s2, 0);           // k
  as.mul(t0, s0, t4);     // r * n
  as.mul(t1, s1, t4);     // c * n
  as.label(tag + "k_loop");
  as.add(t2, t0, s2);
  as.slli(t2, t2, 1);
  as.add(t2, t2, a0);
  as.lh(t2, t2, 0);       // A[r][k]
  as.add(t3, t1, s2);
  as.slli(t3, t3, 1);
  as.add(t3, t3, a1);
  as.lh(t3, t3, 0);       // X[k][c]
  as.mul(t2, t2, t3);
  as.add(s3, s3, t2);
  as.addi(s2, s2, 1);
  as.blt(s2, t4, tag + "k_loop");
  as.srai(s3, s3, 12);    // Q3.12 renormalization
  as.add(t3, t1, s0);     // c*n + r
  as.slli(t3, t3, 1);
  as.add(t3, t3, a2);
  as.sh(s3, t3, 0);
  as.addi(s1, s1, 1);
  as.blt(s1, t5, tag + "c_loop");
  as.addi(s0, s0, 1);
  as.blt(s0, t4, tag + "r_loop");
}

}  // namespace

std::vector<std::uint32_t> build_gemm_software(const GemmWorkload& wl,
                                               const SystemConfig& sys) {
  Assembler as(sys.dram_base);
  emit_software_gemm(as, wl, sys, "");
  emit_exit(as);
  return as.assemble();
}

std::vector<std::uint32_t> build_gemm_offload(const GemmWorkload& wl,
                                              const SystemConfig& sys,
                                              OffloadPath path,
                                              std::size_t pe_index) {
  return build_gemm_offload_stream(wl, sys, path, 1, pe_index);
}

std::vector<std::uint32_t> build_gemm_offload_checked(const GemmWorkload& wl,
                                                      const SystemConfig& sys,
                                                      std::size_t pe_index) {
  Assembler as(sys.dram_base);
  const auto n = static_cast<std::uint32_t>(wl.n);
  const auto m = static_cast<std::uint32_t>(wl.m);
  const std::uint32_t bytes_w = n * n * 2;
  const std::uint32_t bytes_xy = n * m * 2;
  // Wake on DONE or ERROR: the watchdog guarantees the line eventually
  // rises even if the operation wedges.
  const std::uint32_t wake =
      PhotonicAccelerator::kStatusDone | PhotonicAccelerator::kStatusError;

  const std::uint32_t pe_base = emit_pe_prologue(as, wl, sys, pe_index);

  // Host-precomputed tile CRCs.
  as.li(t0, sys.dram_base + wl.crc_offset);
  as.lw(s2, t0, 0);  // expected CRC of the A tile
  as.lw(s3, t0, 4);  // expected CRC of the X tile

  as.li(t0, m);
  as.sw(t0, s0, PhotonicAccelerator::kRegCols);

  as.li(s7, 0);                // fell-back flag
  as.li(s8, 0);                // errors observed
  as.li(s9, wl.max_retries);   // retry budget

  // One full load+compute attempt; any latched ERROR funnels to "err".
  as.label("try");
  emit_copy_words(as, a0, s4, bytes_w, "copy_a");
  as.sw(s2, s0, PhotonicAccelerator::kRegCrcW);
  as.li(t0, wl.watchdog_cycles);
  as.sw(t0, s0, PhotonicAccelerator::kRegWdog);
  as.li(t0, PhotonicAccelerator::kCtrlLoadWeights |
                PhotonicAccelerator::kCtrlIrqEn |
                PhotonicAccelerator::kCtrlCrcW);
  as.sw(t0, s0, PhotonicAccelerator::kRegCtrl);
  emit_wait_done(as, s0, PhotonicAccelerator::kRegStatus, /*use_wfi=*/true,
                 "ldw", wake);
  as.sw(zero, s0, PhotonicAccelerator::kRegWdog);
  as.lw(t0, s0, PhotonicAccelerator::kRegStatus);
  as.andi(t0, t0, PhotonicAccelerator::kStatusError);
  as.bne(t0, zero, "err");

  emit_copy_words(as, a1, s5, bytes_xy, "copy_x");
  as.sw(s3, s0, PhotonicAccelerator::kRegCrcX);
  as.li(t0, wl.watchdog_cycles);
  as.sw(t0, s0, PhotonicAccelerator::kRegWdog);
  as.li(t0, PhotonicAccelerator::kCtrlStart |
                PhotonicAccelerator::kCtrlIrqEn |
                PhotonicAccelerator::kCtrlCrcX);
  as.sw(t0, s0, PhotonicAccelerator::kRegCtrl);
  emit_wait_done(as, s0, PhotonicAccelerator::kRegStatus, /*use_wfi=*/true,
                 "go", wake);
  as.sw(zero, s0, PhotonicAccelerator::kRegWdog);
  as.lw(t0, s0, PhotonicAccelerator::kRegStatus);
  as.andi(t0, t0, PhotonicAccelerator::kStatusError);
  as.bne(t0, zero, "err");

  emit_copy_words(as, s6, a2, bytes_xy, "copy_y");
  as.j("rec");

  // Detected error: quiesce the device, clear the latches, retry while
  // budget remains, then fall back to the exact software GEMM.
  as.label("err");
  as.addi(s8, s8, 1);
  // An aborted operation still runs out its busy window and raises DONE
  // at the end (the no-wedge handshake guarantee). The wait above exits
  // on ERROR *before* that DONE lands, so clearing ERROR alone would
  // leave a stale DONE behind — and the retry's next wait would fall
  // through mid-operation, reading back a stale SPM_Y. Drain BUSY first,
  // then clear DONE and ERROR together so the retry handshake starts
  // from a clean STATUS.
  as.label("err_drain");
  as.lw(t0, s0, PhotonicAccelerator::kRegStatus);
  as.andi(t0, t0, PhotonicAccelerator::kStatusBusy);
  as.bne(t0, zero, "err_drain");
  as.li(t0, PhotonicAccelerator::kStatusDone |
                PhotonicAccelerator::kStatusError);
  as.sw(t0, s0, PhotonicAccelerator::kRegStatus);
  as.bge(s9, s8, "try");
  as.li(s7, 1);
  emit_software_gemm(as, wl, sys, "fb_");
  as.li(s0, pe_base);  // the fallback body clobbered s0

  // Recovery record: {detected, corrected, retried, fell_back}.
  as.label("rec");
  as.li(t0, sys.dram_base + wl.rec_offset);
  as.sw(s8, t0, 0);
  as.lw(t1, s0, PhotonicAccelerator::kRegAbftCorrected);
  as.sw(t1, t0, 4);
  as.addi(t2, s8, 0);  // retried = min(errors, budget)
  as.bge(s9, t2, "rec_min");
  as.addi(t2, s9, 0);
  as.label("rec_min");
  as.sw(t2, t0, 8);
  as.sw(s7, t0, 12);
  emit_exit(as);
  return as.assemble();
}

std::vector<std::uint32_t> build_gemm_offload_stream(const GemmWorkload& wl,
                                                     const SystemConfig& sys,
                                                     OffloadPath path,
                                                     std::size_t batches,
                                                     std::size_t pe_index) {
  if (batches == 0)
    throw std::invalid_argument("build_gemm_offload_stream: zero batches");
  Assembler as(sys.dram_base);
  const auto n = static_cast<std::uint32_t>(wl.n);
  const auto m = static_cast<std::uint32_t>(wl.m);
  const std::uint32_t bytes_w = n * n * 2;
  const std::uint32_t chunk = n * m * 2;
  const bool loop = batches > 1;
  if (loop && chunk >= 0x800)
    throw std::invalid_argument(
        "build_gemm_offload_stream: tile too large for addi cursor bump");
  const bool irq = path != OffloadPath::kMmrPolling;
  const std::uint32_t irq_bit = irq ? PhotonicAccelerator::kCtrlIrqEn : 0u;

  emit_pe_prologue(as, wl, sys, pe_index);  // a1/a2: the X/Y tile cursors
  as.li(t0, m);
  as.sw(t0, s0, PhotonicAccelerator::kRegCols);
  if (path == OffloadPath::kDmaInterrupt) as.li(s7, sys.dma_base);

  const auto dma_move = [&](int src, int dst, std::uint32_t bytes,
                            const std::string& tag) {
    as.sw(src, s7, DmaEngine::kRegSrc);
    as.sw(dst, s7, DmaEngine::kRegDst);
    as.li(t0, bytes);
    as.sw(t0, s7, DmaEngine::kRegLen);
    as.li(t0, DmaEngine::kCtrlStart | DmaEngine::kCtrlIrqEn);
    as.sw(t0, s7, DmaEngine::kRegCtrl);
    emit_wait_done(as, s7, DmaEngine::kRegStatus, /*use_wfi=*/true, tag);
  };

  // Program the weights exactly once.
  if (path == OffloadPath::kDmaInterrupt)
    dma_move(a0, s4, bytes_w, "dma_a");
  else
    emit_copy_words(as, a0, s4, bytes_w, "copy_a");
  as.li(t0, PhotonicAccelerator::kCtrlLoadWeights | irq_bit);
  as.sw(t0, s0, PhotonicAccelerator::kRegCtrl);
  emit_wait_done(as, s0, PhotonicAccelerator::kRegStatus, irq, "load_wait");

  // Stream the input tiles (the copy/wait bodies are emitted once; the
  // batch loop runs them with advancing cursors). A single tile needs no
  // loop.
  if (loop) {
    as.li(s8, 0);
    as.li(s9, static_cast<std::uint32_t>(batches));
    as.label("batch");
  }
  if (path == OffloadPath::kDmaInterrupt)
    dma_move(a1, s5, chunk, "dma_x");
  else
    emit_copy_words(as, a1, s5, chunk, "copy_x");
  as.li(t0, PhotonicAccelerator::kCtrlStart | irq_bit);
  as.sw(t0, s0, PhotonicAccelerator::kRegCtrl);
  emit_wait_done(as, s0, PhotonicAccelerator::kRegStatus, irq, "accel_wait");
  if (path == OffloadPath::kDmaInterrupt)
    dma_move(s6, a2, chunk, "dma_y");
  else
    emit_copy_words(as, s6, a2, chunk, "copy_y");
  if (loop) {
    as.addi(a1, a1, static_cast<std::int32_t>(chunk));
    as.addi(a2, a2, static_cast<std::int32_t>(chunk));
    as.addi(s8, s8, 1);
    as.blt(s8, s9, "batch");
  }
  emit_exit(as);
  return as.assemble();
}

std::vector<std::uint32_t> build_gemm_multi_pe(const GemmWorkload& wl,
                                               const SystemConfig& sys) {
  const auto pes = static_cast<std::uint32_t>(sys.num_pes);
  if (wl.m % pes != 0)
    throw std::invalid_argument("build_gemm_multi_pe: m % num_pes != 0");
  const auto n = static_cast<std::uint32_t>(wl.n);
  const std::uint32_t cols_per_pe = static_cast<std::uint32_t>(wl.m) / pes;
  const std::uint32_t bytes_w = n * n * 2;
  const std::uint32_t chunk = n * cols_per_pe * 2;

  Assembler as(sys.dram_base);
  as.li(a0, sys.dram_base + wl.a_offset);
  as.li(a1, sys.dram_base + wl.x_offset);
  as.li(a2, sys.dram_base + wl.y_offset);
  as.li(s7, sys.dma_base);

  // Program one DMA descriptor and poll it to completion. Source and
  // destination are each either a register plus offset (reg >= 0) or an
  // absolute address (reg < 0, address in the offset argument).
  const auto dma_move_imm = [&](int src_reg, std::uint32_t src_add,
                                int dst_reg, std::uint32_t dst_imm,
                                std::uint32_t bytes, const std::string& tag) {
    if (src_reg >= 0) {
      as.addi(t1, src_reg, 0);
      if (src_add != 0) {
        as.li(t2, src_add);
        as.add(t1, t1, t2);
      }
    } else {
      as.li(t1, src_add);
    }
    as.sw(t1, s7, DmaEngine::kRegSrc);
    if (dst_reg >= 0) {
      as.addi(t1, dst_reg, 0);
      if (dst_imm != 0) {
        as.li(t2, dst_imm);
        as.add(t1, t1, t2);
      }
    } else {
      as.li(t1, dst_imm);
    }
    as.sw(t1, s7, DmaEngine::kRegDst);
    as.li(t1, bytes);
    as.sw(t1, s7, DmaEngine::kRegLen);
    as.li(t1, DmaEngine::kCtrlStart);
    as.sw(t1, s7, DmaEngine::kRegCtrl);
    emit_wait_done(as, s7, DmaEngine::kRegStatus, /*use_wfi=*/false, tag);
  };

  // Distribute weights + input chunks, start every PE.
  for (std::uint32_t p = 0; p < pes; ++p) {
    const std::uint32_t pe_base = sys.accel_base + p * sys.accel_stride;
    const std::string ps = std::to_string(p);
    dma_move_imm(a0, 0, -1, pe_base + PhotonicAccelerator::kSpmWBase,
                 bytes_w, "w" + ps);
    dma_move_imm(a1, p * chunk, -1,
                 pe_base + PhotonicAccelerator::kSpmXBase, chunk, "x" + ps);
    as.li(s1, pe_base);
    as.li(t0, cols_per_pe);
    as.sw(t0, s1, PhotonicAccelerator::kRegCols);
    as.li(t0, PhotonicAccelerator::kCtrlStart |
                  PhotonicAccelerator::kCtrlLoadWeights);
    as.sw(t0, s1, PhotonicAccelerator::kRegCtrl);
  }
  // Collect results as PEs finish (in order).
  for (std::uint32_t p = 0; p < pes; ++p) {
    const std::uint32_t pe_base = sys.accel_base + p * sys.accel_stride;
    const std::string ps = std::to_string(p);
    as.li(s1, pe_base);
    emit_wait_done(as, s1, PhotonicAccelerator::kRegStatus, false,
                   "pewait" + ps);
    dma_move_imm(-1, pe_base + PhotonicAccelerator::kSpmYBase, a2,
                 p * chunk, chunk, "y" + ps);
  }
  emit_exit(as);
  return as.assemble();
}

void stage_gemm_data(System& system, const GemmWorkload& wl,
                     const std::vector<std::int16_t>& a,
                     const std::vector<std::int16_t>& x) {
  if (a.size() != wl.n * wl.n || x.size() != wl.n * wl.m)
    throw std::invalid_argument("stage_gemm_data: size mismatch");
  system.write_dram(wl.a_offset, a.data(), a.size() * 2);
  system.write_dram(wl.x_offset, x.data(), x.size() * 2);
}

void stage_gemm_data_checked(System& system, const GemmWorkload& wl,
                             const std::vector<std::int16_t>& a,
                             const std::vector<std::int16_t>& x) {
  stage_gemm_data(system, wl, a, x);
  const std::uint32_t crc[2] = {crc32(a.data(), a.size() * 2),
                                crc32(x.data(), x.size() * 2)};
  system.write_dram(wl.crc_offset, crc, sizeof(crc));
}

GemmRecoveryRecord read_gemm_recovery(System& system,
                                      const GemmWorkload& wl) {
  GemmRecoveryRecord rec;
  system.read_dram(wl.rec_offset, &rec, sizeof(rec));
  return rec;
}

std::vector<std::int16_t> read_gemm_result(System& system,
                                           const GemmWorkload& wl) {
  std::vector<std::int16_t> y(wl.n * wl.m);
  system.read_dram(wl.y_offset, y.data(), y.size() * 2);
  return y;
}

std::vector<std::int16_t> golden_gemm(const GemmWorkload& wl,
                                      const std::vector<std::int16_t>& a,
                                      const std::vector<std::int16_t>& x) {
  std::vector<std::int16_t> y(wl.n * wl.m, 0);
  for (std::size_t c = 0; c < wl.m; ++c) {
    for (std::size_t r = 0; r < wl.n; ++r) {
      std::int32_t acc = 0;
      for (std::size_t k = 0; k < wl.n; ++k)
        acc += static_cast<std::int32_t>(a[r * wl.n + k]) *
               static_cast<std::int32_t>(x[c * wl.n + k]);
      y[c * wl.n + r] = static_cast<std::int16_t>(acc >> 12);
    }
  }
  return y;
}

}  // namespace aspen::sys
