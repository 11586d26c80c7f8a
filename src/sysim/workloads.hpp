#pragma once
/// \file workloads.hpp
/// Bare-metal RISC-V workload generators for the system-level experiments
/// (E6): the scalar software GEMM baseline and the accelerator-offload
/// variants (MMR-programmed copy loops vs. DMA bulk transfers, polling
/// vs. interrupt synchronization). All operate on int16 Q3.12 data so the
/// software and photonic results are directly comparable.
///
/// DRAM data layout (offsets relative to dram_base):
///   A: n x n weights, row-major
///   X: n x m inputs, column-major
///   Y: n x m outputs, column-major

#include <cstdint>
#include <vector>

#include "sysim/riscv/assembler.hpp"
#include "sysim/system.hpp"

namespace aspen::sys {

struct GemmWorkload {
  std::size_t n = 8;   ///< must equal the accelerator port count
  std::size_t m = 8;   ///< input columns
  std::uint32_t a_offset = 0x10000;  ///< DRAM offsets (from dram_base)
  std::uint32_t x_offset = 0x20000;
  std::uint32_t y_offset = 0x30000;
  /// Checked-offload extras (build_gemm_offload_checked only): staged
  /// {crc32(A), crc32(X)} pair, the guest-written recovery record, the
  /// retry budget before falling back to the software GEMM, and the
  /// accelerator watchdog deadline armed around each wait.
  std::uint32_t crc_offset = 0x38000;
  std::uint32_t rec_offset = 0x3C000;
  std::uint32_t max_retries = 2;
  std::uint32_t watchdog_cycles = 100000;
};

/// Guest-side recovery counters written at `rec_offset` by the checked
/// offload workload: {errors detected, ABFT columns corrected (from the
/// accelerator's cumulative counter), retries launched, fell back}.
struct GemmRecoveryRecord {
  std::uint32_t detected = 0;
  std::uint32_t corrected = 0;
  std::uint32_t retried = 0;
  std::uint32_t fell_back = 0;
};

/// Scalar triple-loop GEMM on the CPU (the software baseline).
[[nodiscard]] std::vector<std::uint32_t> build_gemm_software(
    const GemmWorkload& wl, const SystemConfig& sys);

enum class OffloadPath {
  kMmrPolling,   ///< CPU copy loops + STATUS polling
  kMmrInterrupt, ///< CPU copy loops + WFI on the accelerator IRQ
  kDmaInterrupt, ///< DMA bulk transfers + WFI
};

/// Offload the same GEMM to photonic PE `pe_index`: the one-batch
/// stream, build_gemm_offload_stream(wl, sys, path, 1, pe_index).
[[nodiscard]] std::vector<std::uint32_t> build_gemm_offload(
    const GemmWorkload& wl, const SystemConfig& sys, OffloadPath path,
    std::size_t pe_index = 0);

/// Fault-aware offload: every tile transfer is CRC-checked by the
/// accelerator, ABFT (when enabled in the accelerator config) guards the
/// compute, a watchdog deadline is armed around each WFI wait, and on any
/// latched ERROR the guest retries the full load+compute sequence up to
/// `wl.max_retries` times before falling back to the software GEMM. The
/// recovery record lands at `wl.rec_offset`. Stage data with
/// stage_gemm_data_checked().
[[nodiscard]] std::vector<std::uint32_t> build_gemm_offload_checked(
    const GemmWorkload& wl, const SystemConfig& sys, std::size_t pe_index = 0);

/// Offload with the columns partitioned across all `num_pes` PEs (DMA +
/// polling across PEs); demonstrates multi-PE clustering (Fig. 3 right).
[[nodiscard]] std::vector<std::uint32_t> build_gemm_multi_pe(
    const GemmWorkload& wl, const SystemConfig& sys);

/// Streaming offload: weights are programmed once, then `batches` input
/// tiles of `wl.m` columns each are pushed through the PE back to back —
/// the steady-state inference-serving pattern non-volatile photonic
/// weights enable (weights persist, only activations move). Tile b reads
/// X from `x_offset + b * n*m*2` and writes Y to `y_offset + b * n*m*2`;
/// stage data with a GemmWorkload whose m is `wl.m * batches`. More than
/// one batch needs a tile under 2 KiB (the cursors advance by addi);
/// throws std::invalid_argument otherwise, or for zero batches.
[[nodiscard]] std::vector<std::uint32_t> build_gemm_offload_stream(
    const GemmWorkload& wl, const SystemConfig& sys, OffloadPath path,
    std::size_t batches, std::size_t pe_index = 0);

/// Stage A and X matrices (Q3.12) into DRAM for a workload.
void stage_gemm_data(System& system, const GemmWorkload& wl,
                     const std::vector<std::int16_t>& a,
                     const std::vector<std::int16_t>& x);

/// Stage A and X plus the CRC-32 expectations the checked offload
/// workload programs into the accelerator.
void stage_gemm_data_checked(System& system, const GemmWorkload& wl,
                             const std::vector<std::int16_t>& a,
                             const std::vector<std::int16_t>& x);

/// Read back the checked-offload recovery record.
[[nodiscard]] GemmRecoveryRecord read_gemm_recovery(System& system,
                                                    const GemmWorkload& wl);

/// Read back Y.
[[nodiscard]] std::vector<std::int16_t> read_gemm_result(
    System& system, const GemmWorkload& wl);

/// Exact int16 Q3.12 GEMM on the host (golden reference).
[[nodiscard]] std::vector<std::int16_t> golden_gemm(
    const GemmWorkload& wl, const std::vector<std::int16_t>& a,
    const std::vector<std::int16_t>& x);

}  // namespace aspen::sys
