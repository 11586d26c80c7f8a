#pragma once
// Layer replays: the benchmark drives one layer's public API directly
// with the workload's own tiles, so host time can be attributed to
// lina / mesh / core / the accelerator model without instrumenting the
// library itself.
#include <cstdint>
#include <vector>

#include "core/gemm_core.hpp"
#include "harness.hpp"
#include "sysim/accelerator.hpp"

namespace perfbench {

/// The weight tiles one op programs, in order, with the input tile that
/// goes through each of them.
struct TileReplay {
  aspen::core::GemmConfig gemm;
  std::vector<aspen::lina::CMat> w;
  std::vector<aspen::lina::CMat> x;
};

/// Adds core.set_weights_us, core.multiply_us, core.multiply_noiseless_us,
/// lina.svd_us, mesh.decompose_us and mesh.program_transfer_us: host time
/// per op, summed over the op's tiles, median over repeated passes.
void replay_photonic_layers(const TileReplay& r, Metrics& out);

/// Host time of one compute START (`write(CTRL, START)`) on a standalone
/// accelerator that already holds the weight tile `w` (row-major Q3.12)
/// and has the `cols`-column input tile `x` (column-major) in SPM_X.
[[nodiscard]] double replay_accel_start_us(
    const aspen::sys::AcceleratorConfig& cfg, const std::vector<std::int16_t>& w,
    const std::vector<std::int16_t>& x, std::uint32_t cols);

/// Q3.12 tiles as the complex matrices the accelerator programs.
[[nodiscard]] aspen::lina::CMat fixed_to_cmat_rowmajor(
    const std::vector<std::int16_t>& v, std::size_t rows, std::size_t cols);
[[nodiscard]] aspen::lina::CMat fixed_to_cmat_colmajor(
    const std::vector<std::int16_t>& v, std::size_t rows, std::size_t cols);

}  // namespace perfbench
