#pragma once
// Reference for the real-input noiseless tile kernel: the complex form it
// replaced, rebuilt from the engine's public accessors. The tile is
// launched as complex fields, pushed through the physical transfer with
// lina::mul_into, and rescaled by one multiply with the shared reciprocal
// of the calibrated gain. Compiled with the library's complex-arithmetic
// flags, so any difference from the kernel is a real bit difference.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/mvm_engine.hpp"
#include "lina/complex_matrix.hpp"
#include "lina/svd.hpp"
#include "photonics/modulator.hpp"

namespace aspen::testing {

inline lina::CMat complex_noiseless_reference(const core::MvmEngine& eng,
                                              const lina::CMat& x) {
  using lina::cplx;
  const core::MvmConfig& cfg = eng.config();
  const double launch =
      std::sqrt(cfg.laser.power_w / static_cast<double>(cfg.ports));
  const double amp = phot::Modulator(cfg.modulator).amplitude_scale();
  lina::CMat fields(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.raw().size(); ++i)
    fields.raw()[i] = launch * amp * x.raw()[i];
  lina::CMat out;
  lina::mul_into(out, eng.physical_transfer(), fields);
  lina::SvdResult usv;
  lina::SvdWorkspace ws;
  lina::svd(eng.matrix(), usv, ws);
  const double sigma_max = usv.sigma_max();
  if (sigma_max <= 0.0) {
    for (auto& v : out.raw()) v = cplx{0.0, 0.0};
    return out;
  }
  const cplx inv_scale =
      cplx{1.0, 0.0} / (eng.system_gain() * launch * amp / sigma_max);
  for (auto& v : out.raw()) v *= inv_scale;
  return out;
}

/// Real parts of a tile, port by port (CMat storage is row-major).
inline std::vector<double> real_tile(const lina::CMat& x) {
  std::vector<double> v(x.raw().size());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = x.raw()[i].real();
  return v;
}

/// Bit pattern of a double: equality distinguishes -0 from +0.
inline std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

}  // namespace aspen::testing
