#include "replay.hpp"

#include "lina/svd.hpp"
#include "mesh/analysis.hpp"
#include "mesh/decompose.hpp"
#include "mesh/physical_mesh.hpp"

namespace perfbench {

using aspen::lina::CMat;
using aspen::lina::cplx;
using aspen::sys::PhotonicAccelerator;

namespace {

/// Median of repeated passes (at least 5, then until 0.2 s has passed);
/// `pass` returns the seconds it wants counted.
template <class Pass>
double median_pass_us(Pass&& pass) {
  std::vector<double> s;
  const auto stop = Clock::now() + std::chrono::milliseconds(200);
  while (s.size() < 5 || (Clock::now() < stop && s.size() < 2000))
    s.push_back(pass());
  return median(s) * 1e6;
}

}  // namespace

CMat fixed_to_cmat_rowmajor(const std::vector<std::int16_t>& v,
                            std::size_t rows, std::size_t cols) {
  CMat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      m(r, c) = cplx{PhotonicAccelerator::from_fixed(v[r * cols + c]), 0.0};
  return m;
}

CMat fixed_to_cmat_colmajor(const std::vector<std::int16_t>& v,
                            std::size_t rows, std::size_t cols) {
  CMat m(rows, cols);
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r)
      m(r, c) = cplx{PhotonicAccelerator::from_fixed(v[c * rows + r]), 0.0};
  return m;
}

void replay_photonic_layers(const TileReplay& r, Metrics& out) {
  namespace core = aspen::core;
  namespace mesh = aspen::mesh;
  const std::size_t tiles = r.w.size();

  core::GemmCore gemm(r.gemm);
  out["core.set_weights_us"] = {median_pass_us([&] {
                                  const auto t0 = Clock::now();
                                  for (const CMat& w : r.w) gemm.set_weights(w);
                                  return seconds_since(t0);
                                }),
                                "us"};
  out["core.multiply_us"] = {median_pass_us([&] {
                               double s = 0.0;
                               for (std::size_t i = 0; i < tiles; ++i) {
                                 gemm.set_weights(r.w[i]);
                                 const auto t0 = Clock::now();
                                 const CMat y = gemm.multiply(r.x[i]);
                                 s += seconds_since(t0);
                               }
                               return s;
                             }),
                             "us"};
  CMat y;
  out["core.multiply_noiseless_us"] = {
      median_pass_us([&] {
        double s = 0.0;
        for (std::size_t i = 0; i < tiles; ++i) {
          gemm.set_weights(r.w[i]);
          const auto t0 = Clock::now();
          gemm.multiply_noiseless(r.x[i], y);
          s += seconds_since(t0);
        }
        return s;
      }),
      "us"};

  aspen::lina::SvdWorkspace svd_ws;
  std::vector<aspen::lina::SvdResult> svds(tiles);
  out["lina.svd_us"] = {median_pass_us([&] {
                          const auto t0 = Clock::now();
                          for (std::size_t i = 0; i < tiles; ++i)
                            aspen::lina::svd(r.w[i], svds[i], svd_ws);
                          return seconds_since(t0);
                        }),
                        "us"};

  // The engine programs U onto one mesh and V^dagger onto the other.
  std::vector<CMat> vdag(tiles);
  for (std::size_t i = 0; i < tiles; ++i) vdag[i] = svds[i].v.adjoint();
  mesh::DecomposeScratch dws;
  std::vector<mesh::ProgrammedMesh> pu(tiles), pv(tiles);
  const auto style = aspen::phot::MziStyle::kStandard;
  out["mesh.decompose_us"] = {median_pass_us([&] {
                                const auto t0 = Clock::now();
                                for (std::size_t i = 0; i < tiles; ++i) {
                                  mesh::clements_decompose(svds[i].u, style,
                                                           dws, pu[i]);
                                  mesh::clements_decompose(vdag[i], style, dws,
                                                           pv[i]);
                                }
                                return seconds_since(t0);
                              }),
                              "us"};

  const auto& mc = r.gemm.mvm;
  mesh::PhysicalMesh mu(mesh::make_layout(mc.architecture, mc.ports), mc.errors);
  mesh::PhysicalMesh mv(mesh::make_layout(mc.architecture, mc.ports), mc.errors);
  if (mc.weights == core::WeightTechnology::kPcm) {
    mu.enable_pcm(mc.pcm);
    mv.enable_pcm(mc.pcm);
  }
  out["mesh.program_transfer_us"] = {median_pass_us([&] {
                                       const auto t0 = Clock::now();
                                       for (std::size_t i = 0; i < tiles; ++i) {
                                         mu.program(pu[i].phases);
                                         (void)mu.transfer();
                                         mv.program(pv[i].phases);
                                         (void)mv.transfer();
                                       }
                                       return seconds_since(t0);
                                     }),
                                     "us"};
}

double replay_accel_start_us(const aspen::sys::AcceleratorConfig& cfg,
                             const std::vector<std::int16_t>& w,
                             const std::vector<std::int16_t>& x,
                             std::uint32_t cols) {
  PhotonicAccelerator pe(cfg);
  const auto finish = [&] {
    pe.skip_cycles(pe.busy_cycles_remaining());
    pe.write(PhotonicAccelerator::kRegStatus, PhotonicAccelerator::kStatusDone,
             4);
  };
  for (std::size_t i = 0; i < w.size(); ++i)
    pe.write(PhotonicAccelerator::kSpmWBase + static_cast<std::uint32_t>(2 * i),
             static_cast<std::uint16_t>(w[i]), 2);
  for (std::size_t i = 0; i < x.size(); ++i)
    pe.write(PhotonicAccelerator::kSpmXBase + static_cast<std::uint32_t>(2 * i),
             static_cast<std::uint16_t>(x[i]), 2);
  pe.write(PhotonicAccelerator::kRegCols, cols, 4);
  pe.write(PhotonicAccelerator::kRegCtrl, PhotonicAccelerator::kCtrlLoadWeights,
           4);
  finish();
  return median_pass_us([&] {
    const auto t0 = Clock::now();
    pe.write(PhotonicAccelerator::kRegCtrl, PhotonicAccelerator::kCtrlStart, 4);
    const double s = seconds_since(t0);
    finish();
    return s;
  });
}

}  // namespace perfbench
