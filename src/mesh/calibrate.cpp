#include "mesh/calibrate.hpp"

#include <cmath>
#include <complex>
#include <stdexcept>

#include "photonics/units.hpp"

namespace aspen::mesh {

using lina::CMat;
using lina::cplx;
using phot::kPi;
using phot::kTwoPi;

namespace {

/// tr(target^dagger M) without forming the product.
cplx overlap(const CMat& target, const CMat& m) {
  cplx s{0.0, 0.0};
  const auto& a = target.raw();
  const auto& b = m.raw();
  for (std::size_t i = 0; i < a.size(); ++i) s += std::conj(a[i]) * b[i];
  return s;
}

double fidelity_from_overlap(cplx ov, double target_norm, double mesh_norm) {
  if (target_norm == 0.0 || mesh_norm == 0.0) return 0.0;
  return std::abs(ov) / (target_norm * mesh_norm);
}

/// Which phase slots belong to symmetric MZI cells? Those enter the
/// transfer through e^{+-i phi/2} (4*pi-periodic), so their coordinate
/// update needs the three-coefficient model below instead of the affine
/// one. PhaseColumn slots are always plain diagonal phases.
std::vector<bool> half_angle_slots(const MeshLayout& layout) {
  std::vector<bool> half(layout.phase_count(), false);
  if (layout.style != phot::MziStyle::kSymmetric) return half;
  std::size_t idx = 0;
  for (const auto& col : layout.columns) {
    if (std::holds_alternative<MziColumn>(col)) {
      const std::size_t n = 2 * std::get<MziColumn>(col).top_ports.size();
      for (std::size_t k = 0; k < n; ++k) half[idx + k] = true;
      idx += n;
    } else if (std::holds_alternative<PhaseColumn>(col)) {
      idx += layout.ports;
    }
  }
  return half;
}

}  // namespace

CalibrationReport calibrate(PhysicalMesh& mesh, const CMat& target,
                            const CalibrationOptions& opt) {
  if (target.rows() != mesh.layout().ports ||
      target.cols() != mesh.layout().ports)
    throw std::invalid_argument("calibrate: target shape mismatch");

  CalibrationReport report;
  report.initial_fidelity = CMat::fidelity(target, mesh.transfer());

  // Calibrate in the continuous phase domain; requantize on exit.
  const std::optional<phot::PcmCellConfig> pcm_cfg = mesh.pcm_config();
  if (pcm_cfg.has_value()) mesh.disable_pcm();

  const double target_norm = target.frobenius();
  const std::size_t nph = mesh.phase_count();
  lina::Rng rng(opt.seed);

  std::vector<double> best_phases = mesh.phases();
  double best_fid = -1.0;

  for (int restart = 0; restart < std::max(1, opt.restarts); ++restart) {
    if (restart > 0) {
      for (std::size_t k = 0; k < nph; ++k)
        mesh.set_phase(k, rng.uniform(0.0, kTwoPi));
    }
    // Coordinate ascent over phase slots. Phase slots are ordered by mesh
    // column, so the sweep below drives the mesh's column-factored cache
    // entirely through its O(N^2) incremental path: every trial transfer
    // re-evaluates one column and applies a handful of rank-one updates
    // instead of recomposing all O(columns) of them.
    double mesh_norm = mesh.transfer().frobenius();
    cplx cur = overlap(target, mesh.transfer());
    double prev_sweep_fid = fidelity_from_overlap(cur, target_norm, mesh_norm);

    const std::vector<bool> half = half_angle_slots(mesh.layout());

    int sweeps = 0;
    for (; sweeps < opt.max_sweeps; ++sweeps) {
      for (std::size_t k = 0; k < nph; ++k) {
        const double old = mesh.phase(k);
        double cand;
        if (!half[k]) {
          // Affine model: tr(T^dagger M) = c0 + c1 e^{i phi}.
          mesh.set_phase(k, 0.0);
          const cplx t0 = overlap(target, mesh.transfer());
          mesh.set_phase(k, kPi);
          const cplx tpi = overlap(target, mesh.transfer());
          const cplx c0 = 0.5 * (t0 + tpi);
          const cplx c1 = 0.5 * (t0 - tpi);
          if (std::abs(c1) < 1e-15) {
            mesh.set_phase(k, old);
            // Settle the restored column now, while it is still the only
            // dirty one — otherwise the next slot in a different column
            // would force a full cache rebuild.
            (void)mesh.transfer();
            continue;
          }
          cand = std::arg(c0) - std::arg(c1);
        } else {
          // Symmetric cell: tr = c0 + c+ e^{i phi/2} + c- e^{-i phi/2},
          // 4*pi-periodic. Identify the three coefficients from a 4-point
          // DFT at phi in {0, pi, 2 pi, 3 pi} (u = e^{i phi/2} = i^k),
          // then maximize on a fine grid.
          cplx t[4];
          for (int s = 0; s < 4; ++s) {
            mesh.set_phase(k, s * kPi);
            t[s] = overlap(target, mesh.transfer());
          }
          const cplx i1{0.0, 1.0};
          const cplx c0 = 0.25 * (t[0] + t[1] + t[2] + t[3]);
          const cplx cp =
              0.25 * (t[0] - i1 * t[1] - t[2] + i1 * t[3]);
          const cplx cm =
              0.25 * (t[0] + i1 * t[1] - t[2] - i1 * t[3]);
          double best_val = -1.0;
          cand = old;
          for (int g = 0; g < 256; ++g) {
            const double phi = 4.0 * kPi * g / 256.0;
            const cplx u = std::polar(1.0, phi / 2.0);
            const double val = std::abs(c0 + cp * u + cm * std::conj(u));
            if (val > best_val) {
              best_val = val;
              cand = phi;
            }
          }
        }
        mesh.set_phase(k, cand);
        // With thermal crosstalk (or grid resolution) the model is
        // approximate; accept only true improvements.
        const cplx tnew = overlap(target, mesh.transfer());
        if (std::abs(tnew) + 1e-15 >= std::abs(cur)) {
          cur = tnew;
        } else {
          mesh.set_phase(k, old);
          // Settle the restored column incrementally (see above): keeps a
          // rejection from pushing the sweep off the O(N^2) fast path.
          (void)mesh.transfer();
        }
      }
      mesh_norm = mesh.transfer().frobenius();
      cur = overlap(target, mesh.transfer());
      const double fid = fidelity_from_overlap(cur, target_norm, mesh_norm);
      if (fid - prev_sweep_fid < opt.tol) {
        prev_sweep_fid = fid;
        ++sweeps;
        break;
      }
      prev_sweep_fid = fid;
    }
    report.sweeps_used = std::max(report.sweeps_used, sweeps);
    ++report.restarts_used;
    if (prev_sweep_fid > best_fid) {
      best_fid = prev_sweep_fid;
      best_phases = mesh.phases();
    }
  }

  mesh.program(best_phases);
  if (pcm_cfg.has_value()) mesh.enable_pcm(*pcm_cfg);
  report.final_fidelity = CMat::fidelity(target, mesh.transfer());
  return report;
}

}  // namespace aspen::mesh
