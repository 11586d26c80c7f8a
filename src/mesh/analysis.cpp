#include "mesh/analysis.hpp"

#include <cmath>
#include <stdexcept>

#include "lina/random.hpp"
#include "photonics/units.hpp"

namespace aspen::mesh {

using lina::CMat;
using lina::cplx;

std::string to_string(Architecture a) {
  switch (a) {
    case Architecture::kReck: return "reck";
    case Architecture::kClements: return "clements";
    case Architecture::kClementsSym: return "clements-sym";
    case Architecture::kFldzhyan: return "fldzhyan";
    case Architecture::kRedundant: return "redundant";
  }
  return "?";
}

MeshLayout make_layout(Architecture a, std::size_t n,
                       std::size_t extra_columns) {
  switch (a) {
    case Architecture::kReck: return reck_layout(n);
    case Architecture::kClements: return clements_layout(n);
    case Architecture::kClementsSym:
      return clements_layout(n, phot::MziStyle::kSymmetric);
    case Architecture::kFldzhyan:
      // 2n phase layers: local-search programming reliably exceeds
      // F = 0.99 only with ~2x parameter redundancy over the n^2 DOF
      // (bench_e1_expressivity sweeps this crossover explicitly).
      return fldzhyan_layout(n, 2 * n);
    case Architecture::kRedundant: return redundant_layout(n, extra_columns);
  }
  throw std::invalid_argument("make_layout: unknown architecture");
}

bool has_analytic_decomposition(Architecture a) {
  return a != Architecture::kFldzhyan;
}

namespace {

/// Fold a near-diagonal residue D = target * E^dagger into the trailing
/// output PhaseColumn so analytic programming matches `target` exactly
/// (absorbs symmetric-cell global phases and redundant-column residues).
void fold_diagonal_residue(PhysicalMesh& mesh, const CMat& target) {
  const CMat e = mesh.ideal_transfer();
  CMat e_adj;
  lina::adjoint_into(e_adj, e);
  CMat residue;
  lina::mul_into(residue, target, e_adj);
  // Verify the residue is diagonal enough to absorb.
  const std::size_t n = residue.rows();
  double offdiag = 0.0;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if (r != c) offdiag = std::max(offdiag, std::abs(residue(r, c)));
  if (offdiag > 1e-6) return;  // nothing safe to fold
  // The trailing PhaseColumn occupies the last n phase slots.
  const std::size_t base = mesh.phase_count() - n;
  for (std::size_t k = 0; k < n; ++k)
    mesh.set_phase(base + k, mesh.phase(base + k) + std::arg(residue(k, k)));
}

/// Program analytic phases for architectures that have a decomposition.
void program_analytic(Architecture a, PhysicalMesh& mesh, const CMat& target,
                      ProgramScratch& ws) {
  const std::size_t n = target.rows();
  ProgrammedMesh& pm = ws.pm;
  switch (a) {
    case Architecture::kReck:
      reck_decompose(target, phot::MziStyle::kStandard, ws.decompose, pm);
      mesh.program(pm.phases);
      break;
    case Architecture::kClements:
      clements_decompose(target, phot::MziStyle::kStandard, ws.decompose, pm);
      mesh.program(pm.phases);
      break;
    case Architecture::kClementsSym: {
      clements_decompose(target, phot::MziStyle::kSymmetric, ws.decompose, pm);
      mesh.program(pm.phases);
      break;
    }
    case Architecture::kRedundant: {
      clements_decompose(target, phot::MziStyle::kStandard, ws.decompose, pm);
      // Redundant layout = Clements columns + extra columns before the
      // output phases. Extra cells are parked in the bar state
      // (theta = pi) whose diagonal sign residue the fold below absorbs.
      std::vector<double>& phases = ws.phases;
      phases.assign(mesh.phase_count(), 0.0);
      const std::size_t clements_cells = 2 * pm.layout.mzi_count();
      for (std::size_t k = 0; k < clements_cells; ++k)
        phases[k] = pm.phases[k];
      for (std::size_t k = clements_cells; k + n < phases.size(); k += 2)
        phases[k] = phot::kPi;  // theta = pi -> bar state
      // Output phase screen from the Clements program.
      for (std::size_t k = 0; k < n; ++k)
        phases[phases.size() - n + k] = pm.phases[pm.phases.size() - n + k];
      mesh.program(phases);
      break;
    }
    case Architecture::kFldzhyan:
      throw std::logic_error("program_analytic: fldzhyan has no analytic form");
  }
  fold_diagonal_residue(mesh, target);
}

}  // namespace

double program_for_target(Architecture a, PhysicalMesh& mesh,
                          const CMat& target, bool recalibrate,
                          const CalibrationOptions& opt) {
  ProgramScratch scratch;
  return program_for_target(a, mesh, target, recalibrate, opt, scratch);
}

double program_for_target(Architecture a, PhysicalMesh& mesh,
                          const CMat& target, bool recalibrate,
                          const CalibrationOptions& opt,
                          ProgramScratch& scratch) {
  if (has_analytic_decomposition(a)) {
    program_analytic(a, mesh, target, scratch);
  } else {
    // Universality programming on an ideal twin (no fabrication errors),
    // then transfer the phases to the physical die.
    PhysicalMesh twin(mesh.layout(), MeshErrorModel{});
    CalibrationOptions twin_opt = opt;
    if (twin_opt.restarts < 2) twin_opt.restarts = 2;
    calibrate(twin, target, twin_opt);
    mesh.program(twin.phases());
  }
  if (recalibrate) calibrate(mesh, target, opt);
  return CMat::fidelity(target, mesh.transfer());
}

EnsembleResult haar_ensemble_fidelity(Architecture a, std::size_t n,
                                      const MeshErrorModel& errors,
                                      int samples, bool recalibrate,
                                      std::uint64_t seed,
                                      const CalibrationOptions& opt) {
  EnsembleResult out;
  lina::Rng rng(seed);
  for (int s = 0; s < samples; ++s) {
    MeshErrorModel em = errors;
    em.seed = rng.fork().engine()();  // fresh die per sample
    PhysicalMesh mesh(make_layout(a, n), em);
    const CMat target = lina::haar_unitary(n, rng);
    const double f = program_for_target(a, mesh, target, recalibrate, opt);
    out.fidelity.add(f);
    out.infidelity.add(std::max(0.0, 1.0 - f));
  }
  return out;
}

}  // namespace aspen::mesh
