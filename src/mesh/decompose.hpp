#pragma once
/// \file decompose.hpp
/// Analytic unitary-to-phases decompositions for MZI meshes:
///  - Reck et al. (PRL 73, 58 (1994)): triangular mesh, depth 2N-3.
///  - Clements et al. (Optica 3, 1460 (2016)): rectangular mesh, depth N —
///    the architecture of paper Fig. 2b.
///
/// Both return a `ProgrammedMesh`: a MeshLayout (geometry) plus the flat
/// phase vector that programs it. `ideal_transfer` of a PhysicalMesh with
/// a zero error model rebuilds the target to ~1e-10.

#include <vector>

#include "lina/complex_matrix.hpp"
#include "mesh/layout.hpp"

namespace aspen::mesh {

/// A mesh geometry together with phase values for every programmable
/// phase (ordering: columns in order; within an MziColumn cells by top
/// port, theta then phi; PhaseColumns by port index).
struct ProgrammedMesh {
  MeshLayout layout;
  std::vector<double> phases;
};

/// Clements rectangular decomposition of a unitary `u` (throws
/// std::invalid_argument if `u` is not square or not unitary to 1e-8).
/// The returned layout equals `clements_layout(n, style)`.
[[nodiscard]] ProgrammedMesh clements_decompose(
    const lina::CMat& u, phot::MziStyle style = phot::MziStyle::kStandard);

/// Reusable scratch for the workspace-based decomposition overloads. The
/// cell-to-column packing and the per-column phase-slot bases depend only
/// on (ports, style, architecture), so they are cached across calls; the
/// op streams and the working copy of `u` reuse their allocations.
struct DecomposeScratch {
  struct Op {
    int top;  ///< upper port of the pair the cell acts on
    double theta;
    double phi;
  };
  lina::CMat u;                      ///< working copy being nulled
  std::vector<Op> right_ops, left_ops, ordered;
  std::vector<double> out_phases, xi;
  std::vector<lina::cplx> d;         ///< diagonal residue
  // Cached packing (keyed by the layout name, e.g. "clements-8").
  std::string cached_name;
  phot::MziStyle cached_style = phot::MziStyle::kStandard;
  std::vector<std::size_t> cell_cols;  ///< owning column per op
  std::vector<std::size_t> base;       ///< phase-slot base per column
  std::size_t phase_total = 0;
};

/// Workspace-reusing variant: identical phases, writing into `out`
/// (whose layout is kept when it already matches) instead of allocating
/// a fresh ProgrammedMesh per call.
void clements_decompose(const lina::CMat& u, phot::MziStyle style,
                        DecomposeScratch& ws, ProgrammedMesh& out);
/// Reck triangular decomposition into `out`, scratching in `ws`; the
/// layout equals `reck_layout(n, style)`. Throws as clements_decompose.
void reck_decompose(const lina::CMat& u, phot::MziStyle style,
                    DecomposeScratch& ws, ProgrammedMesh& out);

/// Ideal (error-free, lossless) transfer matrix realized by a programmed
/// mesh — the mathematical reference for fidelity metrics.
[[nodiscard]] lina::CMat ideal_transfer(const ProgrammedMesh& pm);

}  // namespace aspen::mesh
