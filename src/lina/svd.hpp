#pragma once
/// \file svd.hpp
/// Complex singular value decomposition via one-sided Jacobi.
///
/// The photonic MVM engine programs an arbitrary matrix M onto hardware as
/// M = U . diag(sigma) . V^dagger — V^dagger and U map onto two unitary MZI
/// meshes and sigma onto a column of MZI attenuators (Section 4 of the
/// paper; standard since Miller, Photon. Res. 1, 1 (2013)). One-sided
/// Jacobi is chosen because it is simple to verify, unconditionally stable
/// for the small dense matrices used here, and delivers singular vectors
/// orthonormal to machine precision.

#include "lina/complex_matrix.hpp"

namespace aspen::lina {

/// Result of `svd(M, ...)`: M = u * diag(sigma) * v.adjoint().
/// For an m x n input with m >= n: u is m x n with orthonormal columns,
/// v is n x n unitary, sigma is length n, non-negative, descending.
/// For m < n the roles are derived from the decomposition of M^dagger.
struct SvdResult {
  CMat u;
  std::vector<double> sigma;
  CMat v;

  /// Largest singular value (0 for empty sigma).
  [[nodiscard]] double sigma_max() const;
};

/// Reusable scratch for svd(): holds the Jacobi working copy and the
/// bookkeeping vectors so repeated decompositions of same-shape matrices
/// allocate nothing once warm (the photonic weight-programming path
/// decomposes one N x N matrix per set_matrix miss).
struct SvdWorkspace {
  CMat a;                          ///< column-orthogonalized working copy
  CMat v;                          ///< accumulated right rotations
  std::vector<double> sig;         ///< column norms
  std::vector<std::size_t> order;  ///< descending sort permutation
  CVec cand;                       ///< null-space basis completion scratch
};

/// One-sided Jacobi SVD of `m` into `out`, scratching in `ws`, so
/// repeated calls allocate nothing once warm. Throws
/// std::invalid_argument on empty input. `tol` bounds the relative
/// off-diagonal residual at convergence.
void svd(const CMat& m, SvdResult& out, SvdWorkspace& ws, double tol = 1e-12);

}  // namespace aspen::lina
