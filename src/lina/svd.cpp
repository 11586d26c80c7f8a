#include "lina/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace aspen::lina {

double SvdResult::sigma_max() const {
  return sigma.empty() ? 0.0 : sigma.front();
}

namespace {

/// One-sided Jacobi for m x n with m >= n: orthogonalizes the columns of a
/// working copy of M by right-multiplying complex plane rotations, which
/// accumulate into V; at convergence column norms are the singular values
/// and normalized columns form U. All storage lives in `ws`/`out`.
void svd_tall(const CMat& m_in, double tol, SvdWorkspace& ws,
              SvdResult& out) {
  const std::size_t rows = m_in.rows();
  const std::size_t n = m_in.cols();
  CMat& a = ws.a;
  CMat& v = ws.v;
  a = m_in;
  v.resize(n, n);
  for (std::size_t i = 0; i < n; ++i) v(i, i) = cplx{1.0, 0.0};

  const double fro = a.frobenius();
  const double off_tol = tol * std::max(fro, 1e-300);
  constexpr int kMaxSweeps = 64;

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool converged = true;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        // Gram entries for the (p, q) column pair.
        double alpha = 0.0;
        double beta = 0.0;
        cplx gamma{0.0, 0.0};
        for (std::size_t r = 0; r < rows; ++r) {
          const cplx ap = a(r, p);
          const cplx aq = a(r, q);
          alpha += std::norm(ap);
          beta += std::norm(aq);
          gamma += std::conj(ap) * aq;
        }
        const double g = std::abs(gamma);
        if (g <= off_tol * 1e-4 || g <= tol * std::sqrt(alpha * beta)) continue;
        converged = false;

        // Phase-align column q so the effective Gram off-diagonal is real
        // positive, then apply a classical real Jacobi rotation.
        const cplx phase = gamma / g;  // e^{i psi}
        const double zeta = (beta - alpha) / (2.0 * g);
        const double t =
            (zeta >= 0.0 ? 1.0 : -1.0) /
            (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;

        // Columns: [ap', aq'] = [ap, aq] * G,
        // G = [[c, s*phase], [-s*conj(phase), c]].
        for (std::size_t r = 0; r < rows; ++r) {
          const cplx ap = a(r, p);
          const cplx aq = a(r, q);
          a(r, p) = c * ap - s * std::conj(phase) * aq;
          a(r, q) = s * phase * ap + c * aq;
        }
        for (std::size_t r = 0; r < n; ++r) {
          const cplx vp = v(r, p);
          const cplx vq = v(r, q);
          v(r, p) = c * vp - s * std::conj(phase) * vq;
          v(r, q) = s * phase * vp + c * vq;
        }
      }
    }
    if (converged) break;
  }

  // Column norms -> singular values; sort descending.
  std::vector<double>& sig = ws.sig;
  sig.assign(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    double s = 0.0;
    for (std::size_t r = 0; r < rows; ++r) s += std::norm(a(r, c));
    sig[c] = std::sqrt(s);
  }
  std::vector<std::size_t>& order = ws.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return sig[x] > sig[y]; });

  out.sigma.resize(n);
  out.u.resize(rows, n);
  out.v.resize(n, n);
  const double rank_tol = 1e-13 * std::max(1.0, fro);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t src = order[k];
    out.sigma[k] = sig[src];
    for (std::size_t r = 0; r < n; ++r) out.v(r, k) = v(r, src);
    if (sig[src] > rank_tol) {
      for (std::size_t r = 0; r < rows; ++r)
        out.u(r, k) = a(r, src) / sig[src];
    } else {
      // Null column: complete an orthonormal basis so U keeps orthonormal
      // columns even for rank-deficient input. Columns 0..k-1 of out.u
      // are exactly the vectors accumulated so far.
      out.sigma[k] = 0.0;
      CVec& cand = ws.cand;
      for (std::size_t seed = 0; seed < rows; ++seed) {
        cand.resize(rows);
        cand[seed] = cplx{1.0, 0.0};
        for (std::size_t j = 0; j < k; ++j) {
          cplx proj{0.0, 0.0};
          for (std::size_t r = 0; r < rows; ++r)
            proj += std::conj(out.u(r, j)) * cand[r];
          for (std::size_t r = 0; r < rows; ++r)
            cand[r] -= proj * out.u(r, j);
        }
        double nsq = 0.0;
        for (std::size_t r = 0; r < rows; ++r) nsq += std::norm(cand[r]);
        const double nv = std::sqrt(nsq);
        if (nv > 0.5) {
          for (std::size_t r = 0; r < rows; ++r) out.u(r, k) = cand[r] / nv;
          break;
        }
      }
    }
  }
}

}  // namespace

void svd(const CMat& m, SvdResult& out, SvdWorkspace& ws, double tol) {
  if (m.rows() == 0 || m.cols() == 0)
    throw std::invalid_argument("svd: empty matrix");
  if (m.rows() >= m.cols()) {
    svd_tall(m, tol, ws, out);
    return;
  }
  // Wide matrix: M = U S V^dagger  <=>  M^dagger = V S U^dagger. Off the
  // hot path (the photonic engines decompose square matrices), so the
  // adjoint temporary is acceptable.
  SvdResult t;
  svd_tall(m.adjoint(), tol, ws, t);
  out.u = std::move(t.v);
  out.v = std::move(t.u);
  out.sigma = std::move(t.sigma);
}

}  // namespace aspen::lina
