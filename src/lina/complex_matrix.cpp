#include "lina/complex_matrix.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace aspen::lina {

double CVec::norm() const { return std::sqrt(power()); }

double CVec::power() const {
  double s = 0.0;
  for (const auto& x : data_) s += std::norm(x);
  return s;
}

cplx dot(const CVec& a, const CVec& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  cplx s{0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) s += std::conj(a[i]) * b[i];
  return s;
}

double max_abs_diff(const CVec& a, const CVec& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("max_abs_diff: size mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

CMat CMat::identity(std::size_t n) {
  CMat m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = cplx{1.0, 0.0};
  return m;
}

CMat CMat::operator*(const CMat& rhs) const {
  CMat out;
  mul_into(out, *this, rhs);
  return out;
}

CVec CMat::operator*(const CVec& v) const {
  CVec out;
  mul_vec_into(out, *this, v);
  return out;
}

CMat CMat::operator+(const CMat& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("add: shape mismatch");
  CMat out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i)
    out.data_[i] = data_[i] + rhs.data_[i];
  return out;
}

CMat CMat::operator-(const CMat& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("sub: shape mismatch");
  CMat out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i)
    out.data_[i] = data_[i] - rhs.data_[i];
  return out;
}

CMat CMat::scaled(cplx s) const {
  CMat out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * s;
  return out;
}

CMat CMat::adjoint() const {
  CMat out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c)
      out(c, r) = std::conj((*this)(r, c));
  return out;
}

double CMat::frobenius() const {
  double s = 0.0;
  for (const auto& x : data_) s += std::norm(x);
  return std::sqrt(s);
}

double CMat::max_abs_diff(const CMat& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::abs(data_[i] - rhs.data_[i]));
  return m;
}

bool CMat::is_unitary(double tol) const {
  if (rows_ != cols_) return false;
  const CMat p = (*this) * adjoint();
  return p.max_abs_diff(identity(rows_)) < tol;
}

double CMat::fidelity(const CMat& a, const CMat& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw std::invalid_argument("fidelity: shape mismatch");
  // tr(A^dagger B) = sum_ij conj(A_ij) B_ij — O(N^2), no product formed.
  cplx t{0.0, 0.0};
  for (std::size_t i = 0; i < a.data_.size(); ++i)
    t += std::conj(a.data_[i]) * b.data_[i];
  const double na = a.frobenius();
  const double nb = b.frobenius();
  if (na == 0.0 || nb == 0.0) return 0.0;
  return std::abs(t) / (na * nb);
}

double CMat::rel_error(const CMat& a, const CMat& b) {
  const double na = a.frobenius();
  if (na == 0.0) return (a.max_abs_diff(b) == 0.0) ? 0.0 : 1.0;
  return (a - b).frobenius() / na;
}

CVec CMat::col(std::size_t c) const {
  CVec v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void CMat::set_col(std::size_t c, const CVec& v) {
  assert(v.size() == rows_);
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

void apply_two_mode_left(CMat& m, std::size_t i, std::size_t j, cplx a,
                         cplx b, cplx c, cplx d) {
  assert(i < m.rows() && j < m.rows() && i != j);
  for (std::size_t col = 0; col < m.cols(); ++col) {
    const cplx mi = m(i, col);
    const cplx mj = m(j, col);
    m(i, col) = a * mi + b * mj;
    m(j, col) = c * mi + d * mj;
  }
}

void mul_into(CMat& out, const CMat& a, const CMat& b) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("mul_into: shape mismatch");
  assert(&out != &a && &out != &b);
  out.resize(a.rows(), b.cols());
  const cplx* adata = a.raw().data();
  const cplx* bdata = b.raw().data();
  cplx* odata = out.raw().data();
  const std::size_t n = b.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const cplx aik = adata[i * a.cols() + k];
      if (aik == cplx{0.0, 0.0}) continue;
      const cplx* brow = &bdata[k * n];
      cplx* orow = &odata[i * n];
      for (std::size_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
    }
  }
}

void mul_vec_into(CVec& out, const CMat& a, const CVec& x) {
  if (a.cols() != x.size())
    throw std::invalid_argument("mul_vec_into: shape mismatch");
  assert(&out != &x);
  out.resize(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    cplx s{0.0, 0.0};
    const cplx* row = &a.raw()[i * a.cols()];
    for (std::size_t j = 0; j < a.cols(); ++j) s += row[j] * x[j];
    out[i] = s;
  }
}

void adjoint_into(CMat& out, const CMat& a) {
  assert(&out != &a);
  out.resize(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      out(c, r) = std::conj(a(r, c));
}

void apply_two_mode_right(CMat& m, std::size_t i, std::size_t j, cplx a,
                          cplx b, cplx c, cplx d) {
  assert(i < m.cols() && j < m.cols() && i != j);
  for (std::size_t row = 0; row < m.rows(); ++row) {
    const cplx mi = m(row, i);
    const cplx mj = m(row, j);
    m(row, i) = mi * a + mj * c;
    m(row, j) = mi * b + mj * d;
  }
}

}  // namespace aspen::lina
