#pragma once
/// \file complex_matrix.hpp
/// Dense complex matrix / vector types used throughout ASPEN.
///
/// Photonic meshes are described by N x N complex transfer matrices with
/// N <= 64 for every experiment in the paper, so a simple row-major dense
/// representation is the right tool: cache-friendly, no expression
/// templates, trivially verifiable.

#include <complex>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace aspen::lina {

using cplx = std::complex<double>;

/// Dense complex column vector.
class CVec {
 public:
  CVec() = default;
  explicit CVec(std::size_t n) : data_(n, cplx{0.0, 0.0}) {}
  CVec(std::initializer_list<cplx> xs) : data_(xs) {}

  /// Reshape to `n` entries, zero-filled. Keeps the allocation when the
  /// capacity suffices (scratch-buffer reuse in hot loops).
  void resize(std::size_t n) { data_.assign(n, cplx{0.0, 0.0}); }

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] cplx& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const cplx& operator[](std::size_t i) const { return data_[i]; }

  [[nodiscard]] double norm() const;           ///< Euclidean (L2) norm.
  [[nodiscard]] double power() const;          ///< Sum of |x_i|^2 (optical power).

  [[nodiscard]] std::vector<cplx>& raw() { return data_; }
  [[nodiscard]] const std::vector<cplx>& raw() const { return data_; }

 private:
  std::vector<cplx> data_;
};

/// Inner product <a, b> = sum conj(a_i) * b_i.
[[nodiscard]] cplx dot(const CVec& a, const CVec& b);
/// Max |a_i - b_i| over all entries.
[[nodiscard]] double max_abs_diff(const CVec& a, const CVec& b);

/// Dense row-major complex matrix.
class CMat {
 public:
  CMat() = default;
  CMat(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, cplx{0.0, 0.0}) {}

  /// Reshape to rows x cols, zero-filled. Keeps the allocation when the
  /// capacity suffices (scratch-buffer reuse in hot loops).
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, cplx{0.0, 0.0});
  }

  /// Identity matrix of size n.
  [[nodiscard]] static CMat identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] cplx& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const cplx& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] CMat operator*(const CMat& rhs) const;
  [[nodiscard]] CVec operator*(const CVec& v) const;
  [[nodiscard]] CMat operator+(const CMat& rhs) const;
  [[nodiscard]] CMat operator-(const CMat& rhs) const;
  [[nodiscard]] CMat scaled(cplx s) const;

  /// Conjugate transpose.
  [[nodiscard]] CMat adjoint() const;

  [[nodiscard]] double frobenius() const;

  /// ||A - B||_max: largest entry-wise absolute difference.
  [[nodiscard]] double max_abs_diff(const CMat& rhs) const;

  /// True when ||A A† - I||_max < tol.
  [[nodiscard]] bool is_unitary(double tol = 1e-9) const;

  /// Matrix fidelity F = |tr(A† B)| / sqrt(tr(A†A) tr(B†B)) in [0, 1].
  /// F = 1 iff B = c A for a complex scalar c (global phase / gain is
  /// irrelevant for interferometer comparisons).
  [[nodiscard]] static double fidelity(const CMat& a, const CMat& b);

  /// Relative Frobenius error ||A - B||_F / ||A||_F.
  [[nodiscard]] static double rel_error(const CMat& a, const CMat& b);

  /// Extract / replace a column as a vector.
  [[nodiscard]] CVec col(std::size_t c) const;
  void set_col(std::size_t c, const CVec& v);

  [[nodiscard]] std::vector<cplx>& raw() { return data_; }
  [[nodiscard]] const std::vector<cplx>& raw() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<cplx> data_;
};

/// Left-multiplies rows (i, j) of `m` in place by the 2x2 matrix
/// [[a, b], [c, d]] — the core operation when embedding an MZI acting on a
/// pair of adjacent waveguides into an N-port transfer matrix.
void apply_two_mode_left(CMat& m, std::size_t i, std::size_t j, cplx a,
                         cplx b, cplx c, cplx d);

/// Right-multiplies columns (i, j) of `m` in place by [[a, b], [c, d]].
void apply_two_mode_right(CMat& m, std::size_t i, std::size_t j, cplx a,
                          cplx b, cplx c, cplx d);

// -- Allocation-free in-place kernels -------------------------------------
// The batched MVM/GEMM pipeline and the mesh transfer cache call these in
// tight loops; `out` is resized in place (no allocation once warm) and must
// not alias an input.

/// out = a * b, in ikj order so the inner loop runs contiguously through
/// `b` and `out` (zero entries of `a` skipped): the one matrix product
/// kernel; operator* calls it.
void mul_into(CMat& out, const CMat& a, const CMat& b);

/// out = a * x, each row summed in increasing column order: the one
/// matrix-vector kernel; operator* calls it.
void mul_vec_into(CVec& out, const CMat& a, const CVec& x);

/// out = conj(transpose(a)).
void adjoint_into(CMat& out, const CMat& a);

}  // namespace aspen::lina
