#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aspen::nn {

// MLP training and digital inference spend most of their time in this
// loop, and its speed depends on where it lands relative to 32-byte code
// lines (on an x86 Xeon, training ran 20% slower with the entry 16 bytes
// past a line, as the Skylake-family JCC erratum predicts). Pinning the
// entry to a 64-byte boundary keeps the loop from moving with the size
// of unrelated code linked before it.
#if defined(__GNUC__)
__attribute__((aligned(64)))
#endif
Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_)
    throw std::invalid_argument("Matrix::operator*: shape mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j)
        out(i, j) += a * rhs(k, j);
    }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix::operator+: shape mismatch");
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i)
    out.data_[i] = data_[i] + rhs.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix::operator-: shape mismatch");
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i)
    out.data_[i] = data_[i] - rhs.data_[i];
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

Matrix Matrix::scaled(double s) const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * s;
  return out;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (const double x : data_) m = std::max(m, std::abs(x));
  return m;
}

std::vector<double> Matrix::col(std::size_t c) const {
  std::vector<double> v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::set_col(std::size_t c, const std::vector<double>& v) {
  if (v.size() != rows_)
    throw std::invalid_argument("Matrix::set_col: size mismatch");
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

Matrix relu(const Matrix& m) {
  Matrix out = m;
  for (auto& x : out.raw()) x = std::max(0.0, x);
  return out;
}

Matrix relu_grad(const Matrix& pre) {
  Matrix out = pre;
  for (auto& x : out.raw()) x = x > 0.0 ? 1.0 : 0.0;
  return out;
}

Matrix softmax_columns(const Matrix& logits) {
  Matrix out(logits.rows(), logits.cols());
  for (std::size_t c = 0; c < logits.cols(); ++c) {
    double mx = -1e300;
    for (std::size_t r = 0; r < logits.rows(); ++r)
      mx = std::max(mx, logits(r, c));
    double sum = 0.0;
    for (std::size_t r = 0; r < logits.rows(); ++r) {
      out(r, c) = std::exp(logits(r, c) - mx);
      sum += out(r, c);
    }
    for (std::size_t r = 0; r < logits.rows(); ++r) out(r, c) /= sum;
  }
  return out;
}

}  // namespace aspen::nn
