#include "mathx/matrix.h"

#include <algorithm>
#include <cmath>

namespace powerapi::mathx {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_) throw std::invalid_argument("Matrix: ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

std::span<double> Matrix::row(std::size_t r) {
  check(r, 0);
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  check(r, 0);
  return {data_.data() + r * cols_, cols_};
}

std::vector<double> Matrix::column_vector(std::size_t c) const {
  check(0, c);
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = data_[r * cols_ + c];
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) throw std::invalid_argument("Matrix multiply: shape mismatch");
  Matrix out(rows_, rhs.cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = data_[r * cols_ + k];
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) {
        out(r, c) += a * rhs(k, c);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::multiply(std::span<const double> v) const {
  if (v.size() != cols_) throw std::invalid_argument("Matrix-vector multiply: shape mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) sum += row[c] * v[c];
    out[r] = sum;
  }
  return out;
}

void Matrix::append_row(std::span<const double> values) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = values.size();
  }
  if (values.size() != cols_) throw std::invalid_argument("Matrix::append_row: width mismatch");
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

Matrix Matrix::select_columns(std::span<const std::size_t> keep) const {
  Matrix out(rows_, keep.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t i = 0; i < keep.size(); ++i) {
      out(r, i) = (*this)(r, keep[i]);
    }
  }
  return out;
}

double Matrix::frobenius_norm() const noexcept {
  double sq = 0.0;
  for (double v : data_) sq += v * v;
  return std::sqrt(sq);
}

double Matrix::max_abs_diff(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix::max_abs_diff: shape mismatch");
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::abs(data_[i] - rhs.data_[i]));
  }
  return worst;
}

}  // namespace powerapi::mathx
