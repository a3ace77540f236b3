// Dense row-major matrix for the regression toolkit.
//
// Model learning works on design matrices of a few thousand rows by a dozen
// columns; a straightforward dense implementation with bounds-checked access
// in debug paths is the right tool. No BLAS dependency.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <vector>

namespace powerapi::mathx {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists; all rows must have equal width.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  static Matrix identity(std::size_t n);


  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    check(r, c);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    check(r, c);
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;

  /// Extracts column `c` as a vector (copy).
  std::vector<double> column_vector(std::size_t c) const;

  Matrix transposed() const;
  Matrix operator*(const Matrix& rhs) const;

  /// Matrix-vector product; `v.size()` must equal `cols()`.
  std::vector<double> multiply(std::span<const double> v) const;

  /// Appends a row; its width must match (or set the width when empty).
  void append_row(std::span<const double> values);

  /// Keeps only the columns listed in `keep`, in that order.
  Matrix select_columns(std::span<const std::size_t> keep) const;

  /// Frobenius norm.
  double frobenius_norm() const noexcept;

  /// Maximum absolute element difference against `rhs` (shape must match).
  double max_abs_diff(const Matrix& rhs) const;

 private:
  void check(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix index out of range");
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace powerapi::mathx
