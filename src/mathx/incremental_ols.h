// Streaming least squares for online model calibration.
//
// The offline path (ols.h) factorizes the whole design matrix at once; the
// online path absorbs one (features, watts) row at a time as sensor reports
// pair up with meter readings, and must be able to solve at any moment
// without revisiting old rows. IncrementalOls maintains the same upper-
// triangular R factor and Qᵀb vector a batch Householder QR would produce
// (up to reflector signs), updated per row by Givens rotations — so its
// solution matches mathx::ols to machine precision instead of squaring the
// condition number the way raw normal equations do. The normal-equation
// accumulators (XᵀX, Xᵀy) are kept alongside for the column-subset solves
// the non-negativity clamp needs.
//
// An optional forgetting factor λ ∈ (0, 1] turns the accumulator into
// recursive least squares: each new row first decays all previous rows'
// weight by λ, so a drifting workload re-weights the fit toward recent
// windows without unbounded memory.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mathx/ols.h"

namespace powerapi::mathx {

class IncrementalOls {
 public:
  /// `dimensions` = number of regression columns (fixed for the lifetime).
  explicit IncrementalOls(std::size_t dimensions);

  std::size_t dimensions() const noexcept { return dims_; }
  /// Rows absorbed since construction / clear().
  std::size_t count() const noexcept { return count_; }
  /// Sum of forgetting weights (== count() when λ = 1).
  double effective_weight() const noexcept { return weight_; }

  /// Sets the forgetting factor applied before each subsequent add().
  /// Throws std::invalid_argument outside (0, 1].
  void set_forgetting(double lambda);

  /// Absorbs one observation row. `x` must have exactly dimensions() entries.
  void add(std::span<const double> x, double y);

  /// Drops all absorbed rows (keeps dimensions and forgetting factor).
  void clear();

  /// Rank-deficiency guard: true when enough rows have been absorbed and
  /// the R factor's diagonal is numerically non-singular — i.e. solve()
  /// will not throw. The warmup gate of online calibration.
  bool well_determined() const noexcept;

  /// Solves min ‖A·x − b‖₂ over everything absorbed so far. Matches
  /// mathx::ols on the same rows to machine precision. Throws
  /// std::invalid_argument when underdetermined (count < dimensions) and
  /// std::runtime_error on numerical rank deficiency.
  FitResult solve() const;

  /// Non-negative solve by iterative coefficient clamping, mirroring
  /// mathx::nnls: power formulas must not refund watts per event.
  FitResult solve_nonnegative(std::size_t max_iterations = 32) const;

 private:
  double& r_at(std::size_t row, std::size_t col) noexcept {
    return r_[row * dims_ + col];
  }
  double r_at(std::size_t row, std::size_t col) const noexcept {
    return r_[row * dims_ + col];
  }

  FitResult finish(std::vector<double> coefficients, double ss_res) const;

  std::size_t dims_;
  double lambda_ = 1.0;

  // QR state: R (dims×dims upper triangular, row-major), Qᵀb, and the
  // rotated-out residual sum of squares.
  std::vector<double> r_;
  std::vector<double> qtb_;
  double tail_ss_ = 0.0;

  // Normal-equation shadow (for column-subset solves) and y statistics
  // (for R² without revisiting rows).
  std::vector<double> xtx_;  ///< dims×dims, row-major, symmetric.
  std::vector<double> xty_;
  std::vector<double> row_;  ///< add()'s rotation scratch, dims long.
  double sum_y_ = 0.0;
  double sum_yy_ = 0.0;

  std::size_t count_ = 0;
  double weight_ = 0.0;
};

}  // namespace powerapi::mathx
