#include "mathx/incremental_ols.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace powerapi::mathx {

IncrementalOls::IncrementalOls(std::size_t dimensions) : dims_(dimensions) {
  if (dims_ == 0) throw std::invalid_argument("IncrementalOls: zero dimensions");
  r_.assign(dims_ * dims_, 0.0);
  qtb_.assign(dims_, 0.0);
  xtx_.assign(dims_ * dims_, 0.0);
  xty_.assign(dims_, 0.0);
  row_.assign(dims_, 0.0);
}

void IncrementalOls::set_forgetting(double lambda) {
  if (!(lambda > 0.0) || lambda > 1.0) {
    throw std::invalid_argument("IncrementalOls: forgetting factor outside (0, 1]");
  }
  lambda_ = lambda;
}

void IncrementalOls::clear() {
  std::fill(r_.begin(), r_.end(), 0.0);
  std::fill(qtb_.begin(), qtb_.end(), 0.0);
  std::fill(xtx_.begin(), xtx_.end(), 0.0);
  std::fill(xty_.begin(), xty_.end(), 0.0);
  tail_ss_ = 0.0;
  sum_y_ = 0.0;
  sum_yy_ = 0.0;
  count_ = 0;
  weight_ = 0.0;
}

void IncrementalOls::add(std::span<const double> x, double y) {
  if (x.size() != dims_) throw std::invalid_argument("IncrementalOls::add: row length mismatch");

  if (lambda_ != 1.0) {
    const double s = std::sqrt(lambda_);
    for (double& v : r_) v *= s;
    for (double& v : qtb_) v *= s;
    tail_ss_ *= lambda_;
    for (double& v : xtx_) v *= lambda_;
    for (double& v : xty_) v *= lambda_;
    sum_y_ *= lambda_;
    sum_yy_ *= lambda_;
    weight_ *= lambda_;
  }

  // Rotate the new row into R one column at a time (Givens): after column k
  // the row's k-th entry is zero and R's k-th row has absorbed it.
  std::vector<double>& row = row_;
  std::copy(x.begin(), x.end(), row.begin());
  double rhs = y;
  for (std::size_t k = 0; k < dims_; ++k) {
    const double b = row[k];
    if (b == 0.0) continue;
    const double a = r_at(k, k);
    const double rho = std::hypot(a, b);
    const double c = a / rho;
    const double s = b / rho;
    for (std::size_t j = k; j < dims_; ++j) {
      const double rkj = r_at(k, j);
      r_at(k, j) = c * rkj + s * row[j];
      row[j] = -s * rkj + c * row[j];
    }
    const double qk = qtb_[k];
    qtb_[k] = c * qk + s * rhs;
    rhs = -s * qk + c * rhs;
  }
  tail_ss_ += rhs * rhs;  // The component orthogonal to the column space.

  for (std::size_t i = 0; i < dims_; ++i) {
    xty_[i] += x[i] * y;
    for (std::size_t j = 0; j < dims_; ++j) xtx_[i * dims_ + j] += x[i] * x[j];
  }
  sum_y_ += y;
  sum_yy_ += y * y;
  ++count_;
  weight_ += 1.0;
}

bool IncrementalOls::well_determined() const noexcept {
  if (count_ < dims_) return false;
  double max_diag = 0.0;
  for (std::size_t k = 0; k < dims_; ++k) max_diag = std::max(max_diag, std::abs(r_at(k, k)));
  if (max_diag == 0.0) return false;
  for (std::size_t k = 0; k < dims_; ++k) {
    if (std::abs(r_at(k, k)) < 1e-10 * max_diag) return false;
  }
  return true;
}

FitResult IncrementalOls::finish(std::vector<double> coefficients, double ss_res) const {
  FitResult fit;
  fit.coefficients = std::move(coefficients);
  fit.residual_norm = std::sqrt(std::max(0.0, ss_res));
  const double ss_tot = sum_yy_ - sum_y_ * sum_y_ / weight_;
  if (ss_tot <= 0.0) {
    fit.r_squared = ss_res <= 1e-12 * (1.0 + sum_yy_) ? 1.0 : 0.0;
  } else {
    fit.r_squared = 1.0 - ss_res / ss_tot;
  }
  return fit;
}

FitResult IncrementalOls::solve() const {
  if (count_ < dims_) throw std::invalid_argument("IncrementalOls::solve: underdetermined system");

  // Back-substitution with the same singularity guard as the batch path.
  std::vector<double> x(dims_, 0.0);
  for (std::size_t ii = dims_; ii-- > 0;) {
    double sum = qtb_[ii];
    for (std::size_t c = ii + 1; c < dims_; ++c) sum -= r_at(ii, c) * x[c];
    const double diag = r_at(ii, ii);
    if (std::abs(diag) < 1e-12 * (1.0 + std::abs(sum))) {
      throw std::runtime_error("IncrementalOls::solve: numerically singular R");
    }
    x[ii] = sum / diag;
  }
  return finish(std::move(x), tail_ss_);
}

FitResult IncrementalOls::solve_nonnegative(std::size_t max_iterations) const {
  if (count_ < dims_) {
    throw std::invalid_argument("IncrementalOls::solve_nonnegative: underdetermined system");
  }

  // Active-set clamping on the normal-equation shadow: solve the subset via
  // Cholesky, drop the most negative coefficient, repeat — the streaming
  // analogue of mathx::nnls.
  auto solve_subset = [this](const std::vector<std::size_t>& active) {
    const std::size_t n = active.size();
    std::vector<double> chol(n * n, 0.0);
    std::vector<double> rhs(n);
    for (std::size_t i = 0; i < n; ++i) {
      rhs[i] = xty_[active[i]];
      for (std::size_t j = 0; j <= i; ++j) {
        chol[i * n + j] = xtx_[active[i] * dims_ + active[j]];
      }
    }
    double max_diag = 0.0;
    for (std::size_t i = 0; i < n; ++i) max_diag = std::max(max_diag, chol[i * n + i]);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        double sum = chol[i * n + j];
        for (std::size_t k = 0; k < j; ++k) sum -= chol[i * n + k] * chol[j * n + k];
        if (i == j) {
          if (sum < 1e-14 * (1.0 + max_diag)) {
            throw std::runtime_error("IncrementalOls::solve_nonnegative: rank-deficient subset");
          }
          chol[i * n + i] = std::sqrt(sum);
        } else {
          chol[i * n + j] = sum / chol[j * n + j];
        }
      }
    }
    // Forward then backward substitution (L·Lᵀ·x = rhs).
    for (std::size_t i = 0; i < n; ++i) {
      double sum = rhs[i];
      for (std::size_t k = 0; k < i; ++k) sum -= chol[i * n + k] * rhs[k];
      rhs[i] = sum / chol[i * n + i];
    }
    for (std::size_t ii = n; ii-- > 0;) {
      double sum = rhs[ii];
      for (std::size_t k = ii + 1; k < n; ++k) sum -= chol[k * n + ii] * rhs[k];
      rhs[ii] = sum / chol[ii * n + ii];
    }
    return rhs;
  };

  // ‖Ax − b‖² for arbitrary coefficients via the quadratic form — no row
  // replay needed.
  auto residual_ss = [this](const std::vector<double>& b) {
    double quad = 0.0;
    double cross = 0.0;
    for (std::size_t i = 0; i < dims_; ++i) {
      cross += b[i] * xty_[i];
      for (std::size_t j = 0; j < dims_; ++j) quad += b[i] * xtx_[i * dims_ + j] * b[j];
    }
    return sum_yy_ - 2.0 * cross + quad;
  };

  std::vector<std::size_t> active(dims_);
  std::iota(active.begin(), active.end(), 0);
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    if (active.empty()) {
      return finish(std::vector<double>(dims_, 0.0), sum_yy_);
    }
    const std::vector<double> sub = solve_subset(active);
    std::size_t worst_idx = active.size();
    double worst = -1e-12;
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (sub[i] < worst) {
        worst = sub[i];
        worst_idx = i;
      }
    }
    if (worst_idx == active.size()) {
      std::vector<double> coefficients(dims_, 0.0);
      for (std::size_t i = 0; i < active.size(); ++i) coefficients[active[i]] = sub[i];
      const double ss_res = residual_ss(coefficients);
      return finish(std::move(coefficients), ss_res);
    }
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(worst_idx));
  }
  throw std::runtime_error("IncrementalOls::solve_nonnegative: did not converge");
}

}  // namespace powerapi::mathx
