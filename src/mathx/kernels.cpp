#include "mathx/kernels.h"

namespace powerapi::mathx {

void saturating_delta_rate(const std::uint64_t* cur, const std::uint64_t* prev,
                           const double* seconds, double* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t delta = cur[i] >= prev[i] ? cur[i] - prev[i] : 0;
    out[i] = static_cast<double>(delta) / seconds[i];
  }
}

void axpy(double a, const double* x, double* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void fill(double* out, double value, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = value;
}

}  // namespace powerapi::mathx
