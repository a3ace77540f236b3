// Exact inline replacement for std::llround on the simulator's hot path.
#pragma once

#include <cmath>
#include <cstdint>

namespace powerapi::util {

/// Returns exactly std::llround(x) (round half away from zero) without a
/// libm call for the inputs the simulator produces: 0 <= x < 2^63. There
/// `t = trunc(x)` fits an int64 and `x - t` is exact (Sterbenz for t >= 1;
/// x itself for t == 0; 0 once x >= 2^52, where every double is an
/// integer), so comparing the fraction with 0.5 decides the tie the same
/// way llround does. Negative, NaN and out-of-range inputs take
/// std::llround itself.
inline long long llround_fast(double x) noexcept {
  if (!(x >= 0.0 && x < 0x1p63)) return std::llround(x);
  const auto t = static_cast<long long>(x);
  return x - static_cast<double>(t) >= 0.5 ? t + 1 : t;
}

}  // namespace powerapi::util
