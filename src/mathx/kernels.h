// Elementwise batch kernels for the SoA monitoring hot path.
//
// These are the only loops the feature/model sweep executes per lane, kept
// in one translation unit so the build can apply aggressive vectorization
// flags locally (see CMakeLists: kernels.cpp gets -O3 and an optional
// vectorizer report) without touching the flags of the simulation kernel,
// whose FP codegen is pinned by the golden determinism tests.
//
// Bit-identity contract: every kernel performs the same IEEE operation per
// element as its scalar counterpart, in the same per-element expression
// shape — `double(saturating_delta) / seconds` stays a division (never a
// multiply by reciprocal) and `y += a * x` keeps the single mul-add shape
// the scalar model evaluation uses, so fused contraction is applied (or
// not) identically in both paths. Lane traversal order never changes the
// per-element result because elements are independent.
#pragma once

#include <cstddef>
#include <cstdint>

namespace powerapi::mathx {

/// out[i] = double(cur[i] - prev[i]) / seconds[i], with the subtraction
/// saturating at zero (counter regression reads as a zero delta, matching
/// CounterBlock::delta_since).
void saturating_delta_rate(const std::uint64_t* cur, const std::uint64_t* prev,
                           const double* seconds, double* out, std::size_t n) noexcept;

/// y[i] += a * x[i] — the batched form of one coefficient term of a linear
/// model; sweeping coefficients in the scalar accumulation order keeps the
/// sum bit-identical to per-row evaluation.
void axpy(double a, const double* x, double* y, std::size_t n) noexcept;

void fill(double* out, double value, std::size_t n) noexcept;

}  // namespace powerapi::mathx
