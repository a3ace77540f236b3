// Deterministic random number generation.
//
// Library code never touches a global RNG: every stochastic component
// (meter noise, workload phase jitter, scheduler tie-breaking) receives an
// explicitly seeded Rng so experiments replay bit-identically. Benchmarks and
// tests derive child seeds with `fork()` so adding a consumer does not
// perturb the streams of existing ones.
#pragma once

#include <cstdint>
#include <random>

namespace powerapi::util {

/// SplitMix64: tiny, fast, and good enough for seeding / stream splitting.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// The library-wide RNG: a seeded mersenne twister with convenience
/// distributions and deterministic stream splitting.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  std::uint64_t seed() const noexcept { return seed_; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine_);
  }

  /// Gaussian with the given mean and standard deviation (0 returns
  /// `mean`). Draws a standard normal and scales it, which is what
  /// std::normal_distribution(mean, stddev) computes, without its
  /// stddev > 0 precondition.
  double gaussian(double mean, double stddev) {
    std::normal_distribution<double> d(0.0, 1.0);
    return d(engine_) * stddev + mean;
  }

  /// Bernoulli draw with probability p of returning true.
  bool bernoulli(double p) {
    std::bernoulli_distribution d(p);
    return d(engine_);
  }

  /// Exponentially distributed value with the given rate (lambda).
  double exponential(double lambda) {
    std::exponential_distribution<double> d(lambda);
    return d(engine_);
  }

  /// Derives an independent child stream; `salt` distinguishes siblings.
  Rng fork(std::uint64_t salt) const {
    SplitMix64 mix(seed_ ^ (salt * 0x9e3779b97f4a7c15ULL + 0x243f6a8885a308d3ULL));
    return Rng(mix.next());
  }

  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace powerapi::util
