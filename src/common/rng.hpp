// drai/common/rng.hpp
//
// Deterministic, platform-independent random number generation.
//
// All synthetic workloads, splits and augmentations draw from Xoshiro256**
// seeded via SplitMix64, so every experiment in EXPERIMENTS.md reproduces
// bit-for-bit across machines (std::mt19937 distributions are not portable
// across standard libraries; these are).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace drai {

/// SplitMix64 — used to expand a single u64 seed into xoshiro state and to
/// derive independent child seeds (`Split`).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();

 private:
  uint64_t state_;
};

/// Xoshiro256** 1.0 (Blackman & Vigna). Fast, 256-bit state, passes BigCrush.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Raw 64 random bits.
  uint64_t NextU64() {
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, n). n must be > 0.
  uint64_t UniformU64(uint64_t n);
  /// Uniform in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);
  /// Uniform double in [0, 1).
  double UniformDouble() {
    // 53 high bits → [0, 1) with full double precision.
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi). Out of line, unlike the draws around
  /// it: its multiply-add must compile under the library's
  /// -ffp-contract=off, or an FMA-target caller would get other bits.
  double Uniform(double lo, double hi);
  /// Standard normal via Box–Muller (cached second deviate).
  double Normal();
  /// Normal with given mean and stddev.
  double Normal(double mean, double stddev);
  /// Bernoulli with probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }
  /// Exponential with given rate (lambda).
  double Exponential(double rate);
  /// Poisson-distributed count (Knuth for small lambda, normal approx above 64).
  uint64_t Poisson(double lambda);
  /// Sample an index from unnormalized non-negative weights.
  size_t Categorical(std::span<const double> weights);

  /// Derive an independent child generator (stable given call order).
  Rng Split();

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      const size_t j = UniformU64(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// k distinct indices drawn from [0, n) (reservoir when k << n).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t s_[4];
  double cached_normal_ = 0;
  bool has_cached_normal_ = false;
};

}  // namespace drai
