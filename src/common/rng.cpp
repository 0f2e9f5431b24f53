#include "common/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace drai {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.Next();
}

uint64_t Rng::UniformU64(uint64_t n) {
  if (n == 0) throw std::invalid_argument("UniformU64: n must be > 0");
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  if (lo > hi) throw std::invalid_argument("UniformInt: lo > hi");
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextU64());  // full range
  return lo + static_cast<int64_t>(UniformU64(span));
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1, u2;
  do {
    u1 = UniformDouble();
  } while (u1 <= 1e-300);
  u2 = UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::Exponential(double rate) {
  if (rate <= 0) throw std::invalid_argument("Exponential: rate must be > 0");
  double u;
  do {
    u = UniformDouble();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

uint64_t Rng::Poisson(double lambda) {
  if (lambda < 0) throw std::invalid_argument("Poisson: lambda must be >= 0");
  if (lambda == 0) return 0;
  if (lambda > 64) {
    // Normal approximation with continuity correction; adequate for workload
    // generation where lambda is a sample count.
    const double v = Normal(lambda, std::sqrt(lambda));
    return v <= 0 ? 0 : static_cast<uint64_t>(v + 0.5);
  }
  const double l = std::exp(-lambda);
  uint64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= UniformDouble();
  } while (p > l);
  return k - 1;
}

size_t Rng::Categorical(std::span<const double> weights) {
  double total = 0;
  for (double w : weights) {
    if (w < 0) throw std::invalid_argument("Categorical: negative weight");
    total += w;
  }
  if (total <= 0) throw std::invalid_argument("Categorical: all-zero weights");
  double x = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0) return i;
  }
  return weights.size() - 1;  // floating-point edge
}

Rng Rng::Split() { return Rng(NextU64()); }

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  if (k > n) throw std::invalid_argument("sample k > n");
  // Partial Fisher–Yates over an index vector; O(n) memory, fine for the
  // dataset sizes drai handles in-memory.
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + UniformU64(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace drai
