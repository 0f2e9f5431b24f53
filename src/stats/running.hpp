// drai/stats/running.hpp
//
// Single-pass streaming statistics. Normalization at scale cannot afford a
// second pass over terabytes, so drai fits normalizers with Welford's
// algorithm and merges partial results across SPMD ranks (the merge is the
// Chan et al. parallel update, which is exactly what an MPI reduction of
// per-rank moments needs).
#pragma once

#include <cstdint>
#include <limits>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace drai::stats {

/// Count / mean / variance / min / max in one pass, mergeable.
class RunningStats {
 public:
  /// Absorb one observation. NaN observations are counted separately and
  /// excluded from the moments — missing values must not poison the fit.
  void Add(double x);

  /// Merge another accumulator (parallel reduction step).
  void Merge(const RunningStats& other);

  [[nodiscard]] uint64_t count() const { return count_; }
  [[nodiscard]] uint64_t nan_count() const { return nan_count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance (n denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const;
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double sample_variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  /// Wire round-trip for persisting fit statistics alongside shards.
  /// Serialize writes exactly kSerializedBytes.
  static constexpr size_t kSerializedBytes = 6 * sizeof(uint64_t);
  void Serialize(ByteWriter& w) const;
  static Result<RunningStats> Deserialize(ByteReader& r);

 private:
  uint64_t count_ = 0;
  uint64_t nan_count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace drai::stats
