// drai/stats/running.hpp
//
// Single-pass streaming statistics. Normalization at scale cannot afford a
// second pass over terabytes, so drai fits normalizers with Welford's
// algorithm and merges partial results across SPMD ranks (the merge is the
// Chan et al. parallel update, which is exactly what an MPI reduction of
// per-rank moments needs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace drai::stats {

/// One value stream of RunningStats::AddInterleaved: `n` values at
/// data[0], data[stride], data[2 * stride], ...
struct ValueStream {
  const double* data = nullptr;
  size_t n = 0;
  size_t stride = 1;
};

/// Count / mean / variance / min / max in one pass, mergeable.
class RunningStats {
 public:
  /// Absorb one observation. NaN observations are counted separately and
  /// excluded from the moments — missing values must not poison the fit.
  /// Defined out of line, so its multiply-add always compiles under the
  /// library's -ffp-contract=off, whatever flags the caller builds with.
  void Add(double x);

  /// Advance *stats[k] over streams[k] for every k, the accumulators
  /// (which must be distinct) side by side, up to eight at a time. Each
  /// one goes through exactly the Add sequence of its own stream, so the
  /// result is bit-identical to Add per value; only the independent chains
  /// overlap. Streams may differ in length.
  static void AddInterleaved(std::span<RunningStats* const> stats,
                             std::span<const ValueStream> streams);

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
