#include "stats/running.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace drai::stats {

// The one Welford update: Add and every lane of AddInterleaved (which
// inlines it within this file) run exactly this sequence.
void RunningStats::Add(double x) {
  if (std::isnan(x)) {
    ++nan_count_;
    return;
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

namespace {

/// Steps K accumulators over values [begin, end) of their streams, the K
/// chains side by side. The accumulators live in locals for the loop, so
/// the compiler can keep them in registers.
template <size_t K>
void AddLanes(RunningStats* const* stats, const ValueStream* streams,
              size_t begin, size_t end) {
  RunningStats s[K];
  for (size_t k = 0; k < K; ++k) s[k] = *stats[k];
  for (size_t i = begin; i < end; ++i) {
    for (size_t k = 0; k < K; ++k) {
      s[k].Add(streams[k].data[i * streams[k].stride]);
    }
  }
  for (size_t k = 0; k < K; ++k) *stats[k] = s[k];
}

/// Calls AddLanes<lanes>, the lane count as a compile-time constant.
template <size_t... Ks>
void AddLanesOf(size_t lanes, RunningStats* const* stats,
                const ValueStream* streams, size_t begin, size_t end,
                std::index_sequence<Ks...>) {
  ((lanes == Ks + 1 ? AddLanes<Ks + 1>(stats, streams, begin, end)
                    : void()),
   ...);
}

/// Beyond eight lanes the accumulators no longer fit in registers.
constexpr size_t kMaxLanes = 8;

/// Steps up to kMaxLanes accumulators over their whole streams.
void AddGroup(std::span<RunningStats* const> stats,
              std::span<const ValueStream> streams) {
  // Longest stream first (an insertion sort of at most kMaxLanes lanes):
  // the lanes still running at any step are then a prefix, which runs as
  // one narrower interleave until the next one ends.
  std::array<RunningStats*, kMaxLanes> lane_stats{};
  std::array<ValueStream, kMaxLanes> lane_streams{};
  for (size_t k = 0; k < stats.size(); ++k) {
    size_t at = k;
    for (; at > 0 && lane_streams[at - 1].n < streams[k].n; --at) {
      lane_stats[at] = lane_stats[at - 1];
      lane_streams[at] = lane_streams[at - 1];
    }
    lane_stats[at] = stats[k];
    lane_streams[at] = streams[k];
  }
  size_t done = 0;
  for (size_t live = stats.size(); live > 0; --live) {
    const size_t end = lane_streams[live - 1].n;
    if (end <= done) continue;
    AddLanesOf(live, lane_stats.data(), lane_streams.data(), done, end,
               std::make_index_sequence<kMaxLanes>{});
    done = end;
  }
}

}  // namespace

void RunningStats::AddInterleaved(std::span<RunningStats* const> stats,
                                  std::span<const ValueStream> streams) {
  if (streams.size() != stats.size()) {
    throw std::invalid_argument(
        "RunningStats::AddInterleaved: one stream per accumulator");
  }
  for (size_t at = 0; at < stats.size(); at += kMaxLanes) {
    const size_t lanes = std::min(kMaxLanes, stats.size() - at);
    AddGroup(stats.subspan(at, lanes), streams.subspan(at, lanes));
  }
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    nan_count_ += other.nan_count_;
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  nan_count_ += other.nan_count_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

double RunningStats::variance() const {
  return count_ >= 2 ? m2_ / static_cast<double>(count_) : 0.0;
}

double RunningStats::sample_variance() const {
  return count_ >= 2 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Serialize(ByteWriter& w) const {
  w.PutU64(count_);
  w.PutU64(nan_count_);
  w.PutF64(mean_);
  w.PutF64(m2_);
  w.PutF64(min_);
  w.PutF64(max_);
}

Result<RunningStats> RunningStats::Deserialize(ByteReader& r) {
  RunningStats s;
  DRAI_RETURN_IF_ERROR(r.GetU64(s.count_));
  DRAI_RETURN_IF_ERROR(r.GetU64(s.nan_count_));
  DRAI_RETURN_IF_ERROR(r.GetF64(s.mean_));
  DRAI_RETURN_IF_ERROR(r.GetF64(s.m2_));
  DRAI_RETURN_IF_ERROR(r.GetF64(s.min_));
  DRAI_RETURN_IF_ERROR(r.GetF64(s.max_));
  return s;
}

}  // namespace drai::stats
