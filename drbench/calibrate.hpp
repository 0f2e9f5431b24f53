// Machine-speed calibration for the end-to-end timings.
//
// On a shared virtual machine the host's speed drifts by tens of percent
// from minute to minute, and every timing drifts with it. The benchmark
// therefore runs a short, fixed loop right before each timed unit of work
// and reports times scaled by
//   kReferenceSeconds / (median of the recent calibration passes),
// i.e. in seconds of a host on which one calibration pass takes exactly
// kReferenceSeconds. A drift that slows both equally cancels; a change to
// the measured code does not, because the loop calls no project code.
// The loop runs on one thread, also for the 4-worker workloads. A pass on
// as many threads as the workload has workers, alone or in a geometric
// mean with the one-thread pass, tracked their wall time no better across
// seeds, and it swung with how many cores the host gave at the moment far
// more than the workloads did: they use about 1.1-1.6 cores on average.
// Raw (unscaled) timings are printed alongside as info lines.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <vector>

#include "metrics.hpp"

namespace drbench {

inline constexpr double kReferenceSeconds = 0.010;

/// Seconds one calibration pass takes right now: 16 sweeps of sin() over a
/// 512 KiB array.
inline double CalibrationSeconds() {
  static std::vector<double> buffer(1 << 16);
  static std::atomic<double> sink{0};
  const auto t0 = std::chrono::steady_clock::now();
  double acc = 0;
  for (int rep = 0; rep < 16; ++rep) {
    for (size_t i = 0; i < buffer.size(); ++i) {
      buffer[i] = std::sin(static_cast<double>(i) * 1e-3 + rep) + acc * 1e-9;
      acc += buffer[i];
    }
  }
  sink.store(acc, std::memory_order_relaxed);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// kReferenceSeconds over the median of the last (up to) seven passes in
/// `passes`: follows host drift, not the jitter of a single pass.
inline double RecentScale(const std::vector<double>& passes) {
  const size_t n = std::min<size_t>(passes.size(), 7);
  const std::vector<double> recent(passes.end() - static_cast<std::ptrdiff_t>(n),
                                   passes.end());
  return kReferenceSeconds / Median(recent);
}

}  // namespace drbench
