// Metric plumbing shared by the benchmark program and the comparator: the
// one `BENCH {...}` line emitter, metric-name validation, and the order
// statistics every metric is reported with.
//
// A BENCH line is one flat JSON object after the literal prefix "BENCH ",
// the same framing bench_parallel_pipeline and bench_fault_recovery use, so
// one grep collects every bench's output:
//   BENCH {"bench":"drbench","workload":"climate-serial","metric":"wall_s",
//          "unit":"s","value":0.0712,"samples":57,"kind":"end_to_end",
//          "better":"lower","bound":0.1}
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace drbench {

/// Metric names: 1..64 of [A-Za-z0-9_.-], starting with a letter or digit.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

/// One reported number. `bound` < 0 and empty `better` mean "no bound"
/// (per-layer metrics).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  size_t samples = 1;
  std::string kind = "per_layer";  ///< "end_to_end" or "per_layer"
  std::string better;              ///< "lower" / "higher" / ""
  double bound = -1;
};

/// Print `m` as one BENCH line. Returns false (and prints nothing) for an
/// invalid name or a non-finite value, so a caller can fail the run.
inline bool Emit(const std::string& workload, const Metric& m) {
  if (!ValidMetricName(m.name) || !ValidMetricName(workload) ||
      !std::isfinite(m.value)) {
    std::fprintf(stderr, "drbench: refusing to emit metric '%s' = %g\n",
                 m.name.c_str(), m.value);
    return false;
  }
  std::printf(
      "BENCH {\"bench\":\"drbench\",\"workload\":\"%s\",\"metric\":\"%s\","
      "\"unit\":\"%s\",\"value\":%.9g,\"samples\":%zu,\"kind\":\"%s\"",
      workload.c_str(), m.name.c_str(), m.unit.c_str(), m.value, m.samples,
      m.kind.c_str());
  if (!m.better.empty()) std::printf(",\"better\":\"%s\"", m.better.c_str());
  if (m.bound >= 0) std::printf(",\"bound\":%g", m.bound);
  std::printf("}\n");
  return true;
}

/// Quantile by linear interpolation between closest ranks (the "inclusive"
/// method); q in [0, 1]. Empty input yields 0.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// The highest order statistic that still has at least ten samples above
/// it: the 11th largest value (the maximum when fewer than 11 samples).
inline double Tail(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

}  // namespace drbench
