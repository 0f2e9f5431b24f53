// The traced run's layer replay: each layer's public calls re-run, under
// spans, on the workload's own intermediate data, plus the executor and
// store facts of one real execution.
#pragma once

#include <string>
#include <vector>

#include "metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace drbench {

struct TraceInputs {
  std::string workload;
  Configs configs;
  const Outcome* outcome = nullptr;  ///< one real execution of the workload
  double wall_s = 0;   ///< untraced median wall time, the coverage base
  double seconds = 1;  ///< replay repeatedly for about this long
};

/// Every per-layer metric, in a fixed order (0 for a layer the workload
/// does not exercise). Prints the self-time table and the coverage gap to
/// stderr. Sets `ok` false when a replayed call fails.
std::vector<Metric> TraceLayers(const TraceInputs& in, Tracer& tracer,
                                bool& ok);

}  // namespace drbench
