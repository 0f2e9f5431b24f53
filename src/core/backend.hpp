// drai/core/backend.hpp
//
// ExecutionBackend — where a plan's partitions actually run. The scheduler
// (core/executor.hpp) decides *what* to run per partition and how results
// merge; a backend only decides *where* the per-partition work executes:
//
//   ThreadBackend  partitions fan out across a par::ThreadPool (the
//                  workstation path; shares the process pool by default)
//   SpmdBackend    partitions scatter across par::RunSpmd ranks (the MPI
//                  programming model); each rank runs its block-cyclic
//                  share, the ranks agree on the quarantined set, and a
//                  closing barrier ends the map
//
// On both backends workers and ranks are in-process threads: `run(p)`
// writes partition p's outcome in place, and the scheduler reads it after
// Map returns.
//
// Both backends honor the determinism contract: the partition count, the
// per-partition RNG streams, and the merge order are fixed by the plan and
// the data, so shard bytes and provenance hashes are identical for any
// backend at any worker count / world size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

namespace drai::par {
class ThreadPool;
}  // namespace drai::par

namespace drai::core {

/// Which execution substrate runs parallel stages.
enum class Backend : uint8_t {
  kThread = 0,  ///< par::ThreadPool workers (default)
  kSpmd = 1,    ///< par::RunSpmd ranks over the in-process Communicator
};

std::string_view BackendName(Backend b);

/// One parallel map the scheduler hands to a backend: invoke `run(p)`
/// exactly once for every partition p in [0, n_parts). `run` never throws
/// and is safe to call concurrently for distinct p (partitions own
/// disjoint state). An overlap window is one map over its root partitions:
/// `run(p)` streams root p through every level of the window depth-first,
/// so a backend never sees work discovered during the map. `run(p)` writes
/// p's outcome (status, metrics, provenance notes, reduction partials)
/// straight into scheduler memory, so a backend moves no outcome bytes.
struct PartitionTask {
  size_t n_parts = 0;
  std::function<void(size_t)> run;
  /// Optional quarantine probe: after `run(p)`, reports whether partition p
  /// was dropped by retry exhaustion. When set, a distributed backend must
  /// bring every rank to agreement on the dropped set (par::AgreeQuarantine)
  /// before returning, so all ranks apply the same degraded merge; on the
  /// scheduler's rank it is also re-read for every partition after the
  /// closing barrier as a cross-check.
  /// Null when no stage in the group can quarantine.
  std::function<bool(size_t)> quarantined;
  /// Bound on every blocking Communicator wait during this map (SPMD only;
  /// thread backends have no collectives). 0 = unbounded. When a rank is
  /// stuck, every other rank surfaces par::DeadlineExceededError together
  /// instead of deadlocking in the scatter, the quarantine agreement or the
  /// closing barrier.
  double collective_timeout_ms = 0.0;
};

/// Strategy interface: execute a PartitionTask. A backend decides only
/// where partitions run; the plan fixes their count and merge order.
/// Implementations may throw (e.g. on a collective deadline); the scheduler
/// converts that into a failing stage status.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  virtual void Map(const PartitionTask& task) = 0;
};

/// Today's thread-pool path, extracted from the pre-split executor.
/// `threads`: 0 = share the process pool (par::GlobalPool), 1 = run
/// partitions inline on the calling thread, N > 1 = a dedicated pool.
class ThreadBackend final : public ExecutionBackend {
 public:
  explicit ThreadBackend(size_t threads);
  ~ThreadBackend() override;

  [[nodiscard]] std::string_view name() const override { return "thread"; }
  void Map(const PartitionTask& task) override;

 private:
  size_t threads_;
  std::unique_ptr<par::ThreadPool> pool_;  ///< only when threads > 1
};

/// SPMD path: every Map launches a fixed-size rank world (par::RunSpmd).
/// Rank 0 scatters the block-cyclic partition assignment, each rank runs
/// its partitions and writes their outcomes in place, then every rank
/// meets at a closing barrier (after par::AgreeQuarantine when the task
/// can quarantine). `ranks`: 0 = one rank per hardware thread.
class SpmdBackend final : public ExecutionBackend {
 public:
  explicit SpmdBackend(size_t ranks);

  [[nodiscard]] std::string_view name() const override { return "spmd"; }
  void Map(const PartitionTask& task) override;

 private:
  size_t ranks_;
};

/// Build the backend an ExecutionOptions selection names. (Declared here,
/// defined in backend.cpp; the executor owns the returned object.)
std::unique_ptr<ExecutionBackend> MakeBackend(Backend backend, size_t workers);

}  // namespace drai::core
