// drai/core/pipeline.hpp
//
// Pipeline — the user-facing facade over the three execution layers:
//
//   PipelinePlan        (core/plan.hpp)         what to run, in which order,
//                                               with which ExecutionHints
//   BundlePartitioner   (core/partitioner.hpp)  deterministic bundle
//                                               split/merge along one axis
//   ParallelExecutor    (core/executor.hpp)     schedules serial and
//                                               partition-parallel stages
//
// A Pipeline owns one plan, one executor, and the provenance graph that
// accumulates across runs. The original monolithic API (Add / Run /
// RunWithFeedback / provenance) is unchanged; stages may now also be added
// with an ExecutionHint + ParallelSpec to run partition-parallel, and
// ExecutionOptions (core/executor.hpp) picks the backend, the worker count
// (threads; 0 = shared global pool), faults, overlap and checkpointing.
#pragma once

#include <functional>
#include <memory>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/bundle.hpp"
#include "core/checkpoint.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "core/provenance.hpp"

namespace drai::core {

class Pipeline {
 public:
  explicit Pipeline(std::string name, ExecutionOptions options = {});

  /// Append a stage. Throws std::invalid_argument if it would violate the
  /// canonical stage ordering.
  Pipeline& Add(std::unique_ptr<Stage> stage,
                ExecutionHint hint = ExecutionHint::kSerial,
                ParallelSpec spec = {});
  /// Sugar for a serial LambdaStage.
  Pipeline& Add(std::string name, StageKind kind, LambdaStage::Fn fn);
  /// Sugar for a parallel LambdaStage.
  Pipeline& Add(std::string name, StageKind kind, ExecutionHint hint,
                LambdaStage::Fn fn, ParallelSpec spec = {});
  /// Map-reduce sugar: serial `before`, parallel `fn`, serial `after`.
  Pipeline& Add(std::string name, StageKind kind, ExecutionHint hint,
                LambdaStage::Fn before, LambdaStage::Fn fn,
                LambdaStage::Fn after, ParallelSpec spec = {});

  /// Attach a retry policy to the most recently added stage.
  Pipeline& WithRetry(RetryPolicy policy);
  /// Attach a deadline policy to the most recently added stage: a hard
  /// limit cancels a hung attempt (kDeadlineExceeded, retryable under the
  /// stage's RetryPolicy), a soft limit launches a speculative backup of a
  /// straggling partition, and collective_ms bounds SPMD collective waits.
  Pipeline& WithDeadline(DeadlinePolicy policy);
  /// Mark the boundary between the most recently added stage and its
  /// predecessor for inter-stage pipelining (OverlapPolicy::kStream). A
  /// purely-performance hint: if the boundary fails the planner's legality
  /// rules it silently falls back to the barrier, and output is
  /// byte-identical either way.
  Pipeline& WithOverlap(OverlapPolicy policy);

  [[nodiscard]] const std::string& name() const { return plan_.name(); }
  [[nodiscard]] size_t NumStages() const { return plan_.NumStages(); }
  [[nodiscard]] const PipelinePlan& plan() const { return plan_; }

  /// Run every stage in order over the bundle.
  PipelineReport Run(DataBundle& bundle);

  /// Restart a killed run from its last checkpoint: reload the newest
  /// checkpoint from ExecutionOptions::checkpoint, restore the bundle,
  /// provenance graph and lineage cursor it captured, and run only the
  /// remaining stages. Because stage RNG streams and fault decisions key
  /// off absolute stage indices, the resumed run's downstream results are
  /// byte-identical to an uninterrupted run. With no sink configured or no
  /// checkpoint on disk this is a plain Run; a checkpoint whose plan
  /// fingerprint does not match the current plan yields a
  /// kFailedPrecondition report without touching the bundle.
  ///
  /// Quarantine re-admission: partitions the checkpointed run dropped are
  /// replayed from their pristine slices through the stages they missed
  /// (same RNG streams as the original run; Run bodies only, hooks ran on
  /// the main bundle already) and merged back before the remaining stages
  /// run — so records lost to a transient fault rejoin the dataset once
  /// the fault clears. Slices whose replay fails again stay dropped. The
  /// outcome of every replay is tallied in PipelineReport::readmissions.
  PipelineReport Resume(DataBundle& bundle);

  /// Figure 1's iterate arrow: run, call `evaluate` (e.g. train a model,
  /// compute a quality score); if it returns false the caller's `refine`
  /// hook mutates the bundle/parameters and the pipeline reruns, up to
  /// `max_iterations`. Returns the last report plus iteration count.
  struct FeedbackReport {
    PipelineReport last_run;
    size_t iterations = 0;
    bool converged = false;
  };
  FeedbackReport RunWithFeedback(
      DataBundle& bundle, const std::function<bool(const DataBundle&)>& evaluate,
      const std::function<void(DataBundle&)>& refine, size_t max_iterations);

  /// The provenance collected across all runs of this pipeline.
  [[nodiscard]] const ProvenanceGraph& provenance() const {
    return provenance_;
  }

 private:
  /// Run the plan from `start_stage` on as run number runs_.
  PipelineReport RunFrom(DataBundle& bundle, size_t start_stage);

  PipelinePlan plan_;
  ParallelExecutor executor_;
  ProvenanceGraph provenance_;
  std::optional<size_t> last_state_;  ///< latest bundle-state artifact
  uint64_t runs_ = 0;
};

}  // namespace drai::core
