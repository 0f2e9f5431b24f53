#include "core/pipeline.hpp"

#include "core/partitioner.hpp"

namespace drai::core {

namespace {
PipelineReport FailedReport(Status error) {
  PipelineReport report;
  report.ok = false;
  report.error = std::move(error);
  return report;
}
}  // namespace

Pipeline::Pipeline(std::string name, ExecutionOptions options)
    : plan_(std::move(name)), executor_(std::move(options)) {}

Pipeline& Pipeline::Add(std::unique_ptr<Stage> stage, ExecutionHint hint,
                        ParallelSpec spec) {
  plan_.Add(std::move(stage), hint, spec);
  return *this;
}

Pipeline& Pipeline::Add(std::string name, StageKind kind, LambdaStage::Fn fn) {
  plan_.Add(std::move(name), kind, std::move(fn));
  return *this;
}

Pipeline& Pipeline::Add(std::string name, StageKind kind, ExecutionHint hint,
                        LambdaStage::Fn fn, ParallelSpec spec) {
  plan_.Add(std::move(name), kind, hint, std::move(fn), spec);
  return *this;
}

Pipeline& Pipeline::Add(std::string name, StageKind kind, ExecutionHint hint,
                        LambdaStage::Fn before, LambdaStage::Fn fn,
                        LambdaStage::Fn after, ParallelSpec spec) {
  plan_.Add(std::move(name), kind, hint, std::move(before), std::move(fn),
            std::move(after), spec);
  return *this;
}

Pipeline& Pipeline::WithRetry(RetryPolicy policy) {
  plan_.WithRetry(std::move(policy));
  return *this;
}

Pipeline& Pipeline::WithDeadline(DeadlinePolicy policy) {
  plan_.WithDeadline(policy);
  return *this;
}

Pipeline& Pipeline::WithOverlap(OverlapPolicy policy) {
  plan_.WithOverlap(policy);
  return *this;
}

PipelineReport Pipeline::Run(DataBundle& bundle) {
  ++runs_;
  return RunFrom(bundle, 0);
}

PipelineReport Pipeline::RunFrom(DataBundle& bundle, size_t start_stage) {
  ExecutorRunScope scope;
  scope.pipeline_name = plan_.name();
  scope.run_index = runs_;
  scope.provenance =
      executor_.options().capture_provenance ? &provenance_ : nullptr;
  scope.last_state = &last_state_;
  scope.start_stage = start_stage;
  return executor_.Run(plan_, bundle, scope);
}

PipelineReport Pipeline::Resume(DataBundle& bundle) {
  const ExecutionOptions& options = executor_.options();
  if (options.checkpoint == nullptr) return Run(bundle);
  auto loaded = options.checkpoint->LoadLatest(plan_.name());
  if (!loaded.ok()) return FailedReport(loaded.status());
  if (!loaded->has_value()) return Run(bundle);  // nothing to resume from
  PipelineCheckpoint cp = std::move(**loaded);
  if (cp.plan_fingerprint != plan_.Fingerprint()) {
    return FailedReport(FailedPrecondition(
        "checkpoint for pipeline '" + plan_.name() +
        "' was written by a structurally different plan; refusing to resume"));
  }
  // Restore the full run state the checkpoint captured. Provenance and the
  // lineage cursor must come back too: downstream stages embed the
  // provenance hash in their outputs, so resuming with a fresh graph would
  // produce different shards than the uninterrupted run.
  bundle = std::move(cp.bundle);
  if (!cp.provenance.empty()) {
    auto graph = ProvenanceGraph::Parse(cp.provenance);
    if (!graph.ok()) return FailedReport(graph.status());
    provenance_ = std::move(*graph);
  }
  last_state_ = cp.last_state;
  runs_ = cp.run_index;

  // Quarantine re-admission: replay every dropped slice through the stages
  // it missed before the checkpoint, with the original run's RNG streams
  // (slot q.partition + 1, exactly what the partition would have drawn),
  // then merge the records back so the remaining stages process them. Only
  // Run bodies replay — Before/After hooks already ran on the main bundle.
  // A slice whose replay fails again simply stays dropped; either way the
  // outcome lands in PipelineReport::readmissions.
  std::vector<ReadmissionRecord> readmissions;
  const auto& stages = plan_.stages();
  for (QuarantineRecord& q : cp.quarantined) {
    ReadmissionRecord rec;
    rec.stage = q.stage;
    rec.partition = q.partition;
    DataBundle slice = std::move(q.slice);
    // Partitions start from a snapshot of pre-split attrs, and Merge
    // overlays only entries that differ from the target's — hand the slice
    // the *current* attrs so only changes the replay itself makes land.
    slice.attrs = bundle.attrs;
    Status status;
    const size_t end = std::min(cp.stages_done, stages.size());
    for (size_t s = q.stage_index; s < end && status.ok(); ++s) {
      StageContext ctx(
          DeriveStageRng(options.seed, cp.run_index, s, q.partition + 1),
          nullptr);
      ctx.SetPartition(q.slot);
      // No injected fault rides the context: replays run clean.
      status = GuardedRun(*stages[s].stage, slice, ctx,
                          " during re-admission replay");
    }
    if (status.ok()) {
      rec.units = q.slot.hi - q.slot.lo;
      std::vector<BundlePartition> part(1);
      part[0].bundle = std::move(slice);
      part[0].slot = q.slot;
      BundlePartitioner::Merge(bundle, part);
    }
    rec.status = std::move(status);
    readmissions.push_back(std::move(rec));
  }

  PipelineReport report = RunFrom(bundle, cp.stages_done);
  report.readmissions = std::move(readmissions);
  return report;
}

Pipeline::FeedbackReport Pipeline::RunWithFeedback(
    DataBundle& bundle, const std::function<bool(const DataBundle&)>& evaluate,
    const std::function<void(DataBundle&)>& refine, size_t max_iterations) {
  FeedbackReport fb;
  for (size_t i = 0; i < max_iterations; ++i) {
    fb.last_run = Run(bundle);
    fb.iterations = i + 1;
    if (!fb.last_run.ok) return fb;
    if (evaluate(bundle)) {
      fb.converged = true;
      return fb;
    }
    refine(bundle);
  }
  return fb;
}

}  // namespace drai::core
