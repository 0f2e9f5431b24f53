// drai/core/executor.hpp
//
// ParallelExecutor — the backend-agnostic scheduler for a PipelinePlan.
//
// Every stage attempt goes through one attempt runner. A serial stage is
// one runner cell (hooks inside the attempt). Parallel stages run as a
// map-reduce: the serial BeforePartition hook, a BundlePartitioner::Split,
// one runner cell per partition (dispatched through an ExecutionBackend —
// thread pool workers or SPMD ranks), a deterministic Merge, then the
// serial AfterMerge hook. Consecutive parallel stages with identical specs
// and no interior hooks are *fused*: split once, run the chain per
// partition, merge once.
//
// The scheduler decides what each partition runs and how outcomes merge;
// the backend (core/backend.hpp) only decides where partitions execute.
// Determinism: partition counts are data-dependent only, per-partition RNG
// streams are derived arithmetically from (seed, run, stage, partition),
// params/counts/partials merge in ascending partition order, and the
// first-error rule picks the lowest (hook, partition-index) position — so
// reports, bundles, and provenance are identical for any backend at any
// worker count or world size.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/plan.hpp"

namespace drai::core {

class CheckpointSink;

/// Per-stage execution record.
struct StageMetrics {
  std::string name;
  StageKind kind = StageKind::kIngest;
  double seconds = 0;
  uint64_t bundle_bytes_before = 0;
  uint64_t bundle_bytes_after = 0;
  Status status;
  /// Scheduling facts (identity values for serial stages).
  ExecutionHint hint = ExecutionHint::kSerial;
  size_t partitions = 1;
  /// Per-partition Run seconds; empty for serial stages.
  std::vector<double> partition_seconds;
  /// Total Run attempts across all partitions (== partitions for a clean
  /// parallel stage, 1 for a clean serial stage, more when retries fired).
  uint64_t attempts = 0;
  /// Partition indices this stage quarantined (attempts exhausted under a
  /// RetryPolicy that allows degradation). Ascending.
  std::vector<size_t> quarantined;
  /// Attempts that ended kDeadlineExceeded (watchdog hard-deadline cancel,
  /// a stage's own Cancelled() poll, or a bounded collective wait).
  uint64_t timeouts = 0;
  /// Straggler speculation under a soft deadline, attributed to the fused
  /// group's head stage: backup copies launched, and how many committed
  /// before their primary.
  uint64_t speculative_launched = 0;
  uint64_t speculative_wins = 0;
  /// True when the stage ran inside an overlap window (inter-stage
  /// pipelining): partitions streamed to the next group as they committed
  /// instead of waiting for the merge barrier. Output bytes and provenance
  /// are identical either way; this only records how the stage was driven.
  bool overlapped = false;

  /// Partition skew: max / median of partition_seconds. 1.0 when balanced
  /// or serial; the straggler diagnosis for the §4 scaling story.
  [[nodiscard]] double PartitionSkew() const;
};

/// One partition dropped from the run instead of failing it.
struct QuarantineRecord {
  std::string stage;      ///< stage whose attempts were exhausted
  size_t stage_index = 0; ///< absolute plan index of that stage
  size_t partition = 0;   ///< partition index within that stage's split
  PartitionSlot slot;     ///< where the slice sat in the partitioned run
  size_t attempts = 0;    ///< tries spent before giving up
  Status error;           ///< the final attempt's failure
  size_t units = 0;       ///< axis units (examples/rows/keys) dropped
  /// The slice exactly as the failing stage first saw it. Persisted with
  /// checkpoints so Pipeline::Resume can re-ingest the dropped records once
  /// the transient fault clears (quarantine re-admission).
  DataBundle slice;
};

/// One quarantined slice re-ingested (or re-attempted) by Pipeline::Resume.
struct ReadmissionRecord {
  std::string stage;     ///< stage the slice was quarantined at
  size_t partition = 0;  ///< its partition index in that stage's split
  size_t units = 0;      ///< axis units re-admitted (0 when status != OK)
  Status status;         ///< OK = records merged back into the bundle
};

struct PipelineReport {
  std::vector<StageMetrics> stages;
  double total_seconds = 0;
  bool ok = true;
  /// First failing status when !ok.
  Status error;
  /// Partitions dropped by retry exhaustion under quarantine policies, in
  /// execution order. A run can be ok with a nonempty quarantine list —
  /// that is the degraded-but-successful outcome the policy opted into.
  std::vector<QuarantineRecord> quarantined;
  /// Quarantined slices a Resume re-ingested from the checkpoint (empty
  /// except on the resume path).
  std::vector<ReadmissionRecord> readmissions;
  /// Inter-stage pipelining facts: how many overlap windows streamed, and a
  /// conservative estimate of the wall-clock saved versus running the same
  /// stage groups back-to-back behind barriers (per level, the busiest
  /// worker's partition seconds under the window's root assignment, summed
  /// over levels, minus the window's measured wall time; split/merge
  /// overhead the barriered run would also pay is not credited).
  uint64_t overlap_windows = 0;
  double overlap_seconds_saved = 0;
  /// Stage checkpoints saved (one per completed stage group when the run
  /// has a CheckpointSink), the file bytes they wrote, and the wall seconds
  /// the saves took, building the checkpoint and failed saves included.
  uint64_t checkpoint_saves = 0;
  uint64_t checkpoint_bytes = 0;
  double checkpoint_seconds = 0;

  [[nodiscard]] double SecondsIn(StageKind kind) const;
  /// "ingest 12% | preprocess 55% | ..." — the §3.2 curation-time story —
  /// followed by per-stage partition skew (max/median partition seconds)
  /// for every parallel stage that recorded partition timings, and by the
  /// checkpoint saves when there were any.
  [[nodiscard]] std::string TimeBreakdown() const;
};

/// The execution knobs, declared once: the executor reads them, the
/// Pipeline facade takes them, and every archetype config exposes the ones
/// it needs (domains::ArchetypeExecution), so each layer sees the same
/// fields under the same names.
struct ExecutionOptions {
  /// Execution substrate for parallel stages: thread pool or SPMD ranks.
  /// Either backend produces byte-identical shards, reports and provenance.
  Backend backend = Backend::kThread;
  /// Parallel workers. kThread: 0 = share the process pool
  /// (par::GlobalPool); 1 = run partitions inline on the calling thread;
  /// N > 1 = a dedicated pool of N workers. kSpmd: the rank world size
  /// (0 = one rank per hardware thread). Output bytes are identical for any
  /// value.
  size_t threads = 0;
  uint64_t seed = 0xD6A1;
  bool capture_provenance = true;
  /// How the report treats stages after the first failure. Either way no
  /// further stage *runs* (a failed bundle would poison its dependents):
  /// true truncates the report at the failure; false records every
  /// remaining stage as kFailedPrecondition "skipped", so a report always
  /// has one entry per planned stage.
  bool fail_fast = true;
  /// Deterministic fault injection (tests/benches). Inactive by default.
  FaultPlan faults;
  /// Deadline applied to stages that do not carry their own DeadlinePolicy
  /// — the safety net that lets a watchdog cancel a hung partition even
  /// when the plan never thought about deadlines. Inactive by default.
  DeadlinePolicy default_deadline;
  /// Master switch for inter-stage pipelining. When true, consecutive
  /// parallel stage groups whose boundary a plan opted into (OverlapPolicy
  /// ::kStream) and that ComputeOverlapWindows proves legal run as one
  /// overlap window: the downstream group starts processing a partition as
  /// soon as the upstream group commits it. Byte-identical output and
  /// provenance versus barriered execution; false forces barriers
  /// everywhere (the differential-testing baseline).
  bool overlap = true;
  /// When set, the executor saves a checkpoint after every successful
  /// stage group (a failed save fails the run), and Pipeline::Resume can
  /// restart a killed run from the last good stage. Not owned.
  CheckpointSink* checkpoint = nullptr;
};

/// Per-run bookkeeping owned by the caller (the Pipeline facade): where to
/// record provenance and how to chain bundle-state lineage across runs.
struct ExecutorRunScope {
  std::string pipeline_name = "pipeline";
  uint64_t run_index = 1;
  /// Null disables provenance capture for this run.
  ProvenanceGraph* provenance = nullptr;
  /// Latest bundle-state artifact, updated as stages complete. May be null.
  std::optional<size_t>* last_state = nullptr;
  /// First plan stage to run (everything before it was already applied to
  /// the bundle — the checkpoint/resume path). Stage indices for RNG
  /// derivation and fault injection stay absolute, so a resumed run
  /// reproduces the original run's streams exactly.
  size_t start_stage = 0;
};

class ParallelExecutor {
 public:
  explicit ParallelExecutor(ExecutionOptions options = {});
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;
  ParallelExecutor(ParallelExecutor&&) noexcept;
  ParallelExecutor& operator=(ParallelExecutor&&) noexcept;

  /// Run every stage of the plan in order over the bundle.
  PipelineReport Run(const PipelinePlan& plan, DataBundle& bundle,
                     const ExecutorRunScope& scope);

  [[nodiscard]] const ExecutionOptions& options() const { return options_; }

 private:
  /// Run one serial stage (hooks included) through the attempt runner.
  void RunSerial(const PipelinePlan& plan, size_t abs, DataBundle& bundle,
                 const ExecutorRunScope& scope, PipelineReport& report);
  /// The group driver: run a fused group (a one-level window) or an overlap
  /// window, whose levels stream. Appends one StageMetrics per stage, in
  /// canonical order, exactly as a barriered run would record them.
  void RunWindow(const PipelinePlan& plan, const struct OverlapWindow& window,
                 DataBundle& bundle, const ExecutorRunScope& scope,
                 PipelineReport& report);
  void RecordStage(const ExecutorRunScope& scope, StageMetrics& metrics,
                   const std::map<std::string, std::string>& params);

  ExecutionOptions options_;
  std::unique_ptr<ExecutionBackend> backend_;
};

/// Consecutive fused groups (levels) whose boundaries all stream; group g
/// spans [group_starts[g], group_starts[g+1]), the last one ends at `last`.
/// The planner emits windows of >= 2 groups; the executor runs a lone fused
/// group as a one-level window.
struct OverlapWindow {
  size_t first = 0;  ///< absolute index of the window's first stage
  size_t last = 0;   ///< one past the window's final stage
  std::vector<size_t> group_starts;
};

/// The planner pass: partition the plan's fused groups into maximal legal
/// overlap windows. A boundary between group A and group B (B's first stage
/// at index b) streams iff ALL of:
///   - options.overlap is on and stages[b].overlap == OverlapPolicy::kStream
///   - both groups are parallel, on the same concrete axis (not kAuto), with
///     the same group_by_prefix (and, for kRange, the same nonzero
///     range_count) — so B's units are A's units
///   - grain(A) is a positive multiple of grain(B): each committed upstream
///     partition re-splits into whole downstream partitions
///   - no AfterMerge hook on A's last stage and no BeforePartition hook on
///     B's first stage (hooks are global barriers by definition)
/// and every stage inside the window additionally has no quarantine policy
/// (quarantine drops are merge-scoped) and no effective soft deadline
/// (speculation's commit cells assume the group barrier). Hard deadlines,
/// retry-without-quarantine, and fault injection all work inside windows.
/// Exposed for tests; the executor calls it on every Run.
std::vector<OverlapWindow> ComputeOverlapWindows(
    const PipelinePlan& plan, const ExecutionOptions& options);

/// The RNG stream for one (run, stage, slot) cell — slot 0 is the serial
/// stage / Before hook, slot p+1 is partition p, slot n_parts+1 the After
/// hook. A pure function of the coordinates (never of worker count or
/// scheduling order); exposed so Resume's quarantine re-admission can
/// replay a partition with the original run's exact stream.
Rng DeriveStageRng(uint64_t seed, uint64_t run, size_t stage, size_t slot);

/// One attempt of `stage.Run`: fires ctx's injected fault after a clean run
/// and turns a throw into kInternal ("stage 'x' threw<suffix>: ...").
Status GuardedRun(Stage&, DataBundle&, StageContext&, std::string_view = {});

/// What a barriered run would pay for one overlap window's levels, the
/// base of PipelineReport::overlap_seconds_saved. Levels run back to back,
/// and a level's wall is its busiest worker's: the largest per-worker sum
/// of the level's partition seconds. Partition q of level g took
/// `level_seconds[g][q]` and descends from root `level_root[g][q]`, which
/// the window ran on worker `root_worker[root]`; the worker that owns a
/// root also runs all of that root's re-split children.
double BarrierLevelSeconds(
    const std::vector<std::vector<double>>& level_seconds,
    const std::vector<std::vector<size_t>>& level_root,
    const std::vector<size_t>& root_worker);

/// One past the last stage of the fused group starting at `first`: the
/// maximal run of parallel stages with identical specs and no hooks at
/// interior boundaries (first + 1 for serial stages). Shared by the
/// executor and the re-admission replay.
size_t FusedGroupEnd(const PipelinePlan& plan, size_t first);

}  // namespace drai::core
