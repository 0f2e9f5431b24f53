// drai/core/plan.hpp
//
// Declarative pipeline layer. The paper's abstracted workflow (§3.5):
//
//     ingest -> preprocess -> transform -> structure -> shard
//
// A PipelinePlan is an ordered list of Stages whose kinds must be
// non-decreasing along that canonical axis (a transform can never precede
// an ingest; several stages of the same kind may run in sequence). Each
// stage additionally carries an ExecutionHint telling the executor how it
// may be scheduled:
//
//   kSerial             run once over the whole bundle (default)
//   kRecordParallel     the stage is a pure map over independent records;
//                       the executor may split the bundle and run the stage
//                       on each partition concurrently
//   kPartitionParallel  like kRecordParallel; the historical opt-in for
//                       stage fusion, kept for plans that want to state
//                       fusion-friendliness explicitly
//
// Consecutive parallel stages (either parallel hint) with identical
// ParallelSpecs and no hooks at the interior boundaries are *fused* by the
// executor: split once, run the stage chain per partition, merge once. A
// fused chain skips the interior merge+resplit, so a stage that grows or
// shrinks the partitioned collection hands its successor the original
// partition boundaries rather than freshly rebalanced ones.
//
// The plan only *describes* the work; src/core/executor.hpp schedules it
// and src/core/partitioner.hpp does the bundle splitting/merging.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/cancel.hpp"
#include "common/rng.hpp"
#include "core/bundle.hpp"
#include "core/faults.hpp"
#include "core/provenance.hpp"

namespace drai::core {

/// The five canonical Data Processing Stages (Table 2's columns).
enum class StageKind : uint8_t {
  kIngest = 0,
  kPreprocess = 1,
  kTransform = 2,
  kStructure = 3,
  kShard = 4,
};

std::string_view StageKindName(StageKind k);
inline constexpr StageKind kAllStageKinds[] = {
    StageKind::kIngest, StageKind::kPreprocess, StageKind::kTransform,
    StageKind::kStructure, StageKind::kShard};

/// How a stage may be scheduled by the executor.
enum class ExecutionHint : uint8_t {
  kSerial = 0,
  kRecordParallel = 1,
  kPartitionParallel = 2,
};

std::string_view ExecutionHintName(ExecutionHint h);

/// Which bundle collection a parallel stage is partitioned over.
enum class PartitionAxis : uint8_t {
  kAuto = 0,      ///< pick the largest populated axis at run time
  kExamples,      ///< contiguous runs of bundle.examples
  kSignalSets,    ///< map entries of bundle.signal_sets
  kTableRows,     ///< row ranges of the single table in bundle.tables
  kTensorGroups,  ///< map entries (or '/'-prefix groups) of bundle.tensors
  kBlobs,         ///< map entries of bundle.blobs
  kRange,         ///< an abstract index range [0, range_count) — partitions
                  ///< see only attrs plus their PartitionSlot bounds
};

std::string_view PartitionAxisName(PartitionAxis a);

/// How a parallel stage may consume its predecessor's partitions.
///
///   kBarrier  wait for the predecessor group's full merge (default).
///   kStream   opt in to inter-stage pipelining: when the executor finds the
///             boundary legal (see ComputeOverlapWindows in executor.hpp),
///             this stage starts processing partition p as soon as the
///             predecessor commits p, instead of waiting for the barrier.
///
/// Purely an optimization hint: output bytes, provenance, and metrics
/// ordering are identical either way, and an illegal boundary silently
/// falls back to the barrier.
enum class OverlapPolicy : uint8_t {
  kBarrier = 0,
  kStream = 1,
};

std::string_view OverlapPolicyName(OverlapPolicy p);

/// Partitioning parameters for a parallel stage. The number of partitions
/// is a function of the *data* and the grain only — never of the worker
/// count — so results and provenance are identical for any thread count.
struct ParallelSpec {
  PartitionAxis axis = PartitionAxis::kAuto;
  /// Units (examples / rows / keys / indices) per partition; 0 = per-axis
  /// default (see BundlePartitioner::DefaultGrain).
  size_t grain = 0;
  /// kRange only: size of the index domain. 0 = read `range_attr` from the
  /// bundle's attrs instead.
  size_t range_count = 0;
  std::string range_attr = "drai/range";
  /// kTensorGroups only: group keys by the prefix before the last '/'
  /// ("norm@t0003/t2m" -> group "norm@t0003") so related tensors stay in
  /// one partition. Off by default: every key is its own unit.
  bool group_by_prefix = false;

  friend bool operator==(const ParallelSpec& a, const ParallelSpec& b) {
    return a.axis == b.axis && a.grain == b.grain &&
           a.range_count == b.range_count && a.range_attr == b.range_attr &&
           a.group_by_prefix == b.group_by_prefix;
  }
};

/// Per-stage failure handling. With the default policy a failing partition
/// fails the run, exactly as before retry existed. Raising max_attempts
/// makes the scheduler re-run a failed partition against a pristine copy of
/// its slice — same RNG stream, so a successful retry is byte-identical to
/// a fault-free run. Setting `quarantine` lets the run degrade instead of
/// fail once attempts are exhausted: the partition's records are dropped
/// from the merge and tallied in PipelineReport::quarantined. Serial stages
/// honor max_attempts (whole-bundle snapshot) but never quarantine.
struct RetryPolicy {
  /// Total tries per (stage, partition), including the first. 1 = no retry.
  size_t max_attempts = 1;
  /// Deterministic capped exponential backoff before attempt k+1:
  /// min(backoff_base_ms * 2^(k-1), backoff_cap_ms). 0 = no wait.
  double backoff_base_ms = 0.0;
  double backoff_cap_ms = 100.0;
  /// Drop the partition instead of failing the run when attempts exhaust.
  bool quarantine = false;
  /// Codes worth re-running. Empty = Status::IsRetryable() (transient I/O).
  /// Include kInternal to also retry crashes (thrown exceptions).
  std::vector<StatusCode> retryable_codes;

  [[nodiscard]] bool ShouldRetry(const Status& status) const {
    if (status.ok()) return false;
    if (retryable_codes.empty()) return status.IsRetryable();
    for (StatusCode c : retryable_codes) {
      if (status.code() == c) return true;
    }
    return false;
  }
  /// Backoff before re-running attempt `next_attempt` (2-based).
  [[nodiscard]] double BackoffMs(size_t next_attempt) const {
    if (backoff_base_ms <= 0.0) return 0.0;
    double ms = backoff_base_ms;
    for (size_t a = 2; a < next_attempt && ms < backoff_cap_ms; ++a) ms *= 2;
    return ms < backoff_cap_ms ? ms : backoff_cap_ms;
  }
};

/// Per-stage time-based failure handling, complementing RetryPolicy's
/// fail-stop handling. All limits are per attempt and in milliseconds;
/// 0 disables that limit.
///
///   soft_ms        straggler threshold: past it the watchdog may launch a
///                  speculative re-execution of the partition from its
///                  pristine slice (first copy to commit wins; the loser is
///                  cancelled — byte-identical because both copies run the
///                  same RNG stream on the same input).
///   hard_ms        cancel threshold: the watchdog trips the attempt's
///                  CancelToken; the attempt surfaces kDeadlineExceeded
///                  (retryable) and replays under the stage's RetryPolicy
///                  from the pristine slice, exactly like a failed one.
///   collective_ms  SPMD only: bound on every blocking Communicator wait
///                  during this stage's group, so a stuck rank cannot
///                  deadlock the assignment scatter, AgreeQuarantine or the
///                  closing barrier — all waiting ranks surface
///                  kDeadlineExceeded together.
///
/// Cancellation is cooperative: a cancelled attempt unwinds at the next
/// `ctx.Cancelled()` poll (or cancellable sleep); a stage body that never
/// polls and never sleeps runs to completion and merely loses the commit.
struct DeadlinePolicy {
  double soft_ms = 0.0;
  double hard_ms = 0.0;
  double collective_ms = 0.0;

  [[nodiscard]] bool active() const {
    return soft_ms > 0.0 || hard_ms > 0.0 || collective_ms > 0.0;
  }
};

/// Where a StageContext sits in a partitioned run. For serial stages (and
/// the Before/After hooks) this is the identity slot {0, 1, 0, 0}.
struct PartitionSlot {
  size_t index = 0;  ///< which partition [0, count)
  size_t count = 1;  ///< total partitions for this stage
  size_t lo = 0;     ///< first unit index covered (axis-dependent)
  size_t hi = 0;     ///< one past the last unit index
};

/// Execution context handed to every stage: deterministic randomness,
/// provenance recording, and free-form parameters. The executor clears
/// params/counts between stages so notes never leak across activities.
class StageContext {
 public:
  StageContext(Rng rng, ProvenanceGraph* provenance)
      : rng_(rng), provenance_(provenance) {}

  Rng& rng() { return rng_; }
  /// Null when provenance capture is disabled (the ablation bench does
  /// exactly that).
  ProvenanceGraph* provenance() { return provenance_; }

  /// Key-value parameters a stage wants remembered in provenance. Across
  /// partitions the executor merges these in ascending partition order
  /// (last writer wins), so identical notes are safe from any partition.
  void NoteParam(const std::string& key, const std::string& value) {
    params_[key] = value;
  }
  [[nodiscard]] const std::map<std::string, std::string>& params() const {
    return params_;
  }
  void ClearParams() { params_.clear(); }

  /// Additive counters: across partitions the executor *sums* these and
  /// records the totals as provenance params — the right merge for tallies
  /// like "despiked" or "rejected".
  void NoteCount(const std::string& key, uint64_t delta) {
    counts_[key] += delta;
  }
  [[nodiscard]] const std::map<std::string, uint64_t>& counts() const {
    return counts_;
  }
  void ClearCounts() { counts_.clear(); }

  /// Serialized reduction partial from a parallel Run (e.g. a normalizer's
  /// streaming observations). The worker or rank that ran the partition
  /// stores it in the scheduler's outcome cell, and the executor hands the
  /// partials to the stage group's AfterMerge hook in ascending
  /// partition order, so a global fit is bit-identical for any backend at
  /// any worker count. One payload per key per partition (last write wins).
  void EmitPartial(const std::string& key, Bytes payload) {
    emitted_partials_[key] = std::move(payload);
  }
  [[nodiscard]] const std::map<std::string, Bytes>& emitted_partials() const {
    return emitted_partials_;
  }
  std::map<std::string, Bytes> TakePartials() {
    return std::move(emitted_partials_);
  }

  /// AfterMerge-hook view of the parallel map's outcome: `Partials(key)`
  /// returns every partition's payload for `key` in ascending partition
  /// order; `MergedCount(key)` the sum of the partitions' NoteCount
  /// tallies. Empty/zero outside an AfterMerge hook.
  [[nodiscard]] const std::vector<Bytes>& Partials(
      const std::string& key) const {
    static const std::vector<Bytes> kEmpty;
    if (gathered_partials_ == nullptr) return kEmpty;
    const auto it = gathered_partials_->find(key);
    return it == gathered_partials_->end() ? kEmpty : it->second;
  }
  [[nodiscard]] uint64_t MergedCount(const std::string& key) const {
    if (gathered_counts_ == nullptr) return 0;
    const auto it = gathered_counts_->find(key);
    return it == gathered_counts_->end() ? 0 : it->second;
  }
  /// Executor-only: install the gathered maps before an AfterMerge hook.
  void SetGathered(
      const std::map<std::string, std::vector<Bytes>>* partials,
      const std::map<std::string, uint64_t>* counts) {
    gathered_partials_ = partials;
    gathered_counts_ = counts;
  }

  [[nodiscard]] const PartitionSlot& partition() const { return partition_; }
  void SetPartition(PartitionSlot slot) { partition_ = slot; }

  /// Which try of this stage on this partition is running (1-based).
  /// Stages may branch on it to make attempt-dependent work observable in
  /// tests; production stages should ignore it.
  [[nodiscard]] size_t attempt() const { return attempt_; }
  void SetAttempt(size_t attempt) { attempt_ = attempt; }

  /// Executor-only: the fault-injection decision for this attempt. The
  /// executor's guarded runner fires it after the stage body returns, so
  /// injection is identical on every backend (the decision travels with the
  /// context, not with any backend state).
  [[nodiscard]] const std::optional<InjectedFault>& injected_fault() const {
    return injected_fault_;
  }
  void SetInjectedFault(std::optional<InjectedFault> fault) {
    injected_fault_ = std::move(fault);
  }

  /// Cooperative cancellation for this attempt. Long-running stage bodies
  /// should poll `Cancelled()` at record granularity and return
  /// `CancelledStatus()` when it trips — that is how a hard deadline or a
  /// lost speculation race actually stops the work.
  [[nodiscard]] bool Cancelled() const { return cancel_.Cancelled(); }
  [[nodiscard]] Status CancelledStatus() const { return cancel_.AsStatus(); }
  [[nodiscard]] const CancelToken& cancel_token() const { return cancel_; }
  void SetCancelToken(CancelToken token) { cancel_ = std::move(token); }

  /// True when this attempt is a speculative re-execution of a straggler.
  /// Environment-local slowness (injected hangs) does not follow the backup
  /// copy; stage semantics must not branch on it.
  [[nodiscard]] bool speculative() const { return speculative_; }
  void SetSpeculative(bool speculative) { speculative_ = speculative; }

  /// Reset for reuse on the next stage: new rng, no leftover notes.
  void Reset(Rng rng) {
    rng_ = rng;
    ClearParams();
    ClearCounts();
    emitted_partials_.clear();
    SetGathered(nullptr, nullptr);
    partition_ = PartitionSlot{};
    attempt_ = 1;
    injected_fault_.reset();
    cancel_ = CancelToken();
    speculative_ = false;
  }

 private:
  Rng rng_;
  ProvenanceGraph* provenance_;
  std::map<std::string, std::string> params_;
  std::map<std::string, uint64_t> counts_;
  std::map<std::string, Bytes> emitted_partials_;
  const std::map<std::string, std::vector<Bytes>>* gathered_partials_ = nullptr;
  const std::map<std::string, uint64_t>* gathered_counts_ = nullptr;
  PartitionSlot partition_;
  size_t attempt_ = 1;
  std::optional<InjectedFault> injected_fault_;
  CancelToken cancel_;
  bool speculative_ = false;
};

/// Interface every pipeline stage implements.
///
/// For parallel stages, Run is invoked once per partition (concurrently);
/// BeforePartition/AfterMerge are serial hooks around the parallel map for
/// global reductions (fit a normalizer, build a lookup table, rebalance).
/// A subclass that overrides a hook must also override the matching
/// HasBeforeHook/HasAfterHook to return true — the executor uses them to
/// decide stage fusion and to skip no-op hook calls.
class Stage {
 public:
  virtual ~Stage() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual StageKind kind() const = 0;
  virtual Status Run(DataBundle& bundle, StageContext& context) = 0;

  /// Serial pre-pass over the full bundle, before any split.
  virtual Status BeforePartition(DataBundle& bundle, StageContext& context) {
    (void)bundle;
    (void)context;
    return Status::Ok();
  }
  /// Serial post-pass over the merged bundle.
  virtual Status AfterMerge(DataBundle& bundle, StageContext& context) {
    (void)bundle;
    (void)context;
    return Status::Ok();
  }
  [[nodiscard]] virtual bool HasBeforeHook() const { return false; }
  [[nodiscard]] virtual bool HasAfterHook() const { return false; }
};

/// Adapter: build a stage from lambdas. `before`/`after` may be null.
class LambdaStage final : public Stage {
 public:
  using Fn = std::function<Status(DataBundle&, StageContext&)>;
  LambdaStage(std::string name, StageKind kind, Fn fn, Fn before = nullptr,
              Fn after = nullptr)
      : name_(std::move(name)),
        kind_(kind),
        fn_(std::move(fn)),
        before_(std::move(before)),
        after_(std::move(after)) {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] StageKind kind() const override { return kind_; }
  Status Run(DataBundle& bundle, StageContext& context) override {
    return fn_(bundle, context);
  }
  Status BeforePartition(DataBundle& bundle, StageContext& context) override {
    return before_ ? before_(bundle, context) : Status::Ok();
  }
  Status AfterMerge(DataBundle& bundle, StageContext& context) override {
    return after_ ? after_(bundle, context) : Status::Ok();
  }
  [[nodiscard]] bool HasBeforeHook() const override {
    return static_cast<bool>(before_);
  }
  [[nodiscard]] bool HasAfterHook() const override {
    return static_cast<bool>(after_);
  }

 private:
  std::string name_;
  StageKind kind_;
  Fn fn_;
  Fn before_;
  Fn after_;
};

/// One stage plus its scheduling annotations.
struct PlannedStage {
  std::unique_ptr<Stage> stage;
  ExecutionHint hint = ExecutionHint::kSerial;
  ParallelSpec parallel;
  RetryPolicy retry;
  DeadlinePolicy deadline;
  /// Boundary with the *previous* stage group; ignored on the first stage.
  OverlapPolicy overlap = OverlapPolicy::kBarrier;
};

/// An ordered, validated list of planned stages. Purely declarative: build
/// one, then hand it to a ParallelExecutor (or the Pipeline facade).
class PipelinePlan {
 public:
  explicit PipelinePlan(std::string name = "pipeline") : name_(std::move(name)) {}

  /// Append a stage. Throws std::invalid_argument if it would violate the
  /// canonical stage ordering.
  PipelinePlan& Add(std::unique_ptr<Stage> stage,
                    ExecutionHint hint = ExecutionHint::kSerial,
                    ParallelSpec spec = {});
  /// Sugar for a serial LambdaStage.
  PipelinePlan& Add(std::string name, StageKind kind, LambdaStage::Fn fn);
  /// Sugar for a parallel LambdaStage.
  PipelinePlan& Add(std::string name, StageKind kind, ExecutionHint hint,
                    LambdaStage::Fn fn, ParallelSpec spec = {});
  /// Full map-reduce sugar: serial `before`, parallel `fn`, serial `after`.
  PipelinePlan& Add(std::string name, StageKind kind, ExecutionHint hint,
                    LambdaStage::Fn before, LambdaStage::Fn fn,
                    LambdaStage::Fn after, ParallelSpec spec = {});

  /// Attach a retry policy to the most recently added stage. Throws
  /// std::logic_error if no stage has been added yet.
  PipelinePlan& WithRetry(RetryPolicy policy);

  /// Attach a deadline policy to the most recently added stage. Throws
  /// std::logic_error if no stage has been added yet, std::invalid_argument
  /// on a negative limit or soft_ms > hard_ms (both armed).
  PipelinePlan& WithDeadline(DeadlinePolicy policy);

  /// Set the overlap policy for the boundary between the most recently
  /// added stage and its predecessor group. Throws std::logic_error if no
  /// stage has been added yet. Not part of Fingerprint(): toggling overlap
  /// must not invalidate checkpoints, because output bytes are identical.
  PipelinePlan& WithOverlap(OverlapPolicy policy);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] size_t NumStages() const { return stages_.size(); }
  [[nodiscard]] const std::vector<PlannedStage>& stages() const {
    return stages_;
  }

  /// Structural identity of the plan (name + per-stage name/kind/hint),
  /// used to refuse resuming a checkpoint against a different plan. Does
  /// not hash stage *code* — renaming a stage is the supported way to
  /// invalidate old checkpoints after a logic change.
  [[nodiscard]] std::string Fingerprint() const;

  /// Whole-plan checks beyond the incremental Add validation: parallel
  /// kRange stages must know their domain size one way or the other.
  [[nodiscard]] Status Validate() const;

 private:
  std::string name_;
  std::vector<PlannedStage> stages_;
};

}  // namespace drai::core
