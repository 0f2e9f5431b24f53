#include "core/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "common/strings.hpp"
#include "common/timer.hpp"
#include "core/checkpoint.hpp"
#include "core/partitioner.hpp"
#include "core/watchdog.hpp"
#include "parallel/communicator.hpp"

namespace drai::core {

double StageMetrics::PartitionSkew() const {
  if (partition_seconds.size() <= 1) return 1.0;
  std::vector<double> sorted = partition_seconds;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  if (median <= 0) return 1.0;
  return sorted.back() / median;
}

double PipelineReport::SecondsIn(StageKind kind) const {
  double total = 0;
  for (const StageMetrics& s : stages) {
    if (s.kind == kind) total += s.seconds;
  }
  return total;
}

std::string PipelineReport::TimeBreakdown() const {
  std::string out;
  for (StageKind k : kAllStageKinds) {
    const double s = SecondsIn(k);
    if (s <= 0) continue;
    if (!out.empty()) out += " | ";
    const double pct = total_seconds > 0 ? 100.0 * s / total_seconds : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s %.1f%%",
                  std::string(StageKindName(k)).c_str(), pct);
    out += buf;
  }
  // Partition skew per parallel stage: max/median partition seconds. The
  // executor records partition_seconds for every parallel stage; a skew
  // well above 1 names the straggler stage that caps parallel speedup.
  std::string skew;
  for (const StageMetrics& s : stages) {
    if (s.partition_seconds.size() <= 1) continue;
    if (!skew.empty()) skew += ", ";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s %.2fx", s.name.c_str(),
                  s.PartitionSkew());
    skew += buf;
  }
  if (!skew.empty()) out += " || skew(max/med): " + skew;
  // Time-based fault handling, when any of it fired: deadline-cancelled
  // attempts and straggler speculation outcomes.
  uint64_t timeouts = 0, launched = 0, wins = 0;
  for (const StageMetrics& s : stages) {
    timeouts += s.timeouts;
    launched += s.speculative_launched;
    wins += s.speculative_wins;
  }
  if (timeouts > 0 || launched > 0) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  " || deadlines: %llu timeouts, %llu speculative (%llu won)",
                  static_cast<unsigned long long>(timeouts),
                  static_cast<unsigned long long>(launched),
                  static_cast<unsigned long long>(wins));
    out += buf;
  }
  if (overlap_windows > 0) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  " || overlap: %llu window%s, ~%.2fs saved",
                  static_cast<unsigned long long>(overlap_windows),
                  overlap_windows == 1 ? "" : "s", overlap_seconds_saved);
    out += buf;
  }
  if (checkpoint_saves > 0) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  " || checkpoints: %llu save%s, %.2f MB, %.1f ms",
                  static_cast<unsigned long long>(checkpoint_saves),
                  checkpoint_saves == 1 ? "" : "s",
                  static_cast<double>(checkpoint_bytes) / 1e6,
                  checkpoint_seconds * 1e3);
    out += buf;
  }
  return out;
}

Rng DeriveStageRng(uint64_t seed, uint64_t run, size_t stage, size_t slot) {
  uint64_t x = seed;
  const uint64_t salts[] = {run, static_cast<uint64_t>(stage),
                            static_cast<uint64_t>(slot)};
  for (uint64_t salt : salts) {
    SplitMix64 sm(x ^ (salt * 0x9E3779B97F4A7C15ull + 0xBF58476D1CE4E5B9ull));
    x = sm.Next();
  }
  return Rng(x);
}

size_t FusedGroupEnd(const PipelinePlan& plan, size_t first) {
  const auto& stages = plan.stages();
  size_t j = first + 1;
  if (stages[first].hint == ExecutionHint::kSerial) return j;
  while (j < stages.size() && stages[j].hint != ExecutionHint::kSerial &&
         stages[j].parallel == stages[first].parallel &&
         !stages[j - 1].stage->HasAfterHook() &&
         !stages[j].stage->HasBeforeHook()) {
    ++j;
  }
  return j;
}

Status GuardedRun(Stage& stage, DataBundle& bundle, StageContext& ctx,
                  std::string_view during) {
  try {
    Status status = stage.Run(bundle, ctx);
    // An injected fault fires only after a clean run, modeling a failure at
    // commit time: the bundle (or partition slice) is left mutated, so the
    // retry path must restore a pristine copy to be correct. A genuine
    // stage failure always wins over an injected one.
    if (status.ok() && ctx.injected_fault().has_value()) {
      const InjectedFault& fault = *ctx.injected_fault();
      // An injected hang stalls the commit cooperatively, so a watchdog
      // cancel (hard deadline, lost speculation race) still unwinds the
      // attempt promptly. The delay models *environment*-local slowness —
      // a slow mount, a wedged peer — so it does not follow a speculative
      // backup copy onto its (presumed healthy) worker.
      if (fault.delay_ms > 0 && !ctx.speculative()) {
        if (!SleepUnlessCancelled(fault.delay_ms, ctx.cancel_token())) {
          return ctx.CancelledStatus();
        }
      }
      if (!fault.status.ok()) {
        if (fault.throw_instead) {
          throw std::runtime_error(fault.status.message());
        }
        return fault.status;
      }
    }
    return status;
  } catch (const std::exception& e) {
    return Internal("stage '" + stage.name() + "' threw" +
                    std::string(during) + ": " + e.what());
  } catch (...) {
    return Internal("stage '" + stage.name() +
                    "' threw a non-std exception" + std::string(during));
  }
}

namespace {

/// Deterministic capped backoff between attempts. Wall-clock only; results
/// never depend on it.
void BackoffSleep(const RetryPolicy& retry, size_t next_attempt) {
  const double ms = retry.BackoffMs(next_attempt);
  if (ms <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Render params plus additive counters into one provenance param map.
std::map<std::string, std::string> MergedParams(
    const std::map<std::string, std::string>& params,
    const std::map<std::string, uint64_t>& counts) {
  std::map<std::string, std::string> out = params;
  for (const auto& [k, v] : counts) out[k] = std::to_string(v);
  return out;
}

/// One partition's outcome for one stage of a fused group. Whichever worker
/// or rank ran the partition writes it in place into the scheduler's
/// `results` cell; ranks are in-process threads on every backend.
struct PartResult {
  Status status;
  double seconds = 0;
  uint64_t bytes_after = 0;
  bool ran = false;
  /// Run tries spent on this (stage, partition); 1 when no retry fired.
  uint64_t attempts = 0;
  /// Attempts exhausted under a quarantine policy: the slice's records are
  /// dropped from the merge and the run continues.
  bool quarantined = false;
  /// Attempts that ended kDeadlineExceeded (cancelled or timed out).
  uint64_t timeouts = 0;
  std::map<std::string, std::string> params;
  std::map<std::string, uint64_t> counts;
  std::map<std::string, Bytes> partials;
};

/// Watchdog poll interval: fine enough that the smallest armed limit fires
/// within ~10% of its value, without spinning for generous limits.
double WatchdogPollMs(double min_limit_ms) {
  return std::clamp(min_limit_ms / 10.0, 0.5, 25.0);
}

/// The smallest positive armed limit among the group's policies, for the
/// poll interval above. 0 when nothing is armed.
double MinArmedLimitMs(const std::vector<const DeadlinePolicy*>& policies) {
  double min_ms = 0;
  for (const DeadlinePolicy* d : policies) {
    for (double v : {d->soft_ms, d->hard_ms}) {
      if (v > 0 && (min_ms == 0 || v < min_ms)) min_ms = v;
    }
  }
  return min_ms;
}

/// The grain Split will actually use (ParallelSpec.grain, or the per-axis
/// default) — the planner needs the concrete value for the divisibility
/// rule.
size_t EffectiveGrain(const ParallelSpec& spec) {
  return spec.grain > 0 ? spec.grain
                        : BundlePartitioner::DefaultGrain(spec.axis);
}

const DeadlinePolicy& EffectiveDeadlineOf(const PipelinePlan& plan,
                                          const ExecutionOptions& options,
                                          size_t abs) {
  const PlannedStage& s = plan.stages()[abs];
  return s.deadline.active() ? s.deadline : options.default_deadline;
}

/// Window-membership rules that apply to every stage of a candidate group:
/// quarantine drops are scoped to the group's merge (a streamed partition
/// may already have fed its consumers when attempts exhaust), and soft
/// deadlines drive speculation, whose commit-cell protocol assumes the
/// group barrier. Hard deadlines and plain retry are stream-safe.
bool GroupStreamable(const PipelinePlan& plan, const ExecutionOptions& options,
                     size_t first, size_t last) {
  const auto& stages = plan.stages();
  if (stages[first].hint == ExecutionHint::kSerial) return false;
  // kAuto resolves against the bundle at run time, so two kAuto groups
  // cannot be proven to partition the same units.
  if (stages[first].parallel.axis == PartitionAxis::kAuto) return false;
  for (size_t s = first; s < last; ++s) {
    if (stages[s].retry.quarantine) return false;
    if (EffectiveDeadlineOf(plan, options, s).soft_ms > 0) return false;
  }
  return true;
}

/// Legality of streaming across the boundary at stage `b` (the first stage
/// of the downstream group). See the ComputeOverlapWindows contract in
/// executor.hpp.
bool BoundaryStreams(const PipelinePlan& plan, size_t b) {
  const auto& stages = plan.stages();
  if (stages[b].overlap != OverlapPolicy::kStream) return false;
  if (stages[b - 1].stage->HasAfterHook() || stages[b].stage->HasBeforeHook()) {
    return false;
  }
  const ParallelSpec& up = stages[b - 1].parallel;
  const ParallelSpec& down = stages[b].parallel;
  if (up.axis != down.axis) return false;
  if (up.group_by_prefix != down.group_by_prefix) return false;
  if (up.axis == PartitionAxis::kRange &&
      (up.range_count == 0 || up.range_count != down.range_count)) {
    // A runtime range_attr domain cannot be re-derived from a streamed
    // partition (its bundle is a slice, not the whole).
    return false;
  }
  const size_t g_up = EffectiveGrain(up);
  const size_t g_down = EffectiveGrain(down);
  return g_up > 0 && g_down > 0 && g_up % g_down == 0;
}

/// A fresh report row carrying the stage's identity.
StageMetrics RowFor(const PlannedStage& planned) {
  StageMetrics m;
  m.name = planned.stage->name();
  m.kind = planned.stage->kind();
  m.hint = planned.hint;
  return m;
}

/// One (stage, slot) cell of the run, as the attempt runner sees it.
struct AttemptCell {
  size_t stage = 0;  ///< absolute plan index
  /// The partition the cell runs on; null for an unpartitioned serial
  /// stage, whose Before and After hooks then run inside every attempt.
  const PartitionSlot* part = nullptr;
  uint64_t watch_key = 0;
  /// A speculative backup copy: no soft threshold, no injected hang.
  bool speculative = false;
  /// Set once a racing copy committed the partition; the runner stops
  /// retrying when it sees it.
  const std::atomic<bool>* committed = nullptr;
};

/// The one attempt loop: runs a cell to its final outcome. Coordinates are
/// the contract every pin rests on — a serial stage draws RNG slot 0 and is
/// fault partition 0; partition q (slot.index q) draws slot q + 1 and is
/// fault partition q, whether it runs in a barriered group or streams
/// through a window. Every attempt gets a fresh StageContext on the same
/// derived stream and restarts from a pristine snapshot, so a successful
/// retry is byte-identical to a fault-free run.
struct AttemptRunner {
  const PipelinePlan& plan;
  const ExecutionOptions& options;
  const ExecutorRunScope& scope;
  AttemptWatchdog* watchdog = nullptr;  ///< null: no deadline armed

  /// Fills `r` with the final attempt's outcome. Returns the pristine
  /// snapshot, which a quarantining caller stashes for re-admission.
  std::optional<DataBundle> Run(const AttemptCell& cell, DataBundle& working,
                                PartResult& r) const {
    const PlannedStage& planned = plan.stages()[cell.stage];
    Stage& stage = *planned.stage;
    const RetryPolicy& retry = planned.retry;
    const DeadlinePolicy& deadline =
        EffectiveDeadlineOf(plan, options, cell.stage);
    const bool serial = cell.part == nullptr;
    const size_t index = serial ? 0 : cell.part->index;
    // Serial stages never quarantine — dropping the entire bundle is not a
    // degraded outcome — so only a retry needs their snapshot.
    std::optional<DataBundle> snapshot;
    if (retry.max_attempts > 1 || (retry.quarantine && !serial)) {
      snapshot = working.Clone();
    }
    // No soft threshold for a serial stage (there is no pristine slice to
    // race a second copy on) or for a backup (speculation does not beget
    // speculation); the hard ceiling applies to every copy.
    const double soft_ms = serial || cell.speculative ? 0.0 : deadline.soft_ms;
    const bool watched =
        watchdog != nullptr && (deadline.hard_ms > 0 || soft_ms > 0);
    size_t attempt = 1;
    WallTimer timer;
    for (;;) {
      StageContext ctx(DeriveStageRng(options.seed, scope.run_index,
                                      cell.stage, serial ? 0 : index + 1),
                       scope.provenance);
      if (!serial) ctx.SetPartition(*cell.part);
      ctx.SetAttempt(attempt);
      ctx.SetSpeculative(cell.speculative);
      if (options.faults.active()) {
        ctx.SetInjectedFault(options.faults.Decide(
            scope.run_index, stage.name(), cell.stage, index, attempt));
      }
      if (watched) {
        watchdog->Track(cell.watch_key, ctx.cancel_token(), soft_ms,
                        deadline.hard_ms,
                        "stage '" + stage.name() + "'" +
                            (serial ? "" : " partition " +
                                               std::to_string(index)));
      }
      r.status = serial && stage.HasBeforeHook()
                     ? stage.BeforePartition(working, ctx)
                     : Status::Ok();
      if (r.status.ok()) r.status = GuardedRun(stage, working, ctx);
      if (r.status.ok() && serial && stage.HasAfterHook()) {
        r.status = stage.AfterMerge(working, ctx);
      }
      if (watched) watchdog->Release(cell.watch_key);
      r.params = ctx.params();
      r.counts = ctx.counts();
      r.partials = ctx.TakePartials();
      if (r.status.code() == StatusCode::kDeadlineExceeded) ++r.timeouts;
      if (r.status.ok() || attempt >= retry.max_attempts ||
          !retry.ShouldRetry(r.status)) {
        break;
      }
      if (cell.committed != nullptr &&
          cell.committed->load(std::memory_order_acquire)) {
        break;  // the racing copy already won; don't burn retries
      }
      ++attempt;
      BackoffSleep(retry, attempt);
      working = snapshot->Clone();
    }
    r.seconds = timer.Seconds();
    r.bytes_after = working.ApproxBytes();
    r.ran = true;
    r.attempts = attempt;
    return snapshot;
  }
};

// Save the restart state after `stages_done` plan stages and tally the save
// in the report. The bundle and the quarantine list move into the checkpoint
// for the save and back out after it, even if Save throws: copying them
// would duplicate every blob and slice on every save. Quarantined slices
// travel with every checkpoint, so whichever save the run dies after still
// lets Resume re-admit the dropped records.
Status SaveCheckpoint(CheckpointSink& sink, const PipelinePlan& plan,
                      size_t stages_done, DataBundle& bundle,
                      const ExecutorRunScope& scope, PipelineReport& report) {
  const WallTimer timer;
  PipelineCheckpoint cp;
  cp.pipeline = scope.pipeline_name;
  cp.run_index = scope.run_index;
  cp.plan_fingerprint = plan.Fingerprint();
  cp.stages_done = stages_done;
  if (scope.provenance != nullptr) {
    cp.provenance = scope.provenance->Serialize();
  }
  if (scope.last_state != nullptr && scope.last_state->has_value()) {
    cp.last_state = **scope.last_state;
  }
  cp.bundle = std::move(bundle);
  cp.quarantined = std::move(report.quarantined);
  struct MoveBack {
    PipelineCheckpoint& cp;
    DataBundle& bundle;
    PipelineReport& report;
    ~MoveBack() {
      bundle = std::move(cp.bundle);
      report.quarantined = std::move(cp.quarantined);
    }
  };
  uint64_t bytes = 0;
  Status saved;
  {
    const MoveBack move_back{cp, bundle, report};
    saved = sink.Save(cp, &bytes);
  }
  report.checkpoint_seconds += timer.Seconds();
  if (saved.ok()) {
    report.checkpoint_saves += 1;
    report.checkpoint_bytes += bytes;
  }
  return saved;
}

}  // namespace

std::vector<OverlapWindow> ComputeOverlapWindows(
    const PipelinePlan& plan, const ExecutionOptions& options) {
  std::vector<OverlapWindow> windows;
  if (!options.overlap) return windows;
  const auto& stages = plan.stages();
  size_t i = 0;
  while (i < stages.size()) {
    const size_t j = FusedGroupEnd(plan, i);
    if (!GroupStreamable(plan, options, i, j)) {
      i = j;
      continue;
    }
    OverlapWindow win;
    win.first = i;
    win.group_starts.push_back(i);
    size_t end = j;
    while (end < stages.size() && BoundaryStreams(plan, end)) {
      const size_t next_end = FusedGroupEnd(plan, end);
      if (!GroupStreamable(plan, options, end, next_end)) break;
      win.group_starts.push_back(end);
      end = next_end;
    }
    if (win.group_starts.size() >= 2) {
      win.last = end;
      windows.push_back(std::move(win));
      i = end;
    } else {
      i = j;
    }
  }
  return windows;
}

ParallelExecutor::ParallelExecutor(ExecutionOptions options)
    : options_(options),
      backend_(MakeBackend(options.backend, options.threads)) {}

ParallelExecutor::~ParallelExecutor() = default;
ParallelExecutor::ParallelExecutor(ParallelExecutor&&) noexcept = default;
ParallelExecutor& ParallelExecutor::operator=(ParallelExecutor&&) noexcept =
    default;

PipelineReport ParallelExecutor::Run(const PipelinePlan& plan,
                                     DataBundle& bundle,
                                     const ExecutorRunScope& scope) {
  PipelineReport report;
  WallTimer total;
  if (Status valid = plan.Validate(); !valid.ok()) {
    report.ok = false;
    report.error = valid;
    report.total_seconds = total.Seconds();
    return report;
  }
  const auto& stages = plan.stages();
  // Overlap windows are a property of the plan + options, computed once per
  // run. A resume that starts mid-window falls back to barriered groups for
  // the remainder (windows only fire from their first stage), which is
  // sound because window output is byte-identical to barriered output.
  const std::vector<OverlapWindow> windows =
      ComputeOverlapWindows(plan, options_);
  size_t i = scope.start_stage;
  while (i < stages.size()) {
    // Fuse maximal runs of parallel stages (either parallel hint) with
    // identical specs and no hooks at interior boundaries: split once, run
    // the chain per partition, merge once — a one-level window. Fusion is
    // independent of fail_fast — the error-reporting knob must not change
    // which bundle states stages observe. A legal overlap window starting
    // here takes over several groups at once and streams between them.
    OverlapWindow group{i, FusedGroupEnd(plan, i), {i}};
    const OverlapWindow* window = &group;
    for (const OverlapWindow& w : windows) {
      if (w.first == i) window = &w;
    }
    const size_t already = report.stages.size();
    if (stages[i].hint == ExecutionHint::kSerial) {
      RunSerial(plan, i, bundle, scope, report);
    } else {
      RunWindow(plan, *window, bundle, scope, report);
    }
    bool failed = false;
    for (size_t s = already; s < report.stages.size(); ++s) {
      if (!report.stages[s].status.ok()) {
        failed = true;
        if (report.ok) {
          // First failing status wins (lowest stage position).
          report.ok = false;
          report.error = report.stages[s].status;
        }
      }
    }
    if (failed) {
      // No later stage runs either way — a failed bundle would poison its
      // dependents. fail_fast only picks the report shape: truncate, or
      // record every skipped dependent explicitly.
      if (!options_.fail_fast) {
        for (size_t k = scope.start_stage + report.stages.size();
             k < stages.size(); ++k) {
          StageMetrics m = RowFor(stages[k]);
          m.status =
              FailedPrecondition("skipped: an upstream stage failed (" +
                                 report.error.ToString() + ")");
          report.stages.push_back(std::move(m));
        }
      }
      break;
    }
    i = window->last;
    if (options_.checkpoint != nullptr) {
      if (Status saved = SaveCheckpoint(*options_.checkpoint, plan, i, bundle,
                                        scope, report);
          !saved.ok()) {
        report.ok = false;
        report.error = Status(saved.code(),
                              "checkpoint after stage " + std::to_string(i) +
                                  ": " + saved.message());
        break;
      }
    }
  }
  report.total_seconds = total.Seconds();
  return report;
}

void ParallelExecutor::RunSerial(const PipelinePlan& plan, size_t abs,
                                 DataBundle& bundle,
                                 const ExecutorRunScope& scope,
                                 PipelineReport& report) {
  StageMetrics m = RowFor(plan.stages()[abs]);
  m.bundle_bytes_before = bundle.ApproxBytes();
  const DeadlinePolicy& deadline = EffectiveDeadlineOf(plan, options_, abs);
  std::unique_ptr<AttemptWatchdog> watchdog;
  if (deadline.hard_ms > 0) {
    watchdog =
        std::make_unique<AttemptWatchdog>(WatchdogPollMs(deadline.hard_ms));
  }
  PartResult r;
  AttemptRunner{plan, options_, scope, watchdog.get()}.Run({abs}, bundle, r);
  m.status = r.status;
  m.seconds = r.seconds;
  m.bundle_bytes_after = r.bytes_after;
  m.attempts = r.attempts;
  m.timeouts = r.timeouts;
  // Retry counts live in StageMetrics only, never in provenance: a
  // successfully retried run must hash byte-identically to a fault-free
  // run, and shard manifests embed the provenance hash.
  RecordStage(scope, m, MergedParams(r.params, r.counts));
  report.stages.push_back(std::move(m));
}

void ParallelExecutor::RunWindow(const PipelinePlan& plan,
                                 const OverlapWindow& window,
                                 DataBundle& bundle,
                                 const ExecutorRunScope& scope,
                                 PipelineReport& report) {
  const auto& stages = plan.stages();
  const size_t first = window.first;
  const size_t last = window.last;
  const size_t n_stages = last - first;
  const size_t n_levels = window.group_starts.size();
  const bool streaming = n_levels > 1;
  const PlannedStage& head = stages[first];
  WallTimer window_timer;

  // Level bounds: level g runs stages [l_first[g], l_last[g]).
  const std::vector<size_t>& l_first = window.group_starts;
  std::vector<size_t> l_last(n_levels);
  for (size_t g = 0; g < n_levels; ++g) {
    l_last[g] = g + 1 < n_levels ? l_first[g + 1] : last;
  }

  std::vector<StageMetrics> metrics;
  for (size_t abs = first; abs < last; ++abs) {
    metrics.push_back(RowFor(stages[abs]));
  }
  metrics[0].bundle_bytes_before = bundle.ApproxBytes();

  StageContext hook_ctx(Rng(0), scope.provenance);
  std::vector<std::map<std::string, std::string>> stage_params(n_stages);
  std::vector<std::map<std::string, uint64_t>> stage_counts(n_stages);
  auto harvest = [&](size_t s) {
    for (const auto& [k, v] : hook_ctx.params()) stage_params[s][k] = v;
    for (const auto& [k, v] : hook_ctx.counts()) stage_counts[s][k] += v;
  };

  // ---- Prologue: Before hook, then the head split. ----------------------
  WallTimer head_timer;
  Status before_status;
  if (head.stage->HasBeforeHook()) {
    hook_ctx.Reset(DeriveStageRng(options_.seed, scope.run_index, first, 0));
    before_status = head.stage->BeforePartition(bundle, hook_ctx);
    harvest(0);
  }
  auto split = before_status.ok()
                   ? BundlePartitioner::Split(bundle, head.parallel)
                   : Result<std::vector<BundlePartition>>(before_status);
  if (!split.ok()) {
    metrics[0].status = split.status();
    metrics[0].seconds = head_timer.Seconds();
    metrics[0].bundle_bytes_after = bundle.ApproxBytes();
    RecordStage(scope, metrics[0],
                MergedParams(stage_params[0], stage_counts[0]));
    report.stages.push_back(std::move(metrics[0]));
    return;
  }
  // parts[g][q] is partition q of level g. Every item runs in place in its
  // cell: a final-level cell ends as the slice the merge takes, an interior
  // cell keeps whatever its re-split left behind (the residual).
  std::vector<std::vector<BundlePartition>> parts(n_levels);
  parts[0] = std::move(split).value();
  const size_t n_roots = parts[0].size();
  const size_t n_units = parts[0].back().slot.hi;
  const uint64_t leftover0 = bundle.ApproxBytes();
  // Streaming cannot reproduce the merge's attr-overlay (one partition's
  // attr write would have to reach *every* downstream partition), so window
  // stages must leave attrs untouched; the re-split enforces it.
  const auto entry_attrs = bundle.attrs;
  const double before_split_seconds = head_timer.Seconds();
  if (streaming) ++report.overlap_windows;

  // Per-level geometry. Every level partitions the same `n_units` units
  // (the contract the re-split enforces per slice), so downstream partition
  // counts are known before anything streams — exactly what a barriered
  // run would have computed from the merged bundle. Counts never shrink
  // along a window: each upstream grain is a multiple of the next.
  // Per-item entry bytes and residual bytes feed the byte accounting.
  std::vector<size_t> grain(n_levels), nparts(n_levels);
  std::vector<std::vector<PartResult>> results(n_stages);
  std::vector<std::vector<uint64_t>> level_bytes0(n_levels);
  std::vector<std::vector<uint64_t>> residual_bytes(n_levels);
  for (size_t g = 0; g < n_levels; ++g) {
    grain[g] = EffectiveGrain(stages[l_first[g]].parallel);
    nparts[g] = g == 0 ? n_roots : (n_units + grain[g] - 1) / grain[g];
    nparts[g] = std::max<size_t>(1, nparts[g]);
    parts[g].resize(nparts[g]);
    for (size_t abs = l_first[g]; abs < l_last[g]; ++abs) {
      results[abs - first].resize(nparts[g]);
    }
    level_bytes0[g].resize(nparts[g], 0);
    residual_bytes[g].resize(nparts[g], 0);
  }
  for (size_t p = 0; p < n_roots; ++p) {
    level_bytes0[0][p] = parts[0][p].bundle.ApproxBytes();
  }

  std::atomic<bool> abort{false};
  const bool fail_fast = options_.fail_fast;

  // Deadline posture. Any armed soft deadline switches the group to
  // speculation: partitions run on working copies and publish through
  // commit cells, so a backup copy can race its straggling primary from
  // the same pristine slice. The planner keeps soft deadlines (and
  // quarantine) out of windows, so both only ever meet a one-level group.
  std::vector<const DeadlinePolicy*> policies(n_stages);
  bool any_hard = false;
  bool any_soft = false;
  bool any_quarantine = false;
  double collective_ms = 0;
  for (size_t s = 0; s < n_stages; ++s) {
    policies[s] = &EffectiveDeadlineOf(plan, options_, first + s);
    any_hard |= policies[s]->hard_ms > 0;
    any_soft |= policies[s]->soft_ms > 0;
    any_quarantine |= stages[first + s].retry.quarantine;
    collective_ms = std::max(collective_ms, policies[s]->collective_ms);
  }
  const bool speculate = any_soft;
  constexpr uint64_t kSpecKeyBit = uint64_t{1} << 63;

  // Quarantined partitions stash the pristine slice the failing stage first
  // saw, so the checkpoint can persist it for later re-admission. Written
  // by the owning worker or rank (or under the commit-cell mutex) and read
  // after the map, like every other partition outcome.
  std::vector<std::optional<DataBundle>> q_slices(nparts.back());

  // Per-partition commit cell (speculation only). The first copy — primary
  // or speculative backup — to lock the cell and find it uncommitted owns
  // the partition's outcome: it moves its results, working bundle, and
  // quarantine stash into place under `mu`, so every later reader orders
  // through the same mutex (or through the spec-thread join).
  struct Cell {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> committed{false};
    bool spec_launched = false;
    bool spec_done = false;
    bool spec_won = false;
  };
  std::vector<Cell> cells(speculate ? n_roots : 0);

  std::unique_ptr<AttemptWatchdog> watchdog;
  AttemptRunner runner{plan, options_, scope};
  std::mutex spec_mu;
  std::vector<std::thread> spec_threads;
  std::atomic<uint64_t> spec_launches{0};

  // Run level `level`'s stage chain for one copy of item q, writing
  // outcomes into `row` and mutating `working` in place. `q_slice` receives
  // the pristine stage-entry slice when the chain ends in quarantine.
  // Returns true iff every stage ran and succeeded; stops early once the
  // run aborted or the racing copy committed.
  auto run_chain = [&](size_t level, size_t q, bool speculative,
                       DataBundle& working, std::vector<PartResult>& row,
                       std::optional<DataBundle>& q_slice) {
    for (size_t abs = l_first[level]; abs < l_last[level]; ++abs) {
      if (fail_fast && abort.load(std::memory_order_relaxed)) return false;
      if (speculate && cells[q].committed.load(std::memory_order_acquire)) {
        return false;
      }
      AttemptCell cell;
      cell.stage = abs;
      cell.part = &parts[level][q].slot;
      cell.watch_key = (static_cast<uint64_t>(level) << 32 | q) |
                       (speculative ? kSpecKeyBit : 0);
      cell.speculative = speculative;
      if (speculate) cell.committed = &cells[q].committed;
      PartResult& r = row[abs - l_first[level]];
      std::optional<DataBundle> pristine = runner.Run(cell, working, r);
      if (r.status.ok()) continue;
      if (stages[abs].retry.quarantine) {
        // Degrade instead of failing the run: this slice's records will
        // be dropped from the merge; the other partitions keep going.
        r.quarantined = true;
        q_slice = std::move(pristine);
      } else if (fail_fast && !speculate) {
        abort.store(true, std::memory_order_relaxed);
      }
      return false;  // this item stops; its slice merges back as it is
    }
    return true;
  };

  // ---- Streaming re-split (windows only). Commit an upstream item by
  // re-splitting its slice at the downstream grain into whole global
  // downstream partitions. The slot arithmetic works because upstream
  // partition boundaries are multiples of the upstream grain, which is a
  // multiple of the downstream grain (the planner's divisibility rule), so
  // child q of the window equals child q of the barriered run — same slot,
  // same RNG stream, same fault cell. The upstream cell keeps the residual.
  auto resplit = [&](size_t level, size_t q,
                     std::vector<size_t>& children) -> Status {
    DataBundle& up = parts[level][q].bundle;
    const PartitionSlot& slot = parts[level][q].slot;
    const size_t next = level + 1;
    const ParallelSpec& spec = stages[l_first[next]].parallel;
    const std::string& tail_name = stages[l_last[level] - 1].stage->name();
    if (up.attrs != entry_attrs) {
      return FailedPrecondition(
          "stage '" + tail_name + "' modified bundle attrs inside an overlap "
          "window; attr writes need the merge barrier — mark this boundary "
          "OverlapPolicy::kBarrier");
    }
    const size_t expect = slot.hi - slot.lo;
    std::vector<BundlePartition> sub;
    if (spec.axis == PartitionAxis::kRange) {
      // Range children carry no content — just attrs plus their slot, like
      // the barriered split; producer-written content rides the residual.
      sub.resize((expect + grain[next] - 1) / grain[next]);
      for (BundlePartition& c : sub) c.bundle.attrs = up.attrs;
    } else {
      auto counted = BundlePartitioner::CountUnits(up, spec.axis, spec);
      if (!counted.ok()) return counted.status();
      if (counted.value() != expect) {
        return FailedPrecondition(
            "stage '" + tail_name + "' changed its partition's unit count (" +
            std::to_string(expect) + " -> " +
            std::to_string(counted.value()) + ") inside an overlap window; "
            "streamed stages must preserve unit counts — mark this boundary "
            "OverlapPolicy::kBarrier");
      }
      auto local = BundlePartitioner::Split(up, spec);
      if (!local.ok()) return local.status();
      sub = std::move(local).value();
    }
    const size_t base_q = slot.lo / grain[next];
    for (size_t c = 0; c < sub.size(); ++c) {
      const size_t cq = base_q + c;
      BundlePartition& child = parts[next][cq];
      child.bundle = std::move(sub[c].bundle);
      child.slot = {cq, nparts[next], std::min(n_units, cq * grain[next]),
                    std::min(n_units, (cq + 1) * grain[next])};
      level_bytes0[next][cq] = child.bundle.ApproxBytes();
      children.push_back(cq);
    }
    residual_bytes[level][q] = up.ApproxBytes();
    return Status::Ok();
  };

  // Process item (level, q) to completion: run its chain in place, then
  // re-split it and process each child the same way, depth-first.
  std::function<void(size_t, size_t)> process = [&](size_t level, size_t q) {
    std::vector<PartResult> row(l_last[level] - l_first[level]);
    std::optional<DataBundle> q_slice;
    std::vector<size_t> children;
    if (run_chain(level, q, false, parts[level][q].bundle, row, q_slice) &&
        level + 1 < n_levels) {
      if (Status st = resplit(level, q, children); !st.ok()) {
        // A streaming-contract violation surfaces on the level's last
        // stage — the stage whose output could not be re-split.
        row.back().status = st;
        if (fail_fast) abort.store(true, std::memory_order_relaxed);
        children.clear();
      }
    }
    for (size_t i = 0; i < row.size(); ++i) {
      results[l_first[level] - first + i][q] = std::move(row[i]);
    }
    if (q_slice.has_value()) q_slices[q] = std::move(q_slice);
    for (size_t c : children) process(level + 1, c);
  };

  // ---- Speculation's commit cells. The first copy to claim the
  // uncommitted cell wins the partition; the racing copy is cancelled and
  // its work discarded. Backups only ever commit a fully successful chain —
  // a failed backup must not mask a primary that might still succeed —
  // while a primary commits whatever its final outcome is (after waiting
  // out a live backup).
  auto try_commit = [&](size_t p, bool speculative, bool chain_ok,
                        std::vector<PartResult>& row, DataBundle& working,
                        std::optional<DataBundle>& q_slice) {
    if (speculative && !chain_ok) return false;
    Cell& cell = cells[p];
    {
      std::lock_guard<std::mutex> lock(cell.mu);
      if (cell.committed.load(std::memory_order_relaxed)) return false;
      for (size_t s = 0; s < n_stages; ++s) results[s][p] = std::move(row[s]);
      parts[0][p].bundle = std::move(working);
      q_slices[p] = std::move(q_slice);
      cell.spec_won = speculative;
      cell.committed.store(true, std::memory_order_release);
    }
    cell.cv.notify_all();
    // Stop the racing copy; its next cancellation poll unwinds it.
    if (watchdog) {
      watchdog->CancelKey(speculative ? p : (kSpecKeyBit | p),
                          "partition " + std::to_string(p) +
                              ": racing copy committed first");
    }
    return true;
  };

  // One copy of partition p: clone the pristine group-entry slice (left
  // untouched until someone commits) and run the chain with the same RNG
  // streams — a backup win is byte-identical to a primary win.
  auto run_copy = [&](size_t p, bool speculative) {
    Cell& cell = cells[p];
    std::vector<PartResult> row(n_stages);
    std::optional<DataBundle> q_slice;
    DataBundle working;
    {
      std::lock_guard<std::mutex> lock(cell.mu);
      if (cell.committed.load(std::memory_order_relaxed)) return;
      working = parts[0][p].bundle.Clone();
    }
    const bool chain_ok = run_chain(0, p, speculative, working, row, q_slice);
    if (!speculative && !chain_ok) {
      // A still-running backup may yet rescue this partition: wait for it
      // to resolve before committing a failure. Bounded by the backup's own
      // hard deadline and fault schedule — arm hard_ms alongside soft_ms.
      std::unique_lock<std::mutex> lock(cell.mu);
      cell.cv.wait(lock, [&] {
        return !cell.spec_launched || cell.spec_done ||
               cell.committed.load(std::memory_order_relaxed);
      });
    }
    if (try_commit(p, speculative, chain_ok, row, working, q_slice) &&
        !speculative && fail_fast) {
      // Failure is now the partition's final outcome (no backup rescued
      // it); honor fail-fast the same way the unspeculated path does.
      for (size_t s = 0; s < n_stages; ++s) {
        const PartResult& r = results[s][p];
        if (r.ran && !r.status.ok() && !r.quarantined) {
          abort.store(true, std::memory_order_relaxed);
        }
      }
    }
  };

  // Watchdog straggler callback: launch at most one backup per partition,
  // on a dedicated thread.
  auto launch_spec = [&](uint64_t key) {
    const size_t p = static_cast<size_t>(key);
    Cell& cell = cells[p];
    {
      std::lock_guard<std::mutex> lock(cell.mu);
      if (cell.committed.load(std::memory_order_relaxed) ||
          cell.spec_launched) {
        return;
      }
      cell.spec_launched = true;
    }
    spec_launches.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(spec_mu);
    spec_threads.emplace_back([&, p] {
      run_copy(p, true);
      {
        std::lock_guard<std::mutex> cell_lock(cells[p].mu);
        cells[p].spec_done = true;
      }
      cells[p].cv.notify_all();
    });
  };

  if (any_hard || speculate) {
    watchdog = std::make_unique<AttemptWatchdog>(
        WatchdogPollMs(MinArmedLimitMs(policies)),
        speculate ? AttemptWatchdog::StragglerFn(launch_spec) : nullptr);
    runner.watchdog = watchdog.get();
  }

  // ---- Dispatch. One static shape for every group and window: the worker
  // (or rank) that owns root p runs p's entire downstream cone depth-first,
  // so a distributed backend synchronizes once per window, not per level.
  PartitionTask task;
  task.collective_timeout_ms = collective_ms;
  task.n_parts = n_roots;
  // Which worker (or rank) ran each root, for the savings estimate.
  std::vector<std::thread::id> root_thread(n_roots);
  task.run = [&](size_t p) {
    root_thread[p] = std::this_thread::get_id();
    if (speculate) {
      run_copy(p, false);
    } else {
      process(0, p);
    }
  };
  if (any_quarantine) {
    // Lets a distributed backend reach cross-rank agreement on the dropped
    // set (par::AgreeQuarantine) before the scheduler merges.
    task.quarantined = [&](size_t p) {
      for (size_t s = 0; s < n_stages; ++s) {
        if (results[s][p].quarantined) return true;
      }
      return false;
    };
  }

  Status map_status;
  try {
    backend_->Map(task);
  } catch (const par::DeadlineExceededError& e) {
    map_status = e.ToStatus();
  } catch (const std::exception& e) {
    map_status = Internal("backend '" + std::string(backend_->name()) +
                          "' failed: " + e.what());
  } catch (...) {
    map_status = Internal("backend '" + std::string(backend_->name()) +
                          "' failed with a non-std exception");
  }

  // All primaries are done; stop the watchdog first (joins the monitor
  // thread, so no further backup can launch), then drain the backups that
  // did launch. A cancelled loser unwinds at its next poll point, so the
  // join is bounded.
  if (watchdog) watchdog->Stop();
  {
    std::lock_guard<std::mutex> lock(spec_mu);
    for (std::thread& t : spec_threads) t.join();
    spec_threads.clear();
  }
  uint64_t spec_wins = 0;
  for (Cell& c : cells) {
    if (c.spec_won) ++spec_wins;
  }

  WallTimer tail_timer;

  // A quarantined partition's slice is emptied before the merge, so its
  // records drop out of the bundle — the degraded-run outcome its policy
  // opted into. Everything it produced (partials, counts, params) is
  // excluded from the reduction as well.
  const size_t final_level = n_levels - 1;
  std::vector<char> dropped(nparts.back(), 0);
  for (size_t q = 0; q < nparts.back(); ++q) {
    for (size_t abs = l_first.back(); abs < last; ++abs) {
      const PartResult& r = results[abs - first][q];
      if (!r.quarantined) continue;
      dropped[q] = 1;
      BundlePartition& part = parts[final_level][q];
      part.bundle = DataBundle{};
      QuarantineRecord rec;
      rec.stage = stages[abs].stage->name();
      rec.stage_index = abs;
      rec.partition = q;
      rec.slot = part.slot;
      rec.attempts = static_cast<size_t>(r.attempts);
      rec.error = r.status;
      rec.units = part.slot.hi - part.slot.lo;
      // The pristine stage-entry slice, for checkpointed re-admission.
      if (q_slices[q].has_value()) rec.slice = std::move(*q_slices[q]);
      report.quarantined.push_back(std::move(rec));
      break;
    }
  }

  // One merge reproduces the barriered bundle exactly: residual content in
  // ascending (level, partition) order — the order interior merges would
  // have appended it — then the final level's slices in ascending partition
  // order. Slot indices are rewritten as merge-ordering keys.
  {
    std::vector<BundlePartition> merge_parts;
    for (std::vector<BundlePartition>& level : parts) {
      for (BundlePartition& part : level) {
        part.slot.index = merge_parts.size();
        merge_parts.push_back(std::move(part));
      }
    }
    BundlePartitioner::Merge(bundle, merge_parts);
  }

  bool group_ok = map_status.ok();
  for (size_t s = 0; s < n_stages; ++s) {
    for (size_t q = 0; q < results[s].size(); ++q) {
      const PartResult& r = results[s][q];
      if (!(r.ran && r.status.ok()) && !dropped[q]) group_ok = false;
    }
  }

  // The After hook belongs to the final level: its reduction inputs are
  // that level's partials and summed counts in ascending (stage, partition)
  // order, read from the cells the partitions' workers or ranks wrote.
  const PlannedStage& tail = stages[last - 1];
  Status after_status;
  if (group_ok && tail.stage->HasAfterHook()) {
    std::map<std::string, std::vector<Bytes>> gathered_partials;
    std::map<std::string, uint64_t> gathered_counts;
    for (size_t abs = l_first.back(); abs < last; ++abs) {
      for (size_t q = 0; q < nparts.back(); ++q) {
        const PartResult& r = results[abs - first][q];
        if (!r.ran || dropped[q]) continue;
        for (const auto& [k, v] : r.partials) gathered_partials[k].push_back(v);
        for (const auto& [k, v] : r.counts) gathered_counts[k] += v;
      }
    }
    hook_ctx.Reset(DeriveStageRng(options_.seed, scope.run_index, last - 1,
                                  nparts.back() + 1));
    hook_ctx.SetGathered(&gathered_partials, &gathered_counts);
    after_status = tail.stage->AfterMerge(bundle, hook_ctx);
    hook_ctx.SetGathered(nullptr, nullptr);
    harvest(n_stages - 1);
  }
  const double tail_seconds = tail_timer.Seconds();

  // ---- Per-stage metrics in canonical (stage, partition) order, with the
  // barriered accounting: a stage's bundle_bytes_after is its level's
  // leftover (split leftover plus upstream residuals — exact, because
  // ApproxBytes is item-additive) plus its partitions' current bytes.
  std::vector<uint64_t> level_leftover(n_levels, leftover0);
  for (size_t g = 1; g < n_levels; ++g) {
    level_leftover[g] = level_leftover[g - 1];
    for (uint64_t b : residual_bytes[g - 1]) level_leftover[g] += b;
  }
  uint64_t prev_bytes_after = metrics[0].bundle_bytes_before;
  bool stop = false;
  for (size_t g = 0; g < n_levels && !stop; ++g) {
    bool level_failed = false;
    std::vector<uint64_t> cur_bytes = level_bytes0[g];
    for (size_t abs = l_first[g]; abs < l_last[g] && !stop; ++abs) {
      const size_t s = abs - first;
      StageMetrics& m = metrics[s];
      m.partitions = nparts[g];
      m.overlapped = streaming;
      m.partition_seconds.resize(nparts[g], 0.0);
      m.bundle_bytes_before = prev_bytes_after;
      double critical_path = 0;
      bool any_ran = false;
      for (size_t q = 0; q < nparts[g]; ++q) {
        const PartResult& r = results[s][q];
        m.partition_seconds[q] = r.seconds;
        critical_path = std::max(critical_path, r.seconds);
        if (!r.ran) continue;
        any_ran = true;
        m.attempts += r.attempts;
        m.timeouts += r.timeouts;
        if (r.quarantined) {
          // Dropped, not failed: the stage stays OK, and nothing the
          // quarantined slice produced reaches metrics or provenance.
          m.quarantined.push_back(q);
          cur_bytes[q] = 0;
          continue;
        }
        cur_bytes[q] = r.bytes_after;
        if (m.status.ok() && !r.status.ok()) m.status = r.status;
        for (const auto& [k, v] : r.params) stage_params[s][k] = v;
        for (const auto& [k, v] : r.counts) stage_counts[s][k] += v;
      }
      // Retry counts live in StageMetrics only (a successfully retried run
      // must hash byte-identically to a fault-free one, and shard manifests
      // embed the provenance hash); quarantine DID change the data, so it
      // is a provenance fact.
      if (!m.quarantined.empty()) {
        stage_params[s]["quarantined"] = std::to_string(m.quarantined.size());
      }
      m.seconds = critical_path;
      if (s == 0) {
        if (m.status.ok() && !map_status.ok()) m.status = map_status;
        // A bounded collective wait that expired is a timeout too.
        if (map_status.code() == StatusCode::kDeadlineExceeded) ++m.timeouts;
        // Speculation facts attach to the group's head stage.
        m.speculative_launched = spec_launches.load(std::memory_order_relaxed);
        m.speculative_wins = spec_wins;
        m.seconds += before_split_seconds;
      }
      uint64_t bytes_after = level_leftover[g];
      for (uint64_t b : cur_bytes) bytes_after += b;
      m.bundle_bytes_after = bytes_after;
      if (s == n_stages - 1) {
        m.seconds += tail_seconds;
        if (m.status.ok() && !after_status.ok()) m.status = after_status;
        m.bundle_bytes_after = bundle.ApproxBytes();
      }
      prev_bytes_after = m.bundle_bytes_after;

      // Trailing stages of a level that no partition attempted (a
      // fail-fast abort hit before they started) produce no row.
      if (abs > l_first[g] && !any_ran) break;

      // Scheduling facts that are backend-invariant go into provenance; the
      // backend name deliberately does not, so thread and SPMD runs hash
      // identically.
      stage_params[s]["hint"] = std::string(ExecutionHintName(m.hint));
      stage_params[s]["partitions"] = std::to_string(nparts[g]);
      RecordStage(scope, m, MergedParams(stage_params[s], stage_counts[s]));
      report.stages.push_back(std::move(m));
      if (!report.stages.back().status.ok()) {
        level_failed = true;
        stop = fail_fast;
      }
    }
    // A failed level ends the window: downstream levels never ran in
    // barrier terms, and Run() records them as skipped (or truncates).
    stop = stop || level_failed;
  }

  if (streaming) {
    // Savings estimate: a barriered run pays its levels back-to-back, each
    // as long as its busiest worker; the window paid one overlapped wall.
    // Split/merge overhead the barrier would also pay per level is not
    // credited, so this under-reports rather than flatters.
    std::vector<size_t> root_worker(n_roots);
    std::vector<std::thread::id> workers;
    for (size_t p = 0; p < n_roots; ++p) {
      const auto it =
          std::find(workers.begin(), workers.end(), root_thread[p]);
      root_worker[p] = static_cast<size_t>(it - workers.begin());
      if (it == workers.end()) workers.push_back(root_thread[p]);
    }
    std::vector<std::vector<double>> level_seconds(n_levels);
    std::vector<std::vector<size_t>> level_root(n_levels);
    for (size_t g = 0; g < n_levels; ++g) {
      level_seconds[g].assign(nparts[g], 0.0);
      level_root[g].resize(nparts[g]);
      for (size_t q = 0; q < nparts[g]; ++q) {
        // Partition boundaries are multiples of every upstream grain, so
        // q's first unit names its root.
        level_root[g][q] = std::min(n_roots - 1, q * grain[g] / grain[0]);
        for (size_t abs = l_first[g]; abs < l_last[g]; ++abs) {
          level_seconds[g][q] += results[abs - first][q].seconds;
        }
      }
    }
    const double barrier_estimate =
        before_split_seconds + tail_seconds +
        BarrierLevelSeconds(level_seconds, level_root, root_worker);
    const double window_wall = window_timer.Seconds();
    if (barrier_estimate > window_wall) {
      report.overlap_seconds_saved += barrier_estimate - window_wall;
    }
  }
}

double BarrierLevelSeconds(
    const std::vector<std::vector<double>>& level_seconds,
    const std::vector<std::vector<size_t>>& level_root,
    const std::vector<size_t>& root_worker) {
  const size_t n_workers =
      root_worker.empty()
          ? 0
          : *std::max_element(root_worker.begin(), root_worker.end()) + 1;
  double total = 0;
  std::vector<double> busy(n_workers);
  for (size_t g = 0; g < level_seconds.size(); ++g) {
    std::fill(busy.begin(), busy.end(), 0.0);
    for (size_t q = 0; q < level_seconds[g].size(); ++q) {
      busy[root_worker[level_root[g][q]]] += level_seconds[g][q];
    }
    total += busy.empty() ? 0.0 : *std::max_element(busy.begin(), busy.end());
  }
  return total;
}

void ParallelExecutor::RecordStage(
    const ExecutorRunScope& scope, StageMetrics& metrics,
    const std::map<std::string, std::string>& params) {
  if (!options_.capture_provenance || scope.provenance == nullptr) return;
  Activity act;
  act.name = metrics.name;
  act.stage_kind = std::string(StageKindName(metrics.kind));
  act.params = params;
  act.seconds = metrics.seconds;
  // Each stage activity consumes the previous bundle state and produces
  // the new one, chaining a linear lineage.
  const std::string state_name = scope.pipeline_name + "/run" +
                                 std::to_string(scope.run_index) + "/" +
                                 metrics.name;
  const size_t out_idx = scope.provenance->AddArtifactHashed(
      state_name,
      // Hash the bundle size + stage name as a cheap state fingerprint;
      // full content hashing is available via AddArtifact for stages that
      // need byte-exact lineage.
      DigestToHex(Sha256::Hash(
          state_name + ":" + std::to_string(metrics.bundle_bytes_after))),
      metrics.bundle_bytes_after);
  if (scope.last_state != nullptr && scope.last_state->has_value()) {
    act.inputs.push_back(**scope.last_state);
  }
  act.outputs.push_back(out_idx);
  scope.provenance->AddActivity(std::move(act)).OrDie();
  if (scope.last_state != nullptr) *scope.last_state = out_idx;
}

}  // namespace drai::core
