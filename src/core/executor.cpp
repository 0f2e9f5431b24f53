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
#include "core/stream.hpp"
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

namespace {

/// Shorthand — the executor derives every stream through the exported
/// DeriveStageRng so Resume's re-admission replay can reproduce them.
Rng DeriveRng(uint64_t seed, uint64_t run, size_t stage, size_t slot) {
  return DeriveStageRng(seed, run, stage, slot);
}

Status GuardedRun(Stage& stage, DataBundle& bundle, StageContext& ctx) {
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
    return Internal("stage '" + stage.name() + "' threw: " + e.what());
  } catch (...) {
    return Internal("stage '" + stage.name() + "' threw a non-std exception");
  }
}

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

/// One partition's outcome for one stage of a fused group. Everything the
/// scheduler needs survives pack/unpack, so SPMD ranks can ship outcomes
/// home through the communicator instead of relying on shared memory.
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

void PackResult(ByteWriter& w, const PartResult& r) {
  w.PutU8(r.ran ? 1 : 0);
  w.PutI32(static_cast<int32_t>(r.status.code()));
  w.PutString(r.status.message());
  w.PutF64(r.seconds);
  w.PutU64(r.bytes_after);
  w.PutVarU64(r.attempts);
  w.PutU8(r.quarantined ? 1 : 0);
  w.PutVarU64(r.timeouts);
  w.PutVarU64(r.params.size());
  for (const auto& [k, v] : r.params) {
    w.PutString(k);
    w.PutString(v);
  }
  w.PutVarU64(r.counts.size());
  for (const auto& [k, v] : r.counts) {
    w.PutString(k);
    w.PutU64(v);
  }
  w.PutVarU64(r.partials.size());
  for (const auto& [k, v] : r.partials) {
    w.PutString(k);
    w.PutBlob(v);
  }
}

/// Throws std::runtime_error on a malformed payload (the backend surfaces
/// that as a transport fault).
PartResult UnpackResult(ByteReader& rd) {
  const auto req = [](const Status& s) {
    if (!s.ok()) throw std::runtime_error("partition outcome: " + s.message());
  };
  PartResult r;
  uint8_t ran = 0;
  req(rd.GetU8(ran));
  r.ran = ran != 0;
  int32_t code = 0;
  std::string message;
  req(rd.GetI32(code));
  req(rd.GetString(message));
  r.status = code == static_cast<int32_t>(StatusCode::kOk)
                 ? Status::Ok()
                 : Status(static_cast<StatusCode>(code), std::move(message));
  req(rd.GetF64(r.seconds));
  req(rd.GetU64(r.bytes_after));
  req(rd.GetVarU64(r.attempts));
  uint8_t quarantined = 0;
  req(rd.GetU8(quarantined));
  r.quarantined = quarantined != 0;
  req(rd.GetVarU64(r.timeouts));
  uint64_t n = 0;
  req(rd.GetVarU64(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string k, v;
    req(rd.GetString(k));
    req(rd.GetString(v));
    r.params.emplace(std::move(k), std::move(v));
  }
  req(rd.GetVarU64(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string k;
    uint64_t v = 0;
    req(rd.GetString(k));
    req(rd.GetU64(v));
    r.counts.emplace(std::move(k), v);
  }
  req(rd.GetVarU64(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string k;
    Bytes v;
    req(rd.GetString(k));
    req(rd.GetBlob(v));
    r.partials.emplace(std::move(k), std::move(v));
  }
  return r;
}

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
                                          const ExecutorOptions& options,
                                          size_t abs) {
  const PlannedStage& s = plan.stages()[abs];
  return s.deadline.active() ? s.deadline : options.default_deadline;
}

/// Window-membership rules that apply to every stage of a candidate group:
/// quarantine drops are scoped to the group's merge (a streamed partition
/// may already have fed its consumers when attempts exhaust), and soft
/// deadlines drive speculation, whose commit-cell protocol assumes the
/// group barrier. Hard deadlines and plain retry are stream-safe.
bool GroupStreamable(const PipelinePlan& plan, const ExecutorOptions& options,
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

}  // namespace

std::vector<OverlapWindow> ComputeOverlapWindows(
    const PipelinePlan& plan, const ExecutorOptions& options) {
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

ParallelExecutor::ParallelExecutor(ExecutorOptions options)
    : options_(options),
      backend_(MakeBackend(options.backend, options.threads)) {}

ParallelExecutor::~ParallelExecutor() = default;
ParallelExecutor::ParallelExecutor(ParallelExecutor&&) noexcept = default;
ParallelExecutor& ParallelExecutor::operator=(ParallelExecutor&&) noexcept =
    default;

size_t ParallelExecutor::thread_count() const {
  return backend_->concurrency();
}

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
    // the chain per partition, merge once. Fusion is independent of
    // fail_fast — the error-reporting knob must not change which bundle
    // states stages observe. A legal overlap window starting here takes
    // over several groups at once and streams between them.
    const OverlapWindow* window = nullptr;
    for (const OverlapWindow& w : windows) {
      if (w.first == i) {
        window = &w;
        break;
      }
    }
    const size_t j = window != nullptr ? window->last : FusedGroupEnd(plan, i);
    const size_t already = report.stages.size();
    if (window != nullptr) {
      RunWindow(plan, *window, bundle, scope, report);
    } else {
      RunGroup(plan, i, j, bundle, scope, report);
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
          StageMetrics m;
          m.name = stages[k].stage->name();
          m.kind = stages[k].stage->kind();
          m.hint = stages[k].hint;
          m.status =
              FailedPrecondition("skipped: an upstream stage failed (" +
                                 report.error.ToString() + ")");
          report.stages.push_back(std::move(m));
        }
      }
      break;
    }
    i = j;
    if (scope.checkpoint != nullptr) {
      PipelineCheckpoint cp;
      cp.pipeline = scope.pipeline_name;
      cp.run_index = scope.run_index;
      cp.plan_fingerprint = plan.Fingerprint();
      cp.stages_done = i;
      cp.bundle = bundle;
      if (scope.provenance != nullptr) {
        cp.provenance = scope.provenance->Serialize();
      }
      if (scope.last_state != nullptr && scope.last_state->has_value()) {
        cp.last_state = **scope.last_state;
      }
      // Quarantined slices travel with every checkpoint, so whichever save
      // the run dies after still lets Resume re-admit the dropped records.
      cp.quarantined = report.quarantined;
      if (Status saved = scope.checkpoint->Save(cp); !saved.ok()) {
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

void ParallelExecutor::RunGroup(const PipelinePlan& plan, size_t first,
                                size_t last, DataBundle& bundle,
                                const ExecutorRunScope& scope,
                                PipelineReport& report) {
  const auto& stages = plan.stages();
  const PlannedStage& head = stages[first];
  // Effective deadline: the stage's own policy, or the executor-wide
  // default for stages that never declared one (the watchdog safety net).
  auto effective_deadline = [&](size_t abs) -> const DeadlinePolicy& {
    return stages[abs].deadline.active() ? stages[abs].deadline
                                         : options_.default_deadline;
  };

  // ---- Serial stage: hooks + Run inline on the calling thread. ----------
  if (head.hint == ExecutionHint::kSerial) {
    StageMetrics m;
    m.name = head.stage->name();
    m.kind = head.stage->kind();
    m.hint = ExecutionHint::kSerial;
    m.bundle_bytes_before = bundle.ApproxBytes();
    StageContext ctx(Rng(0), scope.provenance);
    // Retry re-runs the whole stage (hooks included) against a pristine
    // bundle snapshot with the *same* derived RNG, so a successful retry is
    // byte-identical to a fault-free run. Serial stages never quarantine —
    // dropping the entire bundle is not a degraded outcome.
    const RetryPolicy& retry = head.retry;
    // Hard deadlines cover serial stages too; soft ones do not — there is
    // no pristine slice to race a second copy on while the only copy runs.
    const DeadlinePolicy& deadline = effective_deadline(first);
    std::unique_ptr<AttemptWatchdog> watchdog;
    if (deadline.hard_ms > 0) {
      watchdog = std::make_unique<AttemptWatchdog>(
          WatchdogPollMs(deadline.hard_ms));
    }
    std::optional<DataBundle> snapshot;
    if (retry.max_attempts > 1) snapshot = bundle.Clone();
    size_t attempt = 1;
    WallTimer timer;
    for (;;) {
      // Reset (not just construct) so the no-leak-across-stages contract is
      // exercised on every path.
      ctx.Reset(DeriveRng(options_.seed, scope.run_index, first, 0));
      ctx.SetAttempt(attempt);
      if (options_.faults.active()) {
        ctx.SetInjectedFault(options_.faults.Decide(scope.run_index, m.name,
                                                    first, 0, attempt));
      }
      if (watchdog) {
        watchdog->Track(0, ctx.cancel_token(), /*soft_ms=*/0.0,
                        deadline.hard_ms, "stage '" + m.name + "'");
      }
      m.status = head.stage->HasBeforeHook()
                     ? head.stage->BeforePartition(bundle, ctx)
                     : Status::Ok();
      if (m.status.ok()) m.status = GuardedRun(*head.stage, bundle, ctx);
      if (m.status.ok() && head.stage->HasAfterHook()) {
        m.status = head.stage->AfterMerge(bundle, ctx);
      }
      if (watchdog) watchdog->Release(0);
      if (m.status.code() == StatusCode::kDeadlineExceeded) ++m.timeouts;
      if (m.status.ok() || attempt >= retry.max_attempts ||
          !retry.ShouldRetry(m.status)) {
        break;
      }
      ++attempt;
      BackoffSleep(retry, attempt);
      bundle = snapshot->Clone();
    }
    m.attempts = attempt;
    m.seconds = timer.Seconds();
    m.bundle_bytes_after = bundle.ApproxBytes();
    auto params = MergedParams(ctx.params(), ctx.counts());
    // Retry counts live in StageMetrics only, never in provenance: a
    // successfully retried run must hash byte-identically to a fault-free
    // run, and shard manifests embed the provenance hash.
    RecordStage(scope, m, params);
    report.stages.push_back(std::move(m));
    return;
  }

  // ---- Parallel group [first, last): before -> split -> map -> merge ->
  // after. -----------------------------------------------------------------
  const size_t n_stages = last - first;
  const ParallelSpec& spec = head.parallel;
  std::vector<StageMetrics> metrics(n_stages);
  for (size_t s = 0; s < n_stages; ++s) {
    metrics[s].name = stages[first + s].stage->name();
    metrics[s].kind = stages[first + s].stage->kind();
    metrics[s].hint = stages[first + s].hint;
  }
  metrics[0].bundle_bytes_before = bundle.ApproxBytes();

  StageContext hook_ctx(Rng(0), scope.provenance);
  std::vector<std::map<std::string, std::string>> stage_params(n_stages);
  std::vector<std::map<std::string, uint64_t>> stage_counts(n_stages);
  auto harvest = [&](size_t s) {
    for (const auto& [k, v] : hook_ctx.params()) stage_params[s][k] = v;
    for (const auto& [k, v] : hook_ctx.counts()) stage_counts[s][k] += v;
  };

  WallTimer head_timer;
  Status before_status;
  if (head.stage->HasBeforeHook()) {
    hook_ctx.Reset(DeriveRng(options_.seed, scope.run_index, first, 0));
    before_status = head.stage->BeforePartition(bundle, hook_ctx);
    harvest(0);
  }
  if (!before_status.ok()) {
    metrics[0].status = before_status;
    metrics[0].seconds = head_timer.Seconds();
    metrics[0].bundle_bytes_after = bundle.ApproxBytes();
    RecordStage(scope, metrics[0],
                MergedParams(stage_params[0], stage_counts[0]));
    report.stages.push_back(std::move(metrics[0]));
    return;
  }

  auto split = BundlePartitioner::Split(bundle, spec);
  if (!split.ok()) {
    metrics[0].status = split.status();
    metrics[0].seconds = head_timer.Seconds();
    metrics[0].bundle_bytes_after = bundle.ApproxBytes();
    RecordStage(scope, metrics[0],
                MergedParams(stage_params[0], stage_counts[0]));
    report.stages.push_back(std::move(metrics[0]));
    return;
  }
  std::vector<BundlePartition> parts = std::move(split).value();
  const size_t n_parts = parts.size();
  const uint64_t leftover_bytes = bundle.ApproxBytes();
  std::vector<uint64_t> part_bytes0(n_parts);
  for (size_t p = 0; p < n_parts; ++p) {
    part_bytes0[p] = parts[p].bundle.ApproxBytes();
  }
  const double before_split_seconds = head_timer.Seconds();

  std::vector<std::vector<PartResult>> results(
      n_stages, std::vector<PartResult>(n_parts));
  std::atomic<bool> abort{false};
  const bool fail_fast = options_.fail_fast;

  // Deadline posture for the fused group. Any armed soft deadline switches
  // the whole group to speculation mode (Mode B below): partitions run on
  // working copies and publish through a commit protocol, so a backup copy
  // can race its straggling primary from the same pristine slice.
  std::vector<const DeadlinePolicy*> policies(n_stages);
  bool any_hard = false;
  bool any_soft = false;
  double collective_ms = 0;
  for (size_t s = 0; s < n_stages; ++s) {
    policies[s] = &effective_deadline(first + s);
    any_hard |= policies[s]->hard_ms > 0;
    any_soft |= policies[s]->soft_ms > 0;
    collective_ms = std::max(collective_ms, policies[s]->collective_ms);
  }
  const bool speculate = any_soft;
  constexpr uint64_t kSpecKeyBit = uint64_t{1} << 63;

  // Quarantined partitions stash the pristine slice the failing stage first
  // saw, so the checkpoint can persist it for later re-admission. Written
  // by the owning worker (single writer per index in Mode A, under the cell
  // mutex in Mode B), read by the scheduler after the map completes; the
  // direct write relies on ranks being in-process threads.
  std::vector<std::optional<DataBundle>> q_slices(n_parts);

  // Per-partition commit cell (Mode B only). The first copy — primary or
  // speculative backup — to lock the cell and find it uncommitted owns the
  // partition's outcome: it moves its results, working bundle, and
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
  std::vector<Cell> cells(speculate ? n_parts : 0);

  std::unique_ptr<AttemptWatchdog> watchdog;
  std::mutex spec_mu;
  std::vector<std::thread> spec_threads;
  std::atomic<uint64_t> spec_launches{0};

  // Run the group's stage chain for one copy of partition `p`, writing
  // outcomes into `row` and mutating `working` in place. `q_slice` receives
  // the pristine stage-entry slice when the chain ends in quarantine.
  // Returns early once the partition's outcome was committed by the racing
  // copy — remaining work would be discarded anyway.
  auto run_chain = [&](size_t p, bool speculative, DataBundle& working,
                       std::vector<PartResult>& row,
                       std::optional<DataBundle>& q_slice) {
    for (size_t s = 0; s < n_stages; ++s) {
      if (fail_fast && abort.load(std::memory_order_relaxed)) return;
      if (speculate && cells[p].committed.load(std::memory_order_acquire)) {
        return;
      }
      const PlannedStage& planned = stages[first + s];
      const RetryPolicy& retry = planned.retry;
      const DeadlinePolicy& deadline = *policies[s];
      PartResult& r = row[s];
      // Pristine-slice snapshot for retry (and for the quarantine stash):
      // a failure may leave the slice half-mutated, so each re-run starts
      // from the state this stage first saw. Same derived RNG each attempt
      // — a successful retry is byte-identical to a fault-free run.
      std::optional<DataBundle> snapshot;
      if (retry.max_attempts > 1 || retry.quarantine) {
        snapshot = working.Clone();
      }
      size_t attempt = 1;
      WallTimer t;
      for (;;) {
        StageContext ctx(
            DeriveRng(options_.seed, scope.run_index, first + s, p + 1),
            scope.provenance);
        ctx.SetPartition(parts[p].slot);
        ctx.SetAttempt(attempt);
        ctx.SetSpeculative(speculative);
        if (options_.faults.active()) {
          ctx.SetInjectedFault(options_.faults.Decide(
              scope.run_index, planned.stage->name(), first + s, p, attempt));
        }
        // Backups never get a soft threshold — speculation does not beget
        // speculation — but keep the hard ceiling, so a backup that hangs
        // the same way its primary did is also cancelled.
        const uint64_t key = speculative ? (kSpecKeyBit | p) : p;
        const bool watched =
            watchdog && (deadline.hard_ms > 0 ||
                         (!speculative && deadline.soft_ms > 0));
        if (watched) {
          watchdog->Track(key, ctx.cancel_token(),
                          speculative ? 0.0 : deadline.soft_ms,
                          deadline.hard_ms,
                          "stage '" + planned.stage->name() + "' partition " +
                              std::to_string(p));
        }
        r.status = GuardedRun(*planned.stage, working, ctx);
        if (watched) watchdog->Release(key);
        r.params = ctx.params();
        r.counts = ctx.counts();
        r.partials = ctx.TakePartials();
        if (r.status.code() == StatusCode::kDeadlineExceeded) ++r.timeouts;
        if (r.status.ok() || attempt >= retry.max_attempts ||
            !retry.ShouldRetry(r.status)) {
          break;
        }
        if (speculate && cells[p].committed.load(std::memory_order_acquire)) {
          break;  // the racing copy already won; don't burn retries
        }
        ++attempt;
        BackoffSleep(retry, attempt);
        working = snapshot->Clone();
      }
      r.seconds = t.Seconds();
      r.bytes_after = working.ApproxBytes();
      r.ran = true;
      r.attempts = attempt;
      if (!r.status.ok()) {
        if (retry.quarantine) {
          // Degrade instead of failing the run: this slice's records will
          // be dropped from the merge; the other partitions keep going.
          r.quarantined = true;
          q_slice = std::move(snapshot);
          return;
        }
        if (fail_fast && !speculate) {
          abort.store(true, std::memory_order_relaxed);
        }
        return;  // this partition stops; its slice merges back untouched
      }
    }
  };

  // Mode B commit: first copy to claim the uncommitted cell wins the
  // partition; the racing copy is cancelled and its work discarded. Backups
  // only ever commit a fully successful chain — a failed backup must not
  // mask a primary that might still succeed — while a primary commits
  // whatever its final outcome is (after waiting out a live backup).
  auto try_commit = [&](size_t p, bool speculative,
                        std::vector<PartResult>& row, DataBundle& working,
                        std::optional<DataBundle>& q_slice) {
    if (speculative) {
      for (size_t s = 0; s < n_stages; ++s) {
        if (!row[s].ran || !row[s].status.ok()) return false;
      }
    }
    Cell& cell = cells[p];
    {
      std::lock_guard<std::mutex> lock(cell.mu);
      if (cell.committed.load(std::memory_order_relaxed)) return false;
      for (size_t s = 0; s < n_stages; ++s) results[s][p] = std::move(row[s]);
      parts[p].bundle = std::move(working);
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

  // Speculative backup body, run on a dedicated thread: copy the pristine
  // group-entry slice (untouched until someone commits) and race the
  // primary through the same chain with the same RNG streams — a backup
  // win is byte-identical to a primary win.
  auto spec_body = [&](size_t p) {
    Cell& cell = cells[p];
    {
      std::vector<PartResult> row(n_stages);
      std::optional<DataBundle> q_slice;
      DataBundle working;
      bool live = false;
      {
        std::lock_guard<std::mutex> lock(cell.mu);
        if (!cell.committed.load(std::memory_order_relaxed)) {
          working = parts[p].bundle.Clone();
          live = true;
        }
      }
      if (live) {
        run_chain(p, true, working, row, q_slice);
        try_commit(p, true, row, working, q_slice);
      }
    }
    {
      std::lock_guard<std::mutex> lock(cell.mu);
      cell.spec_done = true;
    }
    cell.cv.notify_all();
  };

  // Watchdog straggler callback: launch at most one backup per partition.
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
    spec_threads.emplace_back(spec_body, p);
  };

  if (any_hard || speculate) {
    watchdog = std::make_unique<AttemptWatchdog>(
        WatchdogPollMs(MinArmedLimitMs(policies)),
        speculate ? AttemptWatchdog::StragglerFn(launch_spec) : nullptr);
  }

  PartitionTask task;
  task.n_parts = n_parts;
  task.collective_timeout_ms = collective_ms;
  task.run = [&](size_t p) {
    std::vector<PartResult> row(n_stages);
    std::optional<DataBundle> q_slice;
    if (!speculate) {
      // Mode A: single copy per partition, results land directly.
      run_chain(p, false, parts[p].bundle, row, q_slice);
      for (size_t s = 0; s < n_stages; ++s) results[s][p] = std::move(row[s]);
      q_slices[p] = std::move(q_slice);
      return;
    }
    // Mode B: run on a working copy so parts[p].bundle stays pristine for
    // a backup launch; publish through the commit cell.
    Cell& cell = cells[p];
    DataBundle working;
    {
      std::lock_guard<std::mutex> lock(cell.mu);
      working = parts[p].bundle.Clone();
    }
    run_chain(p, false, working, row, q_slice);
    bool chain_ok = true;
    for (size_t s = 0; s < n_stages; ++s) {
      if (!row[s].ran || !row[s].status.ok()) {
        chain_ok = false;
        break;
      }
    }
    if (!chain_ok) {
      // A still-running backup may yet rescue this partition: wait for it
      // to resolve before committing a failure. Bounded by the backup's own
      // hard deadline and fault schedule — arm hard_ms alongside soft_ms.
      std::unique_lock<std::mutex> lock(cell.mu);
      cell.cv.wait(lock, [&] {
        return !cell.spec_launched || cell.spec_done ||
               cell.committed.load(std::memory_order_relaxed);
      });
    }
    if (try_commit(p, false, row, working, q_slice)) {
      // Failure is now the partition's final outcome (no backup rescued
      // it); honor fail-fast the same way Mode A does.
      bool failed_hard = false;
      for (size_t s = 0; s < n_stages; ++s) {
        const PartResult& r = results[s][p];
        if (r.ran && !r.status.ok() && !r.quarantined) failed_hard = true;
      }
      if (failed_hard && fail_fast) {
        abort.store(true, std::memory_order_relaxed);
      }
    }
  };
  bool any_quarantine_policy = false;
  for (size_t s = 0; s < n_stages; ++s) {
    if (stages[first + s].retry.quarantine) any_quarantine_policy = true;
  }
  if (any_quarantine_policy) {
    // Lets a distributed backend reach cross-rank agreement on the dropped
    // set (par::AgreeQuarantine) before the scheduler merges.
    task.quarantined = [&](size_t p) {
      for (size_t s = 0; s < n_stages; ++s) {
        if (results[s][p].quarantined) return true;
      }
      return false;
    };
  }
  if (!speculate) {
    // Cross-rank transport: serialize one partition's outcomes across all
    // fused stages; a distributed backend gathers these to the scheduler in
    // ascending partition order instead of reading shared memory. Under
    // speculation the commit protocol IS the transport — winners (possibly
    // backup threads outside the rank world) write scheduler memory
    // directly, and a gather could race a still-unwinding loser — so Mode B
    // skips pack/unpack; ranks are in-process threads here.
    task.pack = [&](size_t p) {
      ByteWriter w;
      for (size_t s = 0; s < n_stages; ++s) PackResult(w, results[s][p]);
      return w.Take();
    };
    task.unpack = [&](size_t p, const Bytes& payload) {
      ByteReader rd(payload);
      for (size_t s = 0; s < n_stages; ++s) results[s][p] = UnpackResult(rd);
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
  std::vector<char> part_quarantined(n_parts, 0);
  for (size_t p = 0; p < n_parts; ++p) {
    for (size_t s = 0; s < n_stages; ++s) {
      if (results[s][p].quarantined) {
        part_quarantined[p] = 1;
        parts[p].bundle = DataBundle{};
        const PartResult& r = results[s][p];
        QuarantineRecord q;
        q.stage = stages[first + s].stage->name();
        q.stage_index = first + s;
        q.partition = p;
        q.slot = parts[p].slot;
        q.attempts = static_cast<size_t>(r.attempts);
        q.error = r.status;
        q.units = parts[p].slot.hi - parts[p].slot.lo;
        // The pristine stage-entry slice, for checkpointed re-admission.
        // Absent only when the SPMD transport carried the flag but not the
        // slice (never the case today: ranks share the process).
        if (q_slices[p].has_value()) q.slice = std::move(*q_slices[p]);
        report.quarantined.push_back(std::move(q));
        break;
      }
    }
  }
  BundlePartitioner::Merge(bundle, parts);

  bool group_ok = map_status.ok();
  for (size_t s = 0; s < n_stages && group_ok; ++s) {
    for (size_t p = 0; p < n_parts; ++p) {
      if (part_quarantined[p]) continue;  // dropped, not failed
      if (!results[s][p].ran || !results[s][p].status.ok()) {
        group_ok = false;
        break;
      }
    }
  }

  // The reduction inputs for the After hook: every partition's emitted
  // partials and summed counts, in ascending (stage, partition) order —
  // already transported cross-rank by the backend when needed.
  std::map<std::string, std::vector<Bytes>> gathered_partials;
  std::map<std::string, uint64_t> gathered_counts;
  if (group_ok) {
    for (size_t s = 0; s < n_stages; ++s) {
      for (size_t p = 0; p < n_parts; ++p) {
        const PartResult& r = results[s][p];
        if (!r.ran || part_quarantined[p]) continue;
        for (const auto& [k, v] : r.partials) {
          gathered_partials[k].push_back(v);
        }
        for (const auto& [k, v] : r.counts) gathered_counts[k] += v;
      }
    }
  }

  const PlannedStage& tail = stages[last - 1];
  Status after_status;
  if (group_ok && tail.stage->HasAfterHook()) {
    hook_ctx.Reset(
        DeriveRng(options_.seed, scope.run_index, last - 1, n_parts + 1));
    hook_ctx.SetGathered(&gathered_partials, &gathered_counts);
    after_status = tail.stage->AfterMerge(bundle, hook_ctx);
    hook_ctx.SetGathered(nullptr, nullptr);
    harvest(n_stages - 1);
  }
  const double tail_seconds = tail_timer.Seconds();

  // ---- Aggregate per-stage metrics in deterministic partition order. ----
  std::vector<uint64_t> cur_bytes = part_bytes0;
  uint64_t prev_bytes_after = metrics[0].bundle_bytes_before;
  for (size_t s = 0; s < n_stages; ++s) {
    StageMetrics& m = metrics[s];
    m.partitions = n_parts;
    m.partition_seconds.resize(n_parts, 0.0);
    m.bundle_bytes_before = s == 0 ? metrics[0].bundle_bytes_before
                                   : prev_bytes_after;
    double critical_path = 0;
    bool any_ran = false;
    for (size_t p = 0; p < n_parts; ++p) {
      const PartResult& r = results[s][p];
      m.partition_seconds[p] = r.seconds;
      critical_path = std::max(critical_path, r.seconds);
      if (r.ran) {
        any_ran = true;
        m.attempts += r.attempts;
        m.timeouts += r.timeouts;
        if (r.quarantined) {
          // Dropped, not failed: the stage stays OK, and nothing the
          // quarantined slice produced reaches metrics or provenance.
          m.quarantined.push_back(p);
          cur_bytes[p] = 0;
          continue;
        }
        cur_bytes[p] = r.bytes_after;
        if (m.status.ok() && !r.status.ok()) m.status = r.status;
        for (const auto& [k, v] : r.params) stage_params[s][k] = v;
        for (const auto& [k, v] : r.counts) stage_counts[s][k] += v;
      }
    }
    // Retry counts live in StageMetrics only (a successfully retried run
    // must hash byte-identically to a fault-free one, and shard manifests
    // embed the provenance hash); quarantine DID change the data, so it is
    // a provenance fact.
    if (!m.quarantined.empty()) {
      stage_params[s]["quarantined"] = std::to_string(m.quarantined.size());
    }
    if (s == 0) {
      if (m.status.ok() && !map_status.ok()) m.status = map_status;
      // A bounded collective wait that expired is a timeout too.
      if (map_status.code() == StatusCode::kDeadlineExceeded) ++m.timeouts;
      // Speculation facts attach to the fused group's head stage.
      m.speculative_launched = spec_launches.load(std::memory_order_relaxed);
      m.speculative_wins = spec_wins;
    }
    m.seconds = critical_path;
    if (s == 0) m.seconds += before_split_seconds;
    if (s == n_stages - 1) {
      m.seconds += tail_seconds;
      if (m.status.ok() && !after_status.ok()) m.status = after_status;
    }
    uint64_t bytes_after = leftover_bytes;
    for (uint64_t b : cur_bytes) bytes_after += b;
    m.bundle_bytes_after =
        s == n_stages - 1 ? bundle.ApproxBytes() : bytes_after;
    prev_bytes_after = m.bundle_bytes_after;

    // Drop trailing stages no partition attempted (fail-fast abort hit
    // before they started) — mirrors the serial truncation semantics.
    if (s > 0 && !any_ran) break;

    // Scheduling facts that are backend-invariant go into provenance; the
    // backend name deliberately does not, so thread and SPMD runs hash
    // identically.
    stage_params[s]["hint"] = std::string(ExecutionHintName(m.hint));
    stage_params[s]["partitions"] = std::to_string(n_parts);
    RecordStage(scope, m, MergedParams(stage_params[s], stage_counts[s]));
    report.stages.push_back(std::move(m));
    if (!report.stages.back().status.ok() && fail_fast) break;
  }
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
  const size_t n_groups = window.group_starts.size();
  const PlannedStage& head = stages[first];
  WallTimer window_timer;

  // Group bounds (absolute stage indices) and the level each stage runs at.
  std::vector<size_t> g_first = window.group_starts;
  std::vector<size_t> g_last(n_groups);
  for (size_t g = 0; g < n_groups; ++g) {
    g_last[g] = g + 1 < n_groups ? g_first[g + 1] : last;
  }

  auto effective_deadline = [&](size_t abs) -> const DeadlinePolicy& {
    return stages[abs].deadline.active() ? stages[abs].deadline
                                         : options_.default_deadline;
  };

  std::vector<StageMetrics> metrics(n_stages);
  for (size_t s = 0; s < n_stages; ++s) {
    metrics[s].name = stages[first + s].stage->name();
    metrics[s].kind = stages[first + s].stage->kind();
    metrics[s].hint = stages[first + s].hint;
  }
  metrics[0].bundle_bytes_before = bundle.ApproxBytes();

  StageContext hook_ctx(Rng(0), scope.provenance);
  std::vector<std::map<std::string, std::string>> stage_params(n_stages);
  std::vector<std::map<std::string, uint64_t>> stage_counts(n_stages);
  auto harvest = [&](size_t s) {
    for (const auto& [k, v] : hook_ctx.params()) stage_params[s][k] = v;
    for (const auto& [k, v] : hook_ctx.counts()) stage_counts[s][k] += v;
  };

  WallTimer head_timer;
  Status before_status;
  if (head.stage->HasBeforeHook()) {
    hook_ctx.Reset(DeriveRng(options_.seed, scope.run_index, first, 0));
    before_status = head.stage->BeforePartition(bundle, hook_ctx);
    harvest(0);
  }
  if (!before_status.ok()) {
    metrics[0].status = before_status;
    metrics[0].seconds = head_timer.Seconds();
    metrics[0].bundle_bytes_after = bundle.ApproxBytes();
    RecordStage(scope, metrics[0],
                MergedParams(stage_params[0], stage_counts[0]));
    report.stages.push_back(std::move(metrics[0]));
    return;
  }

  auto split = BundlePartitioner::Split(bundle, head.parallel);
  if (!split.ok()) {
    metrics[0].status = split.status();
    metrics[0].seconds = head_timer.Seconds();
    metrics[0].bundle_bytes_after = bundle.ApproxBytes();
    RecordStage(scope, metrics[0],
                MergedParams(stage_params[0], stage_counts[0]));
    report.stages.push_back(std::move(metrics[0]));
    return;
  }
  std::vector<BundlePartition> roots = std::move(split).value();
  const size_t n_roots = roots.size();
  const size_t n_units = roots.back().slot.hi;
  const uint64_t leftover0 = bundle.ApproxBytes();
  // Streaming cannot reproduce the merge's attr-overlay (one partition's
  // attr write would have to reach *every* downstream partition), so window
  // stages must leave attrs untouched; the commit path enforces it.
  const auto entry_attrs = bundle.attrs;
  const double before_split_seconds = head_timer.Seconds();
  ++report.overlap_windows;

  // Per-level geometry. Every level partitions the same `n_units` units
  // (the contract the commit path enforces per slice), so downstream
  // partition counts are known before anything streams — exactly what a
  // barriered run would have computed from the merged bundle.
  std::vector<size_t> g_grain(n_groups), g_nparts(n_groups);
  for (size_t g = 0; g < n_groups; ++g) {
    g_grain[g] = EffectiveGrain(stages[g_first[g]].parallel);
    g_nparts[g] =
        g == 0 ? n_roots
               : std::max<size_t>(1, (n_units + g_grain[g] - 1) / g_grain[g]);
  }

  std::vector<std::vector<PartResult>> results(n_stages);
  std::vector<std::vector<uint64_t>> level_bytes0(n_groups);
  for (size_t s = 0; s < n_stages; ++s) {
    size_t g = 0;
    while (first + s >= g_last[g]) ++g;
    results[s].resize(g_nparts[g]);
  }
  for (size_t g = 0; g < n_groups; ++g) level_bytes0[g].resize(g_nparts[g], 0);
  for (size_t p = 0; p < n_roots; ++p) {
    level_bytes0[0][p] = roots[p].bundle.ApproxBytes();
  }

  // Committed final-level slices, residual upstream content (what a stage
  // left in its slice besides the partitioned units), and their byte sizes
  // for the interior-merge accounting. Each cell is written by exactly one
  // worker (the one that processed that item) and read by the scheduler
  // after Map returns.
  std::vector<std::optional<BundlePartition>> final_parts(g_nparts.back());
  std::vector<std::vector<std::optional<DataBundle>>> residuals(n_groups - 1);
  std::vector<std::vector<uint64_t>> residual_bytes(n_groups - 1);
  for (size_t g = 0; g + 1 < n_groups; ++g) {
    residuals[g].resize(g_nparts[g]);
    residual_bytes[g].resize(g_nparts[g], 0);
  }

  std::atomic<bool> abort{false};
  const bool fail_fast = options_.fail_fast;

  std::vector<const DeadlinePolicy*> policies(n_stages);
  bool any_hard = false;
  double collective_ms = 0;
  for (size_t s = 0; s < n_stages; ++s) {
    policies[s] = &effective_deadline(first + s);
    any_hard |= policies[s]->hard_ms > 0;
    collective_ms = std::max(collective_ms, policies[s]->collective_ms);
  }
  std::unique_ptr<AttemptWatchdog> watchdog;
  if (any_hard) {
    // No straggler callback: soft deadlines are barred from windows, so
    // speculation never arms here.
    watchdog = std::make_unique<AttemptWatchdog>(
        WatchdogPollMs(MinArmedLimitMs(policies)));
  }

  // One unit of streamed work: partition `q` of level (= group) `level`.
  struct WindowItem {
    size_t level = 0;
    size_t q = 0;
    BundlePartition part;
  };

  // Run the item's group chain in place. Identical retry/fault/deadline
  // semantics to the barriered Mode A path: pristine-slice snapshot, same
  // derived RNG per attempt, watchdog hard-deadline tracking; the RNG slot
  // and fault cell are (absolute stage, global partition index), so every
  // injected fault and every random draw lands exactly where the barriered
  // run would put it.
  auto run_item_chain = [&](size_t level, size_t q, BundlePartition& part) {
    for (size_t abs = g_first[level]; abs < g_last[level]; ++abs) {
      if (fail_fast && abort.load(std::memory_order_relaxed)) return false;
      const PlannedStage& planned = stages[abs];
      const RetryPolicy& retry = planned.retry;
      const DeadlinePolicy& deadline = *policies[abs - first];
      PartResult& r = results[abs - first][q];
      std::optional<DataBundle> snapshot;
      if (retry.max_attempts > 1) snapshot = part.bundle.Clone();
      size_t attempt = 1;
      WallTimer t;
      for (;;) {
        StageContext ctx(
            DeriveRng(options_.seed, scope.run_index, abs, q + 1),
            scope.provenance);
        ctx.SetPartition(part.slot);
        ctx.SetAttempt(attempt);
        if (options_.faults.active()) {
          ctx.SetInjectedFault(options_.faults.Decide(
              scope.run_index, planned.stage->name(), abs, q, attempt));
        }
        const uint64_t key = (static_cast<uint64_t>(level) << 32) | q;
        const bool watched = watchdog && deadline.hard_ms > 0;
        if (watched) {
          watchdog->Track(key, ctx.cancel_token(), /*soft_ms=*/0.0,
                          deadline.hard_ms,
                          "stage '" + planned.stage->name() + "' partition " +
                              std::to_string(q));
        }
        r.status = GuardedRun(*planned.stage, part.bundle, ctx);
        if (watched) watchdog->Release(key);
        r.params = ctx.params();
        r.counts = ctx.counts();
        r.partials = ctx.TakePartials();
        if (r.status.code() == StatusCode::kDeadlineExceeded) ++r.timeouts;
        if (r.status.ok() || attempt >= retry.max_attempts ||
            !retry.ShouldRetry(r.status)) {
          break;
        }
        ++attempt;
        BackoffSleep(retry, attempt);
        part.bundle = snapshot->Clone();
      }
      r.seconds = t.Seconds();
      r.bytes_after = part.bundle.ApproxBytes();
      r.ran = true;
      r.attempts = attempt;
      if (!r.status.ok()) {
        if (fail_fast) abort.store(true, std::memory_order_relaxed);
        return false;
      }
    }
    return true;
  };

  // Commit an upstream item: re-split its slice at the downstream grain
  // into whole global downstream partitions. The slot arithmetic works
  // because upstream partition boundaries are multiples of the upstream
  // grain, which is a multiple of the downstream grain (the planner's
  // divisibility rule), so child q of the window equals child q of the
  // barriered run — same slot, same RNG stream, same fault cell.
  auto resplit = [&](size_t level, size_t q, BundlePartition&& part,
                     std::vector<WindowItem>& children) -> Status {
    const size_t next = level + 1;
    const ParallelSpec& spec = stages[g_first[next]].parallel;
    const std::string& tail_name = stages[g_last[level] - 1].stage->name();
    if (part.bundle.attrs != entry_attrs) {
      return FailedPrecondition(
          "stage '" + tail_name + "' modified bundle attrs inside an overlap "
          "window; attr writes need the merge barrier — mark this boundary "
          "OverlapPolicy::kBarrier");
    }
    const size_t expect = part.slot.hi - part.slot.lo;
    const size_t base_q = part.slot.lo / g_grain[next];
    std::vector<BundlePartition> sub;
    if (spec.axis == PartitionAxis::kRange) {
      // Range children carry no content — just attrs plus their slot, like
      // the barriered split; producer-written content rides the residual.
      const size_t n_children =
          (expect + g_grain[next] - 1) / g_grain[next];
      sub.resize(n_children);
      for (size_t c = 0; c < n_children; ++c) {
        sub[c].bundle.attrs = part.bundle.attrs;
      }
    } else {
      auto counted =
          BundlePartitioner::CountUnits(part.bundle, spec.axis, spec);
      if (!counted.ok()) return counted.status();
      if (counted.value() != expect) {
        return FailedPrecondition(
            "stage '" + tail_name + "' changed its partition's unit count (" +
            std::to_string(expect) + " -> " +
            std::to_string(counted.value()) + ") inside an overlap window; "
            "streamed stages must preserve unit counts — mark this boundary "
            "OverlapPolicy::kBarrier");
      }
      auto local = BundlePartitioner::Split(part.bundle, spec);
      if (!local.ok()) return local.status();
      sub = std::move(local).value();
    }
    children.reserve(sub.size());
    for (size_t c = 0; c < sub.size(); ++c) {
      WindowItem child;
      child.level = next;
      child.q = base_q + c;
      child.part.bundle = std::move(sub[c].bundle);
      child.part.slot.index = child.q;
      child.part.slot.count = g_nparts[next];
      child.part.slot.lo = std::min(n_units, child.q * g_grain[next]);
      child.part.slot.hi = std::min(n_units, (child.q + 1) * g_grain[next]);
      level_bytes0[next][child.q] = child.part.bundle.ApproxBytes();
      children.push_back(std::move(child));
    }
    residual_bytes[level][q] = part.bundle.ApproxBytes();
    residuals[level][q] = std::move(part.bundle);
    return Status::Ok();
  };

  // Process one item to completion: run its chain, then either park the
  // final slice or re-split and hand the children on — preferably through
  // the channel (another crew worker picks them up), inline otherwise.
  // `outstanding` counts unfinished items; children are counted before
  // their parent retires, so the count can only reach zero when the whole
  // cascade is done — that closes the channel and releases the crew.
  PartitionChannel<WindowItem>* chan_ptr = nullptr;
  std::atomic<size_t> outstanding{0};
  std::function<void(WindowItem&&)> process = [&](WindowItem&& item) {
    std::vector<WindowItem> children;
    if (!(fail_fast && abort.load(std::memory_order_relaxed)) &&
        run_item_chain(item.level, item.q, item.part)) {
      if (item.level + 1 == n_groups) {
        final_parts[item.q] = std::move(item.part);
      } else {
        Status st =
            resplit(item.level, item.q, std::move(item.part), children);
        if (!st.ok()) {
          // A streaming-contract violation surfaces on the level's last
          // stage — the stage whose output could not be re-split.
          results[g_last[item.level] - 1 - first][item.q].status = st;
          if (fail_fast) abort.store(true, std::memory_order_relaxed);
          children.clear();
        }
      }
    }
    std::vector<WindowItem> inline_children;
    if (chan_ptr != nullptr) {
      outstanding.fetch_add(children.size(), std::memory_order_acq_rel);
      for (WindowItem& c : children) {
        // TryPush leaves `c` intact on failure (full channel), so the
        // producer runs the child itself — pushes never block, which keeps
        // the crew deadlock-free at any worker count.
        if (!chan_ptr->TryPush(std::move(c))) {
          inline_children.push_back(std::move(c));
        }
      }
      if (outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        chan_ptr->Close();
      }
    } else {
      inline_children = std::move(children);
    }
    for (WindowItem& c : inline_children) process(std::move(c));
  };

  PartitionTask task;
  task.collective_timeout_ms = collective_ms;
  size_t max_parts = 0;
  for (size_t np : g_nparts) max_parts = std::max(max_parts, np);
  const size_t crew =
      std::max<size_t>(1, std::min(backend_->concurrency(), max_parts));
  PartitionChannel<WindowItem> chan(n_roots + 2 * crew);
  if (backend_->dynamic_tasks()) {
    // Work-crew shape: seed the channel with the roots and let `crew`
    // backend slots drain it; work discovered mid-map (committed children)
    // re-enters the same channel.
    chan_ptr = &chan;
    outstanding.store(n_roots, std::memory_order_relaxed);
    for (size_t p = 0; p < n_roots; ++p) {
      WindowItem item;
      item.level = 0;
      item.q = p;
      item.part = std::move(roots[p]);
      chan.TryPush(std::move(item));  // capacity >= n_roots: cannot fail
    }
    task.n_parts = crew;
    task.run = [&](size_t) {
      while (auto item = chan.Pop()) process(std::move(*item));
    };
  } else {
    // Static shape (SPMD): the rank that owns root p runs p's entire
    // downstream cone depth-first, overlapping its local partitions; the
    // backend gathers once per window, not once per group. Outcome cells
    // are written rank-locally and read after the map joins — the same
    // in-process-ranks shared-memory contract the quarantine stash uses.
    task.n_parts = n_roots;
    task.run = [&](size_t p) {
      WindowItem item;
      item.level = 0;
      item.q = p;
      item.part = std::move(roots[p]);
      process(std::move(item));
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
  if (watchdog) watchdog->Stop();

  WallTimer tail_timer;

  // Window-end merge, reproducing the barriered bundle exactly: residual
  // content in ascending (level, partition) order — the order the interior
  // merges would have appended it — then the final level's slices in
  // ascending partition order. Slot indices here are merge-ordering keys.
  {
    std::vector<BundlePartition> merge_parts;
    size_t order = 0;
    for (size_t g = 0; g + 1 < n_groups; ++g) {
      for (size_t q = 0; q < g_nparts[g]; ++q) {
        if (!residuals[g][q].has_value()) continue;
        BundlePartition bp;
        bp.bundle = std::move(*residuals[g][q]);
        bp.slot.index = order++;
        merge_parts.push_back(std::move(bp));
      }
    }
    for (size_t q = 0; q < g_nparts.back(); ++q) {
      if (!final_parts[q].has_value()) continue;
      BundlePartition bp = std::move(*final_parts[q]);
      bp.slot.index = order++;
      merge_parts.push_back(std::move(bp));
    }
    BundlePartitioner::Merge(bundle, merge_parts);
  }

  bool group_ok = map_status.ok();
  for (size_t s = 0; s < n_stages && group_ok; ++s) {
    for (const PartResult& r : results[s]) {
      if (!r.ran || !r.status.ok()) {
        group_ok = false;
        break;
      }
    }
  }

  // The After hook belongs to the window's final group: its reduction
  // inputs are that group's partials/counts in ascending (stage, partition)
  // order, exactly as the barriered group merge would gather them.
  std::map<std::string, std::vector<Bytes>> gathered_partials;
  std::map<std::string, uint64_t> gathered_counts;
  const PlannedStage& tail = stages[last - 1];
  Status after_status;
  if (group_ok && tail.stage->HasAfterHook()) {
    for (size_t abs = g_first.back(); abs < last; ++abs) {
      for (const PartResult& r : results[abs - first]) {
        if (!r.ran) continue;
        for (const auto& [k, v] : r.partials) gathered_partials[k].push_back(v);
        for (const auto& [k, v] : r.counts) gathered_counts[k] += v;
      }
    }
    hook_ctx.Reset(DeriveRng(options_.seed, scope.run_index, last - 1,
                             g_nparts.back() + 1));
    hook_ctx.SetGathered(&gathered_partials, &gathered_counts);
    after_status = tail.stage->AfterMerge(bundle, hook_ctx);
    hook_ctx.SetGathered(nullptr, nullptr);
    harvest(n_stages - 1);
  }
  const double tail_seconds = tail_timer.Seconds();

  // ---- Aggregate per-stage metrics in canonical (stage, partition) order,
  // reproducing the barriered accounting: a stage's bundle_bytes_after is
  // its level's leftover (window leftover plus upstream residuals — exact,
  // because ApproxBytes is item-additive) plus its partitions' bytes.
  std::vector<uint64_t> level_leftover(n_groups, leftover0);
  for (size_t g = 1; g < n_groups; ++g) {
    level_leftover[g] = level_leftover[g - 1];
    for (uint64_t b : residual_bytes[g - 1]) level_leftover[g] += b;
  }

  uint64_t prev_bytes_after = metrics[0].bundle_bytes_before;
  bool stop = false;
  for (size_t g = 0; g < n_groups && !stop; ++g) {
    bool group_failed = false;
    for (size_t abs = g_first[g]; abs < g_last[g]; ++abs) {
      const size_t s = abs - first;
      StageMetrics& m = metrics[s];
      const size_t np = g_nparts[g];
      m.partitions = np;
      m.overlapped = true;
      m.partition_seconds.resize(np, 0.0);
      m.bundle_bytes_before = prev_bytes_after;
      double critical_path = 0;
      bool any_ran = false;
      uint64_t sum_bytes = 0;
      for (size_t q = 0; q < np; ++q) {
        const PartResult& r = results[s][q];
        m.partition_seconds[q] = r.seconds;
        critical_path = std::max(critical_path, r.seconds);
        if (r.ran) {
          any_ran = true;
          m.attempts += r.attempts;
          m.timeouts += r.timeouts;
          sum_bytes += r.bytes_after;
          if (m.status.ok() && !r.status.ok()) m.status = r.status;
          for (const auto& [k, v] : r.params) stage_params[s][k] = v;
          for (const auto& [k, v] : r.counts) stage_counts[s][k] += v;
        } else {
          sum_bytes += level_bytes0[g][q];
        }
      }
      if (s == 0) {
        if (m.status.ok() && !map_status.ok()) m.status = map_status;
        if (map_status.code() == StatusCode::kDeadlineExceeded) ++m.timeouts;
      }
      m.seconds = critical_path;
      if (s == 0) m.seconds += before_split_seconds;
      if (s == n_stages - 1) {
        m.seconds += tail_seconds;
        if (m.status.ok() && !after_status.ok()) m.status = after_status;
      }
      m.bundle_bytes_after = s == n_stages - 1
                                 ? bundle.ApproxBytes()
                                 : level_leftover[g] + sum_bytes;
      prev_bytes_after = m.bundle_bytes_after;

      // Mirror the barriered truncation semantics group by group: trailing
      // stages no partition attempted produce no row.
      if (abs > g_first[g] && !any_ran) break;

      stage_params[s]["hint"] = std::string(ExecutionHintName(m.hint));
      stage_params[s]["partitions"] = std::to_string(np);
      RecordStage(scope, m, MergedParams(stage_params[s], stage_counts[s]));
      report.stages.push_back(std::move(m));
      if (!report.stages.back().status.ok()) {
        group_failed = true;
        if (fail_fast) {
          stop = true;
          break;
        }
      }
    }
    // Groups downstream of a failure never ran in barrier terms: their rows
    // are dropped here and Run() records them as skipped (or truncates).
    if (group_failed) stop = true;
  }

  // Savings estimate: a barriered run pays each stage's critical path
  // back-to-back; the window paid one overlapped wall. Split/merge overhead
  // the barrier would also pay per group is not credited, so this
  // under-reports rather than flatters.
  double barrier_estimate = before_split_seconds + tail_seconds;
  for (size_t s = 0; s < n_stages; ++s) {
    double critical_path = 0;
    for (const PartResult& r : results[s]) {
      critical_path = std::max(critical_path, r.seconds);
    }
    barrier_estimate += critical_path;
  }
  const double window_wall = window_timer.Seconds();
  if (barrier_estimate > window_wall) {
    report.overlap_seconds_saved += barrier_estimate - window_wall;
  }
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
