// Tests for inter-stage pipelining (overlap windows): the
// ComputeOverlapWindows legality pass, the streaming scheduler itself (one
// static shape on every backend: the worker or rank that owns a root
// partition runs its whole downstream cone depth-first), and the
// differential matrix proving that overlap is invisible in the output —
// same bundle bytes, same provenance, same report facts as barriered
// execution, on both backends, at any worker count, with and without
// injected faults and hangs, for all four archetypes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "diff_harness.hpp"

namespace drai::core {
namespace {

// ---- ComputeOverlapWindows --------------------------------------------------

LambdaStage::Fn Noop() {
  return [](DataBundle&, StageContext&) -> Status { return Status::Ok(); };
}

ParallelSpec ExSpec(size_t grain) {
  ParallelSpec spec;
  spec.axis = PartitionAxis::kExamples;
  spec.grain = grain;
  return spec;
}

/// Two partition-parallel stages, grains `up` -> `down`, boundary marked
/// kStream — the minimal window candidate the legality tests perturb.
PipelinePlan TwoStagePlan(size_t up_grain, size_t down_grain) {
  PipelinePlan plan("w");
  plan.Add("up", StageKind::kPreprocess, ExecutionHint::kPartitionParallel,
           Noop(), ExSpec(up_grain));
  plan.Add("down", StageKind::kTransform, ExecutionHint::kPartitionParallel,
           Noop(), ExSpec(down_grain));
  plan.WithOverlap(OverlapPolicy::kStream);
  return plan;
}

TEST(ComputeOverlapWindows, OptInCompatibleBoundaryFormsWindow) {
  PipelinePlan plan = TwoStagePlan(4, 1);
  const auto windows = ComputeOverlapWindows(plan, ExecutionOptions{});
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].first, 0u);
  EXPECT_EQ(windows[0].last, 2u);
  EXPECT_EQ(windows[0].group_starts, (std::vector<size_t>{0, 1}));
}

TEST(ComputeOverlapWindows, NoOptInNoWindow) {
  PipelinePlan plan("w");
  plan.Add("up", StageKind::kPreprocess, ExecutionHint::kPartitionParallel,
           Noop(), ExSpec(4));
  plan.Add("down", StageKind::kTransform, ExecutionHint::kPartitionParallel,
           Noop(), ExSpec(1));  // compatible, but never marked kStream
  EXPECT_TRUE(ComputeOverlapWindows(plan, ExecutionOptions{}).empty());
}

TEST(ComputeOverlapWindows, MasterSwitchOffDisablesWindows) {
  PipelinePlan plan = TwoStagePlan(4, 1);
  ExecutionOptions options;
  options.overlap = false;
  EXPECT_TRUE(ComputeOverlapWindows(plan, options).empty());
}

TEST(ComputeOverlapWindows, SerialStageBlocksWindow) {
  PipelinePlan plan("w");
  plan.Add("up", StageKind::kPreprocess, Noop());  // serial
  plan.Add("down", StageKind::kTransform, ExecutionHint::kPartitionParallel,
           Noop(), ExSpec(1));
  plan.WithOverlap(OverlapPolicy::kStream);
  EXPECT_TRUE(ComputeOverlapWindows(plan, ExecutionOptions{}).empty());
}

TEST(ComputeOverlapWindows, AxisMismatchBlocksWindow) {
  PipelinePlan plan("w");
  plan.Add("up", StageKind::kPreprocess, ExecutionHint::kPartitionParallel,
           Noop(), ExSpec(4));
  ParallelSpec rows;
  rows.axis = PartitionAxis::kTableRows;
  rows.grain = 1;
  plan.Add("down", StageKind::kTransform, ExecutionHint::kPartitionParallel,
           Noop(), rows);
  plan.WithOverlap(OverlapPolicy::kStream);
  EXPECT_TRUE(ComputeOverlapWindows(plan, ExecutionOptions{}).empty());
}

TEST(ComputeOverlapWindows, AutoAxisBlocksWindow) {
  PipelinePlan plan("w");
  ParallelSpec autospec;  // kAuto: resolved per-bundle, not provable statically
  autospec.grain = 4;
  plan.Add("up", StageKind::kPreprocess, ExecutionHint::kPartitionParallel,
           Noop(), autospec);
  ParallelSpec autodown = autospec;
  autodown.grain = 1;
  plan.Add("down", StageKind::kTransform, ExecutionHint::kPartitionParallel,
           Noop(), autodown);
  plan.WithOverlap(OverlapPolicy::kStream);
  EXPECT_TRUE(ComputeOverlapWindows(plan, ExecutionOptions{}).empty());
}

TEST(ComputeOverlapWindows, GrainNotAMultipleBlocksWindow) {
  PipelinePlan plan = TwoStagePlan(3, 2);  // 3 % 2 != 0
  EXPECT_TRUE(ComputeOverlapWindows(plan, ExecutionOptions{}).empty());
}

TEST(ComputeOverlapWindows, CoarseningBoundaryBlocksWindow) {
  PipelinePlan plan = TwoStagePlan(2, 4);  // downstream grain must divide up
  EXPECT_TRUE(ComputeOverlapWindows(plan, ExecutionOptions{}).empty());
}

TEST(ComputeOverlapWindows, AfterHookOnUpstreamBlocksWindow) {
  PipelinePlan plan("w");
  plan.Add("up", StageKind::kPreprocess, ExecutionHint::kPartitionParallel,
           /*before=*/nullptr, Noop(), /*after=*/Noop(), ExSpec(4));
  plan.Add("down", StageKind::kTransform, ExecutionHint::kPartitionParallel,
           Noop(), ExSpec(1));
  plan.WithOverlap(OverlapPolicy::kStream);
  EXPECT_TRUE(ComputeOverlapWindows(plan, ExecutionOptions{}).empty());
}

TEST(ComputeOverlapWindows, BeforeHookOnDownstreamBlocksWindow) {
  PipelinePlan plan("w");
  plan.Add("up", StageKind::kPreprocess, ExecutionHint::kPartitionParallel,
           Noop(), ExSpec(4));
  plan.Add("down", StageKind::kTransform, ExecutionHint::kPartitionParallel,
           /*before=*/Noop(), Noop(), /*after=*/nullptr, ExSpec(1));
  plan.WithOverlap(OverlapPolicy::kStream);
  EXPECT_TRUE(ComputeOverlapWindows(plan, ExecutionOptions{}).empty());
}

TEST(ComputeOverlapWindows, QuarantinePolicyInsideWindowBlocksIt) {
  PipelinePlan plan = TwoStagePlan(4, 1);
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.quarantine = true;  // drops are merge-scoped: incompatible
  plan.WithRetry(retry);
  EXPECT_TRUE(ComputeOverlapWindows(plan, ExecutionOptions{}).empty());
}

TEST(ComputeOverlapWindows, PlainRetryInsideWindowIsAllowed) {
  PipelinePlan plan = TwoStagePlan(4, 1);
  RetryPolicy retry;
  retry.max_attempts = 3;
  plan.WithRetry(retry);
  EXPECT_EQ(ComputeOverlapWindows(plan, ExecutionOptions{}).size(), 1u);
}

TEST(ComputeOverlapWindows, SoftDeadlineInsideWindowBlocksIt) {
  PipelinePlan plan = TwoStagePlan(4, 1);
  DeadlinePolicy deadline;
  deadline.soft_ms = 50;  // speculation assumes the group barrier
  plan.WithDeadline(deadline);
  EXPECT_TRUE(ComputeOverlapWindows(plan, ExecutionOptions{}).empty());
}

TEST(ComputeOverlapWindows, DefaultSoftDeadlineBlocksViaOptions) {
  PipelinePlan plan = TwoStagePlan(4, 1);
  ExecutionOptions options;
  options.default_deadline.soft_ms = 50;
  EXPECT_TRUE(ComputeOverlapWindows(plan, options).empty());
}

TEST(ComputeOverlapWindows, HardDeadlineInsideWindowIsAllowed) {
  PipelinePlan plan = TwoStagePlan(4, 1);
  DeadlinePolicy deadline;
  deadline.hard_ms = 500;
  plan.WithDeadline(deadline);
  EXPECT_EQ(ComputeOverlapWindows(plan, ExecutionOptions{}).size(), 1u);
}

TEST(ComputeOverlapWindows, EqualSpecsFuseInsteadOfStreaming) {
  // Equal specs make one fused group — FusedGroupEnd already covers the
  // boundary, so the kStream mark is dormant and no window forms.
  PipelinePlan plan = TwoStagePlan(2, 2);
  EXPECT_TRUE(ComputeOverlapWindows(plan, ExecutionOptions{}).empty());
}

TEST(ComputeOverlapWindows, RangeAxisNeedsMatchingRangeCount) {
  auto range_spec = [](size_t grain, size_t count) {
    ParallelSpec spec;
    spec.axis = PartitionAxis::kRange;
    spec.grain = grain;
    spec.range_count = count;
    return spec;
  };
  PipelinePlan mismatched("w");
  mismatched.Add("up", StageKind::kPreprocess,
                 ExecutionHint::kPartitionParallel, Noop(), range_spec(4, 16));
  mismatched.Add("down", StageKind::kTransform,
                 ExecutionHint::kPartitionParallel, Noop(), range_spec(1, 8));
  mismatched.WithOverlap(OverlapPolicy::kStream);
  EXPECT_TRUE(ComputeOverlapWindows(mismatched, ExecutionOptions{}).empty());

  PipelinePlan matched("w");
  matched.Add("up", StageKind::kPreprocess, ExecutionHint::kPartitionParallel,
              Noop(), range_spec(4, 16));
  matched.Add("down", StageKind::kTransform, ExecutionHint::kPartitionParallel,
              Noop(), range_spec(1, 16));
  matched.WithOverlap(OverlapPolicy::kStream);
  EXPECT_EQ(ComputeOverlapWindows(matched, ExecutionOptions{}).size(), 1u);
}

TEST(ComputeOverlapWindows, ThreeGroupChainFormsOneWindow) {
  PipelinePlan plan("w");
  plan.Add("head", StageKind::kIngest, Noop());
  plan.Add("a", StageKind::kPreprocess, ExecutionHint::kPartitionParallel,
           Noop(), ExSpec(8));
  plan.Add("b", StageKind::kTransform, ExecutionHint::kPartitionParallel,
           Noop(), ExSpec(4));
  plan.WithOverlap(OverlapPolicy::kStream);
  plan.Add("c", StageKind::kStructure, ExecutionHint::kPartitionParallel,
           Noop(), ExSpec(2));
  plan.WithOverlap(OverlapPolicy::kStream);
  const auto windows = ComputeOverlapWindows(plan, ExecutionOptions{});
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].first, 1u);
  EXPECT_EQ(windows[0].last, 4u);
  EXPECT_EQ(windows[0].group_starts, (std::vector<size_t>{1, 2, 3}));
}

// ---- BarrierLevelSeconds ----------------------------------------------------

TEST(BarrierLevelSeconds, ChargesChildrenToTheirRootsWorker) {
  // Two roots on two workers, each re-split into two children. Level 0's
  // busiest worker runs 3 s, level 1's runs 2 + 2 = 4 s (both children of
  // root 1): a barrier pays 7 s. The per-stage longest partitions add up
  // to only 3 + 2 = 5 s, no more than the window's own wall (max(3 + 2,
  // 1 + 4) = 5 s), which is why that estimate never credited a saving.
  const std::vector<std::vector<double>> seconds = {{3, 1}, {1, 1, 2, 2}};
  const std::vector<std::vector<size_t>> root = {{0, 1}, {0, 0, 1, 1}};
  EXPECT_DOUBLE_EQ(BarrierLevelSeconds(seconds, root, {0, 1}), 7.0);
  // One worker ran both roots: each level costs its whole sum.
  EXPECT_DOUBLE_EQ(BarrierLevelSeconds(seconds, root, {0, 0}), 10.0);
  EXPECT_DOUBLE_EQ(BarrierLevelSeconds({}, {}, {}), 0.0);
}

TEST(BarrierLevelSeconds, NeverBelowTheBusiestWorkersWindowTotal) {
  // The barrier pays each level's busiest worker, so it can never pay less
  // than any one worker's work across the window.
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n_roots = 1 + rng.UniformU64(6);
    const size_t n_workers = 1 + rng.UniformU64(4);
    std::vector<size_t> root_worker(n_roots);
    for (size_t& w : root_worker) w = rng.UniformU64(n_workers);
    std::vector<std::vector<double>> seconds;
    std::vector<std::vector<size_t>> root;
    std::vector<double> window(n_workers, 0.0);
    size_t fan = 1;
    for (size_t g = 0; g < 3; ++g, fan *= 2) {
      seconds.emplace_back();
      root.emplace_back();
      for (size_t q = 0; q < n_roots * fan; ++q) {
        seconds[g].push_back(rng.Uniform(0, 1));
        root[g].push_back(q / fan);
        window[root_worker[q / fan]] += seconds[g].back();
      }
    }
    EXPECT_GE(BarrierLevelSeconds(seconds, root, root_worker) + 1e-12,
              *std::max_element(window.begin(), window.end()))
        << trial;
  }
}

// ---- streaming execution ----------------------------------------------------

struct SyntheticRun {
  PipelineReport report;
  std::vector<std::string> keys;
  std::vector<int64_t> labels;
  std::string provenance_hash;
};

struct SyntheticOptions {
  bool overlap = true;
  Backend backend = Backend::kThread;
  size_t workers = 4;
  FaultPlan faults;
  RetryPolicy retry;
  DeadlinePolicy deadline;
  bool attr_write_in_up = false;
  bool grow_in_up = false;
};

/// make(16 examples) -> up(grain 8) -> down(grain 2, kStream): labels flow
/// through two per-partition RNG transforms, so any scheduling deviation
/// from the barriered run shows up as different label bytes.
SyntheticRun RunSynthetic(const SyntheticOptions& so) {
  ExecutionOptions options;
  options.backend = so.backend;
  options.threads = so.workers;
  options.seed = 77;
  options.overlap = so.overlap;
  options.faults = so.faults;
  Pipeline p("overlap-synthetic", options);

  p.Add("make", StageKind::kIngest,
        [](DataBundle& bundle, StageContext&) -> Status {
          for (size_t i = 0; i < 16; ++i) {
            shard::Example ex;
            ex.key = std::string("e") + std::to_string(100 + i);
            ex.SetLabel(static_cast<int64_t>(i));
            bundle.examples.push_back(std::move(ex));
          }
          return Status::Ok();
        });

  p.Add("up", StageKind::kPreprocess, ExecutionHint::kPartitionParallel,
        [so](DataBundle& bundle, StageContext& ctx) -> Status {
          for (auto& ex : bundle.examples) {
            ex.SetLabel(ex.Label().value() +
                        static_cast<int64_t>(ctx.rng().NextU64() % 1000));
          }
          if (so.attr_write_in_up) {
            bundle.SetAttr("up_note", container::AttrValue::Int(1));
          }
          if (so.grow_in_up) {
            shard::Example extra;
            extra.key = "extra";
            bundle.examples.push_back(std::move(extra));
          }
          ctx.NoteCount("up_touched", bundle.examples.size());
          return Status::Ok();
        },
        ExSpec(8));
  p.WithRetry(so.retry);
  p.WithDeadline(so.deadline);

  p.Add("down", StageKind::kTransform, ExecutionHint::kPartitionParallel,
        [](DataBundle& bundle, StageContext& ctx) -> Status {
          for (auto& ex : bundle.examples) {
            if (ex.Find("label") == nullptr) continue;  // grow_in_up extras
            ex.SetLabel(ex.Label().value() * 3 +
                        static_cast<int64_t>(ctx.rng().NextU64() % 7));
          }
          ctx.NoteCount("down_touched", bundle.examples.size());
          return Status::Ok();
        },
        ExSpec(2));
  p.WithRetry(so.retry);
  p.WithDeadline(so.deadline);
  p.WithOverlap(OverlapPolicy::kStream);

  SyntheticRun out;
  DataBundle bundle;
  out.report = p.Run(bundle);
  for (const auto& ex : bundle.examples) {
    out.keys.push_back(ex.key);
    if (ex.Find("label") != nullptr) out.labels.push_back(ex.Label().value());
  }
  out.provenance_hash = p.provenance().RecordHash();
  return out;
}

/// Everything that must not depend on the execution strategy: stage rows
/// (identity, status, partition geometry, byte accounting, attempts) and
/// overall success. Seconds and the overlap bookkeeping fields may differ.
void ExpectSameFacts(const PipelineReport& a, const PipelineReport& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error.code(), b.error.code());
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].name, b.stages[i].name) << i;
    EXPECT_EQ(a.stages[i].status.code(), b.stages[i].status.code()) << i;
    EXPECT_EQ(a.stages[i].partitions, b.stages[i].partitions) << i;
    EXPECT_EQ(a.stages[i].bundle_bytes_before, b.stages[i].bundle_bytes_before)
        << i;
    EXPECT_EQ(a.stages[i].bundle_bytes_after, b.stages[i].bundle_bytes_after)
        << i;
    EXPECT_EQ(a.stages[i].attempts, b.stages[i].attempts) << i;
  }
}

TEST(OverlapExecution, StreamedRunMatchesBarrieredRun) {
  SyntheticOptions barrier;
  barrier.overlap = false;
  const SyntheticRun base = RunSynthetic(barrier);
  ASSERT_TRUE(base.report.ok);
  EXPECT_EQ(base.report.overlap_windows, 0u);

  SyntheticOptions streamed;
  streamed.overlap = true;
  const SyntheticRun over = RunSynthetic(streamed);
  ASSERT_TRUE(over.report.ok);
  EXPECT_EQ(over.report.overlap_windows, 1u);
  EXPECT_GE(over.report.overlap_seconds_saved, 0.0);

  EXPECT_EQ(over.keys, base.keys);
  EXPECT_EQ(over.labels, base.labels);
  EXPECT_EQ(over.provenance_hash, base.provenance_hash);
  ExpectSameFacts(over.report, base.report);

  // The window stages are flagged; the serial head is not.
  ASSERT_EQ(over.report.stages.size(), 3u);
  EXPECT_FALSE(over.report.stages[0].overlapped);
  EXPECT_TRUE(over.report.stages[1].overlapped);
  EXPECT_TRUE(over.report.stages[2].overlapped);
  EXPECT_FALSE(base.report.stages[1].overlapped);
}

TEST(OverlapExecution, StreamedOutputIdenticalAcrossWorkerCounts) {
  SyntheticOptions barrier;
  barrier.overlap = false;
  barrier.workers = 1;
  const SyntheticRun base = RunSynthetic(barrier);
  ASSERT_TRUE(base.report.ok);
  for (size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
    SyntheticOptions streamed;
    streamed.workers = workers;
    const SyntheticRun over = RunSynthetic(streamed);
    ASSERT_TRUE(over.report.ok) << workers;
    EXPECT_EQ(over.labels, base.labels) << workers;
    EXPECT_EQ(over.provenance_hash, base.provenance_hash) << workers;
  }
}

TEST(OverlapExecution, SpmdRanksStreamRankLocally) {
  SyntheticOptions barrier;
  barrier.overlap = false;
  const SyntheticRun base = RunSynthetic(barrier);
  ASSERT_TRUE(base.report.ok);
  for (size_t ranks : {size_t{1}, size_t{4}}) {
    SyntheticOptions spmd;
    spmd.backend = Backend::kSpmd;
    spmd.workers = ranks;
    const SyntheticRun over = RunSynthetic(spmd);
    ASSERT_TRUE(over.report.ok) << ranks;
    EXPECT_EQ(over.report.overlap_windows, 1u) << ranks;
    EXPECT_EQ(over.labels, base.labels) << ranks;
    EXPECT_EQ(over.provenance_hash, base.provenance_hash) << ranks;
    ExpectSameFacts(over.report, base.report);
  }
}

TEST(OverlapExecution, FaultInsideWindowRetriesToIdenticalBytes) {
  SyntheticOptions clean;
  clean.overlap = false;
  const SyntheticRun base = RunSynthetic(clean);
  ASSERT_TRUE(base.report.ok);

  SyntheticOptions faulted;
  FaultSite site;
  site.stage = "down";
  site.partition = 3;
  site.fail_attempts = 1;
  faulted.faults.sites.push_back(site);
  faulted.retry.max_attempts = 2;
  const SyntheticRun over = RunSynthetic(faulted);
  ASSERT_TRUE(over.report.ok);
  EXPECT_EQ(over.report.overlap_windows, 1u);
  // One extra attempt on the faulted partition, same bytes after retry.
  EXPECT_EQ(over.report.stages[2].attempts, 9u);  // 8 partitions + 1 retry
  EXPECT_EQ(over.labels, base.labels);
  EXPECT_EQ(over.provenance_hash, base.provenance_hash);
}

TEST(OverlapExecution, FailureInsideWindowMatchesBarrieredFailure) {
  SyntheticOptions so;
  FaultSite site;
  site.stage = "down";
  site.partition = 5;
  site.fail_attempts = 99;  // no retry budget: the run fails
  so.faults.sites.push_back(site);

  so.overlap = false;
  const SyntheticRun barrier = RunSynthetic(so);
  so.overlap = true;
  const SyntheticRun over = RunSynthetic(so);

  EXPECT_FALSE(barrier.report.ok);
  EXPECT_FALSE(over.report.ok);
  EXPECT_EQ(over.report.error.code(), barrier.report.error.code());
  ASSERT_FALSE(over.report.stages.empty());
  ASSERT_FALSE(barrier.report.stages.empty());
  EXPECT_EQ(over.report.stages.back().name, barrier.report.stages.back().name);
  EXPECT_EQ(over.report.stages.back().status.code(),
            barrier.report.stages.back().status.code());
}

TEST(OverlapExecution, HangInsideWindowCancelledAndRetriedIdentically) {
  SyntheticOptions clean;
  clean.overlap = false;
  const SyntheticRun base = RunSynthetic(clean);
  ASSERT_TRUE(base.report.ok);

  SyntheticOptions hung;
  FaultSite site;
  site.stage = "down";
  site.partition = 2;
  site.fail_attempts = 1;
  site.code = StatusCode::kOk;  // pure slowdown; the watchdog must cancel it
  site.hang_ms = 5000;
  hung.faults.sites.push_back(site);
  hung.retry.max_attempts = 2;
  hung.deadline.hard_ms = 150;
  const SyntheticRun over = RunSynthetic(hung);
  ASSERT_TRUE(over.report.ok);
  EXPECT_EQ(over.report.overlap_windows, 1u);
  EXPECT_GE(over.report.stages[2].timeouts, 1u);
  EXPECT_EQ(over.labels, base.labels);
  EXPECT_EQ(over.provenance_hash, base.provenance_hash);
}

TEST(OverlapExecution, AttrWriteInsideWindowIsRejected) {
  SyntheticOptions so;
  so.attr_write_in_up = true;
  so.overlap = false;
  const SyntheticRun barrier = RunSynthetic(so);
  EXPECT_TRUE(barrier.report.ok);  // legal behind a merge barrier

  so.overlap = true;
  const SyntheticRun over = RunSynthetic(so);
  EXPECT_FALSE(over.report.ok);
  EXPECT_EQ(over.report.error.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(over.report.error.message().find("overlap"), std::string::npos);
}

TEST(OverlapExecution, UnitCountChangeInsideWindowIsRejected) {
  SyntheticOptions so;
  so.grow_in_up = true;
  so.overlap = false;
  const SyntheticRun barrier = RunSynthetic(so);
  EXPECT_TRUE(barrier.report.ok);  // a barriered merge re-counts units

  so.overlap = true;
  const SyntheticRun over = RunSynthetic(so);
  EXPECT_FALSE(over.report.ok);
  EXPECT_EQ(over.report.error.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(over.report.error.message().find("unit count"), std::string::npos);
}

TEST(OverlapExecution, ThreeGroupChainStreamsByteIdentically) {
  auto run = [](bool overlap) {
    ExecutionOptions options;
    options.threads = 4;
    options.seed = 99;
    options.overlap = overlap;
    Pipeline p("chain", options);
    p.Add("make", StageKind::kIngest,
          [](DataBundle& bundle, StageContext&) -> Status {
            for (size_t i = 0; i < 16; ++i) {
              shard::Example ex;
              ex.key = std::string("e") + std::to_string(i);
              ex.SetLabel(static_cast<int64_t>(i));
              bundle.examples.push_back(std::move(ex));
            }
            return Status::Ok();
          });
    auto bump = [](DataBundle& bundle, StageContext& ctx) -> Status {
      for (auto& ex : bundle.examples) {
        ex.SetLabel(ex.Label().value() * 5 +
                    static_cast<int64_t>(ctx.rng().NextU64() % 11));
      }
      return Status::Ok();
    };
    p.Add("a", StageKind::kPreprocess, ExecutionHint::kPartitionParallel,
          bump, ExSpec(8));
    p.Add("b", StageKind::kTransform, ExecutionHint::kPartitionParallel,
          bump, ExSpec(4));
    p.WithOverlap(OverlapPolicy::kStream);
    p.Add("c", StageKind::kStructure, ExecutionHint::kPartitionParallel,
          bump, ExSpec(2));
    p.WithOverlap(OverlapPolicy::kStream);
    DataBundle bundle;
    PipelineReport report = p.Run(bundle);
    std::vector<int64_t> labels;
    for (const auto& ex : bundle.examples) labels.push_back(ex.Label().value());
    return std::make_tuple(std::move(report), std::move(labels),
                           p.provenance().RecordHash());
  };
  auto [barrier_report, barrier_labels, barrier_prov] = run(false);
  auto [overlap_report, overlap_labels, overlap_prov] = run(true);
  ASSERT_TRUE(barrier_report.ok);
  ASSERT_TRUE(overlap_report.ok);
  EXPECT_EQ(barrier_report.overlap_windows, 0u);
  EXPECT_EQ(overlap_report.overlap_windows, 1u);
  EXPECT_EQ(overlap_labels, barrier_labels);
  EXPECT_EQ(overlap_prov, barrier_prov);
  ExpectSameFacts(overlap_report, barrier_report);
}

TEST(OverlapExecution, ClimateArchetypeStreamsWhenGrainSeparatesStages) {
  domains::ClimateArchetypeConfig config = testing::SmallDifferentialConfig();
  config.threads = 4;
  const bench::RunAndHashResult streamed = bench::RunAndHash(config);
  ASSERT_TRUE(streamed.status.ok()) << streamed.status.ToString();
  EXPECT_EQ(streamed.result.report.overlap_windows, 1u);

  // Forcing the barrier must not change a single byte.
  domains::ClimateArchetypeConfig barriered = config;
  barriered.overlap = false;
  const bench::RunAndHashResult base = bench::RunAndHash(barriered);
  ASSERT_TRUE(base.status.ok());
  EXPECT_EQ(base.result.report.overlap_windows, 0u);
  EXPECT_EQ(streamed.data_hash, base.data_hash);
  EXPECT_EQ(streamed.provenance_hash, base.provenance_hash);

  // Default grain keeps normalize+patch fused — the kStream mark is dormant
  // and no window forms, preserving the seed pipeline's shape.
  domains::ClimateArchetypeConfig fused = config;
  fused.normalize_grain = 1;
  const bench::RunAndHashResult fused_run = bench::RunAndHash(fused);
  ASSERT_TRUE(fused_run.status.ok());
  EXPECT_EQ(fused_run.result.report.overlap_windows, 0u);
}

// ---- the differential matrix ------------------------------------------------

TEST(OverlapDifferential, CleanMatrixIsByteIdentical) {
  testing::ExpectDifferentialIdentity(testing::SmallDifferentialConfig());
}

TEST(OverlapDifferential, FaultedMatrixRecoversByteIdentically) {
  testing::ExpectDifferentialIdentity(testing::FaultDifferentialConfig());
}

TEST(OverlapDifferential, HangingMatrixCancelsAndRecoversByteIdentically) {
  testing::ExpectDifferentialIdentity(testing::HangDifferentialConfig());
}

TEST(OverlapDifferential, FusionCleanMatrixIsByteIdentical) {
  testing::ExpectDifferentialIdentity(testing::SmallFusionDifferentialConfig());
}

TEST(OverlapDifferential, BioCleanMatrixIsByteIdentical) {
  testing::ExpectDifferentialIdentity(testing::SmallBioDifferentialConfig());
}

TEST(OverlapDifferential, MaterialsCleanMatrixIsByteIdentical) {
  testing::ExpectDifferentialIdentity(
      testing::SmallMaterialsDifferentialConfig());
}

TEST(OverlapDifferential, FusionFaultedMatrixRecoversByteIdentically) {
  testing::ExpectFaultedIdentity(
      testing::SmallFusionDifferentialConfig(),
      {"align", "normalize-features", "windows-to-examples"});
}

TEST(OverlapDifferential, BioFaultedMatrixRecoversByteIdentically) {
  testing::ExpectFaultedIdentity(
      testing::SmallBioDifferentialConfig(),
      {"tile-sequences", "anonymize-encode", "fuse"});
}

TEST(OverlapDifferential, MaterialsFaultedMatrixRecoversByteIdentically) {
  testing::ExpectFaultedIdentity(testing::SmallMaterialsDifferentialConfig(),
                                 {"wrap-coords", "graph-encode"});
}

}  // namespace
}  // namespace drai::core
