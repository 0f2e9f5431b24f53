// Tests for hang-tolerant execution: monotonic deadlines and cooperative
// cancellation (common/timer.hpp + common/cancel.hpp), deterministic hang
// injection (core/faults.hpp), the attempt watchdog with hard-deadline
// cancel + retry, straggler speculation under soft deadlines, and
// checkpointed quarantine re-admission. As with the fail-stop fault tests,
// the load-bearing properties are byte-identity ones: a run that hung and
// recovered must equal the fault-free run, on either backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/timer.hpp"
#include "core/checkpoint.hpp"
#include "core/executor.hpp"
#include "core/pipeline.hpp"

#include "diff_harness.hpp"
#include "core/watchdog.hpp"
#include "parallel/striped_store.hpp"

namespace drai::core {
namespace {

// ---- Deadline ---------------------------------------------------------------

TEST(Deadline, InfiniteNeverExpires) {
  const Deadline d = Deadline::Infinite();
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.RemainingSeconds(), 1e6);
}

TEST(Deadline, NonPositiveLimitMeansInfinite) {
  EXPECT_TRUE(Deadline::AfterMs(0).infinite());
  EXPECT_TRUE(Deadline::AfterMs(-5).infinite());
  EXPECT_TRUE(Deadline::After(0.0).infinite());
}

TEST(Deadline, ExpiresAfterItsLimit) {
  const Deadline d = Deadline::AfterMs(1);
  EXPECT_FALSE(d.infinite());
  WallTimer t;
  while (!d.expired() && t.Seconds() < 5.0) {
  }
  EXPECT_TRUE(d.expired());
  EXPECT_LE(d.RemainingSeconds(), 0.0);
}

// ---- CancelToken ------------------------------------------------------------

TEST(CancelToken, FreshTokenIsNotCancelled) {
  CancelToken token;
  EXPECT_FALSE(token.Cancelled());
  EXPECT_EQ(token.AsStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelToken, CancelIsStickyAndFirstReasonWins) {
  CancelToken token;
  token.Cancel("first");
  token.Cancel("second");
  EXPECT_TRUE(token.Cancelled());
  EXPECT_EQ(token.reason(), "first");
  EXPECT_EQ(token.AsStatus().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(token.AsStatus().message().find("first"), std::string::npos);
}

TEST(CancelToken, CopiesShareState) {
  CancelToken a;
  CancelToken b = a;
  EXPECT_TRUE(a == b);
  b.Cancel("via copy");
  EXPECT_TRUE(a.Cancelled());
}

TEST(CancelToken, SleepUnlessCancelledReturnsFalseWhenPreCancelled) {
  CancelToken token;
  token.Cancel("stop");
  WallTimer t;
  EXPECT_FALSE(SleepUnlessCancelled(10'000.0, token));
  EXPECT_LT(t.Seconds(), 5.0);  // unwound promptly, not after 10 s
}

TEST(CancelToken, SleepUnlessCancelledCompletesWhenNotCancelled) {
  CancelToken token;
  EXPECT_TRUE(SleepUnlessCancelled(1.0, token));
}

// ---- AttemptWatchdog --------------------------------------------------------

TEST(AttemptWatchdog, HardDeadlineCancelsTrackedToken) {
  AttemptWatchdog dog(/*poll_ms=*/1.0);
  CancelToken token;
  dog.Track(7, token, /*soft_ms=*/0, /*hard_ms=*/5, "unit");
  WallTimer t;
  while (!token.Cancelled() && t.Seconds() < 5.0) {
  }
  EXPECT_TRUE(token.Cancelled());
  EXPECT_EQ(dog.hard_cancels(), 1u);
  dog.Release(7);
}

TEST(AttemptWatchdog, ReleasedAttemptIsNotCancelled) {
  AttemptWatchdog dog(/*poll_ms=*/1.0);
  CancelToken token;
  dog.Track(1, token, 0, /*hard_ms=*/30, "unit");
  dog.Release(1);
  EXPECT_TRUE(SleepUnlessCancelled(60.0, CancelToken()));
  EXPECT_FALSE(token.Cancelled());
  EXPECT_EQ(dog.hard_cancels(), 0u);
}

TEST(AttemptWatchdog, SoftDeadlineFiresStragglerOncePerKey) {
  std::atomic<int> fired{0};
  AttemptWatchdog dog(/*poll_ms=*/1.0, [&](uint64_t key) {
    EXPECT_EQ(key, 3u);
    ++fired;
  });
  CancelToken token;
  dog.Track(3, token, /*soft_ms=*/2, /*hard_ms=*/0, "unit");
  WallTimer t;
  while (fired.load() == 0 && t.Seconds() < 5.0) {
  }
  EXPECT_TRUE(SleepUnlessCancelled(10.0, CancelToken()));
  EXPECT_EQ(fired.load(), 1);  // once, even across later polls
  EXPECT_FALSE(token.Cancelled());  // soft never cancels
  dog.Release(3);
}

// ---- hang injection (FaultPlan) --------------------------------------------

TEST(HangInjection, DecideIsPureFunctionOfCoordinates) {
  FaultPlan plan;
  plan.seed = 5;
  plan.hang_rate = 0.4;
  plan.hang_ms = 25.0;
  EXPECT_TRUE(plan.active());
  for (size_t part = 0; part < 32; ++part) {
    const auto a = plan.Decide(1, "s", 2, part, 1);
    const auto b = plan.Decide(1, "s", 2, part, 1);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->delay_ms, b->delay_ms);
      EXPECT_TRUE(a->status.ok());  // a pure hang is not a failure
    }
  }
}

TEST(HangInjection, LowerRateSamplesSubsetOfHigherRate) {
  // Same seed, same uniform, different threshold: every cell that hangs at
  // 1% also hangs at 5% — so benches can sweep the rate without the fault
  // set jumping around.
  FaultPlan low, high;
  low.seed = high.seed = 9;
  low.hang_rate = 0.01;
  high.hang_rate = 0.05;
  low.hang_ms = high.hang_ms = 10.0;
  size_t low_hits = 0, high_hits = 0;
  for (size_t part = 0; part < 2000; ++part) {
    const bool low_hangs = low.Decide(1, "s", 0, part, 1).has_value();
    const bool high_hangs = high.Decide(1, "s", 0, part, 1).has_value();
    low_hits += low_hangs;
    high_hits += high_hangs;
    if (low_hangs) {
      EXPECT_TRUE(high_hangs) << "cell " << part;
    }
  }
  EXPECT_GT(low_hits, 0u);
  EXPECT_GT(high_hits, low_hits);
}

TEST(HangInjection, HangStopsAfterHangAttempts) {
  FaultPlan plan;
  plan.seed = 3;
  plan.hang_rate = 1.0;  // every cell
  plan.hang_ms = 10.0;
  plan.hang_attempts = 1;
  ASSERT_TRUE(plan.Decide(1, "s", 0, 0, 1).has_value());
  EXPECT_FALSE(plan.Decide(1, "s", 0, 0, 2).has_value());
}

TEST(HangInjection, SlowdownOnlySiteCarriesNoFailure) {
  FaultPlan plan;
  FaultSite site;
  site.stage = "slow";
  site.partition = 2;
  site.code = StatusCode::kOk;  // slowdown, not fail-stop
  site.hang_ms = 42.0;
  plan.sites.push_back(site);
  EXPECT_TRUE(plan.active());
  const auto fault = plan.Decide(1, "slow", 0, 2, 1);
  ASSERT_TRUE(fault.has_value());
  EXPECT_TRUE(fault->status.ok());
  EXPECT_EQ(fault->delay_ms, 42.0);
  EXPECT_FALSE(plan.Decide(1, "slow", 0, 1, 1).has_value());
}

// ---- deadlines + speculation on a real pipeline -----------------------------

// Same shape as the fault-tolerance drill: 6 examples, 3 partitions of 2,
// parallel stages fold stage RNG into record keys so any replay that used
// a stale slice or the wrong stream changes the output bytes.
struct HangPipeline {
  Backend backend = Backend::kThread;
  FaultPlan faults;
  RetryPolicy retry;
  DeadlinePolicy deadline;          ///< applied to both parallel stages
  DeadlinePolicy default_deadline;  ///< executor-wide safety net
  CheckpointSink* checkpoint = nullptr;
  bool die_on_gate = false;  ///< the serial "gate" stage fails
  bool gate_throws = false;  ///< the serial "gate" stage throws a non-std 42
};

Pipeline MakePipeline(HangPipeline& cfg) {
  ExecutionOptions options;
  options.seed = 0xF00D;
  options.backend = cfg.backend;
  options.faults = cfg.faults;
  options.default_deadline = cfg.default_deadline;
  options.checkpoint = cfg.checkpoint;
  Pipeline p("hang-drill", options);

  ParallelSpec by_two;
  by_two.axis = PartitionAxis::kExamples;
  by_two.grain = 2;

  p.Add("make", StageKind::kIngest,
        [](DataBundle& bundle, StageContext&) -> Status {
          for (size_t i = 0; i < 6; ++i) {
            shard::Example ex;
            ex.key = "e" + std::to_string(i);
            ex.SetLabel(static_cast<int64_t>(i));
            bundle.examples.push_back(std::move(ex));
          }
          return Status::Ok();
        });
  p.Add("salt", StageKind::kPreprocess, ExecutionHint::kRecordParallel,
        [](DataBundle& bundle, StageContext& ctx) -> Status {
          for (auto& ex : bundle.examples) {
            if (ctx.Cancelled()) return ctx.CancelledStatus();
            ex.key += std::string("-") +
                      std::to_string(ctx.rng().UniformU64(1000));
          }
          return Status::Ok();
        },
        by_two);
  p.WithRetry(cfg.retry);
  p.WithDeadline(cfg.deadline);
  p.Add("gate", StageKind::kTransform,
        [&cfg](DataBundle&, StageContext&) -> Status {
          if (cfg.gate_throws) throw 42;
          if (cfg.die_on_gate) return Unavailable("simulated flaky gate");
          return Status::Ok();
        });
  p.Add("tag", StageKind::kStructure, ExecutionHint::kRecordParallel,
        [](DataBundle& bundle, StageContext& ctx) -> Status {
          for (auto& ex : bundle.examples) {
            if (ctx.Cancelled()) return ctx.CancelledStatus();
            ex.key += std::string("/") +
                      std::to_string(ctx.rng().UniformU64(1000));
          }
          return Status::Ok();
        },
        by_two);
  p.WithRetry(cfg.retry);
  p.WithDeadline(cfg.deadline);
  return p;
}

Bytes RunToBytes(HangPipeline& cfg, PipelineReport* report_out = nullptr) {
  Pipeline p = MakePipeline(cfg);
  DataBundle bundle;
  PipelineReport report = p.Run(bundle);
  EXPECT_TRUE(report.ok) << report.error.ToString();
  if (report_out != nullptr) *report_out = report;
  return bundle.Serialize();
}

const StageMetrics* FindStage(const PipelineReport& report,
                              const std::string& name) {
  for (const auto& m : report.stages) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

TEST(HangTolerance, ArmedDeadlinesDoNotPerturbCleanRun) {
  HangPipeline plain;
  const Bytes baseline = RunToBytes(plain);

  HangPipeline armed;
  armed.retry.max_attempts = 3;
  armed.deadline.soft_ms = 60'000;  // speculation mode on, never fires
  armed.deadline.hard_ms = 120'000;
  armed.default_deadline.hard_ms = 120'000;
  PipelineReport report;
  EXPECT_EQ(RunToBytes(armed, &report), baseline);
  const StageMetrics* salt = FindStage(report, "salt");
  ASSERT_NE(salt, nullptr);
  EXPECT_EQ(salt->timeouts, 0u);
  EXPECT_EQ(salt->speculative_launched, 0u);
  EXPECT_EQ(salt->speculative_wins, 0u);
}

TEST(HangTolerance, InjectedHangSlowsButDoesNotChangeBytes) {
  HangPipeline plain;
  const Bytes baseline = RunToBytes(plain);

  HangPipeline hung;
  hung.faults.hang_rate = 1.0;  // every cell stalls a little
  hung.faults.hang_ms = 20.0;
  PipelineReport report;
  WallTimer t;
  EXPECT_EQ(RunToBytes(hung, &report), baseline);
  EXPECT_GE(t.Seconds(), 0.02);  // the stall really happened
  const StageMetrics* salt = FindStage(report, "salt");
  ASSERT_NE(salt, nullptr);
  EXPECT_EQ(salt->timeouts, 0u);  // no deadline armed, nothing cancelled
}

class HangBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(HangBackends, HardDeadlineCancelsHangAndRetryMatchesFaultFree) {
  HangPipeline plain;
  plain.backend = GetParam();
  const Bytes baseline = RunToBytes(plain);

  // Partition 1 of "salt" hangs for 10 minutes on attempt 1. The watchdog
  // must cancel it at ~100 ms and the retry (attempt 2: no hang) must
  // reproduce the fault-free bytes.
  HangPipeline hung;
  hung.backend = GetParam();
  FaultSite site;
  site.stage = "salt";
  site.partition = 1;
  site.hang_ms = 600'000.0;
  site.fail_attempts = 1;
  hung.faults.sites.push_back(site);
  hung.retry.max_attempts = 2;
  hung.deadline.hard_ms = 100;

  PipelineReport report;
  WallTimer t;
  EXPECT_EQ(RunToBytes(hung, &report), baseline);
  EXPECT_LT(t.Seconds(), 60.0);  // recovered, not hung for 10 minutes
  const StageMetrics* salt = FindStage(report, "salt");
  ASSERT_NE(salt, nullptr);
  EXPECT_EQ(salt->timeouts, 1u);
  EXPECT_EQ(salt->attempts, 4u);  // 3 partitions + 1 replay
}

TEST_P(HangBackends, ExecutorDefaultDeadlineCancelsHangWithoutStagePolicy) {
  // The acceptance regression: a deliberately hung partition in a plan
  // that never declared a DeadlinePolicy is still cancelled, because
  // options.default_deadline arms the watchdog for every stage.
  HangPipeline plain;
  plain.backend = GetParam();
  const Bytes baseline = RunToBytes(plain);

  HangPipeline hung;
  hung.backend = GetParam();
  FaultSite site;
  site.stage = "tag";
  site.partition = 0;
  site.hang_ms = 3'600'000.0;  // one hour
  site.fail_attempts = 1;
  hung.faults.sites.push_back(site);
  hung.retry.max_attempts = 2;
  hung.default_deadline.hard_ms = 100;  // no per-stage policy anywhere

  PipelineReport report;
  WallTimer t;
  EXPECT_EQ(RunToBytes(hung, &report), baseline);
  EXPECT_LT(t.Seconds(), 60.0);
  const StageMetrics* tag = FindStage(report, "tag");
  ASSERT_NE(tag, nullptr);
  EXPECT_EQ(tag->timeouts, 1u);
}

TEST(HangTolerance, ExhaustedRetriesUnderHardDeadlineFailWithDeadlineCode) {
  HangPipeline hung;
  FaultSite site;
  site.stage = "salt";
  site.partition = 0;
  site.hang_ms = 600'000.0;
  site.fail_attempts = 10;  // hangs on every attempt
  hung.faults.sites.push_back(site);
  hung.retry.max_attempts = 2;
  hung.deadline.hard_ms = 60;

  Pipeline p = MakePipeline(hung);
  DataBundle bundle;
  WallTimer t;
  const PipelineReport report = p.Run(bundle);
  EXPECT_LT(t.Seconds(), 60.0);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.error.code(), StatusCode::kDeadlineExceeded);
  const StageMetrics* salt = FindStage(report, "salt");
  ASSERT_NE(salt, nullptr);
  EXPECT_EQ(salt->timeouts, 2u);  // both attempts cancelled
}

TEST_P(HangBackends, SpeculativeBackupRescuesStragglerByteIdentically) {
  HangPipeline plain;
  plain.backend = GetParam();
  const Bytes baseline = RunToBytes(plain);

  // Partition 0 of "salt" stalls for 10 minutes. The soft deadline fires
  // at ~50 ms and launches a backup from the pristine slice; the backup
  // (injected delays model environment-local slowness, so it skips them)
  // finishes immediately and commits — no retry round needed, and the
  // bytes still match the fault-free run.
  HangPipeline slow;
  slow.backend = GetParam();
  FaultSite site;
  site.stage = "salt";
  site.partition = 0;
  site.code = StatusCode::kOk;  // slowdown only: the backup must succeed
  site.hang_ms = 600'000.0;
  site.fail_attempts = 1;
  slow.faults.sites.push_back(site);
  slow.deadline.soft_ms = 50;
  slow.deadline.hard_ms = 120'000;  // far away: speculation must win first

  PipelineReport report;
  WallTimer t;
  EXPECT_EQ(RunToBytes(slow, &report), baseline);
  EXPECT_LT(t.Seconds(), 60.0);  // rescued by the backup, not the hard cap
  const StageMetrics* salt = FindStage(report, "salt");
  ASSERT_NE(salt, nullptr);
  EXPECT_GE(salt->speculative_launched, 1u);
  EXPECT_GE(salt->speculative_wins, 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, HangBackends,
                         ::testing::Values(Backend::kThread, Backend::kSpmd));

TEST(HangTolerance, TimeBreakdownReportsDeadlineFacts) {
  HangPipeline hung;
  FaultSite site;
  site.stage = "salt";
  site.partition = 1;
  site.hang_ms = 600'000.0;
  site.fail_attempts = 1;
  hung.faults.sites.push_back(site);
  hung.retry.max_attempts = 2;
  hung.deadline.hard_ms = 80;

  PipelineReport report;
  RunToBytes(hung, &report);
  const std::string text = report.TimeBreakdown();
  EXPECT_NE(text.find("deadlines:"), std::string::npos) << text;
  EXPECT_NE(text.find("timeouts"), std::string::npos) << text;
}

TEST(HangTolerance, RetryRestoresInPlaceTensorMutation) {
  // DataBundle copies share NDArray storage, so the pristine-slice snapshot
  // must deep-clone: a stage that mutates a feature tensor in place would
  // otherwise write through the snapshot and a retry would re-apply the
  // (non-idempotent) mutation to already-mutated data.
  auto build = [](FaultPlan faults) {
    ExecutionOptions options;
    options.seed = 7;
    options.faults = std::move(faults);
    Pipeline p("inplace-drill", options);
    ParallelSpec by_two;
    by_two.axis = PartitionAxis::kExamples;
    by_two.grain = 2;
    p.Add("make", StageKind::kIngest,
          [](DataBundle& bundle, StageContext&) -> Status {
            for (size_t i = 0; i < 4; ++i) {
              shard::Example ex;
              ex.key = "e" + std::to_string(i);
              ex.features["v"] = NDArray::Full(
                  {1}, static_cast<double>(i), DType::kF64);
              bundle.examples.push_back(std::move(ex));
            }
            return Status::Ok();
          });
    p.Add("affine", StageKind::kPreprocess, ExecutionHint::kRecordParallel,
          [](DataBundle& bundle, StageContext&) -> Status {
            for (auto& ex : bundle.examples) {
              NDArray& v = ex.features["v"];
              v.SetFromDouble(0, v.GetAsDouble(0) * 2.0 + 1.0);  // in place
            }
            return Status::Ok();
          },
          by_two);
    RetryPolicy retry;
    retry.max_attempts = 2;
    p.WithRetry(retry);
    return p;
  };

  Pipeline clean = build({});
  DataBundle reference;
  ASSERT_TRUE(clean.Run(reference).ok);

  FaultPlan faults;
  FaultSite site;
  site.stage = "affine";
  site.partition = 0;  // fails at commit time, after the in-place mutation
  faults.sites.push_back(site);
  Pipeline faulted = build(faults);
  DataBundle out;
  PipelineReport report = faulted.Run(out);
  ASSERT_TRUE(report.ok) << report.error.ToString();
  EXPECT_EQ(out.Serialize(), reference.Serialize());
}

// ---- quarantine re-admission ------------------------------------------------

std::vector<std::string> SortedKeys(const DataBundle& bundle) {
  std::vector<std::string> keys;
  for (const auto& ex : bundle.examples) keys.push_back(ex.key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(Readmission, CheckpointPersistsQuarantinedSliceAndResumeReingests) {
  // Fault-free reference: the record set an undisturbed run produces.
  HangPipeline plain;
  DataBundle reference;
  {
    Pipeline p = MakePipeline(plain);
    ASSERT_TRUE(p.Run(reference).ok);
  }

  par::StripedStore store;
  StoreCheckpointSink sink(store, "/ckpt");

  // Run 1: partition 1 of "salt" fails every attempt and is quarantined —
  // its two records drop out of the bundle but its pristine slice rides
  // along in the checkpoint.
  HangPipeline faulty;
  faulty.checkpoint = &sink;
  FaultSite site;
  site.stage = "salt";
  site.partition = 1;
  site.fail_attempts = 100;
  faulty.faults.sites.push_back(site);
  faulty.retry.max_attempts = 2;
  faulty.retry.quarantine = true;
  DataBundle degraded;
  {
    Pipeline p = MakePipeline(faulty);
    PipelineReport report = p.Run(degraded);
    ASSERT_TRUE(report.ok) << report.error.ToString();
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0].stage, "salt");
    EXPECT_EQ(report.quarantined[0].units, 2u);
    EXPECT_EQ(report.quarantined[0].slice.examples.size(), 2u);
  }
  EXPECT_EQ(degraded.examples.size(), 4u);

  // The checkpoint round-trips the quarantine record, slice included.
  {
    auto loaded = sink.LoadLatest("hang-drill");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(loaded->has_value());
    ASSERT_EQ((*loaded)->quarantined.size(), 1u);
    const QuarantineRecord& q = (*loaded)->quarantined[0];
    EXPECT_EQ(q.stage, "salt");
    EXPECT_EQ(q.stage_index, 1u);
    EXPECT_EQ(q.partition, 1u);
    EXPECT_EQ(q.slot.lo, 2u);
    EXPECT_EQ(q.slot.hi, 4u);
    EXPECT_EQ(q.error.code(), StatusCode::kUnavailable);
    EXPECT_EQ(q.slice.examples.size(), 2u);
    // The slice is pristine: exactly as the failing stage first saw it.
    EXPECT_EQ(q.slice.examples[0].key, "e2");
    EXPECT_EQ(q.slice.examples[1].key, "e3");
  }

  // Resume with the fault cleared: the dropped slice replays through the
  // stages it missed with the original run's RNG streams and merges back.
  HangPipeline healthy;
  healthy.checkpoint = &sink;
  Pipeline p = MakePipeline(healthy);
  DataBundle resumed;
  PipelineReport report = p.Resume(resumed);
  ASSERT_TRUE(report.ok) << report.error.ToString();
  ASSERT_EQ(report.readmissions.size(), 1u);
  EXPECT_EQ(report.readmissions[0].stage, "salt");
  EXPECT_EQ(report.readmissions[0].partition, 1u);
  EXPECT_EQ(report.readmissions[0].units, 2u);
  EXPECT_TRUE(report.readmissions[0].status.ok());
  EXPECT_EQ(resumed.examples.size(), 6u);
  // The survivors ride through unchanged from the degraded run. (They are
  // NOT byte-identical to the fault-free reference past the quarantining
  // group: dropping a slice changes the example count, so data-dependent
  // downstream partitioning legitimately shifts the survivors' streams.)
  const std::vector<std::string> resumed_keys = SortedKeys(resumed);
  for (const std::string& key : SortedKeys(degraded)) {
    EXPECT_TRUE(std::find(resumed_keys.begin(), resumed_keys.end(), key) !=
                resumed_keys.end())
        << "survivor " << key << " missing after resume";
  }
  // The re-admitted records replay with the original run's RNG streams, so
  // they match the undisturbed reference record for record.
  for (const std::string& key : SortedKeys(reference)) {
    if (key.rfind("e2-", 0) == 0 || key.rfind("e3-", 0) == 0) {
      EXPECT_TRUE(std::find(resumed_keys.begin(), resumed_keys.end(), key) !=
                  resumed_keys.end())
          << "re-admitted " << key << " does not match the fault-free run";
    }
  }
}

TEST(Readmission, FailedReplayKeepsSliceDropped) {
  par::StripedStore store;
  StoreCheckpointSink sink(store, "/ckpt");

  HangPipeline faulty;
  faulty.checkpoint = &sink;
  FaultSite site;
  site.stage = "salt";
  site.partition = 0;
  site.fail_attempts = 100;
  faulty.faults.sites.push_back(site);
  faulty.retry.max_attempts = 1;
  faulty.retry.quarantine = true;
  DataBundle degraded;
  {
    Pipeline p = MakePipeline(faulty);
    ASSERT_TRUE(p.Run(degraded).ok);
  }

  // Resume, but the serial "gate" stage — part of the replay range — now
  // fails: the replay aborts, the slice stays dropped, and the failure is
  // tallied instead of silently swallowed.
  HangPipeline broken;
  broken.checkpoint = &sink;
  broken.die_on_gate = true;
  Pipeline p = MakePipeline(broken);
  DataBundle resumed;
  PipelineReport report = p.Resume(resumed);
  ASSERT_TRUE(report.ok) << report.error.ToString();
  ASSERT_EQ(report.readmissions.size(), 1u);
  EXPECT_FALSE(report.readmissions[0].status.ok());
  EXPECT_EQ(report.readmissions[0].units, 0u);
  EXPECT_EQ(resumed.examples.size(), 4u);
}

TEST(Readmission, NonStdThrowDuringReplayIsInternal) {
  par::StripedStore store;
  StoreCheckpointSink sink(store, "/ckpt");

  HangPipeline faulty;
  faulty.checkpoint = &sink;
  FaultSite site;
  site.stage = "salt";
  site.partition = 0;
  site.fail_attempts = 100;
  faulty.faults.sites.push_back(site);
  faulty.retry.quarantine = true;
  DataBundle degraded;
  {
    Pipeline p = MakePipeline(faulty);
    ASSERT_TRUE(p.Run(degraded).ok);
  }

  // The resumed run has nothing left to execute, so the throwing "gate"
  // stage only runs inside the re-admission replay. The throw must land in
  // the readmission record as kInternal, exactly as a normal run's guarded
  // attempt would report it, instead of escaping Resume.
  HangPipeline broken;
  broken.checkpoint = &sink;
  broken.gate_throws = true;
  Pipeline p = MakePipeline(broken);
  DataBundle resumed;
  PipelineReport report = p.Resume(resumed);
  ASSERT_TRUE(report.ok) << report.error.ToString();
  ASSERT_EQ(report.readmissions.size(), 1u);
  EXPECT_EQ(report.readmissions[0].status.code(), StatusCode::kInternal);
  EXPECT_NE(report.readmissions[0].status.message().find(
                "re-admission replay"),
            std::string::npos)
      << report.readmissions[0].status.ToString();
  EXPECT_EQ(report.readmissions[0].units, 0u);
  EXPECT_EQ(resumed.examples.size(), 4u);
}

// The shared differential harness on the hang-injection workload: hung
// attempts are cancelled by the hard deadline and retried, and every
// execution mode — {barrier, overlap} x {thread, spmd} x worker counts —
// must still produce byte-identical datasets.
TEST(HangDifferential, CancelledAndRetriedRunsAreByteIdenticalAcrossModes) {
  testing::ExpectDifferentialIdentity(testing::HangDifferentialConfig(),
                                      {Backend::kThread, Backend::kSpmd},
                                      {1, 4});
}

}  // namespace
}  // namespace drai::core
