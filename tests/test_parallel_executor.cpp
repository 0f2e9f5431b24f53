// Tests for the Plan/Partitioner/Executor split: bundle partitioning round
// trips per axis, deterministic merges, and worker-count-independent
// pipeline output (bundles, reports, provenance).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>

#include "common/hash.hpp"
#include "core/executor.hpp"
#include "core/partitioner.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"

namespace drai::core {
namespace {

// ---- partitioner ------------------------------------------------------------

TEST(BundlePartitioner, ExamplesRoundTrip) {
  DataBundle bundle;
  for (size_t i = 0; i < 10; ++i) {
    shard::Example ex;
    ex.key = "k" + std::to_string(i);
    bundle.examples.push_back(std::move(ex));
  }
  bundle.SetAttr("keep", container::AttrValue::Int(7));

  ParallelSpec spec;
  spec.axis = PartitionAxis::kExamples;
  spec.grain = 3;
  auto parts = BundlePartitioner::Split(bundle, spec);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 4u);  // ceil(10 / 3)
  EXPECT_TRUE(bundle.examples.empty());  // moved out
  // Every partition sees the bundle attrs.
  EXPECT_EQ((*parts)[0].bundle.Attr("keep")->i, 7);

  BundlePartitioner::Merge(bundle, *parts);
  ASSERT_EQ(bundle.examples.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(bundle.examples[i].key, "k" + std::to_string(i));
  }
}

TEST(BundlePartitioner, TableRowsRoundTripConcatenatesChunks) {
  DataBundle bundle;
  privacy::Table table;
  table.columns = {"id", "value"};
  for (size_t i = 0; i < 9; ++i) {
    table.rows.push_back({std::to_string(i), "v"});
  }
  bundle.tables["t"] = table;

  ParallelSpec spec;
  spec.axis = PartitionAxis::kTableRows;
  spec.grain = 4;
  auto parts = BundlePartitioner::Split(bundle, spec);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 3u);  // 4 + 4 + 1 rows
  EXPECT_EQ((*parts)[2].bundle.tables.at("t").NumRows(), 1u);

  BundlePartitioner::Merge(bundle, *parts);
  const privacy::Table& merged = bundle.tables.at("t");
  ASSERT_EQ(merged.NumRows(), 9u);
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(merged.rows[i][0], std::to_string(i));
  }
}

TEST(BundlePartitioner, TensorGroupsByPrefixKeepOneGroupTogether) {
  DataBundle bundle;
  bundle.tensors["raw@t0/a"] = NDArray::Zeros({2});
  bundle.tensors["raw@t0/b"] = NDArray::Zeros({2});
  bundle.tensors["raw@t1/a"] = NDArray::Zeros({2});
  bundle.tensors["raw@t1/b"] = NDArray::Zeros({2});

  ParallelSpec spec;
  spec.axis = PartitionAxis::kTensorGroups;
  spec.group_by_prefix = true;
  spec.grain = 1;
  auto parts = BundlePartitioner::Split(bundle, spec);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 2u);
  // Both variables of one time step land in the same partition.
  EXPECT_EQ((*parts)[0].bundle.tensors.count("raw@t0/a"), 1u);
  EXPECT_EQ((*parts)[0].bundle.tensors.count("raw@t0/b"), 1u);
  EXPECT_EQ((*parts)[1].bundle.tensors.count("raw@t1/a"), 1u);

  BundlePartitioner::Merge(bundle, *parts);
  EXPECT_EQ(bundle.tensors.size(), 4u);
}

TEST(BundlePartitioner, SignalSetsRoundTrip) {
  DataBundle bundle;
  for (const char* name : {"shot-a", "shot-b", "shot-c"}) {
    bundle.signal_sets[name] = {timeseries::Signal{"ch0", {0.0, 1.0},
                                                   {0.5, 0.6}}};
  }
  ParallelSpec spec;
  spec.axis = PartitionAxis::kSignalSets;
  spec.grain = 1;
  auto parts = BundlePartitioner::Split(bundle, spec);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 3u);
  BundlePartitioner::Merge(bundle, *parts);
  EXPECT_EQ(bundle.signal_sets.size(), 3u);
  EXPECT_EQ(bundle.signal_sets.at("shot-b")[0].name, "ch0");
}

TEST(BundlePartitioner, RangeSlotsCoverTheDomainExactlyOnce) {
  DataBundle bundle;
  ParallelSpec spec;
  spec.axis = PartitionAxis::kRange;
  spec.range_count = 10;
  spec.grain = 4;
  auto parts = BundlePartitioner::Split(bundle, spec);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 3u);
  size_t expected_lo = 0;
  for (size_t p = 0; p < parts->size(); ++p) {
    const PartitionSlot& slot = (*parts)[p].slot;
    EXPECT_EQ(slot.index, p);
    EXPECT_EQ(slot.count, 3u);
    EXPECT_EQ(slot.lo, expected_lo);
    expected_lo = slot.hi;
  }
  EXPECT_EQ(expected_lo, 10u);
}

TEST(BundlePartitioner, AutoAxisPrefersExamples) {
  DataBundle bundle;
  bundle.examples.resize(4);
  bundle.tensors["x"] = NDArray::Zeros({2});
  ParallelSpec spec;  // kAuto
  EXPECT_EQ(BundlePartitioner::ResolveAxis(bundle, spec).value(),
            PartitionAxis::kExamples);
}

TEST(BundlePartitioner, AttrUpdatesFromPartitionsSurviveMerge) {
  DataBundle bundle;
  bundle.examples.resize(4);
  bundle.SetAttr("stale", container::AttrValue::Int(1));
  ParallelSpec spec;
  spec.axis = PartitionAxis::kExamples;
  spec.grain = 2;
  auto parts = BundlePartitioner::Split(bundle, spec);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 2u);
  // Partition 0 writes a new attr; partition 1 still carries the stale
  // snapshot of it missing — the merge must keep partition 0's update.
  (*parts)[0].bundle.SetAttr("fresh", container::AttrValue::Int(42));
  BundlePartitioner::Merge(bundle, *parts);
  ASSERT_TRUE(bundle.Attr("fresh").has_value());
  EXPECT_EQ(bundle.Attr("fresh")->i, 42);
  EXPECT_EQ(bundle.Attr("stale")->i, 1);
}

// ---- executor ---------------------------------------------------------------

/// A small partition-parallel pipeline whose output depends on stage RNG,
/// params, and counts — everything that must be worker-count independent.
struct RunArtifacts {
  std::string provenance_hash;
  std::vector<std::string> example_keys;
  std::vector<int64_t> example_labels;
  PipelineReport report;
};

RunArtifacts RunDeterminismPipeline(size_t threads) {
  ExecutionOptions options;
  options.threads = threads;
  options.seed = 1234;
  Pipeline p("determinism", options);

  p.Add("make", StageKind::kIngest,
        [](DataBundle& bundle, StageContext&) -> Status {
          for (size_t i = 0; i < 20; ++i) {
            shard::Example ex;
            ex.key = std::string("e") + std::to_string(100 + i);
            ex.SetLabel(0);
            bundle.examples.push_back(std::move(ex));
          }
          return Status::Ok();
        });

  ParallelSpec spec;
  spec.axis = PartitionAxis::kExamples;
  spec.grain = 4;
  p.Add("jitter", StageKind::kTransform, ExecutionHint::kPartitionParallel,
        [](DataBundle& bundle, StageContext& ctx) -> Status {
          for (auto& ex : bundle.examples) {
            ex.SetLabel(static_cast<int64_t>(ctx.rng().NextU64() % 97));
          }
          ctx.NoteCount("touched", bundle.examples.size());
          return Status::Ok();
        },
        spec);

  RunArtifacts out;
  DataBundle bundle;
  out.report = p.Run(bundle);
  for (const auto& ex : bundle.examples) {
    out.example_keys.push_back(ex.key);
    out.example_labels.push_back(ex.Label().value());
  }
  out.provenance_hash = p.provenance().RecordHash();
  return out;
}

TEST(ParallelExecutor, OutputIdenticalAcrossWorkerCounts) {
  const RunArtifacts serial = RunDeterminismPipeline(1);
  ASSERT_TRUE(serial.report.ok);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    const RunArtifacts parallel = RunDeterminismPipeline(threads);
    ASSERT_TRUE(parallel.report.ok) << threads;
    EXPECT_EQ(parallel.example_keys, serial.example_keys) << threads;
    EXPECT_EQ(parallel.example_labels, serial.example_labels) << threads;
    EXPECT_EQ(parallel.provenance_hash, serial.provenance_hash) << threads;
  }
}

TEST(ParallelExecutor, PartitionMetricsAndCountAggregation) {
  const RunArtifacts run = RunDeterminismPipeline(2);
  ASSERT_TRUE(run.report.ok);
  ASSERT_EQ(run.report.stages.size(), 2u);
  const StageMetrics& jitter = run.report.stages[1];
  EXPECT_EQ(jitter.hint, ExecutionHint::kPartitionParallel);
  EXPECT_EQ(jitter.partitions, 5u);  // 20 examples / grain 4
  EXPECT_EQ(jitter.partition_seconds.size(), 5u);
  // Serial stages carry identity scheduling facts.
  EXPECT_EQ(run.report.stages[0].hint, ExecutionHint::kSerial);
  EXPECT_EQ(run.report.stages[0].partitions, 1u);
}

TEST(ParallelExecutor, CountsSumAcrossPartitionsIntoProvenance) {
  ExecutionOptions options;
  options.threads = 2;
  Pipeline p("counts", options);
  p.Add("make", StageKind::kIngest,
        [](DataBundle& bundle, StageContext&) -> Status {
          bundle.examples.resize(10);
          return Status::Ok();
        });
  ParallelSpec spec;
  spec.axis = PartitionAxis::kExamples;
  spec.grain = 3;
  p.Add("count", StageKind::kTransform, ExecutionHint::kPartitionParallel,
        [](DataBundle& bundle, StageContext& ctx) -> Status {
          ctx.NoteCount("seen", bundle.examples.size());
          return Status::Ok();
        },
        spec);
  DataBundle bundle;
  ASSERT_TRUE(p.Run(bundle).ok);
  const auto& activities = p.provenance().activities();
  ASSERT_EQ(activities.size(), 2u);
  EXPECT_EQ(activities[1].params.at("seen"), "10");
  EXPECT_EQ(activities[1].params.at("partitions"), "4");  // 3+3+3+1
  EXPECT_EQ(activities[1].params.at("hint"), "partition_parallel");
}

TEST(ParallelExecutor, FirstErrorByPartitionIndexWins) {
  ExecutionOptions options;
  options.threads = 4;
  options.fail_fast = false;
  Pipeline p("errors", options);
  p.Add("make", StageKind::kIngest,
        [](DataBundle& bundle, StageContext&) -> Status {
          bundle.examples.resize(8);
          return Status::Ok();
        });
  ParallelSpec spec;
  spec.axis = PartitionAxis::kExamples;
  spec.grain = 2;  // 4 partitions
  p.Add("fail-some", StageKind::kTransform, ExecutionHint::kPartitionParallel,
        [](DataBundle&, StageContext& ctx) -> Status {
          const size_t index = ctx.partition().index;
          if (index == 1) return DataLoss("partition 1");
          if (index == 3) return Internal("partition 3");
          return Status::Ok();
        },
        spec);
  DataBundle bundle;
  const PipelineReport report = p.Run(bundle);
  EXPECT_FALSE(report.ok);
  // Partition 1's error outranks partition 3's regardless of finish order.
  EXPECT_EQ(report.error.code(), StatusCode::kDataLoss);
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[1].status.code(), StatusCode::kDataLoss);
}

TEST(ParallelExecutor, FailFastSkipsLaterStagesButMergesBundle) {
  ExecutionOptions options;
  options.threads = 2;
  Pipeline p("failfast", options);
  std::atomic<bool> later_ran{false};
  p.Add("make", StageKind::kIngest,
        [](DataBundle& bundle, StageContext&) -> Status {
          bundle.examples.resize(6);
          return Status::Ok();
        });
  ParallelSpec spec;
  spec.axis = PartitionAxis::kExamples;
  spec.grain = 2;
  p.Add("boom", StageKind::kTransform, ExecutionHint::kPartitionParallel,
        [](DataBundle&, StageContext& ctx) -> Status {
          return ctx.partition().index == 0 ? DataLoss("bad") : Status::Ok();
        },
        spec);
  p.Add("after", StageKind::kShard,
        [&](DataBundle&, StageContext&) -> Status {
          later_ran = true;
          return Status::Ok();
        });
  DataBundle bundle;
  const PipelineReport report = p.Run(bundle);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(later_ran.load());
  // The failing stage still merged every partition's slice back.
  EXPECT_EQ(bundle.examples.size(), 6u);
}

TEST(ParallelExecutor, HooksRunSeriallyAroundPartitions) {
  ExecutionOptions options;
  options.threads = 4;
  Pipeline p("hooks", options);
  auto order = std::make_shared<std::vector<std::string>>();
  auto order_mutex = std::make_shared<std::mutex>();
  p.Add("make", StageKind::kIngest,
        [](DataBundle& bundle, StageContext&) -> Status {
          bundle.examples.resize(8);
          return Status::Ok();
        });
  ParallelSpec spec;
  spec.axis = PartitionAxis::kExamples;
  spec.grain = 2;
  p.Add("mapreduce", StageKind::kTransform, ExecutionHint::kPartitionParallel,
        /*before=*/
        [order, order_mutex](DataBundle&, StageContext&) -> Status {
          order->push_back("before");
          return Status::Ok();
        },
        [order, order_mutex](DataBundle&, StageContext&) -> Status {
          std::lock_guard<std::mutex> lock(*order_mutex);
          order->push_back("run");
          return Status::Ok();
        },
        /*after=*/
        [order, order_mutex](DataBundle&, StageContext&) -> Status {
          order->push_back("after");
          return Status::Ok();
        },
        spec);
  DataBundle bundle;
  ASSERT_TRUE(p.Run(bundle).ok);
  ASSERT_EQ(order->size(), 6u);  // before + 4 runs + after
  EXPECT_EQ(order->front(), "before");
  EXPECT_EQ(order->back(), "after");
}

// ---- stage fusion -----------------------------------------------------------

/// Build a two-stage record-parallel pipeline where stage "mark" writes a
/// per-partition attr and stage "count" tallies how many marks it can see.
/// Fused, each partition of "count" sees only its own partition's mark
/// (total = n_parts); unfused, the interior merge + resplit broadcasts all
/// marks to every partition (total = n_parts^2). The visible total is
/// therefore a direct observation of whether the boundary fused.
uint64_t VisibleMarks(bool after_hook_on_first) {
  ExecutionOptions options;
  options.threads = 2;
  Pipeline p("fusion-probe", options);
  p.Add("make", StageKind::kIngest,
        [](DataBundle& bundle, StageContext&) -> Status {
          bundle.examples.resize(6);
          return Status::Ok();
        });
  ParallelSpec spec;
  spec.axis = PartitionAxis::kExamples;
  spec.grain = 2;  // 3 partitions
  p.Add("mark", StageKind::kPreprocess, ExecutionHint::kRecordParallel,
        /*before=*/nullptr,
        [](DataBundle& bundle, StageContext& ctx) -> Status {
          bundle.SetAttr("mark/" + std::to_string(ctx.partition().index),
                         container::AttrValue::Int(1));
          return Status::Ok();
        },
        /*after=*/
        after_hook_on_first
            ? LambdaStage::Fn([](DataBundle&, StageContext&) -> Status {
                return Status::Ok();
              })
            : LambdaStage::Fn(nullptr),
        spec);
  p.Add("count", StageKind::kTransform, ExecutionHint::kRecordParallel,
        [](DataBundle& bundle, StageContext& ctx) -> Status {
          uint64_t visible = 0;
          for (size_t i = 0; i < 8; ++i) {
            if (bundle.Attr("mark/" + std::to_string(i)).has_value()) {
              ++visible;
            }
          }
          ctx.NoteCount("visible", visible);
          return Status::Ok();
        },
        spec);
  DataBundle bundle;
  EXPECT_TRUE(p.Run(bundle).ok);
  const auto& activities = p.provenance().activities();
  for (const auto& act : activities) {
    if (act.name == "count") return std::stoull(act.params.at("visible"));
  }
  return 0;
}

TEST(ParallelExecutor, RecordParallelStagesFuseWithoutInteriorHooks) {
  // Fused: each "count" partition inherits exactly its own partition's
  // bundle from "mark" — one visible attr each, 3 total.
  EXPECT_EQ(VisibleMarks(/*after_hook_on_first=*/false), 3u);
}

TEST(ParallelExecutor, InteriorHookBlocksRecordParallelFusion) {
  // An AfterMerge hook on "mark" forces merge + resplit at the boundary,
  // so every "count" partition sees all 3 marks: 9 total.
  EXPECT_EQ(VisibleMarks(/*after_hook_on_first=*/true), 9u);
}

// ---- partition skew ---------------------------------------------------------

TEST(StageMetrics, PartitionSkewIsMaxOverMedian) {
  StageMetrics m;
  EXPECT_DOUBLE_EQ(m.PartitionSkew(), 1.0);  // serial: no partition timings
  m.partition_seconds = {1.0, 2.0, 10.0};
  EXPECT_DOUBLE_EQ(m.PartitionSkew(), 5.0);  // 10 / median(=2)
  m.partition_seconds = {0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(m.PartitionSkew(), 1.0);  // degenerate median
  m.partition_seconds = {3.0};
  EXPECT_DOUBLE_EQ(m.PartitionSkew(), 1.0);  // one partition: balanced
}

TEST(PipelineReport, TimeBreakdownReportsSkewForParallelStages) {
  PipelineReport report;
  StageMetrics serial;
  serial.name = "load";
  serial.kind = StageKind::kIngest;
  serial.seconds = 1.0;
  report.stages.push_back(serial);
  StageMetrics par;
  par.name = "map";
  par.kind = StageKind::kTransform;
  par.seconds = 2.0;
  par.partition_seconds = {0.5, 1.0, 2.0};
  report.stages.push_back(par);
  report.total_seconds = 3.0;
  const std::string breakdown = report.TimeBreakdown();
  EXPECT_NE(breakdown.find("skew(max/med):"), std::string::npos);
  EXPECT_NE(breakdown.find("map 2.00x"), std::string::npos);
  // Serial stages never get a skew entry.
  EXPECT_EQ(breakdown.find("load"), std::string::npos);
}

TEST(PipelineReport, TimeBreakdownOmitsSkewWhenAllSerial) {
  PipelineReport report;
  StageMetrics serial;
  serial.name = "only";
  serial.kind = StageKind::kIngest;
  serial.seconds = 1.0;
  report.stages.push_back(serial);
  report.total_seconds = 1.0;
  EXPECT_EQ(report.TimeBreakdown().find("skew"), std::string::npos);
}

TEST(PipelinePlan, ValidateRejectsRangeWithoutDomainSize) {
  PipelinePlan plan("bad-range");
  ParallelSpec spec;
  spec.axis = PartitionAxis::kRange;
  spec.range_count = 0;
  spec.range_attr.clear();
  plan.Add("r", StageKind::kIngest, ExecutionHint::kPartitionParallel,
           [](DataBundle&, StageContext&) { return Status::Ok(); }, spec);
  EXPECT_FALSE(plan.Validate().ok());
}

// ---- report diagnostics edge cases ------------------------------------------

TEST(StageMetrics, PartitionSkewIdentityForSerialAndSingle) {
  StageMetrics m;
  EXPECT_EQ(m.PartitionSkew(), 1.0);  // serial: no partition timings
  m.partition_seconds = {0.5};
  EXPECT_EQ(m.PartitionSkew(), 1.0);  // single partition: nothing to skew
}

TEST(StageMetrics, PartitionSkewAllZeroTimingsIsIdentity) {
  // Sub-resolution partitions must not divide by a zero median.
  StageMetrics m;
  m.partition_seconds = {0.0, 0.0, 0.0};
  EXPECT_EQ(m.PartitionSkew(), 1.0);
}

TEST(StageMetrics, PartitionSkewNamesTheStraggler) {
  StageMetrics m;
  m.partition_seconds = {1.0, 1.0, 4.0};
  EXPECT_DOUBLE_EQ(m.PartitionSkew(), 4.0);
}

TEST(PipelineReport, TimeBreakdownEmptyReportIsEmpty) {
  PipelineReport report;
  EXPECT_EQ(report.TimeBreakdown(), "");
}

TEST(PipelineReport, TimeBreakdownZeroTotalSecondsDoesNotDivide) {
  PipelineReport report;
  StageMetrics m;
  m.name = "fast";
  m.kind = StageKind::kIngest;
  m.seconds = 0.25;
  report.stages.push_back(m);
  report.total_seconds = 0;  // e.g. clock resolution swallowed the run
  const std::string text = report.TimeBreakdown();
  EXPECT_NE(text.find("ingest"), std::string::npos);
  EXPECT_NE(text.find("0.0%"), std::string::npos);
}

TEST(PipelineReport, TimeBreakdownSkipsSkewForSerialStages) {
  PipelineReport report;
  report.total_seconds = 1.0;
  StageMetrics serial;
  serial.name = "only";
  serial.kind = StageKind::kTransform;
  serial.seconds = 1.0;
  report.stages.push_back(serial);
  EXPECT_EQ(report.TimeBreakdown().find("skew"), std::string::npos);

  StageMetrics par;
  par.name = "spread";
  par.kind = StageKind::kStructure;
  par.seconds = 0.0;
  par.partition_seconds = {1.0, 2.0};
  report.stages.push_back(par);
  EXPECT_NE(report.TimeBreakdown().find("skew"), std::string::npos);
  EXPECT_NE(report.TimeBreakdown().find("spread"), std::string::npos);
}


// ---- characterization: literal report rows ----------------------------------
//
// Pins the exact report every execution path produces — per-stage rows,
// quarantine records, overlap-window count, provenance hash and bundle
// digest — for one scenario per scheduling shape. The differential suites
// only compare barrier against overlap, so a scheduler change that moved
// both paths the same way would pass them; these literals do not move.
// Timing-dependent fields (seconds, speculative_*, overlap_seconds_saved)
// are left out.

std::string CharFacts(const PipelineReport& report, const Pipeline& p,
                      const DataBundle& bundle) {
  std::string out;
  for (const StageMetrics& m : report.stages) {
    out += m.name + " s=" + std::to_string(static_cast<int>(m.status.code())) +
           " " + std::string(ExecutionHintName(m.hint)) +
           " p=" + std::to_string(m.partitions) + "/" +
           std::to_string(m.partition_seconds.size()) +
           " b=" + std::to_string(m.bundle_bytes_before) + "->" +
           std::to_string(m.bundle_bytes_after) +
           " a=" + std::to_string(m.attempts) +
           " t=" + std::to_string(m.timeouts) + " q=[";
    for (size_t i = 0; i < m.quarantined.size(); ++i) {
      out += std::string(i > 0 ? "," : "") + std::to_string(m.quarantined[i]);
    }
    out += "] ov=" + std::to_string(m.overlapped ? 1 : 0) + "\n";
  }
  out += "ok=" + std::to_string(report.ok ? 1 : 0) +
         " error=" + std::to_string(static_cast<int>(report.error.code())) +
         " windows=" + std::to_string(report.overlap_windows) + "\n";
  for (const QuarantineRecord& q : report.quarantined) {
    out += "quarantine " + q.stage + " stage=" + std::to_string(q.stage_index) +
           " part=" + std::to_string(q.partition) +
           " slot=" + std::to_string(q.slot.index) + "/" +
           std::to_string(q.slot.count) + "[" + std::to_string(q.slot.lo) +
           "," + std::to_string(q.slot.hi) + ")" +
           " attempts=" + std::to_string(q.attempts) +
           " code=" + std::to_string(static_cast<int>(q.error.code())) +
           " units=" + std::to_string(q.units) +
           " slice=" + std::to_string(q.slice.examples.size()) + "\n";
  }
  const std::string data = DigestToHex(Sha256::Hash(bundle.Serialize()));
  out += "prov=" + p.provenance().RecordHash().substr(0, 16) +
         " data=" + data.substr(0, 16) + "\n";
  return out;
}

/// `n` examples whose labels come from the ingest stage's RNG stream.
LambdaStage::Fn MakeExamples(size_t n) {
  return [n](DataBundle& bundle, StageContext& ctx) -> Status {
    for (size_t i = 0; i < n; ++i) {
      shard::Example ex;
      ex.key = std::string("e") + std::to_string(100 + i);
      ex.SetLabel(static_cast<int64_t>(ctx.rng().UniformU64(1000)));
      bundle.examples.push_back(std::move(ex));
    }
    return Status::Ok();
  };
}

/// A Run body that folds its RNG stream into every label, grows each record
/// by one `count` feature (so byte accounting moves), and tallies the
/// records it saw under `count`.
LambdaStage::Fn Stir(const std::string& count) {
  return [count](DataBundle& bundle, StageContext& ctx) -> Status {
    for (auto& ex : bundle.examples) {
      ex.SetLabel(ex.Label().value() * 7 +
                  static_cast<int64_t>(ctx.rng().UniformU64(1000)));
      ex.features[count] = NDArray::Full(
          {1}, static_cast<double>(ex.Label().value()), DType::kF64);
    }
    ctx.NoteCount(count, bundle.examples.size());
    return Status::Ok();
  };
}

/// A hook that records one draw of its RNG slot as a provenance param.
LambdaStage::Fn NoteDraw(const std::string& key) {
  return [key](DataBundle&, StageContext& ctx) -> Status {
    ctx.NoteParam(key, std::to_string(ctx.rng().UniformU64(1'000'000)));
    return Status::Ok();
  };
}

ParallelSpec ExamplesBy(size_t grain) {
  ParallelSpec spec;
  spec.axis = PartitionAxis::kExamples;
  spec.grain = grain;
  return spec;
}

std::string RunForFacts(Pipeline& p) {
  DataBundle bundle;
  const PipelineReport report = p.Run(bundle);
  return CharFacts(report, p, bundle);
}

TEST(ExecutorCharacterization, SerialStageWithHooksRetriedAfterFault) {
  ExecutionOptions options;
  options.seed = 11;
  options.threads = 1;
  FaultSite site;
  site.stage = "hooked";
  site.partition = 0;
  site.fail_attempts = 1;
  options.faults.sites.push_back(site);
  Pipeline p("char-serial", options);
  p.Add("make", StageKind::kIngest, MakeExamples(6));
  p.Add("hooked", StageKind::kPreprocess, ExecutionHint::kSerial,
        NoteDraw("before"), Stir("stirred"), NoteDraw("after"));
  RetryPolicy retry;
  retry.max_attempts = 2;
  p.WithRetry(retry);
  EXPECT_EQ(RunForFacts(p),
            "make s=0 serial p=1/0 b=0->48 a=1 t=0 q=[] ov=0\n"
            "hooked s=0 serial p=1/0 b=48->96 a=2 t=0 q=[] ov=0\n"
            "ok=1 error=0 windows=0\n"
            "prov=ec0e8add85b249dc data=fb42c5c02837df48\n");
}

Pipeline QuarantineGroupPipeline(Backend backend, size_t workers) {
  ExecutionOptions options;
  options.seed = 12;
  options.backend = backend;
  options.threads = workers;
  FaultSite site;
  site.stage = "p2";
  site.partition = 1;
  site.fail_attempts = 100;
  options.faults.sites.push_back(site);
  Pipeline p("char-group", options);
  p.Add("make", StageKind::kIngest, MakeExamples(8));
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.quarantine = true;
  p.Add("p1", StageKind::kPreprocess, ExecutionHint::kRecordParallel,
        NoteDraw("before"), Stir("p1_seen"), nullptr, ExamplesBy(2));
  p.WithRetry(retry);
  p.Add("p2", StageKind::kPreprocess, ExecutionHint::kRecordParallel, nullptr,
        Stir("p2_seen"), NoteDraw("after"), ExamplesBy(2));
  p.WithRetry(retry);
  p.Add("tail", StageKind::kShard, Stir("tail_seen"));
  return p;
}

TEST(ExecutorCharacterization, FusedGroupQuarantinesPartition) {
  Pipeline p = QuarantineGroupPipeline(Backend::kThread, 2);
  EXPECT_EQ(RunForFacts(p),
            "make s=0 serial p=1/0 b=0->64 a=1 t=0 q=[] ov=0\n"
            "p1 s=0 record_parallel p=4/4 b=64->128 a=4 t=0 q=[] ov=0\n"
            "p2 s=0 record_parallel p=4/4 b=128->144 a=5 t=0 q=[1] ov=0\n"
            "tail s=0 serial p=1/0 b=144->192 a=1 t=0 q=[] ov=0\n"
            "ok=1 error=0 windows=0\n"
            "quarantine p2 stage=2 part=1 slot=1/4[2,4) attempts=2 code=11 "
            "units=2 slice=2\n"
            "prov=4be313af66b7cabc data=0ea4ccef6ff9fe32\n");
}

TEST(ExecutorCharacterization, FusedGroupQuarantinesPartitionOnSpmd) {
  Pipeline p = QuarantineGroupPipeline(Backend::kSpmd, 4);
  EXPECT_EQ(RunForFacts(p),
            "make s=0 serial p=1/0 b=0->64 a=1 t=0 q=[] ov=0\n"
            "p1 s=0 record_parallel p=4/4 b=64->128 a=4 t=0 q=[] ov=0\n"
            "p2 s=0 record_parallel p=4/4 b=128->144 a=5 t=0 q=[1] ov=0\n"
            "tail s=0 serial p=1/0 b=144->192 a=1 t=0 q=[] ov=0\n"
            "ok=1 error=0 windows=0\n"
            "quarantine p2 stage=2 part=1 slot=1/4[2,4) attempts=2 code=11 "
            "units=2 slice=2\n"
            "prov=4be313af66b7cabc data=0ea4ccef6ff9fe32\n");
}

TEST(ExecutorCharacterization, SkippedRowsAfterGroupFailure) {
  ExecutionOptions options;
  options.seed = 13;
  options.threads = 2;
  options.fail_fast = false;
  Pipeline p("char-skip", options);
  p.Add("make", StageKind::kIngest, MakeExamples(6));
  p.Add("boom", StageKind::kTransform, ExecutionHint::kPartitionParallel,
        [](DataBundle& bundle, StageContext& ctx) -> Status {
          for (auto& ex : bundle.examples) {
            ex.features["boom"] = NDArray::Full({1}, 1.0, DType::kF64);
          }
          return ctx.partition().index == 1 ? DataLoss("bad slice")
                                            : Status::Ok();
        },
        ExamplesBy(2));
  p.Add("later", StageKind::kStructure, Stir("later_seen"));
  p.Add("last", StageKind::kShard, ExecutionHint::kRecordParallel,
        Stir("last_seen"), ExamplesBy(3));
  EXPECT_EQ(RunForFacts(p),
            "make s=0 serial p=1/0 b=0->48 a=1 t=0 q=[] ov=0\n"
            "boom s=5 partition_parallel p=3/3 b=48->96 a=3 t=0 q=[] ov=0\n"
            "later s=6 serial p=1/0 b=0->0 a=0 t=0 q=[] ov=0\n"
            "last s=6 record_parallel p=1/0 b=0->0 a=0 t=0 q=[] ov=0\n"
            "ok=0 error=5 windows=0\n"
            "prov=48eadb257ab0d181 data=00eeff2dbaf229e4\n");
}

Pipeline WindowPipeline(Backend backend, size_t workers) {
  ExecutionOptions options;
  options.seed = 14;
  options.backend = backend;
  options.threads = workers;
  FaultSite site;
  site.stage = "down";
  site.partition = 3;
  site.fail_attempts = 1;
  options.faults.sites.push_back(site);
  Pipeline p("char-window", options);
  p.Add("make", StageKind::kIngest, MakeExamples(16));
  RetryPolicy retry;
  retry.max_attempts = 2;
  p.Add("up-a", StageKind::kPreprocess, ExecutionHint::kPartitionParallel,
        NoteDraw("before"), Stir("up_a_seen"), nullptr, ExamplesBy(8));
  p.WithRetry(retry);
  p.Add("up-b", StageKind::kPreprocess, ExecutionHint::kPartitionParallel,
        Stir("up_b_seen"), ExamplesBy(8));
  p.WithRetry(retry);
  p.Add("down", StageKind::kTransform, ExecutionHint::kPartitionParallel,
        nullptr, Stir("down_seen"), NoteDraw("after"), ExamplesBy(2));
  p.WithRetry(retry);
  p.WithOverlap(OverlapPolicy::kStream);
  return p;
}

// One worker and more workers than roots (2 here) must report the same
// rows as any other count: every window runs one static dispatch shape.
constexpr const char* kTwoLevelWindowFacts =
    "make s=0 serial p=1/0 b=0->128 a=1 t=0 q=[] ov=0\n"
    "up-a s=0 partition_parallel p=2/2 b=128->256 a=2 t=0 q=[] ov=1\n"
    "up-b s=0 partition_parallel p=2/2 b=256->384 a=2 t=0 q=[] ov=1\n"
    "down s=0 partition_parallel p=8/8 b=384->512 a=9 t=0 q=[] ov=1\n"
    "ok=1 error=0 windows=1\n"
    "prov=af44ea2ba0cece09 data=8bfdc4d1a5d293b6\n";

TEST(ExecutorCharacterization, TwoLevelWindowRetriesFault) {
  for (const size_t threads : {size_t{1}, size_t{3}, size_t{8}}) {
    Pipeline p = WindowPipeline(Backend::kThread, threads);
    EXPECT_EQ(RunForFacts(p), kTwoLevelWindowFacts) << "threads=" << threads;
  }
}

TEST(ExecutorCharacterization, TwoLevelWindowRetriesFaultOnSpmd) {
  for (const size_t ranks : {size_t{1}, size_t{4}}) {
    Pipeline p = WindowPipeline(Backend::kSpmd, ranks);
    EXPECT_EQ(RunForFacts(p), kTwoLevelWindowFacts) << "ranks=" << ranks;
  }
}

}  // namespace
}  // namespace drai::core
