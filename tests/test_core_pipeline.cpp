// Tests for the core pipeline framework: bundle, canonical stage ordering,
// execution metrics, the feedback loop, and provenance capture.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/hash.hpp"
#include "core/bundle.hpp"
#include "core/pipeline.hpp"
#include "core/provenance.hpp"
#include "largest_new.hpp"

namespace drai::core {
namespace {

// ---- bundle -----------------------------------------------------------------

TEST(DataBundle, SignalCountBeyondThePayloadIsDataLoss) {
  // Version, then no blobs, tensors or tables, then one signal set whose
  // count claims 2^62 signals over a payload of 64 KiB: the name of the
  // first signal, then nothing.
  ByteWriter w;
  w.PutU32(1);
  w.PutVarU64(0);  // blobs
  w.PutVarU64(0);  // tensors
  w.PutVarU64(0);  // tables
  w.PutVarU64(1);  // signal sets
  w.PutString("shot");
  w.PutVarU64(uint64_t{1} << 62);
  w.PutString(std::string(size_t{1} << 16, 't'));
  const Bytes bytes = w.Take();

  g_largest_new = 0;
  StatusCode code = StatusCode::kOk;
  EXPECT_NO_THROW(code = DataBundle::Parse(bytes).status().code());
  EXPECT_EQ(code, StatusCode::kDataLoss);
  EXPECT_LT(g_largest_new.load(), 2 * bytes.size());
}

TEST(DataBundle, TableRowCountBeyondThePayloadIsDataLoss) {
  // One table whose row count overruns the payload: either far beyond it,
  // or just under its byte count. The payload is a single row with one
  // 64 KiB cell, then nothing.
  for (const uint64_t rows : {uint64_t{1} << 62, uint64_t{1} << 15}) {
    ByteWriter w;
    w.PutU32(1);
    w.PutVarU64(0);  // blobs
    w.PutVarU64(0);  // tensors
    w.PutVarU64(1);  // tables
    w.PutString("clinical");
    w.PutVarU64(0);  // columns
    w.PutVarU64(rows);
    w.PutVarU64(1);  // cells in the first row
    w.PutString(std::string(size_t{1} << 16, 'c'));
    const Bytes bytes = w.Take();

    g_largest_new = 0;
    StatusCode code = StatusCode::kOk;
    EXPECT_NO_THROW(code = DataBundle::Parse(bytes).status().code())
        << rows;
    EXPECT_EQ(code, StatusCode::kDataLoss) << rows;
    EXPECT_LT(g_largest_new.load(), 2 * bytes.size()) << rows;
  }
}

TEST(DataBundle, LookupsAndAttrs) {
  DataBundle bundle;
  bundle.tensors["x"] = NDArray::Zeros({2, 2});
  bundle.blobs["raw"] = ToBytes("bytes");
  bundle.SetAttr("count", container::AttrValue::Int(5));
  bundle.SetAttr("scale", container::AttrValue::Double(1.5));

  EXPECT_TRUE(bundle.Tensor("x").ok());
  EXPECT_EQ(bundle.Tensor("y").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(bundle.Blob("raw").ok());
  EXPECT_FALSE(bundle.Blob("nope").ok());
  EXPECT_EQ(bundle.Attr("count")->i, 5);
  EXPECT_FALSE(bundle.Attr("missing").has_value());
  EXPECT_DOUBLE_EQ(bundle.AttrOr("count", -1), 5.0);
  EXPECT_DOUBLE_EQ(bundle.AttrOr("scale", -1), 1.5);
  EXPECT_DOUBLE_EQ(bundle.AttrOr("missing", -1), -1.0);
  EXPECT_GT(bundle.ApproxBytes(), 16u);
}

TEST(DataBundle, CloneOwnsTensorStorage) {
  // Plain copies share NDArray storage; Clone must not — a snapshot that
  // aliases the original is silently corrupted by in-place stage mutation
  // (the retry/quarantine/speculation pristine-slice contract).
  DataBundle bundle;
  bundle.tensors["x"] = NDArray::Full({2}, 1.0, DType::kF64);
  shard::Example ex;
  ex.key = "e0";
  ex.features["f"] = NDArray::Full({2}, 3.0, DType::kF64);
  bundle.examples.push_back(std::move(ex));

  DataBundle shallow = bundle;
  DataBundle deep = bundle.Clone();
  bundle.tensors["x"].SetFromDouble(0, -7.0);
  bundle.examples[0].features["f"].SetFromDouble(0, -9.0);

  EXPECT_EQ(shallow.tensors["x"].GetAsDouble(0), -7.0);  // aliased
  EXPECT_EQ(deep.tensors["x"].GetAsDouble(0), 1.0);      // owned
  EXPECT_EQ(deep.examples[0].features["f"].GetAsDouble(0), 3.0);
  EXPECT_EQ(deep.examples[0].key, "e0");
}

// ---- ordering -----------------------------------------------------------------

TEST(Pipeline, EnforcesCanonicalStageOrder) {
  Pipeline p("ordered");
  p.Add("a", StageKind::kIngest,
        [](DataBundle&, StageContext&) { return Status::Ok(); });
  p.Add("b", StageKind::kPreprocess,
        [](DataBundle&, StageContext&) { return Status::Ok(); });
  p.Add("b2", StageKind::kPreprocess,  // same kind repeats: fine
        [](DataBundle&, StageContext&) { return Status::Ok(); });
  p.Add("c", StageKind::kShard,
        [](DataBundle&, StageContext&) { return Status::Ok(); });
  // Going backwards must throw.
  EXPECT_THROW(p.Add("late-ingest", StageKind::kIngest,
                     [](DataBundle&, StageContext&) { return Status::Ok(); }),
               std::invalid_argument);
  EXPECT_EQ(p.NumStages(), 4u);
}

TEST(Pipeline, RunsStagesInOrderWithMetrics) {
  Pipeline p("metrics");
  std::vector<std::string> order;
  p.Add("first", StageKind::kIngest, [&](DataBundle& b, StageContext&) {
    order.push_back("first");
    b.blobs["data"] = Bytes(1000);
    return Status::Ok();
  });
  p.Add("second", StageKind::kTransform, [&](DataBundle& b, StageContext&) {
    order.push_back("second");
    b.blobs["data"] = Bytes(4000);
    return Status::Ok();
  });
  DataBundle bundle;
  const PipelineReport report = p.Run(bundle);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].name, "first");
  EXPECT_EQ(report.stages[0].bundle_bytes_before, 0u);
  EXPECT_EQ(report.stages[0].bundle_bytes_after, 1000u);
  EXPECT_EQ(report.stages[1].bundle_bytes_after, 4000u);
  EXPECT_GE(report.total_seconds, 0.0);
  EXPECT_FALSE(report.TimeBreakdown().empty());
}

TEST(Pipeline, FailFastStopsAtFirstError) {
  Pipeline p("failing");
  bool later_ran = false;
  p.Add("boom", StageKind::kIngest, [](DataBundle&, StageContext&) {
    return DataLoss("bad input file");
  });
  p.Add("after", StageKind::kPreprocess, [&](DataBundle&, StageContext&) {
    later_ran = true;
    return Status::Ok();
  });
  DataBundle bundle;
  const PipelineReport report = p.Run(bundle);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.error.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(report.stages.size(), 1u);
}

TEST(Pipeline, NoFailFastSkipsDependentStages) {
  // Stages form a linear dependency chain, so once one fails the rest
  // cannot trust their input. fail_fast=false keeps the *report* complete
  // (every stage gets an entry) but must not run the downstream bodies.
  ExecutionOptions options;
  options.fail_fast = false;
  Pipeline p("continue", options);
  bool later_ran = false;
  p.Add("boom", StageKind::kIngest, [](DataBundle&, StageContext&) {
    return DataLoss("x");
  });
  p.Add("after", StageKind::kPreprocess, [&](DataBundle&, StageContext&) {
    later_ran = true;
    return Status::Ok();
  });
  DataBundle bundle;
  const PipelineReport report = p.Run(bundle);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(later_ran);
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(report.stages[1].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.stages[1].status.message().find("skipped"),
            std::string::npos);
}

TEST(Pipeline, NoFailFastKeepsFirstError) {
  // With fail_fast off, report.error holds the FIRST failure and every
  // later stage is recorded as skipped, not run.
  ExecutionOptions options;
  options.fail_fast = false;
  Pipeline p("first-error", options);
  p.Add("boom1", StageKind::kIngest, [](DataBundle&, StageContext&) {
    return DataLoss("first failure");
  });
  p.Add("boom2", StageKind::kTransform, [](DataBundle&, StageContext&) {
    return Internal("second failure");
  });
  DataBundle bundle;
  const PipelineReport report = p.Run(bundle);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.error.code(), StatusCode::kDataLoss);
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(report.stages[1].status.code(),
            StatusCode::kFailedPrecondition);
}

TEST(Pipeline, NoteParamsDoNotLeakAcrossStages) {
  // The executor resets the StageContext between stages, so a NoteParam in
  // stage 1 must not reappear in stage 2's provenance activity.
  Pipeline p("params");
  p.Add("first", StageKind::kIngest, [](DataBundle&, StageContext& ctx) {
    ctx.NoteParam("only_first", "yes");
    return Status::Ok();
  });
  p.Add("second", StageKind::kTransform, [](DataBundle&, StageContext& ctx) {
    ctx.NoteParam("only_second", "yes");
    return Status::Ok();
  });
  DataBundle bundle;
  ASSERT_TRUE(p.Run(bundle).ok);
  const auto& activities = p.provenance().activities();
  ASSERT_EQ(activities.size(), 2u);
  EXPECT_EQ(activities[0].params.count("only_first"), 1u);
  EXPECT_EQ(activities[1].params.count("only_first"), 0u);
  EXPECT_EQ(activities[1].params.count("only_second"), 1u);
}

TEST(PipelinePlan, AddThrowsOnOutOfOrderKinds) {
  PipelinePlan plan("plan-order");
  plan.Add("shard", StageKind::kShard,
           [](DataBundle&, StageContext&) { return Status::Ok(); });
  EXPECT_THROW(
      plan.Add("ingest", StageKind::kIngest,
               [](DataBundle&, StageContext&) { return Status::Ok(); }),
      std::invalid_argument);
  EXPECT_EQ(plan.NumStages(), 1u);
}

TEST(Pipeline, StageRngDeterministicAcrossRuns) {
  // Two pipelines with the same seed must hand stages identical randomness.
  auto collect = [](uint64_t seed) {
    ExecutionOptions options;
    options.seed = seed;
    Pipeline p("rng", options);
    uint64_t value = 0;
    p.Add("draw", StageKind::kIngest, [&](DataBundle&, StageContext& ctx) {
      value = ctx.rng().NextU64();
      return Status::Ok();
    });
    DataBundle bundle;
    p.Run(bundle);
    return value;
  };
  EXPECT_EQ(collect(7), collect(7));
  EXPECT_NE(collect(7), collect(8));
}

// ---- feedback loop ----------------------------------------------------------

TEST(Pipeline, FeedbackLoopIteratesUntilQualityReached) {
  // A stage that "cleans" a little each run; evaluate() demands a floor.
  Pipeline p("feedback");
  p.Add("clean", StageKind::kTransform, [](DataBundle& b, StageContext&) {
    b.SetAttr("quality",
              container::AttrValue::Double(b.AttrOr("quality", 0.0) + 0.25));
    return Status::Ok();
  });
  DataBundle bundle;
  const auto fb = p.RunWithFeedback(
      bundle,
      [](const DataBundle& b) { return b.AttrOr("quality", 0.0) >= 0.9; },
      [](DataBundle&) {}, /*max_iterations=*/10);
  EXPECT_TRUE(fb.converged);
  EXPECT_EQ(fb.iterations, 4u);  // 0.25 per run -> 1.0 at run 4
  EXPECT_DOUBLE_EQ(bundle.AttrOr("quality", 0.0), 1.0);
}

TEST(Pipeline, FeedbackLoopGivesUpAtMaxIterations) {
  Pipeline p("never");
  p.Add("noop", StageKind::kTransform,
        [](DataBundle&, StageContext&) { return Status::Ok(); });
  DataBundle bundle;
  const auto fb = p.RunWithFeedback(
      bundle, [](const DataBundle&) { return false; }, [](DataBundle&) {}, 3);
  EXPECT_FALSE(fb.converged);
  EXPECT_EQ(fb.iterations, 3u);
}

// ---- provenance --------------------------------------------------------------

TEST(Pipeline, CapturesProvenancePerStage) {
  Pipeline p("prov");
  p.Add("ingest", StageKind::kIngest, [](DataBundle&, StageContext& ctx) {
    ctx.NoteParam("files", "3");
    return Status::Ok();
  });
  p.Add("shard", StageKind::kShard,
        [](DataBundle&, StageContext&) { return Status::Ok(); });
  DataBundle bundle;
  p.Run(bundle);
  const ProvenanceGraph& g = p.provenance();
  ASSERT_EQ(g.activities().size(), 2u);
  EXPECT_EQ(g.activities()[0].stage_kind, "ingest");
  EXPECT_EQ(g.activities()[0].params.at("files"), "3");
  EXPECT_EQ(g.activities()[1].stage_kind, "shard");
  // The shard stage's output derives from the ingest stage's output.
  const auto lineage = g.LineageActivities(g.artifacts().size() - 1);
  ASSERT_TRUE(lineage.ok());
  EXPECT_EQ(lineage->size(), 2u);
}

TEST(Pipeline, ProvenanceDisabledLeavesNoRecord) {
  ExecutionOptions options;
  options.capture_provenance = false;
  Pipeline p("silent", options);
  p.Add("s", StageKind::kIngest, [](DataBundle&, StageContext& ctx) {
    EXPECT_EQ(ctx.provenance(), nullptr);
    return Status::Ok();
  });
  DataBundle bundle;
  p.Run(bundle);
  EXPECT_TRUE(p.provenance().activities().empty());
}

TEST(Provenance, AncestryAcrossActivities) {
  ProvenanceGraph g;
  const size_t raw = g.AddArtifact("raw", ToBytes("raw-data"));
  const size_t clean = g.AddArtifact("clean", ToBytes("clean-data"));
  const size_t shards = g.AddArtifact("shards", ToBytes("shard-data"));
  Activity a1;
  a1.name = "clean";
  a1.stage_kind = "preprocess";
  a1.inputs = {raw};
  a1.outputs = {clean};
  ASSERT_TRUE(g.AddActivity(a1).ok());
  Activity a2;
  a2.name = "shard";
  a2.stage_kind = "shard";
  a2.inputs = {clean};
  a2.outputs = {shards};
  ASSERT_TRUE(g.AddActivity(a2).ok());

  const auto ancestors = g.Ancestors(shards);
  ASSERT_TRUE(ancestors.ok());
  EXPECT_EQ(*ancestors, (std::vector<size_t>{raw, clean}));
  EXPECT_TRUE(g.Ancestors(raw)->empty());
  EXPECT_FALSE(g.Ancestors(99).ok());
}

TEST(Provenance, DoubleProducerRejected) {
  ProvenanceGraph g;
  const size_t a = g.AddArtifact("a", ToBytes("x"));
  Activity act;
  act.name = "make";
  act.outputs = {a};
  ASSERT_TRUE(g.AddActivity(act).ok());
  EXPECT_EQ(g.AddActivity(act).code(), StatusCode::kAlreadyExists);
}

TEST(Provenance, RecordHashSensitiveToEverything) {
  auto build = [](const std::string& param) {
    ProvenanceGraph g;
    const size_t a = g.AddArtifact("a", ToBytes("data"));
    Activity act;
    act.name = "stage";
    act.stage_kind = "transform";
    act.params["p"] = param;
    act.outputs = {a};
    g.AddActivity(act).OrDie();
    return g.RecordHash();
  };
  EXPECT_EQ(build("1"), build("1"));
  EXPECT_NE(build("1"), build("2"));
}

/// A provenance record from `body` (which starts after the magic), framed
/// with the magic and a valid CRC, so parsing reaches the counts.
Bytes ProvenanceRecord(const Bytes& body) {
  ByteWriter w;
  w.PutMagic("PRV1");
  w.PutRaw(body.data(), body.size());
  w.PutU32(Crc32(w.bytes()));
  return w.Take();
}

/// Parse `bytes`; expect kDataLoss, no throw, and no single allocation
/// beyond what the input justifies.
void ExpectProvenanceDataLoss(const Bytes& bytes, const std::string& label) {
  g_largest_new = 0;
  StatusCode code = StatusCode::kOk;
  EXPECT_NO_THROW(code = ProvenanceGraph::Parse(bytes).status().code())
      << label;
  EXPECT_EQ(code, StatusCode::kDataLoss) << label;
  EXPECT_LE(g_largest_new.load(), 32 * bytes.size() + (size_t{64} << 10))
      << label;
}

TEST(Provenance, EdgeCountBeyondThePayloadIsDataLoss) {
  // One activity whose input (or output) count overruns the record: 2^62,
  // 2^28, or 2^20 over 4096 real one-byte edges.
  for (const bool outputs : {false, true}) {
    for (const auto& [claim, real] :
         {std::pair<uint64_t, size_t>{uint64_t{1} << 62, 0},
          {uint64_t{1} << 28, 0},
          {uint64_t{1} << 20, 4096}}) {
      ByteWriter w;
      w.PutVarU64(0);  // artifacts
      w.PutVarU64(1);  // activities
      w.PutString("a");
      w.PutString("ingest");
      w.PutVarU64(0);  // params
      if (outputs) w.PutVarU64(0);  // inputs
      w.PutVarU64(claim);
      for (size_t i = 0; i < real; ++i) w.PutVarU64(0);
      ExpectProvenanceDataLoss(
          ProvenanceRecord(w.Take()),
          std::string(outputs ? "outputs " : "inputs ") +
              std::to_string(claim) + "/" + std::to_string(real));
    }
  }
}

TEST(Provenance, ArtifactCountBeyondThePayloadIsDataLoss) {
  // The count sits at the 2^24 plausibility cap; 1024 real artifacts follow.
  for (const size_t real : {size_t{0}, size_t{1024}}) {
    ByteWriter w;
    w.PutVarU64(uint64_t{1} << 24);
    for (size_t i = 0; i < real; ++i) {
      w.PutString("");
      w.PutString("");
      w.PutU64(0);
    }
    ExpectProvenanceDataLoss(ProvenanceRecord(w.Take()),
                             "artifacts " + std::to_string(real));
  }
}

TEST(Provenance, SerializeRoundTrip) {
  ProvenanceGraph g;
  const size_t raw = g.AddArtifact("raw", ToBytes("bytes"));
  Activity act;
  act.name = "ingest";
  act.stage_kind = "ingest";
  act.params["source"] = "synthetic";
  act.outputs = {raw};
  act.seconds = 1.25;
  g.AddActivity(act).OrDie();

  const auto back = ProvenanceGraph::Parse(g.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->RecordHash(), g.RecordHash());
  EXPECT_EQ(back->artifacts()[0].name, "raw");
  EXPECT_EQ(back->activities()[0].params.at("source"), "synthetic");
  EXPECT_DOUBLE_EQ(back->activities()[0].seconds, 1.25);
  EXPECT_FALSE(back->ToText().empty());
}

TEST(Provenance, CorruptionDetected) {
  ProvenanceGraph g;
  g.AddArtifact("a", ToBytes("zzz"));
  Bytes bytes = g.Serialize();
  bytes[bytes.size() / 2] ^= std::byte{0x01};
  EXPECT_EQ(ProvenanceGraph::Parse(bytes).status().code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace drai::core
