// Tests for the fault-tolerance stack: deterministic fault injection
// (core/faults.hpp), per-partition retry and quarantine in the executor,
// and stage checkpoint/resume (core/checkpoint.hpp + shard/checkpoint.hpp).
// The load-bearing properties are byte-identity ones: a zero-fault run
// matches a run without the harness, a retried run matches a fault-free
// run, and a killed-then-resumed run matches an uninterrupted run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/executor.hpp"
#include "core/pipeline.hpp"

#include "diff_harness.hpp"
#include "parallel/striped_store.hpp"
#include "shard/checkpoint.hpp"

namespace drai::core {
namespace {

// ---- FaultPlan --------------------------------------------------------------

TEST(FaultPlan, InactiveByDefault) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_FALSE(plan.Decide(1, "any", 0, 0, 1).has_value());
}

TEST(FaultPlan, DecideIsPureFunctionOfCoordinates) {
  FaultPlan plan;
  plan.seed = 7;
  plan.rate = 0.5;
  // Equal coordinates always produce an equal decision — replaying a run
  // replays its fault schedule exactly.
  for (uint64_t run = 1; run <= 3; ++run) {
    for (size_t stage = 0; stage < 4; ++stage) {
      for (size_t part = 0; part < 8; ++part) {
        const auto a = plan.Decide(run, "s", stage, part, 1);
        const auto b = plan.Decide(run, "s", stage, part, 1);
        EXPECT_EQ(a.has_value(), b.has_value());
        if (a.has_value()) {
          EXPECT_EQ(a->status.code(), b->status.code());
        }
      }
    }
  }
}

TEST(FaultPlan, RateSamplesSomeCellsNotAll) {
  FaultPlan plan;
  plan.seed = 11;
  plan.rate = 0.3;
  size_t hits = 0;
  const size_t cells = 200;
  for (size_t part = 0; part < cells; ++part) {
    if (plan.Decide(1, "s", 0, part, 1).has_value()) ++hits;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, cells);
}

TEST(FaultPlan, SiteMatchesStagePartitionAndAttemptWindow) {
  FaultPlan plan;
  FaultSite site;
  site.stage = "salt";
  site.partition = 1;
  site.fail_attempts = 2;
  site.code = StatusCode::kUnavailable;
  plan.sites.push_back(site);

  EXPECT_TRUE(plan.active());
  // Matching coordinates fault on attempts 1..fail_attempts, then clear.
  ASSERT_TRUE(plan.Decide(1, "salt", 3, 1, 1).has_value());
  EXPECT_EQ(plan.Decide(1, "salt", 3, 1, 1)->status.code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(plan.Decide(1, "salt", 3, 1, 2).has_value());
  EXPECT_FALSE(plan.Decide(1, "salt", 3, 1, 3).has_value());
  // Wrong stage or partition: no fault.
  EXPECT_FALSE(plan.Decide(1, "other", 3, 1, 1).has_value());
  EXPECT_FALSE(plan.Decide(1, "salt", 3, 0, 1).has_value());
}

TEST(FaultPlan, WildcardSiteMatchesEverything) {
  FaultPlan plan;
  FaultSite site;  // empty stage + kAnyPartition
  site.code = StatusCode::kResourceExhausted;
  plan.sites.push_back(site);
  ASSERT_TRUE(plan.Decide(2, "anything", 4, 9, 1).has_value());
  EXPECT_EQ(plan.Decide(2, "anything", 4, 9, 1)->status.code(),
            StatusCode::kResourceExhausted);
}

// ---- retry / quarantine on a real pipeline ----------------------------------

// A 4-stage pipeline over 6 examples (3 partitions of 2) whose parallel
// stages fold stage RNG into the record keys: a retry that replayed a stale
// slice or drew from a different stream would change the output bytes.
struct TestPipeline {
  Backend backend = Backend::kThread;
  FaultPlan faults;
  RetryPolicy retry;
  CheckpointSink* checkpoint = nullptr;
  bool fail_fast = true;
  bool die = false;  ///< when true, the serial "gate" stage fails
};

Pipeline MakePipeline(TestPipeline& cfg) {
  ExecutionOptions options;
  options.seed = 0xFEED;
  options.backend = cfg.backend;
  options.fail_fast = cfg.fail_fast;
  options.faults = cfg.faults;
  options.checkpoint = cfg.checkpoint;
  Pipeline p("fault-drill", options);

  ParallelSpec by_two;
  by_two.axis = PartitionAxis::kExamples;
  by_two.grain = 2;

  p.Add("make", StageKind::kIngest,
        [](DataBundle& bundle, StageContext&) -> Status {
          for (size_t i = 0; i < 6; ++i) {
            shard::Example ex;
            ex.key = std::string("e") + std::to_string(i);
            ex.SetLabel(static_cast<int64_t>(i));
            bundle.examples.push_back(std::move(ex));
          }
          return Status::Ok();
        });
  p.Add("salt", StageKind::kPreprocess, ExecutionHint::kRecordParallel,
        [](DataBundle& bundle, StageContext& ctx) -> Status {
          for (auto& ex : bundle.examples) {
            ex.key += std::string("-") +
                      std::to_string(ctx.rng().UniformU64(1000));
          }
          ctx.NoteCount("salted", bundle.examples.size());
          return Status::Ok();
        },
        by_two);
  p.WithRetry(cfg.retry);
  p.Add("gate", StageKind::kTransform,
        [&cfg](DataBundle&, StageContext&) -> Status {
          if (cfg.die) return Unavailable("simulated mid-run kill");
          return Status::Ok();
        });
  p.Add("tag", StageKind::kStructure, ExecutionHint::kRecordParallel,
        [](DataBundle& bundle, StageContext& ctx) -> Status {
          for (auto& ex : bundle.examples) {
            ex.key += std::string("/") +
                      std::to_string(ctx.rng().UniformU64(1000));
          }
          return Status::Ok();
        },
        by_two);
  p.WithRetry(cfg.retry);
  return p;
}

Bytes RunToBytes(TestPipeline& cfg, PipelineReport* report_out = nullptr) {
  Pipeline p = MakePipeline(cfg);
  DataBundle bundle;
  PipelineReport report = p.Run(bundle);
  EXPECT_TRUE(report.ok) << report.error.ToString();
  if (report_out != nullptr) *report_out = report;
  return bundle.Serialize();
}

TEST(Retry, ZeroFaultRunIsByteIdenticalWithHarnessConfigured) {
  // A retry policy plus an inactive FaultPlan must not perturb anything:
  // same bundle bytes, no retry/quarantine params in provenance.
  TestPipeline plain;
  const Bytes baseline = RunToBytes(plain);

  TestPipeline armed;
  armed.retry.max_attempts = 3;
  armed.retry.quarantine = true;
  PipelineReport report;
  EXPECT_EQ(RunToBytes(armed, &report), baseline);
  EXPECT_TRUE(report.quarantined.empty());
  for (const auto& m : report.stages) {
    EXPECT_TRUE(m.quarantined.empty());
  }
}

TEST(Retry, RetriedRunMatchesFaultFreeRun) {
  TestPipeline plain;
  const Bytes baseline = RunToBytes(plain);

  TestPipeline faulty;
  FaultSite site;
  site.stage = "salt";
  site.partition = 1;
  site.fail_attempts = 1;
  faulty.faults.sites.push_back(site);
  faulty.retry.max_attempts = 2;
  PipelineReport report;
  // The fault fires after the stage body mutated partition 1, so equality
  // here proves the scheduler restored the pristine slice and replayed the
  // same RNG stream.
  EXPECT_EQ(RunToBytes(faulty, &report), baseline);
  EXPECT_TRUE(report.quarantined.empty());

  // The salt stage ran 3 partitions + 1 retry = 4 attempts.
  bool found = false;
  for (const auto& m : report.stages) {
    if (m.name != "salt") continue;
    found = true;
    EXPECT_EQ(m.attempts, 4u);
  }
  EXPECT_TRUE(found);
}

TEST(Retry, ExhaustedAttemptsFailTheRun) {
  TestPipeline cfg;
  FaultSite site;
  site.stage = "salt";
  site.partition = 0;
  site.fail_attempts = 10;
  cfg.faults.sites.push_back(site);
  cfg.retry.max_attempts = 3;

  Pipeline p = MakePipeline(cfg);
  DataBundle bundle;
  const PipelineReport report = p.Run(bundle);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.error.code(), StatusCode::kUnavailable);
}

TEST(Retry, NonRetryableCodeIsNotRetried) {
  TestPipeline cfg;
  FaultSite site;
  site.stage = "salt";
  site.partition = 0;
  site.fail_attempts = 10;
  site.code = StatusCode::kDataLoss;  // deterministic — retry is pointless
  cfg.faults.sites.push_back(site);
  cfg.retry.max_attempts = 5;

  Pipeline p = MakePipeline(cfg);
  DataBundle bundle;
  const PipelineReport report = p.Run(bundle);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.error.code(), StatusCode::kDataLoss);
  for (const auto& m : report.stages) {
    if (m.name == "salt") {
      // No retries: at most one try per partition (the abort may stop
      // sibling partitions before they run at all).
      EXPECT_GE(m.attempts, 1u);
      EXPECT_LE(m.attempts, 3u);
    }
  }
}

TEST(Retry, ThrownFaultRetriesViaExplicitInternalCode) {
  TestPipeline plain;
  const Bytes baseline = RunToBytes(plain);

  TestPipeline faulty;
  FaultSite site;
  site.stage = "tag";
  site.partition = 2;
  site.fail_attempts = 1;
  site.throw_instead = true;  // models a crash, surfaces as kInternal
  faulty.faults.sites.push_back(site);
  faulty.retry.max_attempts = 2;
  faulty.retry.retryable_codes = {StatusCode::kInternal};
  EXPECT_EQ(RunToBytes(faulty), baseline);
}

TEST(Retry, SerialStageHonorsMaxAttempts) {
  FaultPlan faults;
  FaultSite site;
  site.stage = "make";  // serial ingest stage
  site.fail_attempts = 1;
  faults.sites.push_back(site);

  ExecutionOptions options;
  options.seed = 0xFEED;
  options.faults = faults;
  Pipeline p("serial-retry", options);
  size_t runs = 0;
  p.Add("make", StageKind::kIngest,
        [&runs](DataBundle& bundle, StageContext&) -> Status {
          ++runs;
          shard::Example ex;
          ex.key = "only";
          bundle.examples.push_back(std::move(ex));
          return Status::Ok();
        });
  RetryPolicy retry;
  retry.max_attempts = 2;
  p.WithRetry(retry);

  DataBundle bundle;
  const PipelineReport report = p.Run(bundle);
  ASSERT_TRUE(report.ok) << report.error.ToString();
  EXPECT_EQ(runs, 2u);  // failed once at commit, re-ran once
  // The fault fired after the body appended an example; the retry must see
  // the pristine (empty) bundle, not a bundle with a leftover record.
  EXPECT_EQ(bundle.examples.size(), 1u);
  EXPECT_EQ(report.stages[0].attempts, 2u);
}

TEST(Quarantine, DropsPartitionRecordsAndKeepsRunOk) {
  TestPipeline cfg;
  FaultSite site;
  site.stage = "salt";
  site.partition = 1;  // examples 2 and 3
  site.fail_attempts = 10;
  cfg.faults.sites.push_back(site);
  cfg.retry.max_attempts = 2;
  cfg.retry.quarantine = true;

  Pipeline p = MakePipeline(cfg);
  DataBundle bundle;
  const PipelineReport report = p.Run(bundle);
  ASSERT_TRUE(report.ok) << report.error.ToString();

  // Partition 1's two records are gone; the other four survive in order.
  ASSERT_EQ(bundle.examples.size(), 4u);
  EXPECT_EQ(bundle.examples[0].key.substr(0, 2), "e0");
  EXPECT_EQ(bundle.examples[1].key.substr(0, 2), "e1");
  EXPECT_EQ(bundle.examples[2].key.substr(0, 2), "e4");
  EXPECT_EQ(bundle.examples[3].key.substr(0, 2), "e5");

  ASSERT_EQ(report.quarantined.size(), 1u);
  const QuarantineRecord& q = report.quarantined[0];
  EXPECT_EQ(q.stage, "salt");
  EXPECT_EQ(q.partition, 1u);
  EXPECT_EQ(q.attempts, 2u);
  EXPECT_EQ(q.units, 2u);
  EXPECT_EQ(q.error.code(), StatusCode::kUnavailable);

  bool found = false;
  for (const auto& m : report.stages) {
    if (m.name != "salt") continue;
    found = true;
    ASSERT_EQ(m.quarantined.size(), 1u);
    EXPECT_EQ(m.quarantined[0], 1u);
  }
  EXPECT_TRUE(found);
}

TEST(Quarantine, CountsExcludeQuarantinedPartitions) {
  TestPipeline cfg;
  FaultSite site;
  site.stage = "salt";
  site.partition = 0;
  site.fail_attempts = 10;
  cfg.faults.sites.push_back(site);
  cfg.retry.max_attempts = 1;
  cfg.retry.quarantine = true;

  Pipeline p = MakePipeline(cfg);
  DataBundle bundle;
  const PipelineReport report = p.Run(bundle);
  ASSERT_TRUE(report.ok) << report.error.ToString();
  // "salted" counts only the two surviving partitions (2 examples each).
  const auto& activities = p.provenance().activities();
  for (const auto& a : activities) {
    const auto it = a.params.find("salted");
    if (it != a.params.end()) {
      EXPECT_EQ(it->second, "4");
    }
  }
}

TEST(Quarantine, SpmdBackendMatchesThreadBackend) {
  auto run = [](Backend backend) {
    TestPipeline cfg;
    cfg.backend = backend;
    FaultSite site;
    site.stage = "salt";
    site.partition = 2;
    site.fail_attempts = 10;
    cfg.faults.sites.push_back(site);
    cfg.retry.max_attempts = 2;
    cfg.retry.quarantine = true;
    Pipeline p = MakePipeline(cfg);
    DataBundle bundle;
    const PipelineReport report = p.Run(bundle);
    EXPECT_TRUE(report.ok) << report.error.ToString();
    EXPECT_EQ(report.quarantined.size(), 1u);
    return bundle.Serialize();
  };
  EXPECT_EQ(run(Backend::kThread), run(Backend::kSpmd));
}

TEST(Retry, SpmdRetriedRunMatchesThreadFaultFreeRun) {
  TestPipeline plain;
  const Bytes baseline = RunToBytes(plain);

  TestPipeline faulty;
  faulty.backend = Backend::kSpmd;
  FaultSite site;
  site.stage = "salt";
  site.partition = 1;
  site.fail_attempts = 1;
  faulty.faults.sites.push_back(site);
  faulty.retry.max_attempts = 2;
  EXPECT_EQ(RunToBytes(faulty), baseline);
}

// ---- checkpoint container (shard layer) -------------------------------------

TEST(CheckpointFormat, EncodeDecodeRoundTrip) {
  shard::CheckpointMeta meta;
  meta.pipeline = "p";
  meta.run_index = 3;
  meta.plan_fingerprint = "abc123";
  meta.stages_done = 2;
  std::map<std::string, Bytes> sections;
  sections["bundle"] = ToBytes("bundle-bytes");
  sections["provenance"] = ToBytes("prov-bytes");

  const Bytes file = shard::EncodeCheckpoint(meta, sections);
  auto decoded = shard::DecodeCheckpoint(file);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->meta.pipeline, "p");
  EXPECT_EQ(decoded->meta.run_index, 3u);
  EXPECT_EQ(decoded->meta.plan_fingerprint, "abc123");
  EXPECT_EQ(decoded->meta.stages_done, 2u);
  EXPECT_EQ(decoded->sections, sections);
}

TEST(CheckpointFormat, CorruptionIsDataLoss) {
  shard::CheckpointMeta meta;
  meta.pipeline = "p";
  std::map<std::string, Bytes> sections;
  sections["bundle"] = ToBytes("payload-payload-payload");
  Bytes file = shard::EncodeCheckpoint(meta, sections);
  // Flip one payload byte: the record CRC must catch it.
  file[file.size() - 3] ^= std::byte{0x40};
  const auto decoded = shard::DecodeCheckpoint(file);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointFormat, WriterMatchesEncodeCheckpoint) {
  shard::CheckpointMeta meta;
  meta.pipeline = "p";
  std::map<std::string, Bytes> sections;
  sections["a"] = Bytes(200, std::byte{1});
  sections["b"] = ToBytes("bee");
  // Hints whose varint widths are wrong either way move the payload into
  // place; the bytes do not change.
  shard::CheckpointWriter writer(meta, 0);
  writer.Add("a", 5, [&](ByteWriter& w) { w.PutRaw(sections["a"]); });
  writer.Add("b", 1 << 20, [&](ByteWriter& w) { w.PutRaw(sections["b"]); });
  EXPECT_EQ(writer.Finish(), shard::EncodeCheckpoint(meta, sections));
}

TEST(CheckpointFormat, WriterRejectsOutOfOrderSections) {
  shard::CheckpointWriter writer(shard::CheckpointMeta{}, 0);
  writer.Add("b", ToBytes("x"));
  EXPECT_THROW(writer.Add("a", ToBytes("y")), std::invalid_argument);
  EXPECT_THROW(writer.Add("b", ToBytes("y")), std::invalid_argument);
}

TEST(DataBundle, SerializeParseRoundTripAllCollections) {
  DataBundle bundle;
  bundle.blobs["raw"] = ToBytes("blob-bytes");
  bundle.tensors["x"] = NDArray::Zeros({2, 3});
  privacy::Table table;
  table.columns = {"id", "v"};
  table.rows = {{"0", "a"}, {"1", "b"}};
  bundle.tables["t"] = table;
  timeseries::Signal sig;
  sig.name = "temp";
  sig.t = {0.0, 1.0};
  sig.v = {20.5, 21.0};
  bundle.signal_sets["shot"] = {sig};
  shard::Example ex;
  ex.key = "e0";
  ex.SetLabel(7);
  bundle.examples.push_back(ex);
  bundle.SetAttr("note", container::AttrValue::String("hello"));

  const Bytes bytes = bundle.Serialize();
  auto parsed = DataBundle::Parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Serialize(), bytes);
  EXPECT_EQ(parsed->examples.size(), 1u);
  EXPECT_EQ(parsed->examples[0].key, "e0");
  EXPECT_EQ(parsed->tables.at("t").NumRows(), 2u);
  EXPECT_EQ(parsed->signal_sets.at("shot")[0].name, "temp");
  EXPECT_EQ(parsed->Attr("note")->s, "hello");
}

// ---- checkpoint sink + resume -----------------------------------------------

TEST(Checkpoint, StoreSinkSaveLoadRoundTrip) {
  par::StripedStore store;
  StoreCheckpointSink sink(store, "/ckpt");

  auto none = sink.LoadLatest("absent");
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());

  PipelineCheckpoint cp;
  cp.pipeline = "demo";
  cp.run_index = 2;
  cp.plan_fingerprint = "fp";
  cp.stages_done = 3;
  shard::Example ex;
  ex.key = "k";
  cp.bundle.examples.push_back(ex);
  cp.last_state = 5;
  ASSERT_TRUE(sink.Save(cp).ok());

  auto loaded = sink.LoadLatest("demo");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->has_value());
  EXPECT_EQ((*loaded)->pipeline, "demo");
  EXPECT_EQ((*loaded)->run_index, 2u);
  EXPECT_EQ((*loaded)->plan_fingerprint, "fp");
  EXPECT_EQ((*loaded)->stages_done, 3u);
  ASSERT_EQ((*loaded)->bundle.examples.size(), 1u);
  EXPECT_EQ((*loaded)->bundle.examples[0].key, "k");
  ASSERT_TRUE((*loaded)->last_state.has_value());
  EXPECT_EQ(*(*loaded)->last_state, 5u);
}

TEST(Checkpoint, CorruptFileSurfacesAsDataLoss) {
  par::StripedStore store;
  StoreCheckpointSink sink(store, "/ckpt");
  PipelineCheckpoint cp;
  cp.pipeline = "demo";
  ASSERT_TRUE(sink.Save(cp).ok());

  const std::string path = sink.PathFor("demo");
  auto bytes = store.ReadAll(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() - 1] ^= std::byte{0xFF};
  ASSERT_TRUE(store.Create(path).ok());
  ASSERT_TRUE(store.Write(path, 0, *bytes).ok());

  const auto loaded = sink.LoadLatest("demo");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(Checkpoint, RefusedSaveKeepsPreviousCheckpoint) {
  par::StripedStoreConfig config;
  config.capacity_bytes = 4000;
  par::StripedStore store(config);
  StoreCheckpointSink sink(store, "/ckpt");

  PipelineCheckpoint small;
  small.pipeline = "demo";
  small.stages_done = 1;
  small.bundle.blobs["payload"] = Bytes(1000, std::byte{0x11});
  ASSERT_TRUE(sink.Save(small).ok());
  const uint64_t used = store.UsedBytes();
  const par::StripedStoreStats before = store.stats();

  PipelineCheckpoint big = small;
  big.stages_done = 2;
  big.bundle.blobs["payload"] = Bytes(5000, std::byte{0x22});
  const Status refused = sink.Save(big);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  // Nothing happened: same bytes stored, no write counted or charged.
  EXPECT_EQ(store.UsedBytes(), used);
  EXPECT_EQ(store.stats().bytes_written, before.bytes_written);
  EXPECT_EQ(store.stats().write_ops, before.write_ops);

  auto loaded = sink.LoadLatest("demo");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->has_value());
  EXPECT_EQ((*loaded)->stages_done, 1u);
  EXPECT_EQ((*loaded)->bundle.blobs.at("payload"), small.bundle.blobs.at("payload"));
}

TEST(Resume, ResumesFromTheCheckpointBeforeARefusedSave) {
  TestPipeline plain;
  const Bytes ref_bytes = RunToBytes(plain);

  par::StripedStoreConfig config;
  config.capacity_bytes = 1 << 20;
  par::StripedStore store(config);
  StoreCheckpointSink sink(store, "/ckpt");
  TestPipeline killed;
  killed.checkpoint = &sink;
  killed.die = true;
  Pipeline killed_pipeline = MakePipeline(killed);
  DataBundle killed_bundle;
  EXPECT_FALSE(killed_pipeline.Run(killed_bundle).ok);

  // A later save under the same name that does not fit is refused whole.
  PipelineCheckpoint oversize;
  oversize.pipeline = "fault-drill";
  oversize.bundle.blobs["huge"] = Bytes(2 << 20, std::byte{0x33});
  EXPECT_EQ(sink.Save(oversize).code(), StatusCode::kResourceExhausted);

  TestPipeline resumed;
  resumed.checkpoint = &sink;
  Pipeline resumed_pipeline = MakePipeline(resumed);
  DataBundle resumed_bundle;
  const PipelineReport report = resumed_pipeline.Resume(resumed_bundle);
  ASSERT_TRUE(report.ok) << report.error.ToString();
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].name, "gate");
  EXPECT_EQ(resumed_bundle.Serialize(), ref_bytes);
}

TEST(Checkpoint, ReportCountsEverySave) {
  // Checkpoints go to a store of their own, so its bytes_written is exactly
  // what the saves wrote.
  par::StripedStore store;
  StoreCheckpointSink sink(store, "/ckpt");
  TestPipeline cfg;
  cfg.checkpoint = &sink;
  PipelineReport report;
  RunToBytes(cfg, &report);
  // make | salt | gate | tag: four stage groups, one save after each.
  EXPECT_EQ(report.checkpoint_saves, 4u);
  EXPECT_EQ(report.checkpoint_bytes, store.stats().bytes_written);
  EXPECT_GT(report.checkpoint_seconds, 0.0);
  EXPECT_NE(report.TimeBreakdown().find("checkpoints: 4 saves"),
            std::string::npos);

  TestPipeline plain;
  PipelineReport unsaved;
  RunToBytes(plain, &unsaved);
  EXPECT_EQ(unsaved.checkpoint_saves, 0u);
  EXPECT_EQ(unsaved.checkpoint_bytes, 0u);
  EXPECT_EQ(unsaved.TimeBreakdown().find("checkpoints"), std::string::npos);
}

TEST(Resume, KilledRunResumesToIdenticalResults) {
  // Uninterrupted reference run (its own sink so the files don't collide).
  par::StripedStore ref_store;
  StoreCheckpointSink ref_sink(ref_store, "/ckpt");
  TestPipeline ref;
  ref.checkpoint = &ref_sink;
  Pipeline ref_pipeline = MakePipeline(ref);
  DataBundle ref_bundle;
  ASSERT_TRUE(ref_pipeline.Run(ref_bundle).ok);
  const Bytes ref_bytes = ref_bundle.Serialize();
  const std::string ref_hash = ref_pipeline.provenance().RecordHash();

  // Run that dies at the serial "gate" stage (after "make" + "salt"
  // checkpointed).
  par::StripedStore store;
  StoreCheckpointSink sink(store, "/ckpt");
  TestPipeline killed;
  killed.checkpoint = &sink;
  killed.die = true;
  Pipeline killed_pipeline = MakePipeline(killed);
  DataBundle killed_bundle;
  const PipelineReport killed_report = killed_pipeline.Run(killed_bundle);
  EXPECT_FALSE(killed_report.ok);
  ASSERT_TRUE(store.Exists(sink.PathFor("fault-drill")));

  // A *fresh* pipeline (the process restarted) resumes from the sink.
  TestPipeline resumed;
  resumed.checkpoint = &sink;
  Pipeline resumed_pipeline = MakePipeline(resumed);
  DataBundle resumed_bundle;
  const PipelineReport resumed_report =
      resumed_pipeline.Resume(resumed_bundle);
  ASSERT_TRUE(resumed_report.ok) << resumed_report.error.ToString();
  // Only the remaining stages ran: gate + tag, not make/salt again.
  EXPECT_EQ(resumed_report.stages.size(), 2u);
  EXPECT_EQ(resumed_report.stages[0].name, "gate");

  EXPECT_EQ(resumed_bundle.Serialize(), ref_bytes);
  EXPECT_EQ(resumed_pipeline.provenance().RecordHash(), ref_hash);
}

TEST(Resume, NoCheckpointFallsBackToPlainRun) {
  par::StripedStore store;
  StoreCheckpointSink sink(store, "/ckpt");
  TestPipeline plain;
  const Bytes baseline = RunToBytes(plain);

  TestPipeline cfg;
  cfg.checkpoint = &sink;
  Pipeline p = MakePipeline(cfg);
  DataBundle bundle;
  const PipelineReport report = p.Resume(bundle);
  ASSERT_TRUE(report.ok) << report.error.ToString();
  EXPECT_EQ(bundle.Serialize(), baseline);
}

TEST(Resume, RefusesStructurallyDifferentPlan) {
  par::StripedStore store;
  StoreCheckpointSink sink(store, "/ckpt");

  // Save a checkpoint under the name "fault-drill" but with a different
  // plan shape.
  ExecutionOptions options;
  options.checkpoint = &sink;
  Pipeline other("fault-drill", options);
  other.Add("different", StageKind::kIngest,
            [](DataBundle&, StageContext&) { return Status::Ok(); });
  DataBundle other_bundle;
  ASSERT_TRUE(other.Run(other_bundle).ok);

  TestPipeline cfg;
  cfg.checkpoint = &sink;
  Pipeline p = MakePipeline(cfg);
  DataBundle bundle;
  const PipelineReport report = p.Resume(bundle);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.error.code(), StatusCode::kFailedPrecondition);
}

TEST(PipelinePlan, FingerprintTracksStructureOnly) {
  auto build = [](const std::string& second_stage) {
    PipelinePlan plan("fp");
    plan.Add("a", StageKind::kIngest,
             [](DataBundle&, StageContext&) { return Status::Ok(); });
    plan.Add(second_stage, StageKind::kTransform,
             [](DataBundle&, StageContext&) { return Status::Ok(); });
    return plan.Fingerprint();
  };
  EXPECT_EQ(build("b"), build("b"));     // same structure, same fingerprint
  EXPECT_NE(build("b"), build("b2"));    // renaming a stage invalidates
}

// ---- fail_fast=false regression ---------------------------------------------

TEST(FailFast, OffSkipsDependentStagesAfterParallelFailure) {
  TestPipeline cfg;
  cfg.fail_fast = false;
  FaultSite site;
  site.stage = "salt";
  site.partition = 0;
  site.fail_attempts = 10;
  cfg.faults.sites.push_back(site);

  Pipeline p = MakePipeline(cfg);
  DataBundle bundle;
  const PipelineReport report = p.Run(bundle);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.error.code(), StatusCode::kUnavailable);
  // All four stages have an entry; the two after "salt" were skipped.
  ASSERT_EQ(report.stages.size(), 4u);
  EXPECT_TRUE(report.stages[0].status.ok());
  EXPECT_EQ(report.stages[1].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(report.stages[2].status.code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(report.stages[3].status.code(),
            StatusCode::kFailedPrecondition);
}


// The shared differential harness on the fault-injection workload: a 1%
// fault rate with retries must recover to byte-identical datasets in every
// execution mode — {barrier, overlap} x {thread, spmd} x worker counts.
TEST(FaultDifferential, RecoveredRunsAreByteIdenticalAcrossExecutionModes) {
  testing::ExpectDifferentialIdentity(testing::FaultDifferentialConfig(),
                                      {Backend::kThread, Backend::kSpmd},
                                      {1, 4});
}

}  // namespace
}  // namespace drai::core
