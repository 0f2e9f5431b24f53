// Tests for the backend-agnostic executor: the SPMD backend must produce
// byte-identical pipelines to the thread backend at any world size, the
// block-cyclic scatter must give every partition to exactly one rank, a
// stalled rank must surface the group's collective deadline, and the
// StageContext partial-reduction API must deliver partials to the
// AfterMerge hook in ascending partition order on either backend.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "core/backend.hpp"
#include "core/pipeline.hpp"
#include "parallel/communicator.hpp"

namespace drai::core {
namespace {

// ---- partition scatter ------------------------------------------------------

TEST(ScatterAssignment, CoversEveryPartitionExactlyOnce) {
  for (int world : {1, 2, 3, 5, 8}) {
    std::vector<int> owner(11, -1);
    par::RunSpmd(world, [&](par::Communicator& comm) {
      const auto mine = par::ScatterAssignment(comm, 11, /*root=*/0);
      for (uint64_t p : mine) owner[p] = comm.rank();  // disjoint writes
    });
    for (size_t p = 0; p < owner.size(); ++p) {
      ASSERT_GE(owner[p], 0) << "partition " << p << " unassigned at world "
                             << world;
      EXPECT_EQ(owner[p], static_cast<int>(p % static_cast<size_t>(world)));
    }
  }
}

TEST(ScatterAssignment, MorRanksThanPartitionsLeavesTailIdle) {
  std::vector<size_t> counts(4, 0);
  par::RunSpmd(4, [&](par::Communicator& comm) {
    counts[comm.rank()] = par::ScatterAssignment(comm, 2, 0).size();
  });
  EXPECT_EQ(counts, (std::vector<size_t>{1, 1, 0, 0}));
}

TEST(SpmdBackend, MapRunsEveryPartitionExactlyOnce) {
  SpmdBackend backend(3);
  std::vector<int> runs(10, 0);
  PartitionTask task;
  task.n_parts = 10;
  task.run = [&](size_t p) { ++runs[p]; };  // disjoint writes
  backend.Map(task);
  for (size_t p = 0; p < 10; ++p) EXPECT_EQ(runs[p], 1) << p;
}

// ---- backend-identical pipelines --------------------------------------------

/// A partition-parallel pipeline whose output depends on stage RNG, params,
/// counts, and an emitted reduction partial — everything that must be
/// backend and worker-count independent.
struct RunArtifacts {
  std::string provenance_hash;
  std::vector<std::string> example_keys;
  std::vector<int64_t> example_labels;
  uint64_t reduced = 0;
  PipelineReport report;
};

RunArtifacts RunBackendPipeline(Backend backend, size_t workers) {
  ExecutionOptions options;
  options.backend = backend;
  options.threads = workers;
  options.seed = 4321;
  Pipeline p("backend-determinism", options);

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

  auto reduced = std::make_shared<uint64_t>(0);
  ParallelSpec spec;
  spec.axis = PartitionAxis::kExamples;
  spec.grain = 4;
  p.Add("jitter", StageKind::kTransform, ExecutionHint::kRecordParallel,
        /*before=*/nullptr,
        [](DataBundle& bundle, StageContext& ctx) -> Status {
          uint64_t sum = 0;
          for (auto& ex : bundle.examples) {
            ex.SetLabel(static_cast<int64_t>(ctx.rng().NextU64() % 97));
            sum += static_cast<uint64_t>(ex.Label().value());
          }
          ctx.NoteCount("touched", bundle.examples.size());
          ByteWriter w;
          w.PutU64(sum);
          ctx.EmitPartial("label-sum", w.Take());
          return Status::Ok();
        },
        /*after=*/
        [reduced](DataBundle&, StageContext& ctx) -> Status {
          for (const Bytes& blob : ctx.Partials("label-sum")) {
            ByteReader r(blob);
            uint64_t sum = 0;
            DRAI_RETURN_IF_ERROR(r.GetU64(sum));
            *reduced += sum;
          }
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
  out.reduced = *reduced;
  out.provenance_hash = p.provenance().RecordHash();
  return out;
}

TEST(SpmdExecutor, OutputIdenticalToThreadBackendAtEveryWorldSize) {
  const RunArtifacts baseline = RunBackendPipeline(Backend::kThread, 1);
  ASSERT_TRUE(baseline.report.ok);
  EXPECT_GT(baseline.reduced, 0u);
  for (size_t world : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const RunArtifacts spmd = RunBackendPipeline(Backend::kSpmd, world);
    ASSERT_TRUE(spmd.report.ok) << world;
    EXPECT_EQ(spmd.example_keys, baseline.example_keys) << world;
    EXPECT_EQ(spmd.example_labels, baseline.example_labels) << world;
    EXPECT_EQ(spmd.reduced, baseline.reduced) << world;
    EXPECT_EQ(spmd.provenance_hash, baseline.provenance_hash) << world;
  }
}

TEST(SpmdExecutor, ProvenanceParamsAreBackendInvariant) {
  // The backend is an execution detail, not data lineage: provenance must
  // not mention it, or thread and SPMD record hashes could never match.
  ExecutionOptions options;
  options.backend = Backend::kSpmd;
  options.threads = 2;
  Pipeline p("prov-backend", options);
  p.Add("make", StageKind::kIngest,
        [](DataBundle& bundle, StageContext&) -> Status {
          bundle.examples.resize(6);
          return Status::Ok();
        });
  ParallelSpec spec;
  spec.axis = PartitionAxis::kExamples;
  spec.grain = 2;
  p.Add("touch", StageKind::kTransform, ExecutionHint::kPartitionParallel,
        [](DataBundle&, StageContext&) { return Status::Ok(); }, spec);
  DataBundle bundle;
  ASSERT_TRUE(p.Run(bundle).ok);
  const auto& activities = p.provenance().activities();
  ASSERT_EQ(activities.size(), 2u);
  EXPECT_EQ(activities[1].params.count("backend"), 0u);
  EXPECT_EQ(activities[1].params.at("hint"), "partition_parallel");
}

/// Run a 10-partition Map on `backend`; return the distinct threads that
/// ran a partition. Every partition must run exactly once.
std::set<std::thread::id> MapThreads(ExecutionBackend& backend) {
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::vector<int> runs(10, 0);
  PartitionTask task;
  task.n_parts = runs.size();
  task.run = [&](size_t p) {
    std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
    ++runs[p];
  };
  backend.Map(task);
  EXPECT_EQ(runs, std::vector<int>(runs.size(), 1));
  return threads;
}

TEST(ExecutionBackend, FactoryAndNames) {
  EXPECT_EQ(BackendName(Backend::kThread), "thread");
  EXPECT_EQ(BackendName(Backend::kSpmd), "spmd");
  const auto thread = MakeBackend(Backend::kThread, 3);
  EXPECT_EQ(thread->name(), "thread");
  const std::set<std::thread::id> pool_threads = MapThreads(*thread);
  EXPECT_GE(pool_threads.size(), 1u);
  EXPECT_LE(pool_threads.size(), 3u);
  EXPECT_EQ(pool_threads.count(std::this_thread::get_id()), 0u);
  const auto spmd = MakeBackend(Backend::kSpmd, 5);
  EXPECT_EQ(spmd->name(), "spmd");
  EXPECT_EQ(MapThreads(*spmd).size(), 5u);
}

// ---- partial-reduction API ---------------------------------------------------

TEST(SpmdExecutor, PartialsArriveInAscendingPartitionOrder) {
  for (Backend backend : {Backend::kThread, Backend::kSpmd}) {
    ExecutionOptions options;
    options.backend = backend;
    options.threads = 3;
    Pipeline p("partial-order", options);
    p.Add("make", StageKind::kIngest,
          [](DataBundle& bundle, StageContext&) -> Status {
            bundle.examples.resize(14);
            return Status::Ok();
          });
    auto seen = std::make_shared<std::vector<uint64_t>>();
    ParallelSpec spec;
    spec.axis = PartitionAxis::kExamples;
    spec.grain = 2;  // 7 partitions
    p.Add("emit", StageKind::kTransform, ExecutionHint::kRecordParallel,
          /*before=*/nullptr,
          [](DataBundle&, StageContext& ctx) -> Status {
            ByteWriter w;
            w.PutU64(ctx.partition().index);
            ctx.EmitPartial("who", w.Take());
            ctx.NoteCount("parts", 1);
            return Status::Ok();
          },
          /*after=*/
          [seen](DataBundle&, StageContext& ctx) -> Status {
            for (const Bytes& blob : ctx.Partials("who")) {
              ByteReader r(blob);
              uint64_t index = 0;
              DRAI_RETURN_IF_ERROR(r.GetU64(index));
              seen->push_back(index);
            }
            EXPECT_EQ(ctx.MergedCount("parts"), 7u);
            EXPECT_EQ(ctx.MergedCount("absent"), 0u);
            return Status::Ok();
          },
          spec);
    DataBundle bundle;
    ASSERT_TRUE(p.Run(bundle).ok) << BackendName(backend);
    EXPECT_EQ(*seen, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6}))
        << BackendName(backend);
  }
}

TEST(StageContext, PartialsEmptyOutsideAfterHook) {
  StageContext ctx(Rng(1), nullptr);
  EXPECT_TRUE(ctx.Partials("anything").empty());
  EXPECT_EQ(ctx.MergedCount("anything"), 0u);
  ctx.EmitPartial("k", Bytes{std::byte{1}});
  EXPECT_EQ(ctx.TakePartials().size(), 1u);
  EXPECT_TRUE(ctx.TakePartials().empty());  // moved out
}

// ---- SPMD error paths --------------------------------------------------------

TEST(SpmdExecutor, PartitionErrorSurfacesByLowestIndex) {
  ExecutionOptions options;
  options.backend = Backend::kSpmd;
  options.threads = 4;
  options.fail_fast = false;
  Pipeline p("spmd-errors", options);
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
  EXPECT_EQ(report.error.code(), StatusCode::kDataLoss);
  // Every partition's slice still merged back on rank 0.
  EXPECT_EQ(bundle.examples.size(), 8u);
}

TEST(SpmdExecutor, StageExceptionBecomesStatusNotCrash) {
  ExecutionOptions options;
  options.backend = Backend::kSpmd;
  options.threads = 2;
  Pipeline p("spmd-throw", options);
  p.Add("make", StageKind::kIngest,
        [](DataBundle& bundle, StageContext&) -> Status {
          bundle.examples.resize(4);
          return Status::Ok();
        });
  ParallelSpec spec;
  spec.axis = PartitionAxis::kExamples;
  spec.grain = 2;
  p.Add("boom", StageKind::kTransform, ExecutionHint::kPartitionParallel,
        [](DataBundle&, StageContext& ctx) -> Status {
          if (ctx.partition().index == 0) throw std::runtime_error("kaboom");
          return Status::Ok();
        },
        spec);
  DataBundle bundle;
  const PipelineReport report = p.Run(bundle);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.error.code(), StatusCode::kInternal);
  EXPECT_NE(report.error.message().find("kaboom"), std::string::npos);
}

TEST(SpmdExecutor, WorldLargerThanPartitionCountStillCoversAll) {
  // 8 ranks, 2 partitions: six ranks idle through the collectives without
  // deadlocking, and every partition still merges back.
  ExecutionOptions options;
  options.backend = Backend::kSpmd;
  options.threads = 8;
  options.seed = 4321;
  Pipeline p("wide-world", options);
  p.Add("make", StageKind::kIngest,
        [](DataBundle& bundle, StageContext&) -> Status {
          bundle.examples.resize(4);
          return Status::Ok();
        });
  ParallelSpec spec;
  spec.axis = PartitionAxis::kExamples;
  spec.grain = 2;  // 2 partitions << 8 ranks
  p.Add("touch", StageKind::kTransform, ExecutionHint::kPartitionParallel,
        [](DataBundle& bundle, StageContext& ctx) -> Status {
          ctx.NoteCount("seen", bundle.examples.size());
          return Status::Ok();
        },
        spec);
  DataBundle bundle;
  ASSERT_TRUE(p.Run(bundle).ok);
  EXPECT_EQ(bundle.examples.size(), 4u);
}

TEST(SpmdExecutor, CollectiveDeadlineBoundsAStalledRank) {
  // Rank 1's only partition stalls for 8x the collective deadline (a pure
  // slowdown, no error); rank 0 finishes at once and must give up waiting
  // for the world instead of blocking until rank 1 arrives.
  constexpr double kCollectiveMs = 20;
  ExecutionOptions options;
  options.backend = Backend::kSpmd;
  options.threads = 2;
  FaultSite site;
  site.stage = "stall";
  site.partition = 1;
  site.code = StatusCode::kOk;
  site.hang_ms = 8 * kCollectiveMs;
  options.faults.sites.push_back(site);
  Pipeline p("spmd-collective-deadline", options);
  p.Add("make", StageKind::kIngest,
        [](DataBundle& bundle, StageContext&) -> Status {
          bundle.examples.resize(4);
          return Status::Ok();
        });
  ParallelSpec spec;
  spec.axis = PartitionAxis::kExamples;
  spec.grain = 2;  // 2 partitions, one per rank
  p.Add("stall", StageKind::kTransform, ExecutionHint::kPartitionParallel,
        [](DataBundle&, StageContext&) -> Status { return Status::Ok(); },
        spec);
  DeadlinePolicy deadline;
  deadline.collective_ms = kCollectiveMs;
  p.WithDeadline(deadline);

  DataBundle bundle;
  const PipelineReport report = p.Run(bundle);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.error.code(), StatusCode::kDeadlineExceeded)
      << report.error.ToString();
  ASSERT_EQ(report.stages.size(), 2u);
  const StageMetrics& head = report.stages[1];
  EXPECT_EQ(head.name, "stall");
  EXPECT_EQ(head.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(head.timeouts, 1u);
}

TEST(SpmdExecutor, QuarantineDropsSamePartitionOnEveryRankCount) {
  // A partition whose attempts exhaust under a quarantine policy must be
  // dropped identically for any rank world size — the ranks agree on the
  // quarantine set through a collective before merging.
  auto run = [](size_t ranks) {
    ExecutionOptions options;
    options.backend = Backend::kSpmd;
    options.threads = ranks;
    FaultSite site;
    site.stage = "mark";
    site.partition = 1;
    site.fail_attempts = 10;
    options.faults.sites.push_back(site);
    Pipeline p("spmd-quarantine", options);

    ParallelSpec spec;
    spec.axis = PartitionAxis::kExamples;
    spec.grain = 2;
    p.Add("seed", StageKind::kIngest,
          [](DataBundle& bundle, StageContext&) -> Status {
            for (size_t i = 0; i < 8; ++i) {
              shard::Example ex;
              ex.key = std::string("e") + std::to_string(i);
              bundle.examples.push_back(std::move(ex));
            }
            return Status::Ok();
          });
    p.Add("mark", StageKind::kPreprocess, ExecutionHint::kRecordParallel,
          [](DataBundle& bundle, StageContext&) -> Status {
            for (auto& ex : bundle.examples) ex.key += "!";
            return Status::Ok();
          },
          spec);
    RetryPolicy retry;
    retry.max_attempts = 2;
    retry.quarantine = true;
    p.WithRetry(retry);

    DataBundle bundle;
    const PipelineReport report = p.Run(bundle);
    EXPECT_TRUE(report.ok) << report.error.ToString();
    EXPECT_EQ(report.quarantined.size(), 1u);
    return bundle.Serialize();
  };
  const Bytes two = run(2);
  EXPECT_EQ(two, run(3));
  EXPECT_EQ(two, run(5));
  // Examples 2 and 3 (partition 1) are gone on every world size.
  auto parsed = DataBundle::Parse(two);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->examples.size(), 6u);
  EXPECT_EQ(parsed->examples[0].key, "e0!");
  EXPECT_EQ(parsed->examples[2].key, "e4!");
}

}  // namespace
}  // namespace drai::core
