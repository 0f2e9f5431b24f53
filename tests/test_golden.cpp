// drai/tests/test_golden.cpp
//
// The committed byte gate. Every digest below is a SHA-256 of bytes the
// library writes, pinned to a fixed value:
//
//   * the synthetic climate generators (decoded fields, GRIB-lite bytes,
//     NetCDF-lite bytes) on {gaussian, uniform} grids x {no dropout, 0.5%
//     dropout};
//   * the dataset and provenance record of all four archetypes at small
//     sizes, each under {thread x1, thread x4, spmd x4, spmd x4 + 1%
//     injected faults, spmd x4 + 1% faults + stage checkpoints};
//   * the `bench_parallel_pipeline` seed workload (59d678.../c7251b...);
//   * the checkpoint container, and a StoreCheckpointSink file with the
//     striped-store statistics its saves leave behind.
//
// A change that moves any output byte fails here and names the cell. A
// change that is meant to move bytes re-pins these digests explicitly, in
// its own commit, together with the drbench pins.
//
// Platform: the generators call libm `std::sin`/`std::cos`/`std::asin`, so
// the digests hold for glibc's libm. The library is built with
// -ffp-contract=off, so they do not depend on whether the target has FMA
// (the CI fma-target job checks them at -march=x86-64-v3). On another C
// library the test skips.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "core/checkpoint.hpp"
#include "domains/bio.hpp"
#include "domains/climate.hpp"
#include "domains/fusion.hpp"
#include "domains/materials.hpp"
#include "grid/latlon.hpp"
#include "ndarray/kernels.hpp"
#include "parallel/striped_store.hpp"
#include "shard/checkpoint.hpp"
#include "workloads/climate.hpp"

namespace drai {
namespace {

#if defined(__GLIBC__)
#define DRAI_REQUIRE_GLIBC() (void)0
#else
#define DRAI_REQUIRE_GLIBC() \
  GTEST_SKIP() << "digests are pinned for glibc's libm sin/cos"
#endif

// ---- generators -----------------------------------------------------------

struct GeneratorCase {
  bool gaussian;
  double missing;
  const char* fields;  ///< digest over (variable, valid_time, field bytes)
  const char* grib;    ///< digest of GenerateClimateGrib
  const char* netcdf;  ///< digest of GenerateClimateNetcdf
};

std::string CaseName(const GeneratorCase& c) {
  return std::string(c.gaussian ? "gaussian" : "uniform") +
         (c.missing > 0 ? "/missing" : "/dense");
}

workloads::ClimateConfig GeneratorConfig(const GeneratorCase& c) {
  workloads::ClimateConfig config;  // 8 times x 32 x 64, t2m/z500/u10
  config.gaussian_grid = c.gaussian;
  config.missing_prob = c.missing;
  return config;
}

std::string HexOf(std::span<const std::byte> bytes) {
  return DigestToHex(Sha256::Hash(bytes));
}

const GeneratorCase kGeneratorCases[] = {
    {true, 0.0,
     "686f4d5c78f797346b67ca4223f9efd2b93bb98a158bc86e69be555d45eebcba",
     "0cbe8a73721cf1046976caf836124315557e918fd3811ef3741d50c4be076f56",
     "b94a6eafc890110465707127e6e40727f621ebbac6e5d533d84b281764da0e9b"},
    {true, 0.005,
     "ff84364819a13caa90a67cb800f313ddcc7c5a60423f6dc22c30bc7feb2342a0",
     "ec8ad776bc61299960a58bd892c9490a0eaaebcbef322a1c3e13c2d22c6877ce",
     "245fa0e633a33ddc0864709870234bc7041ba3572f2e10c02470dfeaf253d3ca"},
    {false, 0.0,
     "8a30b10c74e1ad10afa1b5f925b44077c3c15cec743019fc120bc38445f5f61e",
     "6d89362c79a27200e543504722d5536acd82741ad1964f105e1c481945e622c9",
     "6db7c4176c13be134737b3d96803c2f49169e47ec6df752e52adb0f08a6dda7c"},
    {false, 0.005,
     "dcfea2fd91f86a6f0360ef73cd6e83affc63f60a2bd69e37401be8832134b4c5",
     "c203fdf449438473cf67cc2b9e08fb2478b05c87df2d89d93a3228cb68971465",
     "d8d399487919360efe055492b2ed6eb1e1118c63bcf1e37eb8f2a976a09b2fcb"},
};

TEST(Golden, ClimateGeneratorDigests) {
  DRAI_REQUIRE_GLIBC();
  for (const GeneratorCase& c : kGeneratorCases) {
    const workloads::ClimateConfig config = GeneratorConfig(c);
    Sha256 fields;
    for (const workloads::ClimateField& f :
         workloads::GenerateClimateFields(config)) {
      fields.Update(f.variable);
      fields.Update(std::to_string(f.valid_time));
      fields.Update(f.field.raw_bytes());
    }
    EXPECT_EQ(DigestToHex(fields.Finish()), c.fields) << CaseName(c);
    EXPECT_EQ(HexOf(workloads::GenerateClimateGrib(config)), c.grib)
        << CaseName(c);
    EXPECT_EQ(HexOf(workloads::GenerateClimateNetcdf(config)), c.netcdf)
        << CaseName(c);
  }
}

// ---- kernels --------------------------------------------------------------

std::string HexOfDouble(double v) {
  return HexOf(std::as_bytes(std::span<const double, 1>(&v, 1)));
}

// One generated field with NaN cells through every regrid method, at each
// floating input dtype, plus patches, casts and sums of the field stack.
TEST(Golden, KernelDigests) {
  DRAI_REQUIRE_GLIBC();
  workloads::ClimateConfig config;
  config.missing_prob = 0.005;
  const std::vector<workloads::ClimateField> fields =
      workloads::GenerateClimateFields(config);
  const grid::LatLonGrid src = workloads::ClimateSourceGrid(config);
  const grid::LatLonGrid dst = grid::LatLonGrid::Uniform(24, 48);

  Sha256 regrid;
  for (const DType dtype : {DType::kF64, DType::kF32, DType::kF16}) {
    const NDArray field = fields[1].field.Cast(dtype);
    for (const grid::RegridMethod method :
         {grid::RegridMethod::kNearest, grid::RegridMethod::kBilinear,
          grid::RegridMethod::kConservative}) {
      const NDArray out = grid::Regrid(field, src, dst, method).value();
      regrid.Update(out.raw_bytes());
    }
  }
  EXPECT_EQ(DigestToHex(regrid.Finish()),
            "629d59884cf30f99fcad9b5a2dd263a2b72b7dedc0a7bca497b9ce0dd3df3d9c")
      << "regrid";

  NDArray stack = NDArray::Zeros({3, 32, 64}, DType::kF64);
  for (size_t v = 0; v < 3; ++v) {
    NDArray slot = stack.Slice(0, v, v + 1).Reshape({32, 64});
    slot.CopyFrom(fields[v * config.n_times].field);
  }
  EXPECT_EQ(HexOf(grid::ExtractPatches(stack, 8, 8).value().raw_bytes()),
            "456967fd3534d962c26e44a941b3e73856592957d1a75e52b19be39ac5b9c54d")
      << "patches";

  // Integer targets take the dense t2m field: NaN and out-of-range values
  // have no defined integer conversion.
  const NDArray dense = workloads::GenerateClimateFields({})[0].field;
  Sha256 casts;
  for (const DType from : {DType::kF64, DType::kF32, DType::kF16}) {
    for (const DType to : {DType::kF16, DType::kF32, DType::kF64}) {
      casts.Update(stack.Cast(from).Cast(to).raw_bytes());
    }
    for (const DType to : {DType::kI16, DType::kI32}) {
      casts.Update(dense.Cast(from).Cast(to).raw_bytes());
    }
  }
  EXPECT_EQ(DigestToHex(casts.Finish()),
            "dbebbb6d5ce5283f75fa8a8cbca0e06edb6d1f79ce5f2656b7973274dc70a2e5")
      << "casts";

  EXPECT_EQ(HexOfDouble(Sum(dense)),
            "3708b017f87f133bdb0f8c829b45920c486be56335395673b479f5abee3a129a")
      << "sum";
  EXPECT_EQ(HexOfDouble(Mean(dense.Cast(DType::kF32))),
            "a15212bb6a829bafcc46b5364d73bf15c5c4c586c481156b61011bee477cb1c7")
      << "mean";
}

// ---- archetypes -----------------------------------------------------------

/// The execution cells every archetype must produce identical bytes under.
struct Cell {
  const char* name;
  core::Backend backend;
  size_t workers;
  bool faults;
  bool checkpoint;
};
constexpr Cell kCells[] = {
    {"thread x1", core::Backend::kThread, 1, false, false},
    {"thread x4", core::Backend::kThread, 4, false, false},
    {"spmd x4", core::Backend::kSpmd, 4, false, false},
    {"spmd x4 + 1% faults", core::Backend::kSpmd, 4, true, false},
    {"spmd x4 + 1% faults + checkpoint", core::Backend::kSpmd, 4, true, true},
};

/// Set a cell's execution knobs on any archetype config. Faults use the
/// fault-recovery bench's seed with enough retries to clear each one. A
/// checkpointed cell saves every stage group to `sink`, whose store is not
/// the one the dataset digest reads.
template <typename Config>
Config WithCell(Config config, const Cell& cell, core::CheckpointSink& sink) {
  config.backend = cell.backend;
  config.threads = cell.workers;
  if (cell.faults) {
    config.faults.seed = 0xFA17;
    config.faults.rate = 0.01;
    config.retry.max_attempts = 5;
  }
  if (cell.checkpoint) config.checkpoint = &sink;
  return config;
}

struct Digests {
  std::string data;
  std::string provenance;
  uint64_t retries = 0;  ///< attempts beyond one per partition
  uint64_t checkpoint_saves = 0;
};

/// Run one archetype in one cell against a fresh store; digest its dataset
/// directory.
template <typename Config>
Digests DigestCell(const Config& base, const Cell& cell) {
  par::StripedStore checkpoint_store;
  core::StoreCheckpointSink sink(checkpoint_store, "/checkpoints");
  const bench::RunAndHashResult run =
      bench::RunAndHash(WithCell(base, cell, sink));
  EXPECT_TRUE(run.status.ok()) << cell.name << ": " << run.status.ToString();
  if (!run.status.ok()) return {};
  Digests out{run.data_hash, run.provenance_hash};
  for (const auto& stage : run.result.report.stages) {
    out.retries += stage.attempts - stage.partitions;
  }
  out.checkpoint_saves = run.result.report.checkpoint_saves;
  return out;
}

template <typename Config>
void ExpectPinned(const Config& base, const Digests& pinned) {
  for (const Cell& cell : kCells) {
    const Digests got = DigestCell(base, cell);
    EXPECT_EQ(got.data, pinned.data) << cell.name;
    EXPECT_EQ(got.provenance, pinned.provenance) << cell.name;
    // The fault cell proves something only if a fault fired and was retried,
    // the checkpoint cell only if the run saved.
    if (cell.faults) {
      EXPECT_GT(got.retries, 0u) << cell.name;
    }
    if (cell.checkpoint) {
      EXPECT_GT(got.checkpoint_saves, 0u) << cell.name;
    }
  }
}

TEST(Golden, ClimateArchetype) {
  DRAI_REQUIRE_GLIBC();
  domains::ClimateArchetypeConfig config;
  config.workload.n_times = 8;
  config.workload.n_lat = 16;
  config.workload.n_lon = 32;
  config.workload.missing_prob = 0.005;
  config.target_lat = 16;
  config.target_lon = 32;
  ExpectPinned(
      config,
      {"4c107dccd3ed798ce9a1a828651d3e8eb9ba1cf442d8a4e41df2d3c14baefb9c",
       "380dc5d6afe9f90ff7e5e25f95fe05483cbfc7a7816aa6577c452c474fd32c33"});
}

TEST(Golden, FusionArchetype) {
  DRAI_REQUIRE_GLIBC();
  domains::FusionArchetypeConfig config;
  config.workload.n_shots = 4;
  config.workload.unlabeled_fraction = 0.2;
  ExpectPinned(
      config,
      {"c0263495cfb1bab8318d111d4c26ab1c563c6a49b15a020818f4ea5c39ce234a",
       "64a5e8225d746f32b9f369ab76d0d74c87fb7cfe3de561b3fce7bc6e2fc6a18d"});
}

TEST(Golden, BioArchetype) {
  DRAI_REQUIRE_GLIBC();
  domains::BioArchetypeConfig config;
  config.workload.n_subjects = 24;
  ExpectPinned(
      config,
      {"6ef1576defa2da029333d66fcdf1d12fcd34f231635b59d6fe3111c9c4390585",
       "cb002440618e199814d72e52ce5dfe7dca775cac3a5a574d6c67e583b5c54fde"});
}

TEST(Golden, MaterialsArchetype) {
  DRAI_REQUIRE_GLIBC();
  domains::MaterialsArchetypeConfig config;
  config.workload.n_structures = 12;
  ExpectPinned(
      config,
      {"01f53e09e2013375b9a0089260340a1e62267373e659e9ea826c2d12a6206d0e",
       "cb09680e57fb074bcf2a14a45980d0298c6ea86f9c84120c818dcb9b51f6ae51"});
}

// The seed workload of bench_parallel_pipeline, whose digests the docs
// quote as 59d678.../c7251b... One cell: that bench sweeps worker counts.
TEST(Golden, ParallelPipelineBenchWorkload) {
  DRAI_REQUIRE_GLIBC();
  domains::ClimateArchetypeConfig config;
  config.workload.n_times = 48;
  config.workload.n_lat = 64;
  config.workload.n_lon = 128;
  config.workload.variables = {"t2m", "z500", "u10"};
  config.workload.missing_prob = 0.005;
  config.target_lat = 48;
  config.target_lon = 96;
  config.patch = 8;
  config.threads = 1;
  const bench::RunAndHashResult run = bench::RunAndHash(config);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.data_hash,
            "59d678acdd4afebe9a5d1e0981bc76d07d9025fff24668ce6e51ed19ccd0e108");
  EXPECT_EQ(run.provenance_hash,
            "c7251b120432ef2d8aec1bbbc5a5665663b4014fbaa9223dc6fe46b9eda58ea9");
}

// ---- checkpoint files -----------------------------------------------------
// Checkpoint bytes involve no libm, so these pins hold on every platform.

Bytes Pattern(size_t n, uint8_t salt) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::byte>((i * 31 + salt) & 0xff);
  }
  return b;
}

TEST(Golden, CheckpointContainer) {
  shard::CheckpointMeta meta;
  meta.pipeline = "golden";
  meta.run_index = 7;
  meta.plan_fingerprint = "fp-0123456789abcdef";
  meta.stages_done = 3;
  std::map<std::string, Bytes> sections;
  sections["bundle"] = Pattern(300, 1);  // two-byte varint lengths
  sections["empty"] = {};
  sections["quarantine/0000"] = Pattern(17, 2);
  const Bytes file = shard::EncodeCheckpoint(meta, sections);
  EXPECT_EQ(file.size(), 420u);
  EXPECT_EQ(HexOf(file),
            "ee96b6b4efc50efac4c1556a997996f67069960ca15e85ebb260d93066ed77e3");
}

// Every bundle collection, tensors of four dtypes (a strided view and an
// empty one among them), provenance, the lineage cursor and a quarantined
// slice.
core::PipelineCheckpoint GoldenCheckpoint() {
  core::PipelineCheckpoint cp;
  cp.pipeline = "golden";
  cp.run_index = 2;
  cp.plan_fingerprint = "fp-golden";
  cp.stages_done = 4;
  cp.provenance = Pattern(150, 3);
  cp.last_state = 9;

  core::DataBundle& b = cp.bundle;
  b.blobs["raw"] = Pattern(200, 4);
  b.blobs["tiny"] = ToBytes("abc");
  std::vector<double> f64(12);
  for (size_t i = 0; i < f64.size(); ++i) f64[i] = 0.5 * static_cast<double>(i) - 2.0;
  b.tensors["f64"] = NDArray::FromVector<double>({3, 4}, f64);
  b.tensors["f32"] =
      NDArray::FromVector<float>({5}, {1.5f, -2.25f, 0.0f, 1e-3f, 3e4f});
  b.tensors["i64"] = NDArray::FromVector<int64_t>(
      {2, 2}, {-3, 0, int64_t{1} << 40, 7});
  std::vector<uint8_t> u8(40);
  for (size_t i = 0; i < u8.size(); ++i) u8[i] = static_cast<uint8_t>(i * 13);
  b.tensors["u8"] = NDArray::FromVector<uint8_t>({40}, u8);
  b.tensors["view"] = b.tensors["f64"].Slice(1, 1, 3);
  b.tensors["empty"] = NDArray::Zeros({0, 3}, DType::kF64);

  privacy::Table table;
  table.columns = {"id", "site"};
  table.rows = {{"0", "ornl"}, {"1", ""}};
  b.tables["subjects"] = table;

  timeseries::Signal ip;
  ip.name = "ip";
  ip.t = {0.0, 0.001, 0.002};
  ip.v = {1.0e6, 1.1e6, 0.9e6};
  timeseries::Signal ne;
  ne.name = "ne";
  b.signal_sets["shot-1"] = {ip, ne};

  std::vector<float> patch(16 * 16);
  for (size_t i = 0; i < patch.size(); ++i) {
    patch[i] = static_cast<float>(i) * 0.25f;
  }
  shard::Example tile;
  tile.key = "tile-0";
  tile.features["x"] = NDArray::FromVector<float>({16, 16}, patch);
  tile.SetLabel(3);
  shard::Example bare;
  bare.key = "bare";
  b.examples = {tile, bare};

  b.SetAttr("count", container::AttrValue::Int(-42));
  b.SetAttr("scale", container::AttrValue::Double(0.125));
  b.SetAttr("units", container::AttrValue::String("K"));
  b.SetAttr("levels", container::AttrValue::DoubleVec({500.0, 850.0}));

  core::QuarantineRecord q;
  q.stage = "normalize";
  q.stage_index = 2;
  q.partition = 1;
  q.slot = {1, 4, 10, 20};
  q.attempts = 3;
  q.error = Status(StatusCode::kUnavailable, "injected fault");
  q.units = 10;
  q.slice.examples = {tile};
  q.slice.blobs["part"] = Pattern(130, 5);
  cp.quarantined.push_back(q);
  return cp;
}

TEST(Golden, StoreCheckpointSinkFile) {
  par::StripedStore store;
  core::StoreCheckpointSink sink(store, "/ckpt");
  core::PipelineCheckpoint cp = GoldenCheckpoint();
  ASSERT_TRUE(sink.Save(cp).ok());
  // A second save replaces the first; the statistics count both.
  cp.stages_done = 5;
  ASSERT_TRUE(sink.Save(cp).ok());
  const par::StripedStoreStats stats = store.stats();
  EXPECT_EQ(stats.bytes_written, 6636u);
  EXPECT_EQ(stats.write_ops, 2u);
  EXPECT_EQ(stats.read_ops, 0u);
  // Each save is one op of 3318 bytes on the next OST in rotation.
  EXPECT_DOUBLE_EQ(stats.simulated_seconds, 0.001001659);

  const Result<Bytes> file = store.ReadAll(sink.PathFor("golden"));
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->size(), 3318u);
  EXPECT_EQ(HexOf(*file),
            "b8f1934856c96fb0861989c2b94bdc45e8992d77ca6bfd00704b0516643a0446");
}

}  // namespace
}  // namespace drai
