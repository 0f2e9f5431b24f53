// Tests for drai/shard: examples, split assignment, writer/reader,
// manifests, collation, and the DataLoader.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "largest_new.hpp"
#include "shard/example.hpp"
#include "shard/manifest.hpp"
#include "shard/shard_reader.hpp"
#include "shard/shard_writer.hpp"

namespace drai::shard {
namespace {

Example MakeExample(const std::string& key, float base, int64_t label = 0) {
  Example ex;
  ex.key = key;
  ex.features["x"] =
      NDArray::FromVector<float>({4}, {base, base + 1, base + 2, base + 3});
  ex.features["y"] = NDArray::FromVector<float>({1}, {base * 10});
  ex.SetLabel(label);
  return ex;
}

// ---- Example ----------------------------------------------------------------

TEST(Example, SerializeRoundTrip) {
  const Example ex = MakeExample("sample-001", 2.5f, 7);
  const Bytes bytes = ex.Serialize();
  const auto back = Example::Parse(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->key, "sample-001");
  EXPECT_EQ(back->Label().value(), 7);
  ASSERT_NE(back->Find("x"), nullptr);
  EXPECT_EQ(back->Find("x")->GetAsDouble(3), 5.5);
  EXPECT_EQ(back->PayloadBytes(), ex.PayloadBytes());
}

TEST(Example, SerializeWithCodecRoundTrip) {
  const Example ex = MakeExample("c", 1.0f);
  const Bytes bytes = ex.Serialize(codec::Codec::kLz);
  const auto back = Example::Parse(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Find("x")->GetAsDouble(0), 1.0);
}

TEST(Example, CorruptPayloadRejected) {
  Bytes bytes = MakeExample("c", 1.0f).Serialize();
  bytes[bytes.size() - 3] ^= std::byte{0xFF};
  EXPECT_FALSE(Example::Parse(bytes).ok());
}

TEST(Example, MissingLabelIsNotFound) {
  Example ex;
  ex.key = "k";
  EXPECT_EQ(ex.Label().status().code(), StatusCode::kNotFound);
}

// ---- SplitAssigner ---------------------------------------------------------

TEST(SplitAssigner, DeterministicAndOrderIndependent) {
  const SplitAssigner a(0.8, 0.1, 0.1, 99);
  const SplitAssigner b(0.8, 0.1, 0.1, 99);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(a.Assign(key), b.Assign(key));
  }
}

TEST(SplitAssigner, SeedChangesAssignment) {
  const SplitAssigner a(0.5, 0.25, 0.25, 1);
  const SplitAssigner b(0.5, 0.25, 0.25, 2);
  int differ = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key-" + std::to_string(i);
    if (a.Assign(key) != b.Assign(key)) ++differ;
  }
  EXPECT_GT(differ, 100);
}

class SplitFractions
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(SplitFractions, EmpiricalFractionsMatch) {
  const auto [tr, va, te] = GetParam();
  const SplitAssigner assigner(tr, va, te, 7);
  std::map<Split, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ++counts[assigner.Assign("sample-" + std::to_string(i))];
  }
  EXPECT_NEAR(counts[Split::kTrain] / double(n), tr, 0.02);
  EXPECT_NEAR(counts[Split::kVal] / double(n), va, 0.02);
  EXPECT_NEAR(counts[Split::kTest] / double(n), te, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, SplitFractions,
    ::testing::Values(std::make_tuple(0.8, 0.1, 0.1),
                      std::make_tuple(0.6, 0.2, 0.2),
                      std::make_tuple(0.98, 0.01, 0.01),
                      std::make_tuple(1.0, 0.0, 0.0)));

TEST(SplitAssigner, RejectsBadFractions) {
  EXPECT_THROW(SplitAssigner(0.5, 0.2, 0.2), std::invalid_argument);
  EXPECT_THROW(SplitAssigner(-0.1, 0.6, 0.5), std::invalid_argument);
}

// ---- manifest -------------------------------------------------------------

TEST(Manifest, SerializeRoundTrip) {
  DatasetManifest m;
  m.dataset_name = "demo";
  m.created_by = "test";
  m.split_seed = 123;
  m.schema.push_back({"x", DType::kF32, {4}});
  m.schema.push_back({"edge_index", DType::kI64, {2, 0}});  // dynamic dim
  m.shards[Split::kTrain] = {{"/d/train-00000.rec", 10, 1000}};
  m.shards[Split::kVal] = {{"/d/val-00000.rec", 2, 200}};
  m.normalizer_blob = ToBytes("blob");
  m.provenance_hash = "abc123";

  const auto back = DatasetManifest::Parse(m.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->dataset_name, "demo");
  EXPECT_EQ(back->TotalRecords(Split::kTrain), 10u);
  EXPECT_EQ(back->TotalRecords(), 12u);
  EXPECT_EQ(back->TotalBytes(), 1200u);
  EXPECT_EQ(back->schema[1].shape, (Shape{2, 0}));
  EXPECT_EQ(BytesToString(back->normalizer_blob), "blob");
  EXPECT_EQ(back->provenance_hash, "abc123");
}

TEST(Manifest, CorruptionDetected) {
  DatasetManifest m;
  m.dataset_name = "x";
  Bytes bytes = m.Serialize();
  bytes[6] ^= std::byte{0x01};
  EXPECT_EQ(DatasetManifest::Parse(bytes).status().code(),
            StatusCode::kDataLoss);
}

// ---- writer / reader --------------------------------------------------------

TEST(ShardWriter, WritesShardsAndManifest) {
  par::StripedStore store;
  ShardWriterConfig config;
  config.directory = "/ds/demo";
  config.target_shard_bytes = 512;  // force several shards
  ShardWriter writer(store, config);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(writer.Add(MakeExample(std::string("k") + std::to_string(i),
                                       static_cast<float>(i)))
                    .ok());
  }
  const auto manifest = writer.Finalize();
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->TotalRecords(), 100u);
  EXPECT_GT(manifest->shards.at(Split::kTrain).size(), 1u);  // multiple shards
  EXPECT_TRUE(store.Exists("/ds/demo/manifest.dmf"));
  // Schema inferred from the first example.
  ASSERT_EQ(manifest->schema.size(), 3u);  // label, x, y (map order)
}

TEST(ShardWriter, RejectsSchemaDrift) {
  par::StripedStore store;
  ShardWriter writer(store, {});
  ASSERT_TRUE(writer.Add(MakeExample("a", 1.0f)).ok());
  Example bad;
  bad.key = "b";
  bad.features["x"] = NDArray::Zeros({4}, DType::kF64);  // dtype differs
  bad.features["y"] = NDArray::Zeros({1}, DType::kF32);
  bad.SetLabel(0);
  EXPECT_EQ(writer.Add(bad).status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardWriter, DynamicDimsBecomeZeroInSchema) {
  par::StripedStore store;
  ShardWriterConfig config;
  config.directory = "/ds/graphs";
  ShardWriter writer(store, config);
  for (const size_t n : {3u, 5u, 7u}) {
    Example ex;
    ex.key = "g" + std::to_string(n);
    ex.features["nodes"] = NDArray::Zeros({n, 4}, DType::kF32);
    ASSERT_TRUE(writer.Add(ex).ok());
  }
  const auto manifest = writer.Finalize();
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->schema[0].shape, (Shape{0, 4}));
}

TEST(ShardWriter, FinalizeTwiceFails) {
  par::StripedStore store;
  ShardWriter writer(store, {});
  writer.Add(MakeExample("a", 1.0f)).value();
  ASSERT_TRUE(writer.Finalize().ok());
  EXPECT_EQ(writer.Finalize().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardReader, ReadsBackEveryExample) {
  par::StripedStore store;
  ShardWriterConfig config;
  config.directory = "/ds/rt";
  config.target_shard_bytes = 400;
  ShardWriter writer(store, config);
  std::set<std::string> keys;
  for (int i = 0; i < 60; ++i) {
    const std::string key = std::string("k") + std::to_string(i);
    keys.insert(key);
    writer.Add(MakeExample(key, static_cast<float>(i))).value();
  }
  writer.Finalize().value();

  const auto reader = ShardReader::Open(store, "/ds/rt");
  ASSERT_TRUE(reader.ok());
  std::set<std::string> seen;
  for (Split s : kAllSplits) {
    const auto examples = reader->ReadAll(s);
    ASSERT_TRUE(examples.ok());
    for (const Example& ex : *examples) seen.insert(ex.key);
  }
  EXPECT_EQ(seen, keys);
}

TEST(ShardReader, MissingManifestIsNotFound) {
  par::StripedStore store;
  EXPECT_EQ(ShardReader::Open(store, "/ds/none").status().code(),
            StatusCode::kNotFound);
}

TEST(ShardReader, CorruptShardSurfacesDataLoss) {
  par::StripedStore store;
  ShardWriterConfig config;
  config.directory = "/ds/corrupt";
  ShardWriter writer(store, config);
  for (int i = 0; i < 20; ++i) {
    writer
        .AddTo(Split::kTrain,
               MakeExample(std::string("k") + std::to_string(i), 1.0f))
        .OrDie();
  }
  const auto manifest = writer.Finalize();
  const std::string file = manifest->shards.at(Split::kTrain)[0].file;
  Bytes raw = store.ReadAll(file).value();
  raw[raw.size() - 2] ^= std::byte{0xFF};
  store.Write(file, 0, raw).OrDie();

  const auto reader = ShardReader::Open(store, "/ds/corrupt");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadShard(Split::kTrain, 0).status().code(),
            StatusCode::kDataLoss);
}

TEST(ShardReader, RecordCountClaimBeyondTheFileIsDataLoss) {
  // 256 records of about 300 bytes each, then a manifest claiming 2^62
  // records (or just under the file's byte count). Reading must fail with
  // no allocation much beyond the file itself.
  par::StripedStore store;
  ShardWriterConfig config;
  config.directory = "/ds/claim";
  ShardWriter writer(store, config);
  for (int i = 0; i < 256; ++i) {
    Example ex = MakeExample(std::string("k") + std::to_string(i), 1.0f);
    ex.features["z"] = NDArray::FromVector<float>(
        {64}, std::vector<float>(64, static_cast<float>(i)));
    writer.AddTo(Split::kTrain, ex).OrDie();
  }
  const DatasetManifest written = writer.Finalize().value();
  const size_t file_size =
      store.ReadAll(written.shards.at(Split::kTrain)[0].file)->size();
  ASSERT_GT(file_size, size_t{256} * 256);

  for (const uint64_t claim : {uint64_t{1} << 62, uint64_t{file_size - 1}}) {
    DatasetManifest manifest = written;
    manifest.shards.at(Split::kTrain)[0].records = claim;
    store.Replace(ShardWriter::ManifestPath("/ds/claim"), manifest.Serialize())
        .OrDie();
    const auto reader = ShardReader::Open(store, "/ds/claim");
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();

    g_largest_new = 0;
    StatusCode code = StatusCode::kOk;
    EXPECT_NO_THROW(code = reader->ReadShard(Split::kTrain, 0).status().code())
        << claim;
    EXPECT_EQ(code, StatusCode::kDataLoss) << claim;
    EXPECT_LT(g_largest_new.load(), 2 * file_size) << claim;
  }
}

// ---- collate -----------------------------------------------------------------

TEST(Collate, StacksAlongLeadingDim) {
  std::vector<Example> examples = {MakeExample("a", 0.0f),
                                   MakeExample("b", 10.0f),
                                   MakeExample("c", 20.0f)};
  const auto batch = Collate(examples);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->size(), 3u);
  EXPECT_EQ(batch->features.at("x").shape(), (Shape{3, 4}));
  EXPECT_EQ(batch->features.at("x").GetAsDouble(4), 10.0);  // b's first elem
  EXPECT_EQ(batch->features.at("y").GetAsDouble(2), 200.0);
  EXPECT_EQ(batch->keys[2], "c");
}

TEST(Collate, RejectsShapeMismatch) {
  Example a = MakeExample("a", 0.0f);
  Example b = MakeExample("b", 1.0f);
  b.features["x"] = NDArray::Zeros({5}, DType::kF32);
  const auto batch = Collate(std::vector<Example>{a, b});
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
}

TEST(Collate, EmptyInputGivesEmptyBatch) {
  EXPECT_EQ(Collate({})->size(), 0u);
}

// ---- dataloader -----------------------------------------------------------------

class DataLoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ShardWriterConfig config;
    config.directory = "/ds/loader";
    config.target_shard_bytes = 600;
    config.train_frac = 1.0;
    config.val_frac = 0.0;
    config.test_frac = 0.0;
    ShardWriter writer(store_, config);
    for (int i = 0; i < 50; ++i) {
      writer
          .Add(MakeExample(std::string("k") + std::to_string(i),
                           static_cast<float>(i)))
          .value();
    }
    writer.Finalize().value();
    reader_ = std::make_unique<ShardReader>(
        ShardReader::Open(store_, "/ds/loader").value());
  }
  par::StripedStore store_;
  std::unique_ptr<ShardReader> reader_;
};

TEST_F(DataLoaderTest, YieldsEveryRecordOncePerEpoch) {
  DataLoaderOptions options;
  options.batch_size = 8;
  DataLoader loader(*reader_, Split::kTrain, options);
  loader.StartEpoch(0);
  std::set<std::string> seen;
  size_t total = 0;
  for (;;) {
    const auto batch = loader.Next();
    ASSERT_TRUE(batch.ok());
    if (!batch->has_value()) break;
    total += (*batch)->size();
    for (const auto& k : (*batch)->keys) {
      EXPECT_TRUE(seen.insert(k).second) << "duplicate " << k;
    }
  }
  EXPECT_EQ(total, 50u);
  EXPECT_EQ(loader.RecordsPerEpoch(), 50u);
}

TEST_F(DataLoaderTest, DropLastTrimsPartialBatch) {
  DataLoaderOptions options;
  options.batch_size = 8;
  options.drop_last = true;
  DataLoader loader(*reader_, Split::kTrain, options);
  loader.StartEpoch(0);
  size_t total = 0;
  for (;;) {
    const auto batch = loader.Next();
    ASSERT_TRUE(batch.ok());
    if (!batch->has_value()) break;
    EXPECT_EQ((*batch)->size(), 8u);
    total += (*batch)->size();
  }
  EXPECT_EQ(total, 48u);
  EXPECT_EQ(loader.RecordsPerEpoch(), 48u);
}

TEST_F(DataLoaderTest, ShuffleDeterministicPerEpochSeed) {
  DataLoaderOptions options;
  options.batch_size = 50;
  options.seed = 77;
  auto first_keys = [&](uint64_t epoch) {
    DataLoader loader(*reader_, Split::kTrain, options);
    loader.StartEpoch(epoch);
    return loader.Next().value()->keys;
  };
  EXPECT_EQ(first_keys(0), first_keys(0));  // same epoch: identical
  EXPECT_NE(first_keys(0), first_keys(1));  // epochs reshuffle
}

TEST_F(DataLoaderTest, NoShufflePreservesShardOrder) {
  DataLoaderOptions options;
  options.batch_size = 50;
  options.shuffle = false;
  DataLoader loader(*reader_, Split::kTrain, options);
  loader.StartEpoch(0);
  const auto a = loader.Next().value()->keys;
  loader.StartEpoch(1);
  const auto b = loader.Next().value()->keys;
  EXPECT_EQ(a, b);
}

TEST_F(DataLoaderTest, NextBeforeStartEpochFails) {
  DataLoader loader(*reader_, Split::kTrain, {});
  EXPECT_EQ(loader.Next().status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DataLoaderTest, EmptySplitYieldsNothing) {
  DataLoader loader(*reader_, Split::kVal, {});
  loader.StartEpoch(0);
  const auto batch = loader.Next();
  ASSERT_TRUE(batch.ok());
  EXPECT_FALSE(batch->has_value());
}

}  // namespace
}  // namespace drai::shard
