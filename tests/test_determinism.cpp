// Reproducibility tests (§5 "Provenance and Reproducibility"): the same
// configuration must yield byte-identical datasets, manifests, and
// provenance hashes across runs — and the randomized container/codec
// round-trip property must hold on fuzz-style structured-random inputs.
#include <gtest/gtest.h>

#include "codec/codec.hpp"
#include "common/rng.hpp"
#include "container/sdf.hpp"
#include "domains/climate.hpp"
#include "domains/materials.hpp"
#include "shard/example.hpp"
#include "shard/shard_writer.hpp"

namespace drai {
namespace {

// ---- end-to-end determinism ------------------------------------------------

TEST(Determinism, ClimateArchetypeBitStable) {
  auto run = [] {
    par::StripedStore store;
    domains::ClimateArchetypeConfig config;
    config.workload.n_times = 3;
    config.workload.n_lat = 16;
    config.workload.n_lon = 32;
    config.target_lat = 8;
    config.target_lon = 16;
    config.patch = 4;
    const auto result = domains::RunClimateArchetype(store, config).value();
    // Concatenate every shard byte plus the manifest.
    Bytes all;
    for (const std::string& path : store.List("/datasets/climate")) {
      const Bytes file = store.ReadAll(path).value();
      all.insert(all.end(), file.begin(), file.end());
    }
    return std::make_pair(all, result.provenance_hash);
  };
  const auto [bytes_a, prov_a] = run();
  const auto [bytes_b, prov_b] = run();
  EXPECT_EQ(bytes_a, bytes_b);
  EXPECT_EQ(prov_a, prov_b);
  EXPECT_FALSE(bytes_a.empty());
}

TEST(Determinism, MaterialsArchetypeBitStable) {
  auto run = [] {
    par::StripedStore store;
    domains::MaterialsArchetypeConfig config;
    config.workload.n_structures = 15;
    const auto result = domains::RunMaterialsArchetype(store, config).value();
    Bytes all;
    for (const std::string& path : store.List("/datasets/materials")) {
      const Bytes file = store.ReadAll(path).value();
      all.insert(all.end(), file.begin(), file.end());
    }
    (void)result;
    return all;
  };
  EXPECT_EQ(run(), run());
}

TEST(Determinism, SeedChangesTheDataset) {
  auto run = [](uint64_t seed) {
    par::StripedStore store;
    domains::ClimateArchetypeConfig config;
    config.workload.n_times = 2;
    config.workload.n_lat = 16;
    config.workload.n_lon = 32;
    config.workload.seed = seed;
    config.target_lat = 8;
    config.target_lon = 16;
    config.patch = 4;
    domains::RunClimateArchetype(store, config).value();
    Bytes all;
    for (const std::string& path : store.List("/datasets/climate")) {
      const Bytes file = store.ReadAll(path).value();
      all.insert(all.end(), file.begin(), file.end());
    }
    return all;
  };
  EXPECT_NE(run(1), run(2));
}

// ---- fuzz-style round trips -----------------------------------------------

/// Structured-random SDF trees: random groups, attrs, datasets with random
/// dtypes/chunking/codecs must survive serialize -> parse byte-exactly.
class SdfFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SdfFuzz, RandomTreeRoundTrip) {
  Rng rng(GetParam());
  container::SdfFile file;

  std::vector<std::string> paths = {"/"};
  const size_t n_groups = 1 + rng.UniformU64(6);
  for (size_t g = 0; g < n_groups; ++g) {
    const std::string parent = paths[rng.UniformU64(paths.size())];
    const std::string path =
        (parent == "/" ? "" : parent) + "/g" + std::to_string(g);
    paths.push_back(path);
    container::SdfGroup& group = file.ResolveOrCreate(path);
    // Random attributes.
    const size_t n_attrs = rng.UniformU64(4);
    for (size_t a = 0; a < n_attrs; ++a) {
      const std::string name = std::string("a") + std::to_string(a);
      switch (rng.UniformU64(4)) {
        case 0: group.SetAttr(name, container::AttrValue::Int(
                                        rng.UniformInt(-1000, 1000)));
          break;
        case 1: group.SetAttr(name, container::AttrValue::Double(
                                        rng.Uniform(-5, 5)));
          break;
        case 2: group.SetAttr(name, container::AttrValue::String(
                                        std::string("s") +
                                        std::to_string(rng.NextU64() % 997)));
          break;
        default: group.SetAttr(name, container::AttrValue::DoubleVec(
                                         {rng.Uniform(0, 1), rng.Uniform(0, 1)}));
      }
    }
    // Random dataset.
    if (rng.Bernoulli(0.7)) {
      const DType dtype = static_cast<DType>(rng.UniformU64(8));
      const size_t rows = rng.UniformU64(20);
      const size_t cols = 1 + rng.UniformU64(8);
      NDArray data = NDArray::Zeros({rows, cols}, dtype);
      for (size_t i = 0; i < data.numel(); ++i) {
        data.SetFromDouble(i, rng.UniformInt(0, 100));
      }
      container::SdfDatasetOptions options;
      options.chunk_rows = rng.UniformU64(8);  // 0 = single chunk
      options.codec = static_cast<codec::Codec>(rng.UniformU64(7));
      group.PutDataset("d", data, options);
    }
  }

  const Bytes bytes = file.Serialize();
  const auto back = container::SdfFile::Parse(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Re-serialization is byte-identical (canonical encoding).
  EXPECT_EQ(back->Serialize(), bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SdfFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

/// Random structured Examples survive serialize -> parse with every codec.
class ExampleFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExampleFuzz, RandomExampleRoundTrip) {
  Rng rng(GetParam() * 7919);
  shard::Example ex;
  ex.key = "fuzz-" + std::to_string(rng.NextU64());
  const size_t n_features = 1 + rng.UniformU64(5);
  for (size_t f = 0; f < n_features; ++f) {
    const DType dtype = static_cast<DType>(rng.UniformU64(8));
    Shape shape;
    const size_t rank = 1 + rng.UniformU64(3);
    for (size_t d = 0; d < rank; ++d) shape.push_back(1 + rng.UniformU64(6));
    NDArray t = NDArray::Zeros(shape, dtype);
    for (size_t i = 0; i < t.numel(); ++i) {
      t.SetFromDouble(i, rng.UniformInt(0, 100));
    }
    ex.features[std::string("f") + std::to_string(f)] = std::move(t);
  }
  const codec::Codec codec = static_cast<codec::Codec>(rng.UniformU64(7));
  const Bytes bytes = ex.Serialize(codec);
  const auto back = shard::Example::Parse(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString()
                         << " codec=" << codec::CodecName(codec);
  EXPECT_EQ(back->key, ex.key);
  ASSERT_EQ(back->features.size(), ex.features.size());
  for (const auto& [name, tensor] : ex.features) {
    const NDArray* got = back->Find(name);
    ASSERT_NE(got, nullptr) << name;
    ASSERT_EQ(got->shape(), tensor.shape());
    ASSERT_EQ(got->dtype(), tensor.dtype());
    for (size_t i = 0; i < tensor.numel(); ++i) {
      EXPECT_EQ(got->GetAsDouble(i), tensor.GetAsDouble(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExampleFuzz, ::testing::Range<uint64_t>(1, 13));


/// LZ fuzz: mixed runs/text/random segments across many seeds must
/// round-trip exactly (the hash-chain matcher has the most state to get
/// wrong of all the codecs).
class LzFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LzFuzz, MixedSegmentsRoundTrip) {
  Rng rng(GetParam() * 2654435761ull + 7);
  Bytes raw;
  const size_t target = 1000 + rng.UniformU64(60000);
  while (raw.size() < target) {
    switch (rng.UniformU64(4)) {
      case 0: {  // run
        raw.insert(raw.end(), 1 + rng.UniformU64(300),
                   static_cast<std::byte>(rng.UniformU64(256)));
        break;
      }
      case 1: {  // repeat of earlier content (forces long matches)
        if (raw.empty()) break;
        const size_t start = rng.UniformU64(raw.size());
        const size_t len = std::min<size_t>(1 + rng.UniformU64(500),
                                            raw.size() - start);
        for (size_t i = 0; i < len; ++i) raw.push_back(raw[start + i]);
        break;
      }
      case 2: {  // text-ish
        static const char* kWords[] = {"shard", "align", "graph", "adios"};
        const char* w = kWords[rng.UniformU64(4)];
        for (const char* p = w; *p; ++p) {
          raw.push_back(static_cast<std::byte>(*p));
        }
        break;
      }
      default: {  // random bytes
        const size_t len = 1 + rng.UniformU64(64);
        for (size_t i = 0; i < len; ++i) {
          raw.push_back(static_cast<std::byte>(rng.UniformU64(256)));
        }
      }
    }
  }
  const Bytes framed = codec::Encode(codec::Codec::kLz, raw).value();
  const auto back = codec::Decode(framed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, raw) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzFuzz, ::testing::Range<uint64_t>(1, 31));

/// Truncating an SDF file at every 37th byte never crashes and never
/// parses successfully with wrong content (CRC catches it).
TEST(SdfFuzz, TruncationSweepNeverSucceedsWrongly) {
  container::SdfFile file;
  file.ResolveOrCreate("/a").PutDataset(
      "d", NDArray::Full({16, 4}, 2.5, DType::kF32));
  const Bytes bytes = file.Serialize();
  for (size_t cut = 0; cut < bytes.size() - 1; cut += 37) {
    const auto truncated = container::SdfFile::Parse(
        std::span<const std::byte>(bytes).subspan(0, cut));
    EXPECT_FALSE(truncated.ok()) << "cut=" << cut;
  }
}

/// Single-byte corruption sweep over a RecIO stream: reading either fails
/// or yields the original payloads (header bytes that don't affect
/// decoding may be silent, payload bytes must not be).
TEST(RecioFuzz, CorruptionSweepDetected) {
  container::RecWriter w;
  w.Append("payload-one-for-corruption-sweep");
  w.Append("payload-two-for-corruption-sweep");
  const Bytes clean = w.Finish();
  for (size_t pos = 7; pos < clean.size(); pos += 11) {
    Bytes dirty = clean;
    dirty[pos] ^= std::byte{0x40};
    auto rd = container::RecReader::Open(dirty);
    if (!rd.ok()) continue;  // header corruption rejected at open
    const auto all = rd->ReadAll();
    if (!all.ok()) continue;  // CRC caught it
    // If it parsed, the payloads must be untouched (the flipped byte was
    // in already-consumed metadata? no — then content equality must hold).
    ASSERT_EQ(all->size(), 2u) << "pos=" << pos;
    EXPECT_EQ(BytesToString((*all)[0]), "payload-one-for-corruption-sweep");
    EXPECT_EQ(BytesToString((*all)[1]), "payload-two-for-corruption-sweep");
  }
}

}  // namespace
}  // namespace drai
