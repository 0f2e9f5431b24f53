// Tests for the quality report and datasheet generation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/hash.hpp"
#include "core/datasheet.hpp"
#include "core/quality.hpp"

namespace drai::core {
namespace {

shard::Example MakeExample(const std::string& key, double value,
                           int64_t label) {
  shard::Example ex;
  ex.key = key;
  ex.features["x"] = NDArray::Full({4}, value, DType::kF64);
  ex.SetLabel(label);
  return ex;
}

TEST(Quality, CleanDatasetScoresHigh) {
  std::vector<shard::Example> examples;
  for (int i = 0; i < 40; ++i) {
    examples.push_back(
        MakeExample(std::string("k") + std::to_string(i), i * 0.5, i % 2));
  }
  const QualityReport report = AssessQuality(examples);
  EXPECT_EQ(report.n_examples, 40u);
  EXPECT_EQ(report.duplicate_keys, 0u);
  EXPECT_EQ(report.duplicate_payloads, 0u);
  EXPECT_DOUBLE_EQ(report.MissingFraction(), 0.0);
  EXPECT_DOUBLE_EQ(report.labeled_fraction, 1.0);
  EXPECT_NEAR(report.BalanceScore(), 1.0, 1e-9);
  EXPECT_GT(report.OverallScore(), 0.95);
  EXPECT_FALSE(report.ToText().empty());
}

TEST(Quality, DetectsDuplicates) {
  std::vector<shard::Example> examples;
  examples.push_back(MakeExample("a", 1.0, 0));
  examples.push_back(MakeExample("a", 2.0, 0));   // duplicate key
  examples.push_back(MakeExample("b", 1.0, 0));   // duplicate payload of #0
  const QualityReport report = AssessQuality(examples);
  EXPECT_EQ(report.duplicate_keys, 1u);
  // Example 1's payload (2.0) differs from example 0's; example 2's feature
  // bytes (1.0, label 0) match example 0's exactly.
  EXPECT_EQ(report.duplicate_payloads, 1u);
}

shard::Example MakeBitsExample(const std::string& key, uint64_t bits) {
  shard::Example ex;
  ex.key = key;
  ex.features["x"] =
      NDArray::FromVector<int64_t>({static_cast<int64_t>(bits)});
  return ex;
}

TEST(Quality, HashCollisionIsNotADuplicate) {
  // Two distinct 8-byte payloads with the same CRC-32, found once by a
  // seeded birthday search over random 64-bit words.
  const shard::Example a = MakeBitsExample("a", 0xd6464fecc193fb06ull);
  const shard::Example b = MakeBitsExample("b", 0x66c5acb702741e63ull);
  const auto ra = a.features.at("x").raw_bytes();
  const auto rb = b.features.at("x").raw_bytes();
  ASSERT_EQ(ra.size(), rb.size());
  ASSERT_NE(std::memcmp(ra.data(), rb.data(), ra.size()), 0);
  ASSERT_EQ(Crc32(ra), Crc32(rb));
  ASSERT_EQ(Crc32(ra), 0xa44fb654u);

  const std::vector<shard::Example> pair = {a, b};
  EXPECT_EQ(AssessQuality(pair).duplicate_payloads, 0u);
  // A true copy of either one still counts, behind the colliding key.
  const std::vector<shard::Example> with_copy = {
      a, b, MakeBitsExample("c", 0x66c5acb702741e63ull)};
  EXPECT_EQ(AssessQuality(with_copy).duplicate_payloads, 1u);
}

TEST(Quality, NonContiguousFeatureEqualsItsContiguousCopy) {
  NDArray base = NDArray::Zeros({3, 5}, DType::kF32);
  for (size_t i = 0; i < base.numel(); ++i) {
    base.SetFromDouble(i, 0.5 * static_cast<double>(i) - 2.0);
  }
  const NDArray view = base.Transpose();
  ASSERT_FALSE(view.IsContiguous());
  shard::Example strided;
  strided.key = "strided";
  strided.features["x"] = view;
  shard::Example dense;
  dense.key = "dense";
  dense.features["x"] = view.AsContiguous();
  shard::Example other;
  other.key = "other";
  other.features["x"] = base;  // same elements, other order
  const std::vector<shard::Example> examples = {strided, dense, other};
  const QualityReport report = AssessQuality(examples);
  EXPECT_EQ(report.duplicate_payloads, 1u);
  const FeatureQuality& fq = report.features.at("x");
  EXPECT_EQ(fq.total_elements, 45u);
  EXPECT_DOUBLE_EQ(fq.stats.min(), -2.0);
  EXPECT_DOUBLE_EQ(fq.stats.max(), 5.0);
}

TEST(Quality, PayloadIsTheFeatureBytesBackToBack) {
  // Feature names and boundaries are not part of the payload: the same
  // bytes split differently across features are a duplicate.
  shard::Example a;
  a.key = "a";
  a.features["p"] = NDArray::FromVector<double>({1.0, 2.0});
  a.features["q"] = NDArray::FromVector<double>({3.0});
  shard::Example b;
  b.key = "b";
  b.features["m"] = NDArray::FromVector<double>({1.0});
  b.features["n"] = NDArray::Zeros({0}, DType::kF64);
  b.features["o"] = NDArray::FromVector<double>({2.0, 3.0});
  shard::Example c;
  c.key = "c";
  c.features["p"] = NDArray::FromVector<double>({1.0, 2.0});
  c.features["q"] = NDArray::FromVector<double>({3.5});
  const std::vector<shard::Example> examples = {a, b, c};
  EXPECT_EQ(AssessQuality(examples).duplicate_payloads, 1u);
}

TEST(Quality, CountsMissingness) {
  std::vector<shard::Example> examples;
  shard::Example ex = MakeExample("a", 1.0, 0);
  ex.features["x"].SetFromDouble(0, std::numeric_limits<double>::quiet_NaN());
  ex.features["x"].SetFromDouble(1, std::numeric_limits<double>::quiet_NaN());
  examples.push_back(ex);
  examples.push_back(MakeExample("b", 2.0, 1));
  const QualityReport report = AssessQuality(examples);
  EXPECT_DOUBLE_EQ(report.MissingFraction(), 2.0 / 8.0);
  EXPECT_LT(report.OverallScore(), 0.95);
}

TEST(Quality, ImbalancePenalizesScore) {
  std::vector<shard::Example> balanced, skewed;
  for (int i = 0; i < 40; ++i) {
    balanced.push_back(
        MakeExample(std::string("b") + std::to_string(i), i, i % 2));
    skewed.push_back(
        MakeExample(std::string("s") + std::to_string(i), i, i < 38 ? 0 : 1));
  }
  EXPECT_GT(AssessQuality(balanced).OverallScore(),
            AssessQuality(skewed).OverallScore());
}

TEST(Quality, EmptyInput) {
  const QualityReport report = AssessQuality({});
  EXPECT_EQ(report.n_examples, 0u);
  EXPECT_DOUBLE_EQ(report.OverallScore(), 0.0);
}

TEST(Quality, PerFeatureStats) {
  std::vector<shard::Example> examples;
  for (int i = 0; i < 10; ++i) {
    examples.push_back(MakeExample("k" + std::to_string(i), i, 0));
  }
  const QualityReport report = AssessQuality(examples);
  const FeatureQuality& fx = report.features.at("x");
  EXPECT_EQ(fx.total_elements, 40u);
  EXPECT_DOUBLE_EQ(fx.stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(fx.stats.max(), 9.0);
  EXPECT_NEAR(fx.stats.mean(), 4.5, 1e-12);
}

// ---- datasheet ------------------------------------------------------------------

TEST(Datasheet, RendersAllSections) {
  shard::DatasetManifest manifest;
  manifest.dataset_name = "demo";
  manifest.created_by = "drai-test";
  manifest.schema.push_back({"x", DType::kF32, {4}});
  manifest.shards[shard::Split::kTrain] = {{"/d/train-00000.rec", 10, 500}};

  std::vector<shard::Example> examples;
  for (int i = 0; i < 10; ++i) {
    examples.push_back(MakeExample("k" + std::to_string(i), i, i % 2));
  }
  const QualityReport quality = AssessQuality(examples);

  DatasetState state;
  state.acquired = true;
  const ReadinessAssessment readiness = Assess(state);

  Datasheet sheet =
      MakeDatasheet("demo", manifest, quality, readiness, "deadbeef");
  sheet.motivation = "Benchmark demo dataset.";
  sheet.restrictions = "None (synthetic).";
  const std::string md = sheet.ToMarkdown();
  EXPECT_NE(md.find("# Data card: demo"), std::string::npos);
  EXPECT_NE(md.find("## Motivation"), std::string::npos);
  EXPECT_NE(md.find("Benchmark demo dataset."), std::string::npos);
  EXPECT_NE(md.find("## Schema"), std::string::npos);
  EXPECT_NE(md.find("`x`: f32 [4]"), std::string::npos);
  EXPECT_NE(md.find("## Quality"), std::string::npos);
  EXPECT_NE(md.find("## Readiness"), std::string::npos);
  EXPECT_NE(md.find("1-raw"), std::string::npos);
  EXPECT_NE(md.find("deadbeef"), std::string::npos);
  // Empty narrative sections are omitted.
  EXPECT_EQ(md.find("## Composition"), std::string::npos);
}

}  // namespace
}  // namespace drai::core
