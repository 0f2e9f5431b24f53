// Tests for the SDF hierarchical container: groups, attributes, chunked
// datasets, partial reads, corruption detection.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "container/sdf.hpp"
#include "largest_new.hpp"

namespace drai::container {
namespace {

NDArray MakeRamp(Shape shape, DType dtype = DType::kF32) {
  NDArray a = NDArray::Zeros(shape, dtype);
  for (size_t i = 0; i < a.numel(); ++i) {
    a.SetFromDouble(i, static_cast<double>(i) * 0.25);
  }
  return a;
}

TEST(Sdf, GroupTreeAndAttrs) {
  SdfFile f;
  f.root().SetAttr("title", AttrValue::String("cmip6 subset"));
  SdfGroup& vars = f.ResolveOrCreate("/vars/t2m");
  vars.SetAttr("units", AttrValue::String("K"));
  vars.SetAttr("level", AttrValue::Int(2));
  vars.SetAttr("scale", AttrValue::Double(0.5));
  vars.SetAttr("bounds", AttrValue::DoubleVec({-90, 90}));

  ASSERT_NE(f.Resolve("/vars"), nullptr);
  ASSERT_NE(f.Resolve("/vars/t2m"), nullptr);
  EXPECT_EQ(f.Resolve("/vars/zzz"), nullptr);
  EXPECT_EQ(f.Resolve("/vars/t2m")->GetAttr("units")->s, "K");
  EXPECT_EQ(f.Resolve("/vars/t2m")->GetAttr("level")->i, 2);
  EXPECT_EQ(f.Resolve("/vars/t2m")->GetAttr("bounds")->vec.size(), 2u);
}

TEST(Sdf, DatasetRoundTripAllDtypes) {
  for (const DType dtype : {DType::kF16, DType::kF32, DType::kF64, DType::kI8,
                            DType::kI16, DType::kI32, DType::kI64, DType::kU8}) {
    SdfFile f;
    f.root().PutDataset("d", MakeRamp({4, 5}, dtype));
    const Bytes bytes = f.Serialize();
    const auto back = SdfFile::Parse(bytes);
    ASSERT_TRUE(back.ok()) << DTypeName(dtype);
    const auto data = back->root().ReadDataset("d");
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data->dtype(), dtype);
    EXPECT_EQ(data->shape(), (Shape{4, 5}));
    for (size_t i = 0; i < data->numel(); ++i) {
      // f16/i8/u8 quantize the ramp; compare via the same cast.
      NDArray expect = MakeRamp({4, 5}, dtype);
      EXPECT_EQ(data->GetAsDouble(i), expect.GetAsDouble(i));
    }
  }
}

class SdfChunking : public ::testing::TestWithParam<size_t> {};

TEST_P(SdfChunking, ChunkedRoundTripAndPartialReads) {
  const size_t chunk_rows = GetParam();
  const NDArray data = MakeRamp({23, 7}, DType::kF64);
  SdfDatasetOptions options;
  options.chunk_rows = chunk_rows;
  options.codec = codec::Codec::kXorF64;
  SdfFile f;
  f.root().PutDataset("d", data, options);

  const Bytes bytes = f.Serialize();
  const auto back = SdfFile::Parse(bytes);
  ASSERT_TRUE(back.ok());
  const SdfDataset* ds = back->root().FindDataset("d");
  ASSERT_NE(ds, nullptr);
  const size_t expected_chunks =
      chunk_rows == 0 ? 1 : (23 + chunk_rows - 1) / chunk_rows;
  EXPECT_EQ(ds->num_chunks(), expected_chunks);

  // Full read.
  const auto full = ds->Read();
  ASSERT_TRUE(full.ok());
  for (size_t i = 0; i < data.numel(); ++i) {
    EXPECT_EQ(full->GetAsDouble(i), data.GetAsDouble(i));
  }
  // Partial reads at awkward boundaries.
  for (const auto& [lo, hi] : std::vector<std::pair<size_t, size_t>>{
           {0, 1}, {5, 9}, {22, 23}, {0, 23}, {7, 7}}) {
    const auto rows = ds->ReadRows(lo, hi);
    ASSERT_TRUE(rows.ok()) << lo << ":" << hi;
    EXPECT_EQ(rows->shape()[0], hi - lo);
    for (size_t r = lo; r < hi; ++r) {
      for (size_t c = 0; c < 7; ++c) {
        EXPECT_EQ(rows->GetAsDouble((r - lo) * 7 + c),
                  data.GetAsDouble(r * 7 + c));
      }
    }
  }
  EXPECT_FALSE(ds->ReadRows(5, 30).ok());
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, SdfChunking,
                         ::testing::Values(0, 1, 4, 8, 23, 100));

TEST(Sdf, CompressionReducesStoredBytes) {
  // Smooth data + XOR codec: stored < raw.
  NDArray smooth = NDArray::Zeros({256, 64}, DType::kF64);
  for (size_t i = 0; i < smooth.numel(); ++i) {
    smooth.SetFromDouble(i, 1000.0 + 0.001 * static_cast<double>(i));
  }
  SdfDatasetOptions with_codec;
  with_codec.codec = codec::Codec::kXorF64;
  SdfFile f;
  f.root().PutDataset("raw", smooth);
  f.root().PutDataset("packed", smooth, with_codec);
  EXPECT_LT(f.root().FindDataset("packed")->stored_bytes(),
            f.root().FindDataset("raw")->stored_bytes());
}

TEST(Sdf, NestedGroupsSurviveRoundTrip) {
  SdfFile f;
  f.ResolveOrCreate("/a/b/c").SetAttr("deep", AttrValue::Int(1));
  f.ResolveOrCreate("/a/d").PutDataset("x", MakeRamp({3}));
  const auto back = SdfFile::Parse(f.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Resolve("/a/b/c")->GetAttr("deep")->i, 1);
  EXPECT_TRUE(back->Resolve("/a/d")->ReadDataset("x").ok());
}

TEST(Sdf, FileCrcDetectsCorruption) {
  SdfFile f;
  f.root().PutDataset("d", MakeRamp({16, 16}));
  Bytes bytes = f.Serialize();
  bytes[bytes.size() / 3] ^= std::byte{0x01};
  EXPECT_EQ(SdfFile::Parse(bytes).status().code(), StatusCode::kDataLoss);
}

TEST(Sdf, BadMagicRejected) {
  Bytes junk = ToBytes("not an sdf file at all........");
  EXPECT_EQ(SdfFile::Parse(junk).status().code(), StatusCode::kDataLoss);
}

TEST(Sdf, TruncatedFileRejected) {
  SdfFile f;
  f.root().PutDataset("d", MakeRamp({8, 8}));
  Bytes bytes = f.Serialize();
  bytes.resize(bytes.size() - 10);
  EXPECT_FALSE(SdfFile::Parse(bytes).ok());
}

TEST(Sdf, EmptyFileRoundTrips) {
  SdfFile f;
  const auto back = SdfFile::Parse(f.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->root().datasets().empty());
  EXPECT_TRUE(back->root().children().empty());
}

TEST(Sdf, ZeroRowDataset) {
  SdfFile f;
  f.root().PutDataset("empty", NDArray::Zeros({0, 4}, DType::kF32));
  const auto back = SdfFile::Parse(f.Serialize());
  ASSERT_TRUE(back.ok());
  const auto data = back->root().ReadDataset("empty");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->shape(), (Shape{0, 4}));
}

TEST(Sdf, MissingDatasetIsNotFound) {
  SdfFile f;
  EXPECT_EQ(f.root().ReadDataset("ghost").status().code(),
            StatusCode::kNotFound);
}

TEST(Sdf, DatasetStoredFromView) {
  // Non-contiguous views are materialized on write.
  NDArray base = MakeRamp({6, 4}, DType::kF64);
  SdfFile f;
  f.root().PutDataset("t", base.Transpose());
  const auto data = f.root().ReadDataset("t");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->shape(), (Shape{4, 6}));
  EXPECT_EQ(data->GetAsDouble(1), base.GetAsDouble(4));  // t[0,1] == base[1,0]
}

// ---- hostile counts ---------------------------------------------------------

/// An SDF file whose root group's body is `body`, under a valid header and
/// CRC, so parsing reaches the counts.
Bytes SdfWithRoot(const Bytes& body) {
  const Bytes empty = SdfFile().Serialize();
  ByteWriter w;
  w.PutRaw(empty.data(), 6);  // magic + version
  w.PutRaw(body.data(), body.size());
  w.PutU32(Crc32(w.bytes()));
  return w.Take();
}

/// Parse `bytes`; expect kDataLoss, no throw, and no single allocation
/// beyond what the input justifies.
void ExpectSdfDataLoss(const Bytes& bytes, const std::string& label) {
  g_largest_new = 0;
  StatusCode code = StatusCode::kOk;
  EXPECT_NO_THROW(code = SdfFile::Parse(bytes).status().code()) << label;
  EXPECT_EQ(code, StatusCode::kDataLoss) << label;
  EXPECT_LE(g_largest_new.load(), 32 * bytes.size() + (size_t{64} << 10))
      << label;
}

TEST(Sdf, ChunkCountBeyondThePayloadIsDataLoss) {
  // One dataset of one-row chunks whose shape[0] and chunk count agree on
  // a claim the file cannot hold: 2^62, 2^24, or 2^20 over 1024 real chunks.
  for (const auto& [claim, real] :
       {std::pair<uint64_t, size_t>{uint64_t{1} << 62, 0},
        {uint64_t{1} << 24, 0},
        {uint64_t{1} << 20, 1024}}) {
    ByteWriter w;
    w.PutVarU64(0);  // attrs
    w.PutVarU64(1);  // datasets
    w.PutString("x");
    w.PutU8(static_cast<uint8_t>(DType::kF32));
    w.PutVarU64(1);  // rank
    w.PutVarU64(claim);
    w.PutVarU64(1);  // chunk_rows
    w.PutU8(static_cast<uint8_t>(codec::Codec::kNone));
    w.PutVarU64(claim);
    for (size_t i = 0; i < real; ++i) {
      w.PutBlob({});
      w.PutU32(0);
    }
    ExpectSdfDataLoss(SdfWithRoot(w.Take()),
                      std::to_string(claim) + "/" + std::to_string(real));
  }
}

TEST(SdfDataset, DimsWhoseProductWrapsAreDataLoss) {
  // CRC-valid datasets whose dims multiply past any real array: {1, 2^61}
  // (2^61 f64 elements, whose byte count wraps to 0) and {2^32, 2^32}
  // behind a zero dim, each over the one empty chunk its row count asks
  // for.
  for (const Shape& dims : {Shape{1, size_t{1} << 61},
                            Shape{1, 0, size_t{1} << 32, size_t{1} << 32}}) {
    ByteWriter w;
    w.PutVarU64(0);  // attrs
    w.PutVarU64(1);  // datasets
    w.PutString("x");
    w.PutU8(static_cast<uint8_t>(DType::kF64));
    w.PutVarU64(dims.size());
    for (const size_t d : dims) w.PutVarU64(d);
    w.PutVarU64(1);  // chunk_rows
    w.PutU8(static_cast<uint8_t>(codec::Codec::kNone));
    w.PutVarU64(1);  // chunks
    w.PutBlob({});
    w.PutU32(0);
    ExpectSdfDataLoss(SdfWithRoot(w.Take()), std::to_string(dims.size()));
  }
}

TEST(Sdf, AttrVectorLengthBeyondThePayloadIsDataLoss) {
  // A root attr holding a double vector whose length sits at the 2^24 cap,
  // over no values or over 4096 real ones.
  for (const size_t real : {size_t{0}, size_t{4096}}) {
    ByteWriter w;
    w.PutVarU64(1);  // attrs
    w.PutString("v");
    w.PutU8(static_cast<uint8_t>(AttrValue::Kind::kDoubleVec));
    w.PutVarU64(uint64_t{1} << 24);
    for (size_t i = 0; i < real; ++i) w.PutF64(0.5);
    ExpectSdfDataLoss(SdfWithRoot(w.Take()), std::to_string(real));
  }
}

}  // namespace
}  // namespace drai::container
