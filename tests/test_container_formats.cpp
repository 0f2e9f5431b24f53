// Tests for netcdf-lite, grib-lite, recio, bplite, and format sniffing.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "codec/codec.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "container/bplite.hpp"
#include "container/grib_lite.hpp"
#include "container/netcdf_lite.hpp"
#include "container/recio.hpp"
#include "container/sniff.hpp"

namespace drai::container {
namespace {

NDArray MakeField(size_t h, size_t w, uint64_t seed, double nan_prob = 0.0) {
  Rng rng(seed);
  NDArray a = NDArray::Zeros({h, w}, DType::kF64);
  for (size_t i = 0; i < a.numel(); ++i) {
    a.SetFromDouble(i, rng.Bernoulli(nan_prob)
                           ? std::numeric_limits<double>::quiet_NaN()
                           : rng.Uniform(250, 320));
  }
  return a;
}

// ---- netcdf-lite ----------------------------------------------------------

TEST(NetcdfLite, DimensionConsistencyEnforced) {
  NcFile nc;
  ASSERT_TRUE(nc.AddDimension("lat", 4).ok());
  ASSERT_TRUE(nc.AddDimension("lat", 4).ok());  // idempotent
  EXPECT_EQ(nc.AddDimension("lat", 5).code(), StatusCode::kAlreadyExists);

  NcVariable v;
  v.name = "t2m";
  v.dims = {"lat", "lon"};
  v.data = NDArray::Zeros({4, 8});
  EXPECT_EQ(nc.AddVariable(v).code(), StatusCode::kNotFound);  // lon undefined
  ASSERT_TRUE(nc.AddDimension("lon", 9).ok());
  EXPECT_EQ(nc.AddVariable(v).code(), StatusCode::kInvalidArgument);  // 8 != 9
}

TEST(NetcdfLite, FullRoundTrip) {
  NcFile nc;
  nc.SetGlobalAttr("institution", AttrValue::String("drai"));
  nc.AddDimension("time", 2).OrDie();
  nc.AddDimension("lat", 3).OrDie();
  nc.AddDimension("lon", 4).OrDie();
  NcVariable v;
  v.name = "t2m";
  v.dims = {"time", "lat", "lon"};
  v.data = NDArray::Full({2, 3, 4}, 288.5, DType::kF64);
  v.attrs["units"] = AttrValue::String("K");
  v.attrs["_FillValue"] = AttrValue::Double(-9999.0);
  nc.AddVariable(v).OrDie();
  NcVariable lat;
  lat.name = "lat";
  lat.dims = {"lat"};
  lat.data = NDArray::FromVector<double>({-60.0, 0.0, 60.0});
  nc.AddVariable(lat).OrDie();

  const Bytes bytes = nc.Serialize();
  const auto back = NcFile::Parse(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->DimensionSize("lat").value(), 3u);
  EXPECT_EQ(back->GetGlobalAttr("institution")->s, "drai");
  ASSERT_EQ(back->variables().size(), 2u);
  EXPECT_EQ(back->variables()[0].name, "t2m");  // order preserved
  const NcVariable* t2m = back->FindVariable("t2m");
  ASSERT_NE(t2m, nullptr);
  EXPECT_EQ(t2m->Units().value(), "K");
  EXPECT_EQ(t2m->FillValue().value(), -9999.0);
  EXPECT_EQ(t2m->dims, (std::vector<std::string>{"time", "lat", "lon"}));
  EXPECT_EQ(t2m->data.GetAsDouble(7), 288.5);
}

TEST(NetcdfLite, RejectsForeignSdf) {
  SdfFile f;
  EXPECT_EQ(NcFile::Parse(f.Serialize()).status().code(),
            StatusCode::kDataLoss);
}

// ---- grib-lite -----------------------------------------------------------

class GribBits : public ::testing::TestWithParam<uint8_t> {};

TEST_P(GribBits, RoundTripWithinPackError) {
  GribMessage msg;
  msg.variable = "z500";
  msg.valid_time = 86400;
  msg.level_hpa = 500;
  msg.bits = GetParam();
  msg.field = MakeField(16, 32, 7);

  Bytes file;
  ASSERT_TRUE(AppendGribMessage(file, msg).ok());
  const auto decoded = DecodeGribFile(file);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 1u);
  const GribMessage& out = (*decoded)[0];
  EXPECT_EQ(out.variable, "z500");
  EXPECT_EQ(out.valid_time, 86400);
  EXPECT_EQ(out.level_hpa, 500);
  for (size_t i = 0; i < out.field.numel(); ++i) {
    EXPECT_NEAR(out.field.GetAsDouble(i), msg.field.GetAsDouble(i),
                msg.pack_error.max_abs * (1 + 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, GribBits, ::testing::Values(8, 16));

TEST(GribLite, MissingBitmapPreservesNaN) {
  GribMessage msg;
  msg.variable = "t2m";
  msg.field = MakeField(12, 12, 9, /*nan_prob=*/0.15);
  Bytes file;
  ASSERT_TRUE(AppendGribMessage(file, msg).ok());
  const auto decoded = DecodeGribFile(file);
  ASSERT_TRUE(decoded.ok());
  const NDArray& out = (*decoded)[0].field;
  size_t nan_in = 0, nan_out = 0;
  for (size_t i = 0; i < out.numel(); ++i) {
    const bool in_nan = std::isnan(msg.field.GetAsDouble(i));
    const bool out_nan = std::isnan(out.GetAsDouble(i));
    EXPECT_EQ(in_nan, out_nan) << "cell " << i;
    nan_in += in_nan;
    nan_out += out_nan;
  }
  EXPECT_GT(nan_in, 0u);  // the workload actually injected dropouts
}

TEST(GribLite, MultiMessageStream) {
  Bytes file;
  for (int t = 0; t < 5; ++t) {
    GribMessage msg;
    msg.variable = t % 2 ? "u10" : "t2m";
    msg.valid_time = t * 3600;
    msg.field = MakeField(8, 16, static_cast<uint64_t>(t));
    ASSERT_TRUE(AppendGribMessage(file, msg).ok());
  }
  const auto decoded = DecodeGribFile(file);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 5u);
  EXPECT_EQ((*decoded)[3].valid_time, 3 * 3600);
}

TEST(GribLite, TornFileDetected) {
  GribMessage msg;
  msg.variable = "t2m";
  msg.field = MakeField(8, 8, 3);
  Bytes file;
  ASSERT_TRUE(AppendGribMessage(file, msg).ok());
  file.resize(file.size() - 7);
  EXPECT_EQ(DecodeGribFile(file).status().code(), StatusCode::kDataLoss);
}

TEST(GribLite, CorruptPayloadCaughtByCrc) {
  GribMessage msg;
  msg.variable = "t2m";
  msg.field = MakeField(8, 8, 4);
  Bytes file;
  ASSERT_TRUE(AppendGribMessage(file, msg).ok());
  file[file.size() / 2] ^= std::byte{0x10};
  EXPECT_EQ(DecodeGribFile(file).status().code(), StatusCode::kDataLoss);
}

TEST(GribLite, HugeGridOnTinyPayloadRejectedBeforeAllocating) {
  // A well-formed header and missing-value bitmap for an 8192 x 8192 grid
  // (a 512 MiB f64 field), followed by 6 bytes of quanta. The decoder must
  // see the payload is short before it allocates the field.
  const uint64_t side = 8192;
  const size_t n = side * side;
  ByteWriter w;
  w.PutMagic("GRBL");
  w.PutString("t2m");
  w.PutI64(0);
  w.PutI32(0);
  w.PutVarU64(side);
  w.PutVarU64(side);
  w.PutU8(16);
  w.PutF64(250.0);
  w.PutF64(0.01);
  const Bytes bitmap((n + 7) / 8, std::byte{0});
  w.PutBlob(codec::Encode(codec::Codec::kRle, bitmap).value());
  for (uint16_t q : {1, 2, 3}) w.PutU16(q);
  w.PutU32(0);
  const Bytes file = w.Take();
  ASSERT_LT(file.size(), 64u * 1024);
  const auto decoded = DecodeGribFile(file);
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(decoded.status().ToString().find("payload shorter"),
            std::string::npos)
      << decoded.status().ToString();
}

/// A CRC-valid grib-lite message for variable "t2m" built field by field,
/// so a test can claim any dims, bitmap and quanta.
Bytes HandBuiltGrib(uint64_t n_lat, uint64_t n_lon, uint8_t bits,
                    double offset, double scale, const Bytes& bitmap,
                    const Bytes& quanta) {
  ByteWriter w;
  w.PutMagic("GRBL");
  w.PutString("t2m");
  w.PutI64(0);
  w.PutI32(0);
  w.PutVarU64(n_lat);
  w.PutVarU64(n_lon);
  w.PutU8(bits);
  w.PutF64(offset);
  w.PutF64(scale);
  w.PutBlob(codec::Encode(codec::Codec::kRle, bitmap).value());
  w.PutRaw(quanta);
  w.PutU32(Crc32(w.bytes().subspan(4)));
  return w.Take();
}

TEST(GribLite, GridDimsWhoseProductWrapsAreDataLoss) {
  // n_lat = n_lon = 2^32: the product wraps to 0 in 64 bits, which would
  // pass a "<= 2^32 cells" check and describe 2^64 cells over 0 bytes.
  const Bytes file = HandBuiltGrib(1ull << 32, 1ull << 32, 16, 250.0, 0.01,
                                   /*bitmap=*/{}, /*quanta=*/{});
  StatusCode code = StatusCode::kOk;
  EXPECT_NO_THROW(code = DecodeGribFile(file).status().code());
  EXPECT_EQ(code, StatusCode::kDataLoss);
}

TEST(GribLite, ViewAndF32FieldsEncodeLikeTheirDenseF64Copy) {
  const NDArray base = MakeField(9, 14, 11, /*nan_prob=*/0.1);
  const auto encode = [](const NDArray& field) {
    GribMessage msg;
    msg.variable = "t2m";
    msg.field = field;
    Bytes file;
    AppendGribMessage(file, msg).OrDie();
    return std::make_pair(file, msg.pack_error);
  };
  const NDArray strided = base.Slice(1, 2, 11);  // 9 x 9, row stride 14
  const NDArray transposed = base.Transpose();   // 14 x 9
  const NDArray f32 = base.Cast(DType::kF32);
  ASSERT_FALSE(strided.IsContiguous());
  for (const NDArray* field : {&strided, &transposed, &f32}) {
    const auto [got, got_error] = encode(*field);
    const auto [want, want_error] =
        encode(field->AsContiguous().Cast(DType::kF64));
    EXPECT_EQ(got, want);
    EXPECT_EQ(got_error.max_abs, want_error.max_abs);
    EXPECT_EQ(got_error.rms, want_error.rms);
    EXPECT_EQ(got_error.relative_to_range, want_error.relative_to_range);
  }
}

TEST(GribLite, NanInTheLastCellOfAnOddSizedField) {
  // 15 cells: the bitmap's last byte holds 7 cells and one padding bit.
  for (uint8_t bits : {8, 16}) {
    GribMessage msg;
    msg.variable = "u10";
    msg.bits = bits;
    msg.field = MakeField(3, 5, 13);
    msg.field.SetFromDouble(14, std::numeric_limits<double>::quiet_NaN());
    Bytes file;
    ASSERT_TRUE(AppendGribMessage(file, msg).ok());
    const auto decoded = DecodeGribFile(file);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const NDArray& out = (*decoded)[0].field;
    ASSERT_EQ(out.numel(), 15u);
    for (size_t i = 0; i < 14; ++i) {
      EXPECT_NEAR(out.GetAsDouble(i), msg.field.GetAsDouble(i),
                  msg.pack_error.max_abs * (1 + 1e-9))
          << "cell " << i;
    }
    EXPECT_TRUE(std::isnan(out.GetAsDouble(14)));
  }
}

TEST(GribLite, BitmapPaddingBitsAreNotCells) {
  // A 3 x 5 field whose bitmap marks cell 14 missing and also sets the
  // padding bit after it (cell 15 does not exist). The message is otherwise
  // well formed, CRC included: it decodes, the padding bit touches nothing.
  Bytes quanta;
  for (uint8_t q = 0; q < 15; ++q) quanta.push_back(std::byte{q});
  const Bytes file = HandBuiltGrib(3, 5, 8, 250.0, 0.5,
                                   {std::byte{0x00}, std::byte{0xC0}}, quanta);
  const auto decoded = DecodeGribFile(file);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const NDArray& out = (*decoded)[0].field;
  ASSERT_EQ(out.numel(), 15u);
  for (size_t i = 0; i < 14; ++i) {
    EXPECT_EQ(out.GetAsDouble(i), 250.0 + 0.5 * static_cast<double>(i));
  }
  EXPECT_TRUE(std::isnan(out.GetAsDouble(14)));
}

TEST(GribLite, RejectsNonFloatingAndBadRank) {
  GribMessage msg;
  msg.variable = "x";
  msg.field = NDArray::Zeros({4}, DType::kF32);
  Bytes file;
  EXPECT_EQ(AppendGribMessage(file, msg).code(), StatusCode::kInvalidArgument);
  msg.field = NDArray::Zeros({2, 2}, DType::kI32);
  EXPECT_EQ(AppendGribMessage(file, msg).code(), StatusCode::kInvalidArgument);
}

// ---- recio ---------------------------------------------------------------

TEST(Recio, RecordStreamRoundTrip) {
  RecWriter w(ToBytes("schema-v1"));
  w.Append("alpha");
  w.Append("beta");
  w.Append("");
  EXPECT_EQ(w.record_count(), 3u);
  const Bytes file = w.Finish();

  auto rd = RecReader::Open(file);
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(BytesToString(rd->metadata()), "schema-v1");
  const auto all = rd->ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 3u);
  EXPECT_EQ(BytesToString((*all)[0]), "alpha");
  EXPECT_EQ(BytesToString((*all)[2]), "");
}

TEST(Recio, AppendWithMatchesAppendWhateverTheHint) {
  const std::string big(200, 'r');  // two-byte varint length
  RecWriter expected(ToBytes("meta"));
  expected.Append("small");
  expected.Append(big);
  const Bytes want = expected.Finish();
  for (uint64_t hint : {uint64_t{0}, uint64_t{200}, uint64_t{1} << 30}) {
    RecWriter w(ToBytes("meta"), 16);
    w.AppendWith(hint, [](ByteWriter& out) { out.PutRaw("small", 5); });
    w.AppendWith(hint, [&](ByteWriter& out) {
      out.PutRaw(big.data(), big.size());
    });
    EXPECT_EQ(w.record_count(), 2u);
    EXPECT_EQ(w.Finish(), want) << hint;
  }
}

TEST(Recio, EmptyStream) {
  RecWriter w;
  const Bytes file = w.Finish();
  auto rd = RecReader::Open(file);
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(rd->CountRecords().value(), 0u);
}

TEST(Recio, PerRecordCrcLocalizesCorruption) {
  RecWriter w;
  w.Append("first-record-payload");
  w.Append("second-record-payload");
  Bytes file = w.Finish();
  // Corrupt the last payload byte (second record).
  file[file.size() - 1] ^= std::byte{0x01};
  auto rd = RecReader::Open(file);
  ASSERT_TRUE(rd.ok());
  const auto first = rd->Next();
  ASSERT_TRUE(first.ok());  // first record untouched
  EXPECT_EQ(BytesToString(**first), "first-record-payload");
  EXPECT_EQ(rd->Next().status().code(), StatusCode::kDataLoss);
}

TEST(Recio, TornTailDetected) {
  RecWriter w;
  w.Append(std::string(1000, 'x'));
  Bytes file = w.Finish();
  file.resize(file.size() - 100);
  auto rd = RecReader::Open(file);
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(rd->Next().status().code(), StatusCode::kDataLoss);
}

TEST(Recio, BadMagicRejectedAtOpen) {
  EXPECT_EQ(RecReader::Open(ToBytes("XXXXjunkjunk")).status().code(),
            StatusCode::kDataLoss);
}

// ---- bplite --------------------------------------------------------------

TEST(BpLite, StepOrientedRoundTrip) {
  BpWriter w;
  for (int step = 0; step < 3; ++step) {
    w.BeginStep();
    w.Put("temperature", NDArray::Full({4, 4}, 300.0 + step, DType::kF64),
          codec::Codec::kXorF64);
    w.Put("pressure", NDArray::Full({4}, 1e5 * (step + 1), DType::kF64));
    w.EndStep();
  }
  EXPECT_EQ(w.step_count(), 3u);
  const Bytes file = w.Finish();

  auto rd = BpReader::Open(file);
  ASSERT_TRUE(rd.ok()) << rd.status().ToString();
  EXPECT_EQ(rd->step_count(), 3u);
  EXPECT_EQ(rd->Variables(1),
            (std::vector<std::string>{"pressure", "temperature"}));
  const auto temp = rd->Get(2, "temperature");
  ASSERT_TRUE(temp.ok());
  EXPECT_EQ(temp->GetAsDouble(0), 302.0);
  EXPECT_EQ(rd->Get(0, "pressure")->GetAsDouble(0), 1e5);
  EXPECT_EQ(rd->Get(0, "nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(rd->Get(9, "pressure").status().code(), StatusCode::kNotFound);
}

TEST(BpLite, WriterStateMachineEnforced) {
  BpWriter w;
  EXPECT_THROW(w.Put("x", NDArray::Zeros({1})), std::logic_error);
  w.BeginStep();
  EXPECT_THROW(w.BeginStep(), std::logic_error);
  w.EndStep();
  EXPECT_THROW(w.EndStep(), std::logic_error);
  w.BeginStep();
  EXPECT_THROW(w.Finish(), std::logic_error);  // open step
  w.EndStep();
  w.Finish();
  EXPECT_THROW(w.Finish(), std::logic_error);
}

TEST(BpLite, TornTailMagicDetected) {
  BpWriter w;
  w.BeginStep();
  w.Put("x", NDArray::Zeros({128}));
  w.EndStep();
  Bytes file = w.Finish();
  file.resize(file.size() - 2);
  EXPECT_EQ(BpReader::Open(file).status().code(), StatusCode::kDataLoss);
}

TEST(BpLite, FooterCrcDetectsCorruption) {
  BpWriter w;
  w.BeginStep();
  w.Put("x", NDArray::Zeros({16}));
  w.EndStep();
  Bytes file = w.Finish();
  // Flip a byte inside the footer (just before the 16-byte tail).
  file[file.size() - 20] ^= std::byte{0x08};
  EXPECT_EQ(BpReader::Open(file).status().code(), StatusCode::kDataLoss);
}

// ---- sniff ---------------------------------------------------------------

TEST(Sniff, IdentifiesEveryFormat) {
  SdfFile sdf;
  EXPECT_EQ(SniffFormat(sdf.Serialize()), FileFormat::kSdf);

  GribMessage msg;
  msg.variable = "t";
  msg.field = MakeField(4, 4, 1);
  Bytes grib;
  AppendGribMessage(grib, msg).OrDie();
  EXPECT_EQ(SniffFormat(grib), FileFormat::kGribLite);

  RecWriter rec;
  EXPECT_EQ(SniffFormat(rec.Finish()), FileFormat::kRecio);

  BpWriter bp;
  EXPECT_EQ(SniffFormat(bp.Finish()), FileFormat::kBpLite);

  EXPECT_EQ(SniffFormat(ToBytes("garbage")), FileFormat::kUnknown);
  EXPECT_EQ(SniffFormat(ToBytes("ab")), FileFormat::kUnknown);
  EXPECT_EQ(FileFormatName(FileFormat::kSdf), "sdf");
}

}  // namespace
}  // namespace drai::container
