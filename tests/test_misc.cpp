// Coverage for the small utilities the bigger suites use indirectly:
// logging, timers, string formatting, attribute values, and a few
// edge paths in containers and the pipeline report.
#include <gtest/gtest.h>

#include <thread>

#include "codec/codec.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "container/netcdf_lite.hpp"
#include "container/tensor_io.hpp"
#include "core/pipeline.hpp"

namespace drai {
namespace {

// ---- log -------------------------------------------------------------------

TEST(Log, LevelRoundTripAndFiltering) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold messages are discarded without side effects; the macro
  // must still compile and evaluate its stream arguments lazily.
  DRAI_LOG(kDebug) << "invisible " << 42;
  SetLogLevel(LogLevel::kOff);
  DRAI_LOG(kError) << "also invisible";
  SetLogLevel(before);
}

// ---- timer ------------------------------------------------------------------

TEST(Timer, WallTimerAdvances) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double first = t.Seconds();
  EXPECT_GE(first, 0.004);
  t.Reset();
  EXPECT_LT(t.Seconds(), first);
}

TEST(Timer, StageClockAccumulates) {
  StageClock clock;
  clock.Add("ingest", 1.0);
  clock.Add("ingest", 0.5);
  clock.Add("shard", 2.0);
  EXPECT_DOUBLE_EQ(clock.Total(), 3.5);
  EXPECT_DOUBLE_EQ(clock.buckets().at("ingest"), 1.5);
}

// ---- strings (formatting paths) ------------------------------------------

TEST(Strings, HumanDurationUnits) {
  EXPECT_EQ(HumanDuration(2.5), "2.50 s");
  EXPECT_EQ(HumanDuration(0.0025), "2.50 ms");
  EXPECT_EQ(HumanDuration(2.5e-6), "2.50 us");
  EXPECT_EQ(HumanDuration(5e-9), "5 ns");
}

TEST(Strings, FormatDoubleAndJoinAndLower) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(Join({"a", "b", "c"}, " -> "), "a -> b -> c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(ToLower("MiXeD Case"), "mixed case");
}

// ---- attr values -----------------------------------------------------------

TEST(AttrValue, ToStringAllKinds) {
  EXPECT_EQ(container::AttrValue::Int(-7).ToString(), "-7");
  EXPECT_EQ(container::AttrValue::String("hi").ToString(), "hi");
  EXPECT_NE(container::AttrValue::Double(2.5).ToString().find("2.5"),
            std::string::npos);
  EXPECT_EQ(container::AttrValue::DoubleVec({1, 2}).ToString().front(), '[');
}

TEST(AttrValue, EqualityByKindAndValue) {
  using container::AttrValue;
  EXPECT_EQ(AttrValue::Int(3), AttrValue::Int(3));
  EXPECT_FALSE(AttrValue::Int(3) == AttrValue::Int(4));
  EXPECT_FALSE(AttrValue::Int(3) == AttrValue::Double(3.0));  // kinds differ
  EXPECT_EQ(AttrValue::DoubleVec({1, 2}), AttrValue::DoubleVec({1, 2}));
}

TEST(AttrValue, WireRoundTripAllKinds) {
  using container::AttrValue;
  for (const AttrValue& v :
       {AttrValue::Int(-99), AttrValue::Double(0.125),
        AttrValue::String("units: K"), AttrValue::DoubleVec({-1, 0, 1})}) {
    ByteWriter w;
    container::WriteAttr(w, v);
    const Bytes buf = w.Take();
    ByteReader r(buf);
    const auto back = container::ReadAttr(r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

// ---- NcVariable fill-value variants --------------------------------------

TEST(NcVariable, FillValueIntAndDoubleAndAbsent) {
  container::NcVariable v;
  EXPECT_FALSE(v.FillValue().has_value());
  v.attrs["_FillValue"] = container::AttrValue::Int(-999);
  EXPECT_DOUBLE_EQ(v.FillValue().value(), -999.0);
  v.attrs["_FillValue"] = container::AttrValue::Double(-9.5);
  EXPECT_DOUBLE_EQ(v.FillValue().value(), -9.5);
  v.attrs["_FillValue"] = container::AttrValue::String("bogus");
  EXPECT_FALSE(v.FillValue().has_value());
  EXPECT_FALSE(v.Units().has_value());
}

// ---- tensor wire format edge cases -----------------------------------------

TEST(TensorIo, ScalarAndEmptyRoundTrip) {
  for (const Shape& shape : {Shape{}, Shape{0}, Shape{1}, Shape{0, 3}}) {
    ByteWriter w;
    container::WriteTensor(w, NDArray::Zeros(shape, DType::kF32));
    const Bytes buf = w.Take();
    ByteReader r(buf);
    const auto back = container::ReadTensor(r);
    ASSERT_TRUE(back.ok()) << ShapeToString(shape);
    EXPECT_EQ(back->shape(), shape);
  }
}

TEST(TensorIo, DimsWhoseProductWrapsAreDataLoss) {
  // Dims {2^32, 2^32}: the element count wraps to 0 in 64 bits and would
  // match an empty payload, leaving a tensor whose shape claims 2^64 cells.
  // With a leading zero dim the count is an honest 0, but the strides of
  // the trailing dims would still overflow.
  const uint64_t big = 1ull << 32;
  for (const std::vector<uint64_t>& dims :
       {std::vector<uint64_t>{big, big}, std::vector<uint64_t>{0, big, big}}) {
    ByteWriter w;
    w.PutU8(static_cast<uint8_t>(DType::kF64));
    w.PutVarU64(dims.size());
    for (uint64_t d : dims) w.PutVarU64(d);
    w.PutBlob(codec::Encode(codec::Codec::kNone, {}).value());
    w.PutU32(Crc32(std::span<const std::byte>{}));
    const Bytes buf = w.Take();
    ByteReader r(buf);
    StatusCode code = StatusCode::kOk;
    EXPECT_NO_THROW(code = container::ReadTensor(r).status().code());
    EXPECT_EQ(code, StatusCode::kDataLoss) << dims.size() << " dims";
  }
}

TEST(TensorIo, IncompatibleCodecFallsBackToNone) {
  // 3-element u8 tensor cannot use a 4-byte-word codec; WriteTensor must
  // fall back rather than fail.
  ByteWriter w;
  container::WriteTensor(w, NDArray::Full({3}, 7, DType::kU8),
                         codec::Codec::kXorF32);
  const Bytes buf = w.Take();
  ByteReader r(buf);
  const auto back = container::ReadTensor(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->GetAsDouble(1), 7.0);
}

// ---- pipeline report helpers -----------------------------------------------

TEST(PipelineReport, TimeBreakdownSkipsEmptyStages) {
  core::PipelineReport report;
  report.total_seconds = 10;
  core::StageMetrics ingest;
  ingest.kind = core::StageKind::kIngest;
  ingest.seconds = 10;
  report.stages.push_back(ingest);
  const std::string breakdown = report.TimeBreakdown();
  EXPECT_NE(breakdown.find("ingest 100.0%"), std::string::npos);
  EXPECT_EQ(breakdown.find("shard"), std::string::npos);
  EXPECT_DOUBLE_EQ(report.SecondsIn(core::StageKind::kIngest), 10.0);
  EXPECT_DOUBLE_EQ(report.SecondsIn(core::StageKind::kShard), 0.0);
}

}  // namespace
}  // namespace drai
