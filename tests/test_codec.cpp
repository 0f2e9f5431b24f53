// Tests for drai/codec: every codec round-trips exactly on every modality,
// corruption is detected, and lossy quantization respects its error bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "codec/codec.hpp"
#include "codec/quantize.hpp"
#include "common/rng.hpp"
#include "ndarray/ndarray.hpp"

namespace drai::codec {
namespace {

// Data generators shaped like the modalities the paper's pipelines emit.
Bytes MakeSmoothFloats(size_t n, bool f64) {
  // Shaped like dequantized GRIB output: a slowly drifting field snapped to
  // a 16-bit-ish quantization grid, so neighboring words often repeat
  // exactly — the case XOR float packing exists for.
  Rng rng(101);
  ByteWriter w;
  double v = 100.0;
  for (size_t i = 0; i < n; ++i) {
    v += rng.Normal(0, 0.01);
    const double q = std::round(v * 16.0) / 16.0;
    if (f64) {
      w.PutF64(q);
    } else {
      w.PutF32(static_cast<float>(q));
    }
  }
  return w.Take();
}

Bytes MakeRunsBytes(size_t n) {
  Rng rng(102);
  Bytes out;
  while (out.size() < n) {
    const size_t run = 1 + rng.UniformU64(40);
    const std::byte b = static_cast<std::byte>(rng.UniformU64(4));
    out.insert(out.end(), std::min(run, n - out.size()), b);
  }
  return out;
}

Bytes MakeMonotoneInts32(size_t n) {
  Rng rng(103);
  ByteWriter w;
  int32_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    v += static_cast<int32_t>(rng.UniformU64(20));
    w.PutI32(v);
  }
  return w.Take();
}

Bytes MakeTextish(size_t n) {
  Rng rng(104);
  static const char* kWords[] = {"ingest", "shard", "normalize", "regrid",
                                 "align", "anonymize", "graph", "train"};
  std::string s;
  while (s.size() < n) {
    s += kWords[rng.UniformU64(8)];
    s += ' ';
  }
  s.resize(n);
  return ToBytes(s);
}

Bytes MakeRandom(size_t n) {
  Rng rng(105);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.UniformU64(256));
  return out;
}

struct CodecCase {
  Codec codec;
  const char* data_kind;
};

// gtest (and ctest's discovered test names) would otherwise print the raw
// object bytes, pointer and padding included, so names changed per build.
void PrintTo(const CodecCase& c, std::ostream* os) {
  *os << CodecName(c.codec) << '_' << c.data_kind;
}

class CodecRoundTrip : public ::testing::TestWithParam<CodecCase> {
 protected:
  Bytes MakeData(size_t n) const {
    const std::string kind = GetParam().data_kind;
    // Word codecs need aligned sizes.
    const size_t width = GetParam().codec == Codec::kDeltaI64 ||
                                 GetParam().codec == Codec::kXorF64
                             ? 8
                             : 4;
    n -= n % width;
    if (kind == "smooth32") return MakeSmoothFloats(n / 4, false);
    if (kind == "smooth64") return MakeSmoothFloats(n / 8, true);
    if (kind == "runs") return MakeRunsBytes(n);
    if (kind == "monotone") return MakeMonotoneInts32(n);
    if (kind == "text") return MakeTextish(n);
    return MakeRandom(n);
  }
};

TEST_P(CodecRoundTrip, ExactRoundTrip) {
  for (const size_t n : {0ul, 8ul, 100ul, 4096ul, 70000ul}) {
    const Bytes raw = MakeData(n);
    const auto framed = Encode(GetParam().codec, raw);
    ASSERT_TRUE(framed.ok()) << framed.status().ToString();
    const auto back = Decode(*framed);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, raw) << "n=" << n;
    EXPECT_EQ(PeekCodec(*framed).value(), GetParam().codec);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllData, CodecRoundTrip,
    ::testing::Values(CodecCase{Codec::kNone, "random"},
                      CodecCase{Codec::kRle, "runs"},
                      CodecCase{Codec::kRle, "random"},
                      CodecCase{Codec::kRle, "text"},
                      CodecCase{Codec::kDeltaI32, "monotone"},
                      CodecCase{Codec::kDeltaI32, "random"},
                      CodecCase{Codec::kDeltaI64, "random"},
                      CodecCase{Codec::kLz, "text"},
                      CodecCase{Codec::kLz, "runs"},
                      CodecCase{Codec::kLz, "random"},
                      CodecCase{Codec::kLz, "smooth32"},
                      CodecCase{Codec::kXorF32, "smooth32"},
                      CodecCase{Codec::kXorF32, "random"},
                      CodecCase{Codec::kXorF64, "smooth64"},
                      CodecCase{Codec::kXorF64, "random"}));

TEST(Codec, CompressionActuallyCompresses) {
  // Each codec must beat raw on the modality it targets.
  const Bytes runs = MakeRunsBytes(64 << 10);
  EXPECT_LT(Encode(Codec::kRle, runs)->size(), runs.size() / 4);

  const Bytes text = MakeTextish(64 << 10);
  EXPECT_LT(Encode(Codec::kLz, text)->size(), text.size() / 2);

  const Bytes smooth = MakeSmoothFloats(16 << 10, true);
  EXPECT_LT(Encode(Codec::kXorF64, smooth)->size(), smooth.size() * 3 / 4);

  const Bytes monotone = MakeMonotoneInts32(16 << 10);
  EXPECT_LT(Encode(Codec::kDeltaI32, monotone)->size(), monotone.size() / 2);
}

TEST(Codec, WordCodecsRejectMisalignedInput) {
  const Bytes raw(7);
  EXPECT_EQ(Encode(Codec::kXorF32, raw).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Encode(Codec::kDeltaI64, raw).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Codec, CorruptFrameDetected) {
  const Bytes raw = MakeTextish(5000);
  Bytes framed = Encode(Codec::kLz, raw).value();
  // Flip a payload byte: either decode fails or output differs — silent
  // identical output would be the bug.
  Bytes tampered = framed;
  tampered[tampered.size() / 2] ^= std::byte{0xFF};
  const auto back = Decode(tampered);
  if (back.ok()) {
    EXPECT_NE(*back, raw);
  } else {
    EXPECT_EQ(back.status().code(), StatusCode::kDataLoss);
  }
}

TEST(Codec, TruncatedFrameIsDataLoss) {
  const Bytes raw = MakeRunsBytes(1000);
  Bytes framed = Encode(Codec::kRle, raw).value();
  framed.resize(framed.size() / 2);
  EXPECT_EQ(Decode(framed).status().code(), StatusCode::kDataLoss);
}

TEST(Codec, UnknownCodecIdRejected) {
  Bytes bogus = {std::byte{0x7F}, std::byte{0x00}};
  EXPECT_EQ(Decode(bogus).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(PeekCodec(bogus).status().code(), StatusCode::kDataLoss);
}

TEST(Codec, EmptyFrameIsDataLoss) {
  EXPECT_EQ(Decode({}).status().code(), StatusCode::kDataLoss);
}

TEST(Codec, DeltaRoundTripsFullRangeIntegers) {
  // Neighbouring words here differ by more than INT64_MAX, so the deltas
  // wrap; they must still round-trip exactly.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr uint64_t kUMax = std::numeric_limits<uint64_t>::max();
  ByteWriter w64;
  for (const int64_t v : {int64_t{0}, kMax, kMin, kMax - 1, kMin + 1, kMax, int64_t{-1},
                          kMin, int64_t{1}, kMin, kMax}) {
    w64.PutI64(v);
  }
  for (const uint64_t v : {kUMax, uint64_t{0}, kUMax - 1, uint64_t{1} << 63,
                           (uint64_t{1} << 63) - 1, uint64_t{1}, kUMax}) {
    w64.PutU64(v);
  }
  const Bytes raw64 = w64.Take();
  const auto back64 = Decode(Encode(Codec::kDeltaI64, raw64).value());
  ASSERT_TRUE(back64.ok()) << back64.status().ToString();
  EXPECT_EQ(*back64, raw64);

  ByteWriter w32;
  for (const int32_t v : {std::numeric_limits<int32_t>::max(),
                          std::numeric_limits<int32_t>::min(), 0, -1,
                          std::numeric_limits<int32_t>::max()}) {
    w32.PutI32(v);
  }
  const Bytes raw32 = w32.Take();
  const auto back32 = Decode(Encode(Codec::kDeltaI32, raw32).value());
  ASSERT_TRUE(back32.ok()) << back32.status().ToString();
  EXPECT_EQ(*back32, raw32);
}

// A frame whose header claims `raw_size` bytes over a payload of a few bytes.
Bytes FrameClaiming(Codec codec, uint64_t raw_size) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(codec));
  w.PutVarU64(raw_size);
  for (int i = 0; i < 6; ++i) w.PutU8(0x02);
  return w.Take();
}

TEST(Codec, DeltaHeaderClaimingAnExbibyteIsDataLoss) {
  // Must fail on the header, before allocating the claimed size.
  EXPECT_EQ(Decode(FrameClaiming(Codec::kDeltaI64, uint64_t{1} << 60)).status().code(),
            StatusCode::kDataLoss);
}

TEST(Codec, LzHeaderClaimingAnExbibyteIsDataLoss) {
  EXPECT_EQ(Decode(FrameClaiming(Codec::kLz, uint64_t{1} << 60)).status().code(),
            StatusCode::kDataLoss);
}

TEST(Codec, HeaderClaimingAnExbibyteIsDataLoss) {
  // Every decoder must reject the hostile header as corrupt data, before
  // allocating the claimed size (which would throw std::bad_alloc).
  for (const Codec codec : kAllCodecs) {
    if (codec == Codec::kNone) continue;
    SCOPED_TRACE(std::string(CodecName(codec)));
    const auto decoded = Decode(FrameClaiming(codec, uint64_t{1} << 60));
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

TEST(Codec, RleRunNearUint64MaxIsDataLoss) {
  // Two bytes of output, then a run of UINT64_MAX - 1: out.size() + count
  // wraps to 0, which an overflowing bounds check would accept.
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(Codec::kRle));
  w.PutVarU64(4);  // raw_size
  w.PutVarU64(2);
  w.PutU8(1);  // run
  w.PutU8(0x41);
  w.PutVarU64(std::numeric_limits<uint64_t>::max() - 1);
  w.PutU8(1);  // run
  w.PutU8(0x42);
  const Bytes frame = w.Take();
  StatusCode code = StatusCode::kOk;
  EXPECT_NO_THROW(code = Decode(frame).status().code());
  EXPECT_EQ(code, StatusCode::kDataLoss);
}

// ---- quantization ---------------------------------------------------------------

TEST(Quantize, NarrowRoundTripErrorOrdering) {
  Rng rng(200);
  NDArray field = NDArray::Zeros({64, 64}, DType::kF64);
  for (size_t i = 0; i < field.numel(); ++i) {
    field.SetFromDouble(i, rng.Uniform(200, 320));
  }
  const auto to32 = NarrowRoundTrip(field, DType::kF32);
  const auto to16 = NarrowRoundTrip(field, DType::kF16);
  // §2.2's precision ladder: f32 error << f16 error, both bounded.
  EXPECT_LT(to32.error.max_abs, 1e-4);
  EXPECT_GT(to16.error.max_abs, to32.error.max_abs);
  EXPECT_LT(to16.error.relative_to_range, 0.01);
}

TEST(Quantize, NarrowRejectsNonFloat) {
  NDArray i = NDArray::Zeros({4}, DType::kI32);
  EXPECT_THROW(NarrowRoundTrip(i, DType::kF32), std::invalid_argument);
}

class LinearQuantBits : public ::testing::TestWithParam<uint8_t> {};

TEST_P(LinearQuantBits, ErrorBoundedByHalfStep) {
  Rng rng(201);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.Uniform(-40, 55));
  const auto pack = LinearQuantize(values, GetParam());
  ASSERT_TRUE(pack.ok());
  const auto err = MeasureLinearError(values, *pack);
  // Round-to-nearest: max error <= scale/2 (+ tiny fp slack).
  EXPECT_LE(err.max_abs, pack->scale * 0.5 * (1 + 1e-9));
  EXPECT_LE(err.rms, err.max_abs);
}

TEST_P(LinearQuantBits, ConstantInputIsExact) {
  std::vector<double> values(100, 3.25);
  const auto pack = LinearQuantize(values, GetParam());
  ASSERT_TRUE(pack.ok());
  const auto restored = LinearDequantize(*pack);
  for (double v : restored) EXPECT_DOUBLE_EQ(v, 3.25);
}

INSTANTIATE_TEST_SUITE_P(Widths, LinearQuantBits, ::testing::Values(8, 16));

TEST(Quantize, LinearRejectsBadBits) {
  EXPECT_EQ(LinearQuantize(std::vector<double>{1.0}, 12).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Quantize, SixteenBitTighterThanEight) {
  Rng rng(202);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) values.push_back(rng.Normal(0, 10));
  const auto e8 = MeasureLinearError(values, *LinearQuantize(values, 8));
  const auto e16 = MeasureLinearError(values, *LinearQuantize(values, 16));
  EXPECT_LT(e16.max_abs * 50, e8.max_abs);  // ~256x fewer levels at 8 bits
}

TEST(Quantize, RangeWiderThanDblMaxIsInvalidArgument) {
  // hi - lo overflows to inf: the scale would be inf and 1e308 / inf a NaN
  // cast to an integer.
  for (uint8_t bits : {8, 16}) {
    const auto pack =
        LinearQuantize(std::vector<double>{-1e308, 0.0, 1e308}, bits);
    EXPECT_EQ(pack.status().code(), StatusCode::kInvalidArgument);
  }
  // The widest range that still fits packs fine.
  const double big = std::numeric_limits<double>::max() / 2;
  EXPECT_TRUE(LinearQuantize(std::vector<double>{-big, big}, 16).ok());
}

// The sequential packer and error pass this codec shipped before the
// one-pass rewrite, kept verbatim as the bit-exact reference.
LinearPack ReferenceQuantize(std::span<const double> values, uint8_t bits) {
  LinearPack pack;
  pack.bits = bits;
  pack.count = values.size();
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (!(lo <= hi)) {
    lo = 0;
    hi = 0;
  }
  const uint32_t levels = bits == 8 ? 255u : 65535u;
  pack.offset = lo;
  pack.scale = hi > lo ? (hi - lo) / static_cast<double>(levels) : 1.0;
  auto quantum = [&](double v) -> uint32_t {
    if (!std::isfinite(v)) return levels;
    const double q = (v - pack.offset) / pack.scale;
    const double clamped = std::clamp(q, 0.0, static_cast<double>(levels));
    return static_cast<uint32_t>(clamped + 0.5);
  };
  for (double v : values) {
    if (bits == 8) {
      pack.packed8.push_back(static_cast<uint8_t>(quantum(v)));
    } else {
      pack.packed16.push_back(static_cast<uint16_t>(quantum(v)));
    }
  }
  return pack;
}

QuantError ReferenceError(std::span<const double> values,
                          const LinearPack& pack) {
  const std::vector<double> restored = LinearDequantize(pack);
  QuantError e;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  double acc = 0;
  size_t n = 0;
  for (size_t i = 0; i < values.size() && i < restored.size(); ++i) {
    if (!std::isfinite(values[i])) continue;
    const double d = std::fabs(values[i] - restored[i]);
    e.max_abs = std::max(e.max_abs, d);
    acc += d * d;
    ++n;
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  e.rms = n ? std::sqrt(acc / static_cast<double>(n)) : 0.0;
  e.relative_to_range = (hi > lo) ? e.max_abs / (hi - lo) : 0.0;
  return e;
}

void ExpectSameError(const QuantError& got, const QuantError& want,
                     const std::string& what) {
  EXPECT_EQ(got.max_abs, want.max_abs) << what;
  EXPECT_EQ(got.rms, want.rms) << what;
  EXPECT_EQ(got.relative_to_range, want.relative_to_range) << what;
}

TEST(Quantize, PackMatchesSequentialReference) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> inputs = {
      // -0.0/+0.0 ties at the minimum, both orders, within one chain and
      // across chains (index 1 vs index 4), and at the maximum.
      {-0.0, 0.0, 1.0, 2.0},
      {0.0, -0.0, 1.0, 2.0},
      {5.0, 0.0, 3.0, 4.0, -0.0, 2.0},
      {5.0, -0.0, 3.0, 4.0, 0.0, 2.0},
      {-3.0, -1.0, -0.0, 0.0},
      {-3.0, -1.0, 0.0, -0.0},
      {0.0, 0.0, -0.0, -0.0, 0.0},
      {-0.0, 0.0, 0.0, 0.0, -0.0},
      // Non-finite values among finite ones, and nothing but them.
      {kNaN, 1.5, -kInf, 2.5, kInf, -7.0, kNaN, 0.25, 3.0},
      {kNaN, kNaN, kInf, -kInf, kNaN},
      {kNaN},
      // Constant input.
      std::vector<double>(11, 3.25),
      std::vector<double>(4, -0.0),
  };
  Rng rng(203);
  for (size_t n = 0; n <= 9; ++n) {  // every n % 4, the empty input too
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) values.push_back(rng.Uniform(-40, 55));
    inputs.push_back(values);
    if (n > 1) {
      values[n / 2] = kNaN;
      inputs.push_back(values);
    }
  }
  for (int i = 0; i < 1000; ++i) {
    inputs.back().push_back(rng.Bernoulli(0.1) ? kNaN : rng.Normal(0, 10));
  }

  for (uint8_t bits : {8, 16}) {
    for (size_t c = 0; c < inputs.size(); ++c) {
      const std::vector<double>& values = inputs[c];
      const std::string what =
          "case " + std::to_string(c) + " bits " + std::to_string(bits);
      const LinearPack want = ReferenceQuantize(values, bits);
      const auto got = LinearQuantize(values, bits);
      ASSERT_TRUE(got.ok()) << what;
      EXPECT_EQ(std::bit_cast<uint64_t>(got->offset),
                std::bit_cast<uint64_t>(want.offset))
          << what;
      EXPECT_EQ(std::bit_cast<uint64_t>(got->scale),
                std::bit_cast<uint64_t>(want.scale))
          << what;
      EXPECT_EQ(got->bits, want.bits) << what;
      EXPECT_EQ(got->count, want.count) << what;
      EXPECT_EQ(got->packed8, want.packed8) << what;
      EXPECT_EQ(got->packed16, want.packed16) << what;
      const QuantError want_error = ReferenceError(values, want);
      ExpectSameError(got->error, want_error, what + " pack.error");
      ExpectSameError(MeasureLinearError(values, *got), want_error,
                      what + " MeasureLinearError");
    }
  }
}

}  // namespace
}  // namespace drai::codec
