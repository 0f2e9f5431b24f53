// Tests for drai/ndarray: dtype (incl. IEEE half), NDArray views, kernels.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "ndarray/dtype.hpp"
#include "ndarray/kernels.hpp"
#include "ndarray/ndarray.hpp"

namespace drai {
namespace {

// ---- dtype / half ---------------------------------------------------------

TEST(DType, SizesAndNames) {
  EXPECT_EQ(DTypeSize(DType::kF16), 2u);
  EXPECT_EQ(DTypeSize(DType::kF64), 8u);
  EXPECT_EQ(DTypeName(DType::kI32), "i32");
  EXPECT_EQ(ParseDType("f32").value(), DType::kF32);
  EXPECT_FALSE(ParseDType("float128").ok());
}

TEST(Half, ExactSmallValues) {
  // Values exactly representable in binary16 round-trip exactly.
  for (const float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f,
                        65504.0f /* max half */}) {
    EXPECT_EQ(HalfToFloat(FloatToHalf(v)), v) << v;
  }
}

TEST(Half, SpecialValues) {
  EXPECT_TRUE(std::isinf(HalfToFloat(FloatToHalf(1e30f))));   // overflow
  EXPECT_TRUE(std::isinf(HalfToFloat(
      FloatToHalf(std::numeric_limits<float>::infinity()))));
  EXPECT_TRUE(std::isnan(HalfToFloat(
      FloatToHalf(std::numeric_limits<float>::quiet_NaN()))));
  EXPECT_EQ(HalfToFloat(FloatToHalf(1e-30f)), 0.0f);  // underflow to 0
  // Signed zero preserved.
  EXPECT_TRUE(std::signbit(HalfToFloat(FloatToHalf(-0.0f))));
}

TEST(Half, SubnormalRange) {
  // Smallest positive subnormal half is 2^-24 ≈ 5.96e-8.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(HalfToFloat(FloatToHalf(tiny)), tiny);
  const float sub = std::ldexp(3.0f, -24);  // 3 * 2^-24, subnormal
  EXPECT_EQ(HalfToFloat(FloatToHalf(sub)), sub);
}

TEST(Half, RelativeErrorBounded) {
  // binary16 has 11 significand bits: rel error <= 2^-11 for normal range.
  Rng rng(31);
  for (int i = 0; i < 5000; ++i) {
    const float v = static_cast<float>(rng.Uniform(-60000, 60000));
    if (std::fabs(v) < 1e-3) continue;
    const float rt = HalfToFloat(FloatToHalf(v));
    EXPECT_LE(std::fabs(rt - v) / std::fabs(v), 1.0 / 2048.0 + 1e-7) << v;
  }
}

TEST(Half, MonotoneUnderRounding) {
  // Round-to-nearest preserves weak ordering.
  float prev = -65504.0f;
  for (float v = -65504.0f; v <= 65504.0f; v += 997.0f) {
    const float a = HalfToFloat(FloatToHalf(prev));
    const float b = HalfToFloat(FloatToHalf(v));
    EXPECT_LE(a, b);
    prev = v;
  }
}

// ---- NDArray construction & access -----------------------------------------

TEST(NDArray, ZerosAndFill) {
  NDArray a = NDArray::Zeros({2, 3}, DType::kF32);
  EXPECT_EQ(a.numel(), 6u);
  EXPECT_EQ(a.nbytes(), 24u);
  EXPECT_TRUE(a.IsContiguous());
  a.Fill(2.5);
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(a.GetAsDouble(i), 2.5);
}

TEST(NDArray, FromVectorAndAt) {
  NDArray a = NDArray::FromVector<int32_t>({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ((a.at<int32_t>({0, 0})), 1);
  EXPECT_EQ((a.at<int32_t>({1, 1})), 4);
  a.at<int32_t>({0, 1}) = 20;
  EXPECT_EQ(a.GetAsDouble(1), 20.0);
}

TEST(NDArray, AtChecksBoundsAndType) {
  NDArray a = NDArray::Zeros({2, 2}, DType::kF32);
  EXPECT_THROW((a.at<float>({2, 0})), std::out_of_range);
  EXPECT_THROW((a.at<double>({0, 0})), std::invalid_argument);
  EXPECT_THROW((a.at<float>({0})), std::out_of_range);
}

TEST(NDArray, FromVectorNumelMismatchThrows) {
  EXPECT_THROW(NDArray::FromVector<float>({3}, {1.0f}), std::invalid_argument);
}

// ---- views ---------------------------------------------------------------

TEST(NDArray, SliceSharesStorage) {
  NDArray a = NDArray::FromVector<double>({4, 2},
                                          {0, 1, 2, 3, 4, 5, 6, 7});
  NDArray s = a.Slice(0, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.GetAsDouble(0), 2.0);
  s.SetFromDouble(0, 99.0);
  EXPECT_EQ(a.GetAsDouble(2), 99.0);  // same storage
}

TEST(NDArray, TransposeView) {
  NDArray a = NDArray::FromVector<double>({2, 3}, {0, 1, 2, 3, 4, 5});
  NDArray t = a.Transpose();
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FALSE(t.IsContiguous());
  EXPECT_EQ((t.at<double>({2, 1})), 5.0);
  EXPECT_EQ((t.at<double>({0, 1})), 3.0);
  // GetAsDouble honors strides on views.
  EXPECT_EQ(t.GetAsDouble(1), 3.0);  // t[0,1]
}

TEST(NDArray, PermuteAndContiguous) {
  NDArray a = NDArray::Zeros({2, 3, 4}, DType::kF32);
  for (size_t i = 0; i < a.numel(); ++i) {
    a.SetFromDouble(i, static_cast<double>(i));
  }
  const size_t perm[] = {2, 0, 1};
  NDArray p = a.Permute(perm);
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  NDArray c = p.AsContiguous();
  EXPECT_TRUE(c.IsContiguous());
  // p[3, 1, 2] == a[1, 2, 3] == 1*12 + 2*4 + 3 = 23.
  EXPECT_EQ((c.at<float>({3, 1, 2})), 23.0f);
}

TEST(NDArray, PermuteRejectsBadPermutation) {
  NDArray a = NDArray::Zeros({2, 2});
  const size_t bad1[] = {0, 0};
  const size_t bad2[] = {0, 5};
  EXPECT_THROW(a.Permute(bad1), std::invalid_argument);
  EXPECT_THROW(a.Permute(bad2), std::invalid_argument);
}

TEST(NDArray, ReshapeRequiresContiguity) {
  NDArray a = NDArray::Zeros({2, 3});
  EXPECT_EQ(a.Reshape({3, 2}).shape(), (Shape{3, 2}));
  EXPECT_EQ(a.Reshape({6}).shape(), (Shape{6}));
  EXPECT_THROW(a.Reshape({5}), std::invalid_argument);
  EXPECT_THROW(a.Transpose().Reshape({6}), std::logic_error);
}

TEST(NDArray, CopyFromView) {
  NDArray a = NDArray::FromVector<double>({2, 2}, {1, 2, 3, 4});
  NDArray b = NDArray::Zeros({2, 2}, DType::kF64);
  b.CopyFrom(a.Transpose());
  EXPECT_EQ(b.GetAsDouble(1), 3.0);
  EXPECT_EQ(b.GetAsDouble(2), 2.0);
}

// ---- cast -------------------------------------------------------------------

TEST(NDArray, CastF64ToF32ToF16) {
  NDArray a = NDArray::FromVector<double>({3}, {1.0, -2.5, 1000.25});
  NDArray f32 = a.Cast(DType::kF32);
  EXPECT_EQ(f32.dtype(), DType::kF32);
  EXPECT_EQ(f32.GetAsDouble(1), -2.5);
  NDArray f16 = a.Cast(DType::kF16);
  EXPECT_EQ(f16.dtype(), DType::kF16);
  EXPECT_EQ(f16.GetAsDouble(0), 1.0);
  EXPECT_NEAR(f16.GetAsDouble(2), 1000.25, 0.5);  // half rounding
}

TEST(NDArray, CastToIntTruncates) {
  NDArray a = NDArray::FromVector<double>({2}, {3.7, -2.3});
  NDArray i = a.Cast(DType::kI32);
  EXPECT_EQ(i.GetAsDouble(0), 3.0);
  EXPECT_EQ(i.GetAsDouble(1), -2.0);
}

// ---- kernels ------------------------------------------------------------------

TEST(Kernels, AddSubMul) {
  NDArray a = NDArray::FromVector<float>({3}, {1, 2, 3});
  NDArray b = NDArray::FromVector<float>({3}, {10, 20, 30});
  EXPECT_EQ(Add(a, b).GetAsDouble(2), 33.0);
  EXPECT_EQ(Sub(b, a).GetAsDouble(0), 9.0);
  EXPECT_EQ(Mul(a, b).GetAsDouble(1), 40.0);
}

TEST(Kernels, BinaryShapeMismatchThrows) {
  NDArray a = NDArray::Zeros({2});
  NDArray b = NDArray::Zeros({3});
  EXPECT_THROW(Add(a, b), std::invalid_argument);
}

TEST(Kernels, ScaleShiftInPlaceOnView) {
  NDArray a = NDArray::FromVector<double>({2, 2}, {1, 2, 3, 4});
  NDArray row = a.Slice(0, 1, 2);
  ScaleShiftInPlace(row, 10.0, 1.0);
  EXPECT_EQ(a.GetAsDouble(2), 31.0);
  EXPECT_EQ(a.GetAsDouble(0), 1.0);  // untouched
}

TEST(Kernels, Reductions) {
  NDArray a = NDArray::FromVector<double>({4}, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(Sum(a), 10.0);
  EXPECT_DOUBLE_EQ(Mean(a), 2.5);
  EXPECT_DOUBLE_EQ(Min(a), 1.0);
  EXPECT_DOUBLE_EQ(Max(a), 4.0);
  EXPECT_DOUBLE_EQ(Variance(a), 1.25);
}

TEST(Kernels, KahanSumStaysAccurate) {
  // 1e8 + many tiny values: naive float-order summation drifts; Kahan holds.
  NDArray a = NDArray::Full({100001}, 0.0001, DType::kF64);
  a.SetFromDouble(0, 1e8);
  EXPECT_NEAR(Sum(a), 1e8 + 10.0, 1e-6);
}

TEST(Kernels, CountNaN) {
  NDArray a = NDArray::FromVector<double>(
      {3}, {1.0, std::numeric_limits<double>::quiet_NaN(), 3.0});
  EXPECT_EQ(CountNaN(a), 1u);
  NDArray i = NDArray::Zeros({3}, DType::kI32);
  EXPECT_EQ(CountNaN(i), 0u);
}

TEST(Kernels, DiffMetrics) {
  NDArray a = NDArray::FromVector<double>({2}, {1.0, 2.0});
  NDArray b = NDArray::FromVector<double>({2}, {1.5, 2.0});
  EXPECT_DOUBLE_EQ(MaxAbsDiff(a, b), 0.5);
  EXPECT_NEAR(RmsDiff(a, b), 0.5 / std::sqrt(2.0), 1e-12);
}

TEST(Kernels, EmptyReductionsThrow) {
  NDArray a = NDArray::Zeros({0});
  EXPECT_THROW(Mean(a), std::invalid_argument);
  EXPECT_THROW(Min(a), std::invalid_argument);
}

// ---- typed kernels vs the per-element reference -------------------------
//
// Every typed kernel must write exactly the bytes a GetAsDouble /
// SetFromDouble loop over the same elements writes: f16, f32 and f64 inputs,
// NaN cells, non-contiguous views.

constexpr DType kFloatTypes[] = {DType::kF16, DType::kF32, DType::kF64};

/// The per-element reference conversion (what Cast did before typed loops).
NDArray ScalarCast(const NDArray& a, DType target) {
  NDArray out = NDArray::Zeros(a.shape(), target);
  for (size_t i = 0; i < a.numel(); ++i) {
    out.SetFromDouble(i, a.GetAsDouble(i));
  }
  return out;
}

/// Uniform values in [lo, hi), a `nan_frac` share of them NaN.
NDArray RandomArray(Shape shape, DType dtype, uint64_t seed,
                    double nan_frac = 0.05, double lo = -300,
                    double hi = 300) {
  Rng rng(seed);
  NDArray a = NDArray::Zeros(std::move(shape), dtype);
  for (size_t i = 0; i < a.numel(); ++i) {
    a.SetFromDouble(i, rng.Bernoulli(nan_frac)
                           ? std::numeric_limits<double>::quiet_NaN()
                           : rng.Uniform(lo, hi));
  }
  return a;
}

std::vector<std::byte> BytesOf(const NDArray& contiguous) {
  const auto b = contiguous.raw_bytes();
  return {b.begin(), b.end()};
}

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(NDArray, SpanChecksDtypeAndContiguity) {
  NDArray a = NDArray::Zeros({3, 4}, DType::kF16);
  EXPECT_EQ(a.span<Half>().size(), 12u);
  EXPECT_THROW(a.span<float>(), std::invalid_argument);
  EXPECT_THROW(a.Transpose().span<Half>(), std::logic_error);
  const NDArray& c = a;
  EXPECT_EQ(c.Slice(0, 1, 2).span<Half>().size(), 4u);  // contiguous slice
}

TEST(TypedKernels, ConversionsAreThoseOfGetAndSet) {
  for (const double v : {0.1, -65504.0, 1e-6, 1e9, -3.75,
                         std::numeric_limits<double>::quiet_NaN()}) {
    const uint16_t h = FloatToHalf(static_cast<float>(v));
    EXPECT_EQ(FromDouble<Half>(v).bits, h) << v;
    EXPECT_EQ(BitsOf(ToDouble(Half{h})), BitsOf(HalfToFloat(h))) << v;
    EXPECT_EQ(BitsOf(FromDouble<float>(v)), BitsOf(static_cast<float>(v)));
  }
  EXPECT_EQ(FromDouble<int16_t>(-3.75), int16_t{-3});  // truncation
}

TEST(TypedKernels, CastMatchesScalarLoop) {
  for (const DType from : kFloatTypes) {
    const NDArray base = RandomArray({6, 10}, from, 7);
    for (const NDArray& in : {base, base.Transpose()}) {
      for (const DType to : kFloatTypes) {
        EXPECT_EQ(BytesOf(in.Cast(to)), BytesOf(ScalarCast(in, to)))
            << DTypeName(from) << "->" << DTypeName(to);
      }
    }
    // Integer targets and sources: finite, in range for every integer type.
    const NDArray small = RandomArray({6, 10}, from, 8, 0.0, 0.0, 120.0);
    for (const NDArray& in : {small, small.Transpose()}) {
      for (const DType to : {DType::kI8, DType::kI16, DType::kI32,
                             DType::kI64, DType::kU8}) {
        const NDArray ints = in.Cast(to);
        EXPECT_EQ(BytesOf(ints), BytesOf(ScalarCast(in, to)))
            << DTypeName(from) << "->" << DTypeName(to);
        EXPECT_EQ(BytesOf(ints.Cast(from)), BytesOf(ScalarCast(ints, from)))
            << DTypeName(to) << "->" << DTypeName(from);
      }
    }
  }
}

TEST(TypedKernels, CopyFromIntoSliceMatchesScalarLoop) {
  for (const DType dt : kFloatTypes) {
    const NDArray src_storage = RandomArray({4, 5, 3}, dt, 11);
    const NDArray strided = src_storage.Transpose(1, 2);  // [4, 3, 5]
    for (const NDArray& src : {strided, ScalarCast(strided, dt)}) {
      NDArray got = RandomArray({4, 6, 5}, dt, 12);
      NDArray want = ScalarCast(got, dt);
      got.Slice(1, 1, 4).CopyFrom(src);
      NDArray want_view = want.Slice(1, 1, 4);
      for (size_t i = 0; i < src.numel(); ++i) {
        want_view.SetFromDouble(i, src.GetAsDouble(i));
      }
      EXPECT_EQ(BytesOf(got), BytesOf(want)) << DTypeName(dt);
    }
  }
}

TEST(TypedKernels, FillOnViewMatchesScalarLoop) {
  for (const DType dt : kFloatTypes) {
    NDArray got = NDArray::Zeros({3, 4, 5}, dt);
    NDArray want = NDArray::Zeros({3, 4, 5}, dt);
    got.Slice(2, 1, 3).Fill(0.1);
    NDArray want_view = want.Slice(2, 1, 3);
    for (size_t i = 0; i < want_view.numel(); ++i) {
      want_view.SetFromDouble(i, 0.1);
    }
    EXPECT_EQ(BytesOf(got), BytesOf(want)) << DTypeName(dt);
  }
}

TEST(TypedKernels, SumMatchesScalarKahan) {
  for (const DType dt : kFloatTypes) {
    for (const double nan_frac : {0.0, 0.05}) {
      const NDArray base = RandomArray({9, 14}, dt, 21, nan_frac);
      for (const NDArray& in : {base, base.Transpose()}) {
        double sum = 0, c = 0;
        for (size_t i = 0; i < in.numel(); ++i) {
          const double y = in.GetAsDouble(i) - c;
          const double t = sum + y;
          c = (t - sum) - y;
          sum = t;
        }
        EXPECT_EQ(BitsOf(Sum(in)), BitsOf(sum)) << DTypeName(dt);
        EXPECT_EQ(BitsOf(Mean(in)),
                  BitsOf(sum / static_cast<double>(in.numel())));
      }
    }
  }
}

TEST(TypedKernels, SliceMeansMatchMeanOfEachSlice) {
  // Bit-exact against Mean(a.Slice(0, p, p + 1)) for every dtype, row
  // counts 0-17 (so rows % 8 != 0 runs the tail), NaN, +-inf and -0.0
  // cells, and a non-contiguous input.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(), kInf,
                             -kInf, -0.0};
  for (int d = 0; d <= static_cast<int>(DType::kU8); ++d) {
    const DType dt = static_cast<DType>(d);
    for (size_t rows = 0; rows <= 17; ++rows) {
      const NDArray base =
          IsFloating(dt) ? RandomArray({rows, 3, 4}, dt, 30 + rows)
                         : RandomArray({rows, 3, 4}, dt, 30 + rows, 0.0, 0.0,
                                       100.0);
      NDArray special = base.AsContiguous();
      if (IsFloating(dt)) {
        // One special value in a few rows; a row with all four.
        for (size_t r = 0; r < rows; r += 3) {
          special.SetFromDouble(r * 12 + r % 12, specials[r % 4]);
        }
        if (rows > 5) {
          for (size_t k = 0; k < 4; ++k) {
            special.SetFromDouble(5 * 12 + k, specials[k]);
          }
        }
      }
      const NDArray strided =
          RandomArray({3, rows, 4}, dt, 60 + rows, 0.0, 0.0, 100.0)
              .Transpose(0, 1);  // [rows, 3, 4], non-contiguous
      for (const NDArray& in : {base, special, strided}) {
        const std::vector<double> got = SliceMeans(in);
        ASSERT_EQ(got.size(), rows) << DTypeName(dt);
        for (size_t p = 0; p < rows; ++p) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got[p]),
                    std::bit_cast<uint64_t>(Mean(in.Slice(0, p, p + 1))))
              << DTypeName(dt) << " rows=" << rows << " p=" << p;
        }
      }
    }
  }
  EXPECT_THROW((void)SliceMeans(NDArray::Zeros({2, 0}, DType::kF64)),
               std::invalid_argument);
  EXPECT_TRUE(SliceMeans(NDArray::Zeros({0, 0}, DType::kF64)).empty());
}

}  // namespace
}  // namespace drai
