// Tests for drai/grid: grid construction, the three regrid methods, the
// conservative method's mean-preservation invariant, and patching.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "grid/latlon.hpp"

namespace drai::grid {
namespace {

constexpr double kDegToRad = std::numbers::pi / 180.0;

/// A smooth analytic field: easy to regrid accurately.
NDArray AnalyticField(const LatLonGrid& g) {
  NDArray f = NDArray::Zeros({g.n_lat(), g.n_lon()}, DType::kF64);
  for (size_t i = 0; i < g.n_lat(); ++i) {
    for (size_t j = 0; j < g.n_lon(); ++j) {
      const double lat = g.lat(i) * kDegToRad;
      const double lon = g.lon(j) * kDegToRad;
      f.SetFromDouble(i * g.n_lon() + j,
                      280.0 + 30.0 * std::cos(lat) * std::sin(2 * lon) +
                          10.0 * std::sin(3 * lat));
    }
  }
  return f;
}

TEST(LatLonGrid, UniformGeometry) {
  const LatLonGrid g = LatLonGrid::Uniform(4, 8);
  EXPECT_EQ(g.n_lat(), 4u);
  EXPECT_EQ(g.n_lon(), 8u);
  EXPECT_DOUBLE_EQ(g.lat(0), -67.5);
  EXPECT_DOUBLE_EQ(g.lat(3), 67.5);
  EXPECT_DOUBLE_EQ(g.lon(0), 0.0);
  EXPECT_DOUBLE_EQ(g.lon(4), 180.0);
  EXPECT_DOUBLE_EQ(g.lat_edges().front(), -90.0);
  EXPECT_DOUBLE_EQ(g.lat_edges().back(), 90.0);
}

TEST(LatLonGrid, GaussianLikeDenserNearEquator) {
  const LatLonGrid g = LatLonGrid::GaussianLike(16, 32);
  // Spacing between lats near the equator < near the poles.
  const double equator_gap = g.lat(8) - g.lat(7);
  const double pole_gap = g.lat(15) - g.lat(14);
  EXPECT_LT(equator_gap, pole_gap);
  // Still ascending and within range.
  for (size_t i = 1; i < g.n_lat(); ++i) EXPECT_GT(g.lat(i), g.lat(i - 1));
  EXPECT_GT(g.lat(0), -90.0);
  EXPECT_LT(g.lat(15), 90.0);
}

TEST(LatLonGrid, CellAreasSumToSphere) {
  for (const auto& g :
       {LatLonGrid::Uniform(8, 16), LatLonGrid::GaussianLike(9, 7)}) {
    double total = 0;
    for (size_t i = 0; i < g.n_lat(); ++i) {
      total += g.CellArea(i) * static_cast<double>(g.n_lon());
    }
    // sum over bands of (sin(hi)-sin(lo)) = 2.
    EXPECT_NEAR(total, 2.0, 1e-12);
  }
}

TEST(LatLonGrid, RejectsDegenerate) {
  EXPECT_THROW(LatLonGrid::Uniform(1, 8), std::invalid_argument);
  EXPECT_THROW(LatLonGrid::Uniform(8, 1), std::invalid_argument);
}

struct RegridCase {
  RegridMethod method;
  bool src_gaussian;
};

// Without this, gtest prints the raw object bytes, uninitialised padding
// included, and the discovered ctest names change from build to build.
void PrintTo(const RegridCase& c, std::ostream* os) {
  *os << RegridMethodName(c.method)
      << (c.src_gaussian ? "_from_gaussian" : "_from_uniform");
}

class RegridAccuracy : public ::testing::TestWithParam<RegridCase> {};

TEST_P(RegridAccuracy, SmoothFieldSurvivesResolutionChange) {
  const auto& param = GetParam();
  const LatLonGrid src = param.src_gaussian ? LatLonGrid::GaussianLike(48, 96)
                                            : LatLonGrid::Uniform(48, 96);
  const LatLonGrid dst = LatLonGrid::Uniform(32, 64);
  const NDArray field = AnalyticField(src);
  const auto out = Regrid(field, src, dst, param.method);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Compare against the analytic truth on the destination grid, away from
  // the poles: a coarse Gaussian-like source has no cell centers poleward
  // of ~asin(1 - 1/n), so polar destination rows are (correctly) constant
  // extrapolations, not interpolation-accuracy measurements.
  const NDArray truth = AnalyticField(dst);
  double worst = 0;
  for (size_t i = 0; i < dst.n_lat(); ++i) {
    if (std::fabs(dst.lat(i)) > 78.0) continue;
    for (size_t j = 0; j < dst.n_lon(); ++j) {
      const size_t idx = i * dst.n_lon() + j;
      worst = std::max(
          worst, std::fabs(out->GetAsDouble(idx) - truth.GetAsDouble(idx)));
    }
  }
  // Field range is ~80; interpolation on a 48x96 source should land within
  // a few percent (nearest is the crudest).
  const double budget = param.method == RegridMethod::kNearest ? 8.0 : 3.0;
  EXPECT_LT(worst, budget);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndGrids, RegridAccuracy,
    ::testing::Values(RegridCase{RegridMethod::kNearest, false},
                      RegridCase{RegridMethod::kBilinear, false},
                      RegridCase{RegridMethod::kConservative, false},
                      RegridCase{RegridMethod::kNearest, true},
                      RegridCase{RegridMethod::kBilinear, true},
                      RegridCase{RegridMethod::kConservative, true}));

TEST(Regrid, IdentityOnSameGridBilinear) {
  const LatLonGrid g = LatLonGrid::Uniform(12, 24);
  const NDArray field = AnalyticField(g);
  const auto out = Regrid(field, g, g, RegridMethod::kBilinear);
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < field.numel(); ++i) {
    EXPECT_NEAR(out->GetAsDouble(i), field.GetAsDouble(i), 1e-9);
  }
}

TEST(Regrid, ConservativePreservesAreaMean) {
  // The defining invariant of first-order conservative regridding.
  Rng rng(77);
  const LatLonGrid src = LatLonGrid::GaussianLike(24, 48);
  const LatLonGrid dst = LatLonGrid::Uniform(17, 31);  // awkward ratios
  NDArray field = NDArray::Zeros({src.n_lat(), src.n_lon()}, DType::kF64);
  for (size_t i = 0; i < field.numel(); ++i) {
    field.SetFromDouble(i, rng.Uniform(0, 100));
  }
  const auto out = Regrid(field, src, dst, RegridMethod::kConservative);
  ASSERT_TRUE(out.ok());
  const double mean_src = AreaWeightedMean(field, src).value();
  const double mean_dst = AreaWeightedMean(*out, dst).value();
  EXPECT_NEAR(mean_dst, mean_src, 1e-6 * std::fabs(mean_src) + 1e-9);
}

TEST(Regrid, ConservativeHandlesMissingCells) {
  const LatLonGrid src = LatLonGrid::Uniform(8, 16);
  const LatLonGrid dst = LatLonGrid::Uniform(4, 8);
  NDArray field = NDArray::Full({8, 16}, 5.0, DType::kF64);
  field.SetFromDouble(0, std::numeric_limits<double>::quiet_NaN());
  const auto out = Regrid(field, src, dst, RegridMethod::kConservative);
  ASSERT_TRUE(out.ok());
  // The missing cell is skipped (zero weight) so every output stays 5.
  for (size_t i = 0; i < out->numel(); ++i) {
    EXPECT_NEAR(out->GetAsDouble(i), 5.0, 1e-12);
  }
}

TEST(Regrid, LongitudePeriodicityAtWrap) {
  // A field varying only in lon must interpolate smoothly across 360->0.
  const LatLonGrid src = LatLonGrid::Uniform(4, 8);
  const LatLonGrid dst = LatLonGrid::Uniform(4, 16);
  NDArray field = NDArray::Zeros({4, 8}, DType::kF64);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      field.SetFromDouble(i * 8 + j, std::cos(src.lon(j) * kDegToRad));
    }
  }
  const auto out = Regrid(field, src, dst, RegridMethod::kBilinear);
  ASSERT_TRUE(out.ok());
  // dst lon 337.5 sits between src lons 315 and 0 — interpolation across
  // the wrap, not extrapolation from one side.
  const double v = out->GetAsDouble(15);  // row 0, last dst lon
  const double expect =
      0.5 * (std::cos(315.0 * kDegToRad) + std::cos(0.0));
  EXPECT_NEAR(v, expect, 1e-9);
}

TEST(Regrid, RejectsBadInput) {
  const LatLonGrid g = LatLonGrid::Uniform(4, 8);
  EXPECT_FALSE(Regrid(NDArray::Zeros({3, 8}), g, g,
                      RegridMethod::kBilinear)
                   .ok());
  EXPECT_FALSE(Regrid(NDArray::Zeros({4, 8}, DType::kI32), g, g,
                      RegridMethod::kBilinear)
                   .ok());
}

// ---- patches ------------------------------------------------------------------

TEST(ExtractPatches, TilesMultiChannelField) {
  NDArray field = NDArray::Zeros({2, 4, 6}, DType::kF32);
  for (size_t i = 0; i < field.numel(); ++i) {
    field.SetFromDouble(i, static_cast<double>(i));
  }
  const auto patches = ExtractPatches(field, 2, 3);
  ASSERT_TRUE(patches.ok());
  EXPECT_EQ(patches->shape(), (Shape{4, 2, 2, 3}));
  // Patch 0 = rows 0-1, cols 0-2 of channel 0: begins at source index 0.
  EXPECT_EQ(patches->GetAsDouble(0), 0.0);
  // Patch 3 (by=1, bx=1), channel 1, y=1, x=2 -> source c=1,row=3,col=5.
  EXPECT_EQ(
      patches->GetAsDouble(((3 * 2 + 1) * 2 + 1) * 3 + 2),
      static_cast<double>(1 * 24 + 3 * 6 + 5));
}

TEST(ExtractPatches, Rank2Promotes) {
  const auto patches = ExtractPatches(NDArray::Zeros({8, 8}), 4, 4);
  ASSERT_TRUE(patches.ok());
  EXPECT_EQ(patches->shape(), (Shape{4, 1, 4, 4}));
}

TEST(ExtractPatches, DropsPartialEdges) {
  const auto patches = ExtractPatches(NDArray::Zeros({10, 10}), 4, 4);
  ASSERT_TRUE(patches.ok());
  EXPECT_EQ(patches->shape()[0], 4u);  // 2x2, edges dropped
}

TEST(ExtractPatches, RejectsOversizePatch) {
  EXPECT_FALSE(ExtractPatches(NDArray::Zeros({4, 4}), 8, 8).ok());
  EXPECT_FALSE(ExtractPatches(NDArray::Zeros({4, 4}), 0, 2).ok());
}

// ---- typed kernels vs the per-element reference -------------------------
//
// Regrid and ExtractPatches run one loop per storage type. Their bytes must
// match GetAsDouble / SetFromDouble loops for f16, f32 and f64 inputs with
// NaN cells, contiguous or not. (The f64 regrid bytes of all three methods
// are pinned against the pre-typed code in tests/test_golden.cpp.)

constexpr DType kFloatTypes[] = {DType::kF16, DType::kF32, DType::kF64};

NDArray ScalarCast(const NDArray& a, DType target) {
  NDArray out = NDArray::Zeros(a.shape(), target);
  for (size_t i = 0; i < a.numel(); ++i) {
    out.SetFromDouble(i, a.GetAsDouble(i));
  }
  return out;
}

std::vector<std::byte> BytesOf(const NDArray& contiguous) {
  const auto b = contiguous.raw_bytes();
  return {b.begin(), b.end()};
}

TEST(TypedKernels, RegridMatchesScalarConversionLoop) {
  const LatLonGrid src = LatLonGrid::GaussianLike(16, 32);
  const LatLonGrid dst = LatLonGrid::Uniform(12, 24);
  NDArray base = AnalyticField(src);
  for (size_t i = 0; i < base.numel(); i += 17) {
    base.SetFromDouble(i, std::numeric_limits<double>::quiet_NaN());
  }
  for (const DType dt : kFloatTypes) {
    const NDArray field = ScalarCast(base, dt);
    // Same logical field over transposed storage: a non-contiguous view.
    const NDArray view = ScalarCast(field.Transpose(), dt).Transpose();
    ASSERT_FALSE(view.IsContiguous());
    for (const RegridMethod m :
         {RegridMethod::kNearest, RegridMethod::kBilinear,
          RegridMethod::kConservative}) {
      // All arithmetic is in double: the typed result must equal an f64
      // regrid of the per-element widened field, narrowed per element.
      const NDArray want = ScalarCast(
          Regrid(ScalarCast(field, DType::kF64), src, dst, m).value(), dt);
      const NDArray got = Regrid(field, src, dst, m).value();
      EXPECT_EQ(got.dtype(), dt);
      EXPECT_EQ(BytesOf(got), BytesOf(want))
          << DTypeName(dt) << " " << RegridMethodName(m);
      EXPECT_EQ(BytesOf(Regrid(view, src, dst, m).value()), BytesOf(want))
          << DTypeName(dt) << " " << RegridMethodName(m) << " (view)";
    }
  }
}

/// The per-element patch loop ExtractPatches replaced.
NDArray ScalarPatches(const NDArray& field, size_t ph, size_t pw) {
  const bool rank2 = field.rank() == 2;
  const size_t channels = rank2 ? 1 : field.shape()[0];
  const size_t h = field.shape()[rank2 ? 0 : 1];
  const size_t w = field.shape()[rank2 ? 1 : 2];
  const size_t py = h / ph, px = w / pw;
  NDArray out = NDArray::Zeros({py * px, channels, ph, pw}, field.dtype());
  size_t patch = 0;
  for (size_t by = 0; by < py; ++by) {
    for (size_t bx = 0; bx < px; ++bx, ++patch) {
      for (size_t c = 0; c < channels; ++c) {
        for (size_t y = 0; y < ph; ++y) {
          for (size_t x = 0; x < pw; ++x) {
            const size_t s = c * h * w + (by * ph + y) * w + (bx * pw + x);
            const size_t d = ((patch * channels + c) * ph + y) * pw + x;
            out.SetFromDouble(d, field.GetAsDouble(s));
          }
        }
      }
    }
  }
  return out;
}

TEST(TypedKernels, ExtractPatchesMatchesScalarLoop) {
  Rng rng(5);
  for (const DType dt : {DType::kF16, DType::kF32, DType::kF64, DType::kI32}) {
    NDArray wide = NDArray::Zeros({3, 10, 20}, dt);
    for (size_t i = 0; i < wide.numel(); ++i) {
      const bool nan = IsFloating(dt) && rng.Bernoulli(0.05);
      wide.SetFromDouble(i, nan ? std::numeric_limits<double>::quiet_NaN()
                                : rng.Uniform(-100, 100));
    }
    const NDArray strided = wide.Slice(2, 3, 16);  // [3, 10, 13], row gaps
    ASSERT_FALSE(strided.IsContiguous());
    const NDArray rank3 = ScalarCast(strided, dt);
    const NDArray rank2 = ScalarCast(wide.Slice(0, 1, 2), dt).Reshape({10, 20});
    for (const NDArray& in : {strided, rank3, rank2}) {
      EXPECT_EQ(BytesOf(ExtractPatches(in, 4, 4).value()),
                BytesOf(ScalarPatches(in, 4, 4)))
          << DTypeName(dt) << " " << ShapeToString(in.shape());
      EXPECT_EQ(BytesOf(ExtractPatches(in, 3, 5).value()),
                BytesOf(ScalarPatches(in, 3, 5)))
          << DTypeName(dt) << " " << ShapeToString(in.shape());
    }
  }
}

}  // namespace
}  // namespace drai::grid
