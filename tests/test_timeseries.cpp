// Tests for drai/timeseries: validation, despiking, gap filling,
// resampling, alignment, windowing, features.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "timeseries/signal.hpp"

namespace drai::timeseries {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Signal MakeSine(const std::string& name, double rate_hz, double duration,
                double freq, double amp = 1.0, double t0 = 0.0) {
  Signal s;
  s.name = name;
  for (double t = t0; t < duration; t += 1.0 / rate_hz) {
    s.t.push_back(t);
    s.v.push_back(amp * std::sin(2 * M_PI * freq * t));
  }
  return s;
}

TEST(Signal, ValidateCatchesProblems) {
  Signal s;
  s.name = "x";
  s.t = {0, 1, 1};  // not strictly increasing
  s.v = {1, 2, 3};
  EXPECT_FALSE(s.Validate().ok());
  s.t = {0, 1};
  EXPECT_FALSE(s.Validate().ok());  // length mismatch
  s.v = {1, 2};
  EXPECT_TRUE(s.Validate().ok());
}

TEST(Signal, MissingFraction) {
  Signal s;
  s.v = {1, kNaN, 3, kNaN};
  s.t = {0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(s.MissingFraction(), 0.5);
}

// ---- despike -----------------------------------------------------------------

TEST(Despike, RemovesGrossOutliersOnly) {
  Rng rng(1);
  Signal s = MakeSine("ip", 100, 2.0, 1.0);
  // Plant three gross spikes.
  s.v[20] = 1e6;
  s.v[100] = -1e6;
  s.v[150] = 5e5;
  const size_t replaced = Despike(s, 6.0);
  EXPECT_EQ(replaced, 3u);
  EXPECT_TRUE(std::isnan(s.v[20]));
  EXPECT_TRUE(std::isnan(s.v[100]));
  // Ordinary samples untouched.
  EXPECT_FALSE(std::isnan(s.v[50]));
}

TEST(Despike, ConstantSignalUntouched) {
  Signal s;
  for (int i = 0; i < 50; ++i) {
    s.t.push_back(i);
    s.v.push_back(7.0);
  }
  EXPECT_EQ(Despike(s), 0u);
}

TEST(Despike, TooShortSignalIgnored) {
  Signal s;
  s.t = {0, 1};
  s.v = {1, 1e9};
  EXPECT_EQ(Despike(s), 0u);
}

// ---- gap fill -----------------------------------------------------------------

TEST(FillGaps, LinearInterpolatesShortRuns) {
  Signal s;
  s.t = {0, 1, 2, 3, 4};
  s.v = {0, kNaN, kNaN, 3, 4};
  const size_t filled = FillGaps(s, 4);
  EXPECT_EQ(filled, 2u);
  EXPECT_DOUBLE_EQ(s.v[1], 1.0);
  EXPECT_DOUBLE_EQ(s.v[2], 2.0);
}

TEST(FillGaps, LongRunsAndEdgesStayMissing) {
  Signal s;
  s.t = {0, 1, 2, 3, 4, 5};
  s.v = {kNaN, 1, kNaN, kNaN, kNaN, 5};
  const size_t filled = FillGaps(s, 2);  // run of 3 > max_gap 2
  EXPECT_EQ(filled, 0u);
  EXPECT_TRUE(std::isnan(s.v[0]));  // leading edge never filled
  EXPECT_TRUE(std::isnan(s.v[3]));
}

// ---- resample -----------------------------------------------------------------

TEST(Resample, LinearHitsExactAtSamplePoints) {
  Signal s;
  s.t = {0.0, 1.0, 2.0};
  s.v = {0.0, 10.0, 20.0};
  const auto out = ResampleUniform(s, 0.0, 0.5, 5);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ((*out)[0], 0.0);
  EXPECT_DOUBLE_EQ((*out)[1], 5.0);
  EXPECT_DOUBLE_EQ((*out)[2], 10.0);
  EXPECT_DOUBLE_EQ((*out)[4], 20.0);
}

TEST(Resample, OutsideSpanIsNaN) {
  Signal s;
  s.t = {1.0, 2.0};
  s.v = {5.0, 6.0};
  const auto out = ResampleUniform(s, 0.0, 1.0, 4);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(std::isnan((*out)[0]));
  EXPECT_DOUBLE_EQ((*out)[1], 5.0);
  EXPECT_TRUE(std::isnan((*out)[3]));
}

TEST(Resample, NearestAndPrevious) {
  Signal s;
  s.t = {0.0, 1.0};
  s.v = {0.0, 10.0};
  const auto nearest = ResampleUniform(s, 0.0, 0.4, 3, Interp::kNearest);
  EXPECT_DOUBLE_EQ((*nearest)[1], 0.0);   // t=0.4 -> closer to 0
  EXPECT_DOUBLE_EQ((*nearest)[2], 10.0);  // t=0.8 -> closer to 1
  const auto previous = ResampleUniform(s, 0.0, 0.8, 2, Interp::kPrevious);
  EXPECT_DOUBLE_EQ((*previous)[1], 0.0);  // t=0.8 -> previous sample is t=0
}

TEST(Resample, SineReconstructionAccurate) {
  const Signal s = MakeSine("x", 500, 1.0, 3.0);
  const auto out = ResampleUniform(s, 0.1, 0.001, 800);
  ASSERT_TRUE(out.ok());
  for (size_t k = 0; k < out->size(); ++k) {
    const double t = 0.1 + static_cast<double>(k) * 0.001;
    if (t > s.t.back()) break;
    EXPECT_NEAR((*out)[k], std::sin(2 * M_PI * 3.0 * t), 0.01);
  }
}

TEST(Resample, RejectsBadDt) {
  Signal s;
  s.t = {0.0};
  s.v = {1.0};
  EXPECT_FALSE(ResampleUniform(s, 0, 0, 4).ok());
}

// ---- alignment ------------------------------------------------------------------

TEST(Align, ChannelsShareTheIntersectionClock) {
  std::vector<Signal> channels;
  channels.push_back(MakeSine("a", 100, 2.0, 1.0));           // [0, 2)
  channels.push_back(MakeSine("b", 73, 1.5, 2.0, 1.0, 0.3));  // [0.3, 1.5)
  const auto frame = AlignChannels(channels, 0.01);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->n_channels(), 2u);
  EXPECT_NEAR(frame->t0, 0.3, 1e-9);
  EXPECT_EQ(frame->channel_names[1], "b");
  // Every aligned sample of both channels lies inside both spans -> finite.
  const double* data = frame->data.data<double>();
  for (size_t c = 0; c < 2; ++c) {
    for (size_t k = 0; k < frame->n_samples(); ++k) {
      EXPECT_TRUE(std::isfinite(data[c * frame->n_samples() + k]))
          << c << "," << k;
    }
  }
}

TEST(Align, DisjointSpansFail) {
  std::vector<Signal> channels;
  channels.push_back(MakeSine("a", 100, 1.0, 1.0));            // [0, 1)
  channels.push_back(MakeSine("b", 100, 3.0, 1.0, 1.0, 2.0));  // [2, 3)
  EXPECT_EQ(AlignChannels(channels, 0.01).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Align, EmptyInputRejected) {
  EXPECT_FALSE(AlignChannels({}, 0.01).ok());
}

// ---- windows -------------------------------------------------------------------

TEST(SlidingWindows, CountAndContent) {
  AlignedFrame frame;
  frame.t0 = 0;
  frame.dt = 1;
  frame.channel_names = {"c0"};
  frame.data = NDArray::Zeros({1, 10}, DType::kF64);
  for (size_t i = 0; i < 10; ++i) {
    frame.data.SetFromDouble(i, static_cast<double>(i));
  }
  const auto windows = SlidingWindows(frame, 4, 2);
  ASSERT_TRUE(windows.ok());
  EXPECT_EQ(windows->shape(), (Shape{4, 1, 4}));
  EXPECT_EQ(windows->GetAsDouble(4), 2.0);  // second window starts at t=2
}

TEST(SlidingWindows, DropsWindowsWithNaN) {
  AlignedFrame frame;
  frame.channel_names = {"c0"};
  frame.data = NDArray::Zeros({1, 8}, DType::kF64);
  frame.data.SetFromDouble(3, kNaN);
  const auto kept = SlidingWindows(frame, 4, 4, /*drop_missing=*/true);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->shape()[0], 1u);  // first window (0-3) has the NaN
  const auto all = SlidingWindows(frame, 4, 4, /*drop_missing=*/false);
  EXPECT_EQ(all->shape()[0], 2u);
}

TEST(SlidingWindows, FrameShorterThanWindowFails) {
  AlignedFrame frame;
  frame.channel_names = {"c0"};
  frame.data = NDArray::Zeros({1, 3}, DType::kF64);
  EXPECT_FALSE(SlidingWindows(frame, 4, 1).ok());
}

// ---- features --------------------------------------------------------------------

TEST(WindowFeatures, KnownValues) {
  // One window, one channel: [0, 1, 2, 3] with dt=1.
  NDArray windows = NDArray::Zeros({1, 1, 4}, DType::kF64);
  for (size_t i = 0; i < 4; ++i) {
    windows.SetFromDouble(i, static_cast<double>(i));
  }
  const auto features = WindowFeatures(windows, 1.0);
  ASSERT_TRUE(features.ok());
  EXPECT_EQ(features->shape(), (Shape{1, kFeaturesPerChannel}));
  EXPECT_DOUBLE_EQ(features->GetAsDouble(0), 1.5);                  // mean
  EXPECT_NEAR(features->GetAsDouble(1), std::sqrt(1.25), 1e-12);    // std
  EXPECT_DOUBLE_EQ(features->GetAsDouble(2), 0.0);                  // min
  EXPECT_DOUBLE_EQ(features->GetAsDouble(3), 3.0);                  // max
  EXPECT_DOUBLE_EQ(features->GetAsDouble(4), 1.0);                  // mean |dv|
  EXPECT_DOUBLE_EQ(features->GetAsDouble(5), 1.0);                  // max |dv|
}

TEST(WindowFeatures, DerivativeScalesWithDt) {
  NDArray windows = NDArray::Zeros({1, 1, 4}, DType::kF64);
  for (size_t i = 0; i < 4; ++i) {
    windows.SetFromDouble(i, static_cast<double>(i));
  }
  const auto coarse = WindowFeatures(windows, 1.0);
  const auto fine = WindowFeatures(windows, 0.1);
  EXPECT_NEAR(fine->GetAsDouble(5), coarse->GetAsDouble(5) * 10.0, 1e-9);
}

TEST(WindowFeatures, RejectsBadShape) {
  EXPECT_FALSE(WindowFeatures(NDArray::Zeros({4, 4}), 1.0).ok());
  EXPECT_FALSE(WindowFeatures(NDArray::Zeros({1, 1, 1}), 1.0).ok());
}

// ---- typed loop vs the per-element reference ------------------------------

/// WindowFeatures as a GetAsDouble / SetFromDouble loop (what it was
/// before its typed loop); the typed loop must write these bytes exactly.
NDArray ScalarWindowFeatures(const NDArray& windows, double dt) {
  const size_t n = windows.shape()[0];
  const size_t channels = windows.shape()[1];
  const size_t window = windows.shape()[2];
  NDArray out =
      NDArray::Zeros({n, channels * kFeaturesPerChannel}, DType::kF64);
  for (size_t w = 0; w < n; ++w) {
    for (size_t c = 0; c < channels; ++c) {
      double sum = 0, sum_sq = 0;
      double mn = std::numeric_limits<double>::infinity();
      double mx = -mn;
      double dsum = 0, dmax = 0;
      for (size_t k = 0; k < window; ++k) {
        const double x = windows.GetAsDouble((w * channels + c) * window + k);
        sum += x;
        sum_sq += x * x;
        mn = std::min(mn, x);
        mx = std::max(mx, x);
        if (k > 0) {
          const double prev =
              windows.GetAsDouble((w * channels + c) * window + k - 1);
          const double d = std::fabs(x - prev) / dt;
          dsum += d;
          dmax = std::max(dmax, d);
        }
      }
      const double mean = sum / static_cast<double>(window);
      const double var =
          std::max(0.0, sum_sq / static_cast<double>(window) - mean * mean);
      const size_t base = w * channels * kFeaturesPerChannel +
                          c * kFeaturesPerChannel;
      out.SetFromDouble(base + 0, mean);
      out.SetFromDouble(base + 1, std::sqrt(var));
      out.SetFromDouble(base + 2, mn);
      out.SetFromDouble(base + 3, mx);
      out.SetFromDouble(base + 4, dsum / static_cast<double>(window - 1));
      out.SetFromDouble(base + 5, dmax);
    }
  }
  return out;
}

std::vector<std::byte> BytesOf(const NDArray& contiguous) {
  const auto b = contiguous.raw_bytes();
  return {b.begin(), b.end()};
}

TEST(WindowFeatures, TypedLoopMatchesScalarLoop) {
  // [n, channels, window] windows of a noisy signal; the float copies get
  // one NaN cell.
  Rng rng(19);
  NDArray base = NDArray::Zeros({5, 3, 16}, DType::kF64);
  for (size_t i = 0; i < base.numel(); ++i) {
    base.SetFromDouble(i, 40.0 * std::sin(0.3 * static_cast<double>(i)) +
                              rng.Normal(0, 5));
  }
  for (const DType dtype :
       {DType::kF64, DType::kF32, DType::kF16, DType::kI64}) {
    NDArray windows = base.Cast(dtype);
    if (dtype != DType::kI64) windows.SetFromDouble(37, kNaN);
    const auto typed = WindowFeatures(windows, 0.25);
    ASSERT_TRUE(typed.ok()) << DTypeName(dtype);
    EXPECT_EQ(BytesOf(*typed), BytesOf(ScalarWindowFeatures(windows, 0.25)))
        << DTypeName(dtype);
  }
  // Strided views: channels and window swapped back from a [n, window,
  // channels] layout, and a window slice of every row.
  const NDArray swapped = base.Transpose(1, 2).AsContiguous().Transpose(1, 2);
  const NDArray sliced = base.Slice(2, 3, 11);
  for (const NDArray& view : {swapped, sliced}) {
    ASSERT_FALSE(view.IsContiguous());
    const auto typed = WindowFeatures(view, 0.25);
    ASSERT_TRUE(typed.ok());
    EXPECT_EQ(BytesOf(*typed), BytesOf(ScalarWindowFeatures(view, 0.25)));
    EXPECT_EQ(BytesOf(*typed), BytesOf(*WindowFeatures(view.AsContiguous(), 0.25)));
  }
}

}  // namespace
}  // namespace drai::timeseries
