#include "timeseries/signal.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace drai::timeseries {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}

Status Signal::Validate() const {
  if (t.size() != v.size()) {
    return InvalidArgument("signal '" + name + "': t/v length mismatch");
  }
  for (size_t i = 1; i < t.size(); ++i) {
    if (!(t[i] > t[i - 1])) {
      return InvalidArgument("signal '" + name +
                             "': timestamps not strictly increasing");
    }
  }
  return Status::Ok();
}

double Signal::MissingFraction() const {
  if (v.empty()) return 0.0;
  size_t nan = 0;
  for (double x : v) {
    if (std::isnan(x)) ++nan;
  }
  return static_cast<double>(nan) / static_cast<double>(v.size());
}

size_t Despike(Signal& s, double z_threshold) {
  // Median and MAD over finite samples.
  std::vector<double> finite;
  finite.reserve(s.v.size());
  for (double x : s.v) {
    if (std::isfinite(x)) finite.push_back(x);
  }
  if (finite.size() < 3) return 0;
  auto median_of = [](std::vector<double>& v) {
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid), v.end());
    return v[mid];
  };
  const double med = median_of(finite);
  std::vector<double> dev(finite.size());
  for (size_t i = 0; i < finite.size(); ++i) dev[i] = std::fabs(finite[i] - med);
  double mad = median_of(dev);
  if (mad <= 0) return 0;  // constant signal: nothing is a spike
  const double sigma = 1.4826 * mad;  // MAD -> stddev under normality
  size_t replaced = 0;
  for (double& x : s.v) {
    if (std::isfinite(x) && std::fabs(x - med) > z_threshold * sigma) {
      x = kNaN;
      ++replaced;
    }
  }
  return replaced;
}

size_t FillGaps(Signal& s, size_t max_gap_samples) {
  size_t filled = 0;
  const size_t n = s.v.size();
  size_t i = 0;
  while (i < n) {
    if (!std::isnan(s.v[i])) {
      ++i;
      continue;
    }
    // NaN run [i, j).
    size_t j = i;
    while (j < n && std::isnan(s.v[j])) ++j;
    const bool interior = i > 0 && j < n;
    if (interior && (j - i) <= max_gap_samples) {
      const double t0 = s.t[i - 1], v0 = s.v[i - 1];
      const double t1 = s.t[j], v1 = s.v[j];
      for (size_t k = i; k < j; ++k) {
        const double w = (s.t[k] - t0) / (t1 - t0);
        s.v[k] = v0 + w * (v1 - v0);
        ++filled;
      }
    }
    i = j;
  }
  return filled;
}

Result<std::vector<double>> ResampleUniform(const Signal& s, double t0,
                                            double dt, size_t n,
                                            Interp interp) {
  DRAI_RETURN_IF_ERROR(s.Validate());
  if (dt <= 0) return InvalidArgument("ResampleUniform: dt must be > 0");
  std::vector<double> out(n, kNaN);
  if (s.size() == 0) return out;

  size_t cursor = 0;  // first source index with t >= target (advances)
  for (size_t k = 0; k < n; ++k) {
    const double target = t0 + static_cast<double>(k) * dt;
    if (target < s.t.front() || target > s.t.back()) continue;
    while (cursor < s.size() && s.t[cursor] < target) ++cursor;
    // cursor is the first index with t >= target.
    const size_t hi = std::min(cursor, s.size() - 1);
    const size_t lo = cursor == 0 ? 0 : cursor - 1;
    switch (interp) {
      case Interp::kPrevious:
        out[k] = s.v[lo];
        break;
      case Interp::kNearest: {
        const double dlo = std::fabs(target - s.t[lo]);
        const double dhi = std::fabs(s.t[hi] - target);
        out[k] = dlo <= dhi ? s.v[lo] : s.v[hi];
        break;
      }
      case Interp::kLinear: {
        if (hi == lo) {
          out[k] = s.v[lo];
        } else {
          const double w = (target - s.t[lo]) / (s.t[hi] - s.t[lo]);
          out[k] = s.v[lo] + w * (s.v[hi] - s.v[lo]);
        }
        break;
      }
    }
  }
  return out;
}

Result<AlignedFrame> AlignChannels(std::span<const Signal> signals, double dt,
                                   Interp interp) {
  if (signals.empty()) return InvalidArgument("AlignChannels: no signals");
  if (dt <= 0) return InvalidArgument("AlignChannels: dt must be > 0");
  double t_begin = -std::numeric_limits<double>::infinity();
  double t_end = std::numeric_limits<double>::infinity();
  for (const Signal& s : signals) {
    DRAI_RETURN_IF_ERROR(s.Validate());
    if (s.size() == 0) return InvalidArgument("AlignChannels: empty signal");
    t_begin = std::max(t_begin, s.t.front());
    t_end = std::min(t_end, s.t.back());
  }
  if (!(t_end > t_begin)) {
    return FailedPrecondition("AlignChannels: channel spans do not overlap");
  }
  const size_t n = static_cast<size_t>((t_end - t_begin) / dt) + 1;

  AlignedFrame frame;
  frame.t0 = t_begin;
  frame.dt = dt;
  frame.data = NDArray::Zeros({signals.size(), n}, DType::kF64);
  double* out = frame.data.data<double>();
  for (size_t c = 0; c < signals.size(); ++c) {
    frame.channel_names.push_back(signals[c].name);
    DRAI_ASSIGN_OR_RETURN(std::vector<double> row,
                          ResampleUniform(signals[c], t_begin, dt, n, interp));
    std::copy(row.begin(), row.end(), out + c * n);
  }
  return frame;
}

Result<NDArray> SlidingWindows(const AlignedFrame& frame, size_t window,
                               size_t stride, bool drop_missing) {
  if (window == 0 || stride == 0) {
    return InvalidArgument("SlidingWindows: window and stride must be > 0");
  }
  const size_t channels = frame.n_channels();
  const size_t samples = frame.n_samples();
  if (samples < window) {
    return InvalidArgument("SlidingWindows: frame shorter than window");
  }
  const double* src = frame.data.data<double>();
  std::vector<size_t> starts;
  for (size_t s = 0; s + window <= samples; s += stride) {
    if (drop_missing) {
      bool has_nan = false;
      for (size_t c = 0; c < channels && !has_nan; ++c) {
        for (size_t k = 0; k < window; ++k) {
          if (std::isnan(src[c * samples + s + k])) {
            has_nan = true;
            break;
          }
        }
      }
      if (has_nan) continue;
    }
    starts.push_back(s);
  }
  NDArray out = NDArray::Zeros({starts.size(), channels, window}, DType::kF64);
  double* dst = out.data<double>();
  for (size_t w = 0; w < starts.size(); ++w) {
    for (size_t c = 0; c < channels; ++c) {
      std::copy(src + c * samples + starts[w],
                src + c * samples + starts[w] + window,
                dst + (w * channels + c) * window);
    }
  }
  return out;
}

Result<NDArray> WindowFeatures(const NDArray& windows, double dt) {
  if (windows.rank() != 3) {
    return InvalidArgument("WindowFeatures: expected [n, channels, window]");
  }
  if (dt <= 0) return InvalidArgument("WindowFeatures: dt must be > 0");
  const size_t n = windows.shape()[0];
  const size_t channels = windows.shape()[1];
  const size_t window = windows.shape()[2];
  if (window < 2) return InvalidArgument("WindowFeatures: window too short");
  NDArray out =
      NDArray::Zeros({n, channels * kFeaturesPerChannel}, DType::kF64);
  double* dst = out.data<double>();
  const NDArray in = windows.IsContiguous() ? windows : windows.AsContiguous();
  VisitDType(in.dtype(), [&](auto tag) {
    const auto src = in.span<decltype(tag)>();
    for (size_t w = 0; w < n; ++w) {
      for (size_t c = 0; c < channels; ++c) {
        const auto row = src.subspan((w * channels + c) * window, window);
        double sum = 0, sum_sq = 0;
        double mn = std::numeric_limits<double>::infinity();
        double mx = -mn;
        double dsum = 0, dmax = 0;
        for (size_t k = 0; k < window; ++k) {
          const double x = ToDouble(row[k]);
          sum += x;
          sum_sq += x * x;
          mn = std::min(mn, x);
          mx = std::max(mx, x);
          if (k > 0) {
            const double d = std::fabs(x - ToDouble(row[k - 1])) / dt;
            dsum += d;
            dmax = std::max(dmax, d);
          }
        }
        const double mean = sum / static_cast<double>(window);
        const double var =
            std::max(0.0, sum_sq / static_cast<double>(window) - mean * mean);
        double* f = dst + (w * channels + c) * kFeaturesPerChannel;
        f[0] = mean;
        f[1] = std::sqrt(var);
        f[2] = mn;
        f[3] = mx;
        f[4] = dsum / static_cast<double>(window - 1);
        f[5] = dmax;
      }
    }
  });
  return out;
}

}  // namespace drai::timeseries
