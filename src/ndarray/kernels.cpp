#include "ndarray/kernels.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace drai {

namespace {

void CheckSameShapeDtype(const NDArray& a, const NDArray& b) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument("kernel: shape mismatch");
  }
  if (a.dtype() != b.dtype()) {
    throw std::invalid_argument("kernel: dtype mismatch");
  }
}

NDArray Dense(const NDArray& a) {
  return a.IsContiguous() ? a : a.AsContiguous();
}

template <typename Op>
NDArray Binary(const NDArray& a, const NDArray& b, Op op) {
  CheckSameShapeDtype(a, b);
  const NDArray x = Dense(a);
  const NDArray y = Dense(b);
  NDArray out = NDArray::Zeros(a.shape(), a.dtype());
  VisitDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    const auto px = x.span<T>();
    const auto py = y.span<T>();
    const auto po = out.span<T>();
    for (size_t i = 0; i < po.size(); ++i) {
      // Native float/double arithmetic rounds +, -, * exactly as the
      // through-double path would; other dtypes go through double.
      if constexpr (std::is_floating_point_v<T>) {
        po[i] = op(px[i], py[i]);
      } else {
        po[i] = FromDouble<T>(op(ToDouble(px[i]), ToDouble(py[i])));
      }
    }
  });
  return out;
}

}  // namespace

NDArray Add(const NDArray& a, const NDArray& b) {
  return Binary(a, b, [](auto x, auto y) { return x + y; });
}
NDArray Sub(const NDArray& a, const NDArray& b) {
  return Binary(a, b, [](auto x, auto y) { return x - y; });
}
NDArray Mul(const NDArray& a, const NDArray& b) {
  return Binary(a, b, [](auto x, auto y) { return x * y; });
}

void ScaleShiftInPlace(NDArray& a, double scale, double shift) {
  if (a.IsContiguous() && a.dtype() == DType::kF32) {
    const float fs = static_cast<float>(scale);
    const float fo = static_cast<float>(shift);
    for (float& x : a.span<float>()) x = x * fs + fo;
    return;
  }
  TransformInPlace(a, [scale, shift](double x) { return x * scale + shift; });
}

void MapInPlace(NDArray& a, double (*fn)(double)) { TransformInPlace(a, fn); }

namespace {

/// One compensated (Kahan) summation step.
inline void KahanAdd(double& sum, double& c, double x) {
  const double y = x - c;
  const double t = sum + y;
  c = (t - sum) - y;
  sum = t;
}

/// Kahan means of K consecutive slices of `inner` elements starting at x:
/// the K (sum, c) chains run side by side, each in its slice's order.
template <size_t K, typename T>
void KahanSliceMeans(const T* x, size_t inner, double* out) {
  double sum[K] = {}, c[K] = {};
  for (size_t i = 0; i < inner; ++i) {
    for (size_t k = 0; k < K; ++k) {
      KahanAdd(sum[k], c[k], ToDouble(x[k * inner + i]));
    }
  }
  for (size_t k = 0; k < K; ++k) {
    out[k] = sum[k] / static_cast<double>(inner);
  }
}

}  // namespace

double Sum(const NDArray& a) {
  // Kahan summation: pipelines reduce over 1e8-element fields and plain
  // accumulation loses digits the precision bench would misattribute.
  double sum = 0, c = 0;
  ForEachAsDouble(a, [&](double x) { KahanAdd(sum, c, x); });
  return sum;
}

double Mean(const NDArray& a) {
  const size_t n = a.numel();
  if (n == 0) throw std::invalid_argument("Mean of empty array");
  return Sum(a) / static_cast<double>(n);
}

std::vector<double> SliceMeans(const NDArray& a) {
  if (a.rank() == 0) throw std::invalid_argument("SliceMeans of a scalar");
  const size_t rows = a.shape()[0];
  std::vector<double> means(rows);
  if (rows == 0) return means;
  const size_t inner = a.numel() / rows;
  if (inner == 0) throw std::invalid_argument("Mean of empty array");
  constexpr size_t kLanes = 8;
  const NDArray in = Dense(a);
  VisitDType(in.dtype(), [&](auto tag) {
    const auto* x = in.span<decltype(tag)>().data();
    size_t p = 0;
    for (; p + kLanes <= rows; p += kLanes) {
      KahanSliceMeans<kLanes>(x + p * inner, inner, &means[p]);
    }
    for (; p < rows; ++p) KahanSliceMeans<1>(x + p * inner, inner, &means[p]);
  });
  return means;
}

double Min(const NDArray& a) {
  if (a.numel() == 0) throw std::invalid_argument("Min of empty array");
  double m = std::numeric_limits<double>::infinity();
  bool first = true;
  ForEachAsDouble(a, [&](double x) {
    m = first ? x : std::min(m, x);
    first = false;
  });
  return m;
}

double Max(const NDArray& a) {
  if (a.numel() == 0) throw std::invalid_argument("Max of empty array");
  double m = -std::numeric_limits<double>::infinity();
  bool first = true;
  ForEachAsDouble(a, [&](double x) {
    m = first ? x : std::max(m, x);
    first = false;
  });
  return m;
}

double Variance(const NDArray& a) {
  const size_t n = a.numel();
  if (n == 0) throw std::invalid_argument("Variance of empty array");
  const double mean = Mean(a);
  double acc = 0;
  ForEachAsDouble(a, [&](double x) {
    const double d = x - mean;
    acc += d * d;
  });
  return acc / static_cast<double>(n);
}

size_t CountNaN(const NDArray& a) {
  if (!IsFloating(a.dtype())) return 0;
  size_t count = 0;
  ForEachAsDouble(a, [&](double x) { count += std::isnan(x) ? 1 : 0; });
  return count;
}

namespace {
/// Calls fn(a[i], b[i]) as doubles over two same-shape arrays of any dtypes.
template <typename Fn>
void ZipAsDouble(const NDArray& a, const NDArray& b, const char* what,
                 Fn&& fn) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch");
  }
  const NDArray x = a.Cast(DType::kF64);
  const NDArray y = b.Cast(DType::kF64);
  const auto px = x.span<double>();
  const auto py = y.span<double>();
  for (size_t i = 0; i < px.size(); ++i) fn(px[i], py[i]);
}
}  // namespace

double MaxAbsDiff(const NDArray& a, const NDArray& b) {
  double m = 0;
  ZipAsDouble(a, b, "MaxAbsDiff", [&](double x, double y) {
    m = std::max(m, std::fabs(x - y));
  });
  return m;
}

double RmsDiff(const NDArray& a, const NDArray& b) {
  double acc = 0;
  ZipAsDouble(a, b, "RmsDiff", [&](double x, double y) {
    const double d = x - y;
    acc += d * d;
  });
  const size_t n = a.numel();
  return n == 0 ? 0 : std::sqrt(acc / static_cast<double>(n));
}

}  // namespace drai
