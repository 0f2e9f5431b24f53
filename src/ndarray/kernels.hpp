// drai/ndarray/kernels.hpp
//
// Elementwise and reduction kernels over NDArray.
//
// Typed-access rule: a kernel dispatches on dtype once per array
// (VisitDType), takes the array as span<T>() (a non-contiguous view goes
// through AsContiguous() first) and runs one loop templated on T, with the
// element conversions ToDouble / FromDouble<T>. Those are exactly the
// conversions of NDArray::GetAsDouble / SetFromDouble, so the typed loop
// writes the bytes the per-element path would. GetAsDouble/SetFromDouble
// stay for generic and test code only; no kernel loops over them.
// ForEachAsDouble and TransformInPlace below package the rule for callers
// outside this module (normalizer sweeps, codecs, quality assessment).
// Independent chains run side by side; each chain keeps its order. A
// reduction over many slices (SliceMeans) or features
// (stats::RunningStats::AddInterleaved) advances several accumulators in
// one loop, each through exactly the operations it would see alone, so
// the result bits do not depend on the interleave.
#pragma once

#include <vector>

#include "ndarray/ndarray.hpp"

namespace drai {

/// Calls fn(x) for every element of `a` as a double, in row-major order.
template <typename Fn>
void ForEachAsDouble(const NDArray& a, Fn&& fn) {
  const NDArray in = a.IsContiguous() ? a : a.AsContiguous();
  VisitDType(in.dtype(), [&](auto tag) {
    for (const auto x : in.span<decltype(tag)>()) fn(ToDouble(x));
  });
}

/// a[i] = fn(a[i]) through double, in row-major order. Honors views.
template <typename Fn>
void TransformInPlace(NDArray& a, Fn&& fn) {
  if (!a.IsContiguous()) {
    NDArray dense = a.AsContiguous();
    TransformInPlace(dense, fn);
    a.CopyFrom(dense);
    return;
  }
  VisitDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    for (T& x : a.span<T>()) x = FromDouble<T>(fn(ToDouble(x)));
  });
}

/// out[i] = a[i] + b[i]; shapes and dtypes must match. Returns a new
/// contiguous array.
NDArray Add(const NDArray& a, const NDArray& b);
NDArray Sub(const NDArray& a, const NDArray& b);
NDArray Mul(const NDArray& a, const NDArray& b);

/// In-place scalar affine: a[i] = a[i] * scale + shift. Honors views.
void ScaleShiftInPlace(NDArray& a, double scale, double shift);

/// Elementwise map via double: a[i] = fn(a[i]).
void MapInPlace(NDArray& a, double (*fn)(double));

/// Reductions over the whole array (any view, any dtype).
double Sum(const NDArray& a);
double Mean(const NDArray& a);
/// Mean of every slice along axis 0: out[p] is bit-identical to
/// Mean(a.Slice(0, p, p + 1)), computed in one pass for all p.
std::vector<double> SliceMeans(const NDArray& a);
double Min(const NDArray& a);
double Max(const NDArray& a);
/// Population variance.
double Variance(const NDArray& a);

/// Count of NaN elements (floating dtypes; zero otherwise).
size_t CountNaN(const NDArray& a);

/// Largest absolute elementwise difference |a-b| (shape must match; dtypes
/// may differ — used for precision-loss measurements).
double MaxAbsDiff(const NDArray& a, const NDArray& b);
/// Root-mean-square elementwise difference.
double RmsDiff(const NDArray& a, const NDArray& b);

}  // namespace drai
