#include "codec/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ndarray/kernels.hpp"

namespace drai::codec {

NarrowResult NarrowRoundTrip(const NDArray& input, DType target) {
  if (!IsFloating(input.dtype()) || !IsFloating(target)) {
    throw std::invalid_argument("NarrowRoundTrip: floating dtypes only");
  }
  NarrowResult out;
  const NDArray narrow = input.Cast(target);
  out.round_tripped = narrow.Cast(input.dtype());
  out.error.max_abs = MaxAbsDiff(input, out.round_tripped);
  out.error.rms = RmsDiff(input, out.round_tripped);
  const double range = input.numel() ? Max(input) - Min(input) : 0.0;
  out.error.relative_to_range = range > 0 ? out.error.max_abs / range : 0.0;
  return out;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sums the error of a linear-pack round trip, value by value in input
/// order. Non-finite inputs are skipped branch-free: they add a zero `d`,
/// and `acc + 0.0 == acc` and `max(m, 0.0) == m` for the non-negative
/// partial results, so the sums match a loop that `continue`s past them.
struct ErrorSum {
  double max_abs = 0;
  double acc = 0;
  size_t n = 0;

  void Add(double v, double restored) {
    const bool finite = std::isfinite(v);
    const double d = finite ? std::fabs(v - restored) : 0.0;
    max_abs = std::max(max_abs, d);
    acc += d * d;
    n += finite;
  }
  /// `lo`/`hi`: the finite range of the input; relative_to_range is 0
  /// unless hi > lo.
  [[nodiscard]] QuantError Finish(double lo, double hi) const {
    QuantError e;
    e.max_abs = max_abs;
    e.rms = n ? std::sqrt(acc / static_cast<double>(n)) : 0.0;
    e.relative_to_range = (hi > lo) ? max_abs / (hi - lo) : 0.0;
    return e;
  }
};

/// Quantizes `values` into `out` (presized to values.size()) and returns
/// the round-trip error, both in one pass.
template <typename Q>
QuantError PackInto(std::span<const double> values, double offset,
                    double scale, uint32_t levels, double lo, double hi,
                    Q* out) {
  const double top = static_cast<double>(levels);
  ErrorSum err;
  for (size_t i = 0; i < values.size(); ++i) {
    const double v = values[i];
    const double q = std::clamp((v - offset) / scale, 0.0, top);
    // NaN/inf sentinel: saturate. Selected before the cast, so a NaN
    // quotient is never converted to an integer.
    const double c = std::isfinite(v) ? q : top;
    const Q quantum = static_cast<Q>(static_cast<uint32_t>(c + 0.5));
    out[i] = quantum;
    err.Add(v, offset + scale * static_cast<double>(quantum));
  }
  return err.Finish(lo, hi);
}

}  // namespace

Result<LinearPack> LinearQuantize(std::span<const double> values,
                                  uint8_t bits) {
  if (bits != 8 && bits != 16) {
    return InvalidArgument("LinearQuantize: bits must be 8 or 16");
  }
  LinearPack pack;
  pack.bits = bits;
  pack.count = values.size();
  // Range over finite values only. The fast scan keeps 4 independent
  // min/max chains; std::min/std::max skip a NaN on their own (it compares
  // false), so only an infinity needs the second, filtered scan. Min and max
  // are exact in any order, except that -0.0 == +0.0: a minimum of zero is
  // resolved to the first zero in input order, which is what one sequential
  // std::min scan keeps. The maximum's sign of zero never reaches the output
  // (only hi - lo and hi > lo use it).
  const size_t n = values.size();
  double lo0 = kInf, lo1 = kInf, lo2 = kInf, lo3 = kInf;
  double hi0 = -kInf, hi1 = -kInf, hi2 = -kInf, hi3 = -kInf;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lo0 = std::min(lo0, values[i]);
    hi0 = std::max(hi0, values[i]);
    lo1 = std::min(lo1, values[i + 1]);
    hi1 = std::max(hi1, values[i + 1]);
    lo2 = std::min(lo2, values[i + 2]);
    hi2 = std::max(hi2, values[i + 2]);
    lo3 = std::min(lo3, values[i + 3]);
    hi3 = std::max(hi3, values[i + 3]);
  }
  for (; i < n; ++i) {
    lo0 = std::min(lo0, values[i]);
    hi0 = std::max(hi0, values[i]);
  }
  double lo = std::min(std::min(lo0, lo1), std::min(lo2, lo3));
  double hi = std::max(std::max(hi0, hi1), std::max(hi2, hi3));
  if (std::isinf(lo) || std::isinf(hi)) {  // an infinity, or no finite value
    lo = kInf;
    hi = -kInf;
    for (double v : values) {
      if (!std::isfinite(v)) continue;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (lo == 0.0) {
    for (double v : values) {
      if (v == 0.0) {
        lo = v;
        break;
      }
    }
  }
  if (!(lo <= hi)) {  // no finite values
    lo = 0;
    hi = 0;
  }
  if (!std::isfinite(hi - lo)) {
    return InvalidArgument("LinearQuantize: value range exceeds DBL_MAX");
  }
  const uint32_t levels = bits == 8 ? 255u : 65535u;
  pack.offset = lo;
  pack.scale = hi > lo ? (hi - lo) / static_cast<double>(levels) : 1.0;
  if (bits == 8) {
    pack.packed8.resize(n);
    pack.error = PackInto(values, pack.offset, pack.scale, levels, lo, hi,
                          pack.packed8.data());
  } else {
    pack.packed16.resize(n);
    pack.error = PackInto(values, pack.offset, pack.scale, levels, lo, hi,
                          pack.packed16.data());
  }
  return pack;
}

std::vector<double> LinearDequantize(const LinearPack& pack) {
  std::vector<double> out;
  out.reserve(pack.count);
  if (pack.bits == 8) {
    for (uint8_t q : pack.packed8) {
      out.push_back(pack.offset + pack.scale * static_cast<double>(q));
    }
  } else {
    for (uint16_t q : pack.packed16) {
      out.push_back(pack.offset + pack.scale * static_cast<double>(q));
    }
  }
  return out;
}

QuantError MeasureLinearError(std::span<const double> values,
                              const LinearPack& pack) {
  const auto measure = [&](const auto& quanta) {
    double lo = kInf;
    double hi = -kInf;
    ErrorSum err;
    const size_t n = std::min(values.size(), quanta.size());
    for (size_t i = 0; i < n; ++i) {
      const double v = values[i];
      err.Add(v, pack.offset + pack.scale * static_cast<double>(quanta[i]));
      if (std::isfinite(v)) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    return err.Finish(lo, hi);
  };
  return pack.bits == 8 ? measure(pack.packed8) : measure(pack.packed16);
}

}  // namespace drai::codec
