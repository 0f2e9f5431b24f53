#include "grid/latlon.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <type_traits>

#include "ndarray/kernels.hpp"

namespace drai::grid {

namespace {
constexpr double kDegToRad = std::numbers::pi / 180.0;
}

LatLonGrid::LatLonGrid(std::vector<double> lats, size_t n_lon)
    : lats_(std::move(lats)), n_lon_(n_lon) {
  if (lats_.size() < 2 || n_lon_ < 2) {
    throw std::invalid_argument("LatLonGrid: need at least 2x2 cells");
  }
  // Edges: midpoints between centers, clamped at the poles.
  edges_.resize(lats_.size() + 1);
  edges_.front() = -90.0;
  edges_.back() = 90.0;
  for (size_t i = 1; i < lats_.size(); ++i) {
    edges_[i] = 0.5 * (lats_[i - 1] + lats_[i]);
  }
}

LatLonGrid LatLonGrid::Uniform(size_t n_lat, size_t n_lon) {
  std::vector<double> lats(n_lat);
  const double step = 180.0 / static_cast<double>(n_lat);
  for (size_t i = 0; i < n_lat; ++i) {
    lats[i] = -90.0 + (static_cast<double>(i) + 0.5) * step;
  }
  return LatLonGrid(std::move(lats), n_lon);
}

LatLonGrid LatLonGrid::GaussianLike(size_t n_lat, size_t n_lon) {
  std::vector<double> lats(n_lat);
  for (size_t i = 0; i < n_lat; ++i) {
    // Uniform in sin(lat): cell centers of equal-area bands.
    const double s =
        -1.0 + (2.0 * (static_cast<double>(i) + 0.5)) / static_cast<double>(n_lat);
    lats[i] = std::asin(s) / kDegToRad;
  }
  return LatLonGrid(std::move(lats), n_lon);
}

double LatLonGrid::lon(size_t j) const {
  return 360.0 * static_cast<double>(j) / static_cast<double>(n_lon_);
}

double LatLonGrid::CellArea(size_t i_lat) const {
  // Proportional true cell area: (sin(edge_hi) - sin(edge_lo)) * dlon.
  const double lo = edges_[i_lat] * kDegToRad;
  const double hi = edges_[i_lat + 1] * kDegToRad;
  return (std::sin(hi) - std::sin(lo)) / static_cast<double>(n_lon_);
}

bool LatLonGrid::SameAs(const LatLonGrid& other) const {
  return lats_ == other.lats_ && n_lon_ == other.n_lon_;
}

std::string_view RegridMethodName(RegridMethod m) {
  switch (m) {
    case RegridMethod::kNearest: return "nearest";
    case RegridMethod::kBilinear: return "bilinear";
    case RegridMethod::kConservative: return "conservative";
  }
  return "?";
}

namespace {

// Index of the source latitude center nearest to `lat`.
size_t NearestLat(const LatLonGrid& g, double lat) {
  size_t best = 0;
  double best_d = 1e300;
  for (size_t i = 0; i < g.n_lat(); ++i) {
    const double d = std::fabs(g.lat(i) - lat);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

// Bracketing lat centers and interpolation weight for `lat`; clamps at the
// poles (constant extrapolation).
void LatBracket(const LatLonGrid& g, double lat, size_t& i0, size_t& i1,
                double& w1) {
  if (lat <= g.lat(0)) {
    i0 = i1 = 0;
    w1 = 0;
    return;
  }
  if (lat >= g.lat(g.n_lat() - 1)) {
    i0 = i1 = g.n_lat() - 1;
    w1 = 0;
    return;
  }
  size_t hi = 1;
  while (g.lat(hi) < lat) ++hi;
  i0 = hi - 1;
  i1 = hi;
  w1 = (lat - g.lat(i0)) / (g.lat(i1) - g.lat(i0));
}

// Bracketing lon centers (periodic) and weight.
void LonBracket(const LatLonGrid& g, double lon, size_t& j0, size_t& j1,
                double& w1) {
  const double dlon = 360.0 / static_cast<double>(g.n_lon());
  double x = lon / dlon;
  const double fl = std::floor(x);
  w1 = x - fl;
  const int64_t base = static_cast<int64_t>(fl);
  const int64_t n = static_cast<int64_t>(g.n_lon());
  j0 = static_cast<size_t>(((base % n) + n) % n);
  j1 = static_cast<size_t>((((base + 1) % n) + n) % n);
}

// Overlap of [a0, a1] and [b0, b1].
double Overlap1D(double a0, double a1, double b0, double b1) {
  return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
}

// Longitude interval overlap on the periodic [0, 360) circle.
double LonOverlap(double a0, double a1, double b0, double b1) {
  double total = 0;
  for (int shift = -1; shift <= 1; ++shift) {
    total += Overlap1D(a0, a1, b0 + 360.0 * shift, b1 + 360.0 * shift);
  }
  return total;
}

// One regrid loop per floating storage type T: the source is read through
// ToDouble, all arithmetic is in double, and the result is stored through
// FromDouble<T>, the conversions of GetAsDouble / SetFromDouble.
template <typename T>
void RegridTyped(std::span<const T> in, const LatLonGrid& src,
                 const LatLonGrid& dst, RegridMethod method,
                 std::span<T> out) {
  const size_t sn_lon = src.n_lon();
  const size_t dn_lon = dst.n_lon();
  auto src_at = [&](size_t i, size_t j) {
    return ToDouble(in[i * sn_lon + j]);
  };

  switch (method) {
    case RegridMethod::kNearest: {
      const double dlon_src = 360.0 / static_cast<double>(sn_lon);
      for (size_t i = 0; i < dst.n_lat(); ++i) {
        const size_t si = NearestLat(src, dst.lat(i));
        for (size_t j = 0; j < dn_lon; ++j) {
          const double lon = dst.lon(j);
          size_t sj = static_cast<size_t>(std::lround(lon / dlon_src)) % sn_lon;
          out[i * dn_lon + j] = FromDouble<T>(src_at(si, sj));
        }
      }
      break;
    }
    case RegridMethod::kBilinear: {
      // Longitude brackets depend on the column only.
      std::vector<size_t> j0(dn_lon), j1(dn_lon);
      std::vector<double> wlon(dn_lon);
      for (size_t j = 0; j < dn_lon; ++j) {
        LonBracket(src, dst.lon(j), j0[j], j1[j], wlon[j]);
      }
      for (size_t i = 0; i < dst.n_lat(); ++i) {
        size_t i0, i1;
        double wlat;
        LatBracket(src, dst.lat(i), i0, i1, wlat);
        for (size_t j = 0; j < dn_lon; ++j) {
          const double v00 = src_at(i0, j0[j]);
          const double v01 = src_at(i0, j1[j]);
          const double v10 = src_at(i1, j0[j]);
          const double v11 = src_at(i1, j1[j]);
          const double w = wlon[j];
          const double v = (1 - wlat) * ((1 - w) * v00 + w * v01) +
                           wlat * ((1 - w) * v10 + w * v11);
          out[i * dn_lon + j] = FromDouble<T>(v);
        }
      }
      break;
    }
    case RegridMethod::kConservative: {
      const double sdlon = 360.0 / static_cast<double>(sn_lon);
      const double ddlon = 360.0 / static_cast<double>(dn_lon);
      // Longitude overlaps depend on (destination column, source column)
      // only. Kept in ascending source column: that is the summation order.
      std::vector<std::vector<std::pair<size_t, double>>> lon_overlaps(dn_lon);
      for (size_t j = 0; j < dn_lon; ++j) {
        const double dl0 = dst.lon(j) - 0.5 * ddlon;
        const double dl1 = dst.lon(j) + 0.5 * ddlon;
        for (size_t sj = 0; sj < sn_lon; ++sj) {
          const double sl0 = src.lon(sj) - 0.5 * sdlon;
          const double sl1 = src.lon(sj) + 0.5 * sdlon;
          const double wlon = LonOverlap(sl0, sl1, dl0, dl1);
          if (wlon > 0) lon_overlaps[j].emplace_back(sj, wlon);
        }
      }
      // For each destination cell, accumulate area-weighted source values
      // over overlapping bands.
      for (size_t i = 0; i < dst.n_lat(); ++i) {
        const double dsin0 = std::sin(dst.lat_edges()[i] * kDegToRad);
        const double dsin1 = std::sin(dst.lat_edges()[i + 1] * kDegToRad);
        // Source latitude bands overlapping this destination band.
        std::vector<std::pair<size_t, double>> lat_overlaps;
        for (size_t si = 0; si < src.n_lat(); ++si) {
          const double ssin0 = std::sin(src.lat_edges()[si] * kDegToRad);
          const double ssin1 = std::sin(src.lat_edges()[si + 1] * kDegToRad);
          const double ov = Overlap1D(ssin0, ssin1, dsin0, dsin1);
          if (ov > 0) lat_overlaps.emplace_back(si, ov);
        }
        for (size_t j = 0; j < dn_lon; ++j) {
          double num = 0, den = 0;
          for (const auto& [si, wlat] : lat_overlaps) {
            for (const auto& [sj, wlon] : lon_overlaps[j]) {
              const double v = src_at(si, sj);
              if (std::isnan(v)) continue;  // missing source cell
              const double w = wlat * wlon;
              num += w * v;
              den += w;
            }
          }
          out[i * dn_lon + j] = FromDouble<T>(
              den > 0 ? num / den : std::numeric_limits<double>::quiet_NaN());
        }
      }
      break;
    }
  }
}

}  // namespace

Result<NDArray> Regrid(const NDArray& field, const LatLonGrid& src,
                       const LatLonGrid& dst, RegridMethod method) {
  if (field.rank() != 2 || field.shape()[0] != src.n_lat() ||
      field.shape()[1] != src.n_lon()) {
    return InvalidArgument("Regrid: field shape does not match source grid");
  }
  if (!IsFloating(field.dtype())) {
    return InvalidArgument("Regrid: floating dtypes only");
  }
  const NDArray in = field.IsContiguous() ? field : field.AsContiguous();
  NDArray out = NDArray::Zeros({dst.n_lat(), dst.n_lon()}, field.dtype());
  VisitDType(field.dtype(), [&](auto tag) {
    using T = decltype(tag);
    if constexpr (std::is_floating_point_v<T> || std::is_same_v<T, Half>) {
      RegridTyped<T>(in.span<T>(), src, dst, method, out.span<T>());
    }
  });
  return out;
}

Result<double> AreaWeightedMean(const NDArray& field, const LatLonGrid& g) {
  if (field.rank() != 2 || field.shape()[0] != g.n_lat() ||
      field.shape()[1] != g.n_lon()) {
    return InvalidArgument("AreaWeightedMean: shape mismatch");
  }
  std::vector<double> area(g.n_lat());
  for (size_t i = 0; i < g.n_lat(); ++i) area[i] = g.CellArea(i);
  double num = 0, den = 0;
  size_t cell = 0;
  ForEachAsDouble(field, [&](double v) {
    const double w = area[cell++ / g.n_lon()];
    if (std::isnan(v)) return;
    num += w * v;
    den += w;
  });
  if (den == 0) return InvalidArgument("AreaWeightedMean: all missing");
  return num / den;
}

Result<NDArray> ExtractPatches(const NDArray& field, size_t ph, size_t pw) {
  if (ph == 0 || pw == 0) return InvalidArgument("ExtractPatches: zero patch");
  NDArray input = field.IsContiguous() ? field : field.AsContiguous();
  if (input.rank() == 2) {
    input = input.Reshape({1, input.shape()[0], input.shape()[1]});
  }
  if (input.rank() != 3) {
    return InvalidArgument("ExtractPatches: rank must be 2 or 3");
  }
  const size_t channels = input.shape()[0];
  const size_t h = input.shape()[1];
  const size_t w = input.shape()[2];
  const size_t py = h / ph;
  const size_t px = w / pw;
  if (py == 0 || px == 0) {
    return InvalidArgument("ExtractPatches: patch larger than field");
  }
  NDArray out = NDArray::Zeros({py * px, channels, ph, pw}, input.dtype());
  // Every patch row is a contiguous run of pw elements in the input, so
  // the copy is a memcpy per row for any dtype.
  const size_t esize = DTypeSize(input.dtype());
  const size_t row_bytes = pw * esize;
  const std::byte* src = input.raw_bytes().data();
  std::byte* dst = out.raw_bytes_mut().data();
  for (size_t by = 0; by < py; ++by) {
    for (size_t bx = 0; bx < px; ++bx) {
      for (size_t c = 0; c < channels; ++c) {
        for (size_t y = 0; y < ph; ++y, dst += row_bytes) {
          const size_t first = c * h * w + (by * ph + y) * w + bx * pw;
          std::memcpy(dst, src + first * esize, row_bytes);
        }
      }
    }
  }
  return out;
}

}  // namespace drai::grid
