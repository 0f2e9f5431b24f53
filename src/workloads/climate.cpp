#include "workloads/climate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <span>
#include <vector>

#include "container/grib_lite.hpp"
#include "container/netcdf_lite.hpp"

namespace drai::workloads {

grid::LatLonGrid ClimateSourceGrid(const ClimateConfig& config) {
  return config.gaussian_grid
             ? grid::LatLonGrid::GaussianLike(config.n_lat, config.n_lon)
             : grid::LatLonGrid::Uniform(config.n_lat, config.n_lon);
}

namespace {
constexpr double kDegToRad = std::numbers::pi / 180.0;

/// Variable-specific base climatology: value as a function of latitude.
double Baseline(const std::string& variable, double lat_deg) {
  const double coslat = std::cos(lat_deg * kDegToRad);
  if (variable == "t2m") return 215.0 + 85.0 * coslat;          // kelvin-ish
  if (variable == "z500") return 49000.0 + 8000.0 * coslat;     // gpm-ish
  if (variable == "u10") return 8.0 * std::sin(3.0 * lat_deg * kDegToRad);
  return 100.0 * coslat;
}

double Amplitude(const std::string& variable) {
  if (variable == "t2m") return 6.0;
  if (variable == "z500") return 400.0;
  if (variable == "u10") return 4.0;
  return 10.0;
}
}  // namespace

std::vector<ClimateField> GenerateClimateFields(const ClimateConfig& config) {
  const grid::LatLonGrid g = ClimateSourceGrid(config);
  Rng rng(config.seed);
  std::vector<ClimateField> out;
  out.reserve(config.n_times * config.variables.size());

  for (const std::string& variable : config.variables) {
    // Per-variable wave set, shared across times so fields evolve smoothly.
    struct Wave {
      int k_lon;
      int k_lat;
      double phase;
      double speed;
      double amp;
    };
    std::vector<Wave> waves;
    for (int w = 0; w < 6; ++w) {
      waves.push_back({static_cast<int>(rng.UniformU64(5)) + 1,
                       static_cast<int>(rng.UniformU64(4)) + 1,
                       rng.Uniform(0, 2 * std::numbers::pi),
                       rng.Uniform(-0.3, 0.3),
                       Amplitude(variable) * rng.Uniform(0.3, 1.0)});
    }
    Rng dropout_rng = rng.Split();
    // Same-order rule: every cell is computed from the same expressions,
    // summed wave by wave in the same order, as the per-cell form
    //   v = Baseline(lat) + sum_w amp_w * sin(k_lon_w * (lon + speed_w * t)
    //                                          + phase_w)
    //                                   * cos(k_lat_w * lat * kDegToRad)
    // evaluated as v = baseline; v += (amp_w * sin_w) * cos_w for w = 0..5.
    // Only terms invariant along a loop are hoisted out of it: the baseline
    // and cos terms per row, the sin terms per (time, column). The sin table
    // is stored [wave][column], so each row starts at its baseline and takes
    // one wave at a time over a contiguous column loop; every cell still
    // sees the same additions in the same order, and per-lane SSE2/AVX
    // arithmetic is IEEE-exact, so vectorising that loop moves no bit.
    // Dropout draws are taken in a second pass over the row, in the same
    // cell order, so the Rng stream is consumed exactly as a per-cell draw.
    // Output bytes are pinned (tests/test_golden.cpp), so recurrences for
    // the trig terms, -ffast-math, FMA contraction and vectorised sin are
    // all off limits: each changes low bits.
    const size_t n_lat = g.n_lat();
    const size_t n_lon = g.n_lon();
    const size_t n_waves = waves.size();
    std::vector<double> baseline(n_lat);
    std::vector<double> cos_lat(n_lat * n_waves);  // [row][wave]
    for (size_t i = 0; i < n_lat; ++i) {
      const double lat = g.lat(i);
      baseline[i] = Baseline(variable, lat);
      for (size_t k = 0; k < n_waves; ++k) {
        cos_lat[i * n_waves + k] = std::cos(waves[k].k_lat * lat * kDegToRad);
      }
    }
    std::vector<double> lon_rad(n_lon);
    for (size_t j = 0; j < n_lon; ++j) lon_rad[j] = g.lon(j) * kDegToRad;
    std::vector<double> sin_lon(n_waves * n_lon);  // [wave][column]
    for (size_t t = 0; t < config.n_times; ++t) {
      for (size_t k = 0; k < n_waves; ++k) {
        const Wave& w = waves[k];
        double* s = &sin_lon[k * n_lon];
        for (size_t j = 0; j < n_lon; ++j) {
          s[j] = std::sin(
              w.k_lon * (lon_rad[j] + w.speed * static_cast<double>(t)) +
              w.phase);
        }
      }
      ClimateField f;
      f.variable = variable;
      f.valid_time = static_cast<int64_t>(t) * 21600;  // 6-hourly
      f.field = NDArray::Zeros({n_lat, n_lon}, DType::kF64);
      double* cells = f.field.span<double>().data();
      for (size_t i = 0; i < n_lat; ++i) {
        double* row = cells + i * n_lon;
        std::fill(row, row + n_lon, baseline[i]);
        for (size_t k = 0; k < n_waves; ++k) {
          const double amp = waves[k].amp;
          const double c = cos_lat[i * n_waves + k];
          const double* s = &sin_lon[k * n_lon];
          for (size_t j = 0; j < n_lon; ++j) row[j] += amp * s[j] * c;
        }
        if (config.missing_prob > 0) {
          for (size_t j = 0; j < n_lon; ++j) {
            if (dropout_rng.Bernoulli(config.missing_prob)) {
              row[j] = std::numeric_limits<double>::quiet_NaN();
            }
          }
        }
      }
      out.push_back(std::move(f));
    }
  }
  return out;
}

Bytes GenerateClimateNetcdf(const ClimateConfig& config) {
  const std::vector<ClimateField> fields = GenerateClimateFields(config);
  const grid::LatLonGrid g = ClimateSourceGrid(config);
  container::NcFile nc;
  nc.SetGlobalAttr("institution",
                   container::AttrValue::String("drai synthetic"));
  nc.SetGlobalAttr("grid", container::AttrValue::String(
                               config.gaussian_grid ? "gaussian-like"
                                                    : "uniform"));
  nc.AddDimension("time", config.n_times).OrDie();
  nc.AddDimension("lat", config.n_lat).OrDie();
  nc.AddDimension("lon", config.n_lon).OrDie();

  // Coordinate variables.
  container::NcVariable lat;
  lat.name = "lat";
  lat.dims = {"lat"};
  lat.data = NDArray::Zeros({config.n_lat}, DType::kF64);
  const std::span<double> lats = lat.data.span<double>();
  for (size_t i = 0; i < config.n_lat; ++i) lats[i] = g.lat(i);
  lat.attrs["units"] = container::AttrValue::String("degrees_north");
  nc.AddVariable(std::move(lat)).OrDie();

  for (const std::string& var : config.variables) {
    container::NcVariable v;
    v.name = var;
    v.dims = {"time", "lat", "lon"};
    v.data = NDArray::Zeros({config.n_times, config.n_lat, config.n_lon},
                            DType::kF64);
    size_t t = 0;
    for (const ClimateField& f : fields) {
      if (f.variable != var) continue;
      NDArray slot = v.data.Slice(0, t, t + 1)
                         .Reshape({config.n_lat, config.n_lon});
      slot.CopyFrom(f.field);
      ++t;
    }
    v.attrs["units"] = container::AttrValue::String(
        var == "t2m" ? "K" : var == "z500" ? "gpm" : "m s-1");
    nc.AddVariable(std::move(v)).OrDie();
  }
  return nc.Serialize();
}

Bytes GenerateClimateGrib(const ClimateConfig& config) {
  const std::vector<ClimateField> fields = GenerateClimateFields(config);
  Bytes file;
  for (const ClimateField& f : fields) {
    container::GribMessage msg;
    msg.variable = f.variable;
    msg.valid_time = f.valid_time;
    msg.level_hpa = f.variable == "z500" ? 500 : 0;
    msg.bits = 16;
    msg.field = f.field;
    container::AppendGribMessage(file, msg).OrDie();
  }
  return file;
}

}  // namespace drai::workloads
