#include "graph/structure.hpp"

#include <algorithm>
#include <cmath>

namespace drai::graph {

namespace {
Vec3 Cross(const Vec3& a, const Vec3& b) {
  return {a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
          a[0] * b[1] - a[1] * b[0]};
}
double Dot(const Vec3& a, const Vec3& b) {
  return a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
}
double Norm(const Vec3& a) { return std::sqrt(Dot(a, a)); }
}  // namespace

Status Structure::Validate() const {
  if (frac_coords.size() != atomic_numbers.size()) {
    return InvalidArgument("structure '" + id +
                           "': coords/atomic_numbers length mismatch");
  }
  if (frac_coords.empty()) {
    return InvalidArgument("structure '" + id + "': no atoms");
  }
  const auto finite = [](const Vec3& v) {
    return std::isfinite(v[0]) && std::isfinite(v[1]) && std::isfinite(v[2]);
  };
  if (!std::all_of(lattice.begin(), lattice.end(), finite) ||
      !std::all_of(frac_coords.begin(), frac_coords.end(), finite)) {
    return InvalidArgument("structure '" + id + "': non-finite coordinate");
  }
  if (Volume() <= 1e-9) {
    return InvalidArgument("structure '" + id + "': degenerate lattice");
  }
  for (int z : atomic_numbers) {
    if (z < 1 || z > 118) {
      return InvalidArgument("structure '" + id + "': bad atomic number");
    }
  }
  return Status::Ok();
}

Vec3 Structure::Cartesian(size_t i) const {
  const Vec3& f = frac_coords[i];
  Vec3 out{};
  for (int d = 0; d < 3; ++d) {
    out[static_cast<size_t>(d)] = f[0] * lattice[0][static_cast<size_t>(d)] +
                                  f[1] * lattice[1][static_cast<size_t>(d)] +
                                  f[2] * lattice[2][static_cast<size_t>(d)];
  }
  return out;
}

double Structure::Volume() const {
  return std::fabs(Dot(lattice[0], Cross(lattice[1], lattice[2])));
}

Result<std::vector<Neighbor>> BuildNeighborList(const Structure& s,
                                                double cutoff) {
  DRAI_RETURN_IF_ERROR(s.Validate());
  if (!std::isfinite(cutoff) || cutoff <= 0) {
    return InvalidArgument("cutoff must be finite and > 0");
  }

  // Image k along lattice direction d puts atom j at least
  // |df_d + k| * spacing_d from atom i, where df_d is their fractional
  // offset and spacing_d = V / |cross of the other two| the distance
  // between lattice planes. `reach` bounds k over every pair; `slack` is
  // the per-pair bound in units of spacing_d, widened by a margin no float
  // rounding of d2 can cross, so only images proven out of range are
  // skipped.
  const double volume = s.Volume();
  std::array<int, 3> reach{};
  std::array<double, 3> slack{};
  const double margin = cutoff * (1 + 1e-9) + 1e-9;
  for (int d = 0; d < 3; ++d) {
    const Vec3& u = s.lattice[static_cast<size_t>((d + 1) % 3)];
    const Vec3& v = s.lattice[static_cast<size_t>((d + 2) % 3)];
    const double face = Norm(Cross(u, v));
    const double spacing = volume / face;
    const double images = std::ceil(cutoff / spacing);
    // Neighbor::image is int8_t; NaN fails the test too.
    if (!(images <= 127)) {
      return InvalidArgument("cutoff needs more than 127 periodic images");
    }
    reach[static_cast<size_t>(d)] = static_cast<int>(images);
    slack[static_cast<size_t>(d)] = margin / spacing;
  }

  const size_t n = s.NumAtoms();
  std::vector<Vec3> cart(n);
  for (size_t i = 0; i < n; ++i) cart[i] = s.Cartesian(i);

  // [lo, hi] of the images of axis d that can hold a neighbor for
  // fractional offset df, clamped to [-reach, reach] before the int cast.
  const auto image_range = [&](int d, double df) -> std::array<int, 2> {
    const double r = reach[static_cast<size_t>(d)];
    const double t = slack[static_cast<size_t>(d)];
    const double lo = std::max(-r, std::ceil(-t - df));
    const double hi = std::min(r, std::floor(t - df));
    if (!(lo <= hi)) return {1, 0};
    return {static_cast<int>(lo), static_cast<int>(hi)};
  };

  std::vector<Neighbor> edges;
  const double cutoff_sq = cutoff * cutoff;
  const Mat3& l = s.lattice;
  for (size_t i = 0; i < n; ++i) {
    const Vec3& fi = s.frac_coords[i];
    for (size_t j = 0; j < n; ++j) {
      const Vec3& fj = s.frac_coords[j];
      const auto [a_lo, a_hi] = image_range(0, fj[0] - fi[0]);
      const auto [b_lo, b_hi] = image_range(1, fj[1] - fi[1]);
      const auto [c_lo, c_hi] = image_range(2, fj[2] - fi[2]);
      // shifted = cart[j] + ia*a + ib*b + ic*c, summed left to right with
      // each prefix hoisted out of the loops it does not depend on.
      for (int ia = a_lo; ia <= a_hi; ++ia) {
        Vec3 pa{};
        for (size_t d = 0; d < 3; ++d) pa[d] = cart[j][d] + ia * l[0][d];
        for (int ib = b_lo; ib <= b_hi; ++ib) {
          Vec3 pb{};
          for (size_t d = 0; d < 3; ++d) pb[d] = pa[d] + ib * l[1][d];
          for (int ic = c_lo; ic <= c_hi; ++ic) {
            if (i == j && ia == 0 && ib == 0 && ic == 0) continue;
            const double dx = (pb[0] + ic * l[2][0]) - cart[i][0];
            const double dy = (pb[1] + ic * l[2][1]) - cart[i][1];
            const double dz = (pb[2] + ic * l[2][2]) - cart[i][2];
            const double d2 = dx * dx + dy * dy + dz * dz;
            if (d2 <= cutoff_sq) {
              edges.push_back({static_cast<uint32_t>(i),
                               static_cast<uint32_t>(j), std::sqrt(d2),
                               {static_cast<int8_t>(ia),
                                static_cast<int8_t>(ib),
                                static_cast<int8_t>(ic)}});
            }
          }
        }
      }
    }
  }
  return edges;
}

double MeanDegree(const std::vector<Neighbor>& edges, size_t num_atoms) {
  if (num_atoms == 0) return 0.0;
  return static_cast<double>(edges.size()) / static_cast<double>(num_atoms);
}

}  // namespace drai::graph
