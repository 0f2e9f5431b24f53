// drai/graph/structure.hpp
//
// Crystal structures and periodic neighbor search — the materials archetype
// (§3.4): parse simulation outputs, build the neighbor graph under periodic
// boundary conditions, and encode it for GNN training (HydraGNN/OMat24
// style).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace drai::graph {

using Vec3 = std::array<double, 3>;
using Mat3 = std::array<Vec3, 3>;  ///< rows are lattice vectors a, b, c

/// A periodic crystal: lattice, fractional coordinates, atomic numbers.
struct Structure {
  std::string id;
  Mat3 lattice{};
  std::vector<Vec3> frac_coords;   ///< in [0, 1)^3; must be finite
  std::vector<int> atomic_numbers; ///< Z per site
  double energy_per_atom = 0;      ///< DFT-like label
  int space_group_class = 0;       ///< coarse class label for balance tests

  [[nodiscard]] size_t NumAtoms() const { return frac_coords.size(); }
  [[nodiscard]] Status Validate() const;
  /// Cartesian position of site i (fractional -> lattice frame).
  [[nodiscard]] Vec3 Cartesian(size_t i) const;
  /// Cell volume |a . (b x c)|.
  [[nodiscard]] double Volume() const;
};

/// One directed edge of the neighbor graph.
struct Neighbor {
  uint32_t src = 0;
  uint32_t dst = 0;
  double distance = 0;
  std::array<int8_t, 3> image{};  ///< periodic image offset of dst
};

/// All pairs within `cutoff` under periodic boundary conditions. The image
/// search range is derived from the cell geometry, so cutoffs larger than
/// the cell are handled correctly (multiple images of the same pair).
/// Self-pairs appear only through non-zero images. Edges come out ordered
/// by (src, dst, image a, image b, image c). kInvalidArgument for an
/// invalid structure, a non-finite or non-positive cutoff, or a cutoff
/// that needs more than 127 images along an axis (the range of `image`).
Result<std::vector<Neighbor>> BuildNeighborList(const Structure& s,
                                                double cutoff);

/// Mean number of neighbors per atom (quality metric: too-small cutoffs
/// under-connect the graph).
double MeanDegree(const std::vector<Neighbor>& edges, size_t num_atoms);

}  // namespace drai::graph
