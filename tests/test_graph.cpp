// Tests for drai/graph: structures, periodic neighbor lists, GNN encoding,
// rebalancing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/encode.hpp"
#include "graph/structure.hpp"
#include "workloads/materials.hpp"

namespace drai::graph {
namespace {

/// Simple cubic crystal: one atom at the origin of an a-length cube.
Structure SimpleCubic(double a, int z = 26) {
  Structure s;
  s.id = "sc";
  s.lattice = {{{a, 0, 0}, {0, a, 0}, {0, 0, a}}};
  s.frac_coords = {{0, 0, 0}};
  s.atomic_numbers = {z};
  return s;
}

TEST(Structure, ValidateCatchesProblems) {
  Structure s = SimpleCubic(3.0);
  EXPECT_TRUE(s.Validate().ok());
  s.atomic_numbers = {0};
  EXPECT_FALSE(s.Validate().ok());  // bad Z
  s = SimpleCubic(3.0);
  s.frac_coords.clear();
  s.atomic_numbers.clear();
  EXPECT_FALSE(s.Validate().ok());  // empty
  s = SimpleCubic(3.0);
  s.lattice[2] = {0, 0, 0};
  EXPECT_FALSE(s.Validate().ok());  // degenerate cell
}

TEST(Structure, CartesianAndVolume) {
  Structure s = SimpleCubic(2.0);
  s.frac_coords = {{0.5, 0.5, 0.25}};
  const Vec3 c = s.Cartesian(0);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[2], 0.5);
  EXPECT_DOUBLE_EQ(s.Volume(), 8.0);
}

TEST(NeighborList, SimpleCubicCoordinationNumbers) {
  // Textbook shell counts for simple cubic with lattice constant a:
  // 6 at a, 12 at a*sqrt(2), 8 at a*sqrt(3).
  const Structure s = SimpleCubic(3.0);
  const auto n1 = BuildNeighborList(s, 3.0 + 1e-9);
  ASSERT_TRUE(n1.ok());
  EXPECT_EQ(n1->size(), 6u);
  const auto n2 = BuildNeighborList(s, 3.0 * std::sqrt(2.0) + 1e-9);
  EXPECT_EQ(n2->size(), 6u + 12u);
  const auto n3 = BuildNeighborList(s, 3.0 * std::sqrt(3.0) + 1e-9);
  EXPECT_EQ(n3->size(), 6u + 12u + 8u);
}

TEST(NeighborList, CutoffLargerThanCellFindsMultipleImages) {
  // Two cells away along each axis: another 6 neighbors at distance 2a.
  const Structure s = SimpleCubic(2.0);
  const auto edges = BuildNeighborList(s, 4.0 + 1e-9);
  ASSERT_TRUE(edges.ok());
  size_t at_2a = 0;
  for (const Neighbor& e : *edges) {
    if (std::fabs(e.distance - 4.0) < 1e-9) ++at_2a;
  }
  EXPECT_EQ(at_2a, 6u);
}

TEST(NeighborList, EdgesAreSymmetric) {
  Structure s;
  s.id = "pair";
  s.lattice = {{{10, 0, 0}, {0, 10, 0}, {0, 0, 10}}};
  s.frac_coords = {{0.1, 0.1, 0.1}, {0.3, 0.1, 0.1}};
  s.atomic_numbers = {6, 8};
  const auto edges = BuildNeighborList(s, 3.0);
  ASSERT_TRUE(edges.ok());
  // 2 Å apart: one edge each direction.
  ASSERT_EQ(edges->size(), 2u);
  std::map<std::pair<uint32_t, uint32_t>, double> dist;
  for (const Neighbor& e : *edges) dist[{e.src, e.dst}] = e.distance;
  EXPECT_NEAR((dist[{0, 1}]), 2.0, 1e-9);
  EXPECT_NEAR((dist[{1, 0}]), 2.0, 1e-9);
}

TEST(NeighborList, TriclinicCellHandled) {
  Structure s;
  s.id = "hex";
  const double a = 3.0;
  s.lattice = {{{a, 0, 0}, {-0.5 * a, 0.866025403784 * a, 0}, {0, 0, 5.0}}};
  s.frac_coords = {{0, 0, 0}};
  s.atomic_numbers = {14};
  const auto edges = BuildNeighborList(s, a + 1e-9);
  ASSERT_TRUE(edges.ok());
  // Hexagonal in-plane: 6 nearest neighbors at distance a.
  size_t at_a = 0;
  for (const Neighbor& e : *edges) {
    if (std::fabs(e.distance - a) < 1e-9) ++at_a;
  }
  EXPECT_EQ(at_a, 6u);
}

TEST(NeighborList, RejectsBadCutoff) {
  EXPECT_FALSE(BuildNeighborList(SimpleCubic(3.0), 0.0).ok());
}

TEST(Structure, ValidateRejectsNonFiniteGeometry) {
  Structure s = SimpleCubic(3.0);
  s.lattice[1][1] = std::nan("");
  EXPECT_EQ(s.Validate().code(), StatusCode::kInvalidArgument);  // NaN cell
  EXPECT_EQ(BuildNeighborList(s, 5.0).status().code(),
            StatusCode::kInvalidArgument);
  s = SimpleCubic(3.0);
  s.frac_coords[0][2] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(s.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildNeighborList(s, 5.0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NeighborList, RejectsUnrepresentableSearch) {
  const Structure s = SimpleCubic(1.0);
  for (const double cutoff : {std::nan(""),
                              std::numeric_limits<double>::infinity(),
                              1e300, 200.0}) {
    EXPECT_EQ(BuildNeighborList(s, cutoff).status().code(),
              StatusCode::kInvalidArgument)
        << cutoff;
  }
  // 127 images along an axis is the most Neighbor::image can hold: a rod
  // cell, 1 Å along a and 500 Å across, reaches exactly that far.
  Structure rod = SimpleCubic(1.0);
  rod.lattice[1][1] = rod.lattice[2][2] = 500.0;
  const auto edges = BuildNeighborList(rod, 127.0);
  ASSERT_TRUE(edges.ok());
  ASSERT_EQ(edges->size(), 254u);
  EXPECT_EQ(edges->front().image[0], -127);
  EXPECT_EQ(edges->back().image[0], 127);
}

// ---- differential: per-pair image bounds vs the full image box ------------

/// Distance between the lattice planes along each lattice direction d:
/// V / |cross of the other two|, as BuildNeighborList computes it.
std::array<double, 3> PlaneSpacings(const Structure& s) {
  std::array<double, 3> out{};
  for (size_t d = 0; d < 3; ++d) {
    const Vec3& u = s.lattice[(d + 1) % 3];
    const Vec3& v = s.lattice[(d + 2) % 3];
    const Vec3 c = {u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                    u[0] * v[1] - u[1] * v[0]};
    out[d] = s.Volume() / std::sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2]);
  }
  return out;
}

/// The brute-force search BuildNeighborList replaced: every pair visits the
/// whole (2*reach+1)^3 image box. The pruned search must reproduce its
/// edges exactly, in order.
std::vector<Neighbor> FullBoxNeighborList(const Structure& s, double cutoff) {
  const std::array<double, 3> spacings = PlaneSpacings(s);
  std::array<int, 3> reach{};
  for (size_t d = 0; d < 3; ++d) {
    reach[d] = static_cast<int>(std::ceil(cutoff / spacings[d]));
  }

  const size_t n = s.NumAtoms();
  std::vector<Vec3> cart(n);
  for (size_t i = 0; i < n; ++i) cart[i] = s.Cartesian(i);

  std::vector<Neighbor> edges;
  const double cutoff_sq = cutoff * cutoff;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      for (int ia = -reach[0]; ia <= reach[0]; ++ia) {
        for (int ib = -reach[1]; ib <= reach[1]; ++ib) {
          for (int ic = -reach[2]; ic <= reach[2]; ++ic) {
            if (i == j && ia == 0 && ib == 0 && ic == 0) continue;
            Vec3 shifted{};
            for (int d = 0; d < 3; ++d) {
              shifted[static_cast<size_t>(d)] =
                  cart[j][static_cast<size_t>(d)] +
                  ia * s.lattice[0][static_cast<size_t>(d)] +
                  ib * s.lattice[1][static_cast<size_t>(d)] +
                  ic * s.lattice[2][static_cast<size_t>(d)];
            }
            const double dx = shifted[0] - cart[i][0];
            const double dy = shifted[1] - cart[i][1];
            const double dz = shifted[2] - cart[i][2];
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

double ShortestPlaneSpacing(const Structure& s) {
  const std::array<double, 3> spacings = PlaneSpacings(s);
  return *std::min_element(spacings.begin(), spacings.end());
}

/// Edge lists equal field by field, distances bit for bit.
void ExpectSameEdges(const std::vector<Neighbor>& got,
                     const std::vector<Neighbor>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t e = 0; e < got.size(); ++e) {
    ASSERT_EQ(got[e].src, want[e].src) << what << " edge " << e;
    ASSERT_EQ(got[e].dst, want[e].dst) << what << " edge " << e;
    ASSERT_EQ(got[e].image, want[e].image) << what << " edge " << e;
    ASSERT_EQ(std::memcmp(&got[e].distance, &want[e].distance,
                          sizeof(double)),
              0)
        << what << " edge " << e;
  }
}

void ExpectMatchesFullBox(const Structure& s, double cutoff) {
  const std::string what = s.id + " @ " + std::to_string(cutoff);
  const auto pruned = BuildNeighborList(s, cutoff);
  ASSERT_TRUE(pruned.ok()) << what;
  ExpectSameEdges(*pruned, FullBoxNeighborList(s, cutoff), what);
}

/// ReferenceEnergyPerAtom's formula, over the full-box edges at 6 Å.
double FullBoxEnergyPerAtom(const Structure& s) {
  const auto sigma_for = [](int z) { return 1.2 + 0.02 * static_cast<double>(z); };
  double energy = 0;
  for (const Neighbor& e : FullBoxNeighborList(s, 6.0)) {
    const double sigma = 0.5 * (sigma_for(s.atomic_numbers[e.src]) +
                                sigma_for(s.atomic_numbers[e.dst]));
    const double x = sigma / std::max(e.distance, 0.5);
    const double x6 = x * x * x * x * x * x;
    energy += 0.5 * 4.0 * 0.2 * (x6 * x6 - x6);
  }
  return energy / static_cast<double>(s.NumAtoms());
}

constexpr double kCutoffFactors[] = {0.5, 0.9, 1.0, 1.3, 2.0, 2.5, 3.0};

TEST(NeighborListDifferential, GeneratedMaterialsAllLatticeClasses) {
  workloads::MaterialsConfig config;
  config.n_structures = 24;
  config.seed = 4242;
  config.class_weights = {1, 1, 1, 1};
  const auto structures = workloads::GenerateMaterials(config);
  std::set<int> classes;
  for (const Structure& s : structures) {
    classes.insert(s.space_group_class);
    for (const double cutoff : {5.0, 6.0}) ExpectMatchesFullBox(s, cutoff);
    const double spacing = ShortestPlaneSpacing(s);
    for (const double f : kCutoffFactors) ExpectMatchesFullBox(s, f * spacing);
    const double energy = workloads::ReferenceEnergyPerAtom(s);
    const double want = FullBoxEnergyPerAtom(s);
    EXPECT_EQ(std::memcmp(&energy, &want, sizeof(double)), 0) << s.id;
    EXPECT_EQ(std::memcmp(&s.energy_per_atom, &want, sizeof(double)), 0)
        << s.id;
  }
  EXPECT_EQ(classes, (std::set<int>{0, 1, 2, 3}));
}

TEST(NeighborListDifferential, RandomTriclinicCells) {
  Rng rng(1907);
  for (int cell = 0; cell < 24; ++cell) {
    Structure s;
    s.id = "tri-" + std::to_string(cell);
    // Diagonal-dominant rows: skewed but never degenerate.
    for (size_t r = 0; r < 3; ++r) {
      for (size_t c = 0; c < 3; ++c) {
        s.lattice[r][c] = r == c ? rng.Uniform(2.5, 6.0)
                                 : rng.Uniform(-1.5, 1.5);
      }
    }
    const size_t n_atoms = 1 + rng.UniformU64(7);
    for (size_t k = 0; k < n_atoms; ++k) {
      s.frac_coords.push_back(
          {rng.UniformDouble(), rng.UniformDouble(), rng.UniformDouble()});
      s.atomic_numbers.push_back(static_cast<int>(1 + rng.UniformU64(30)));
    }
    // Sites on the cell faces, where the fractional offsets are extreme.
    s.frac_coords.push_back({0.0, 0.0, 0.0});
    s.frac_coords.push_back({1 - 1e-12, 1 - 1e-12, 1 - 1e-12});
    s.frac_coords.push_back({0.0, 1 - 1e-12, 0.5});
    s.atomic_numbers.insert(s.atomic_numbers.end(), {6, 8, 14});
    const double spacing = ShortestPlaneSpacing(s);
    for (const double f : kCutoffFactors) ExpectMatchesFullBox(s, f * spacing);
    const double energy = workloads::ReferenceEnergyPerAtom(s);
    const double want = FullBoxEnergyPerAtom(s);
    EXPECT_EQ(std::memcmp(&energy, &want, sizeof(double)), 0) << s.id;
  }
}

TEST(NeighborListDifferential, SimpleCubicShellsAtExactCutoffs) {
  for (const double a : {1.0, 2.0, 3.0, 3.7}) {
    Structure s = SimpleCubic(a);
    for (const double cutoff : {a, a * std::sqrt(2.0), a * std::sqrt(3.0)}) {
      ExpectMatchesFullBox(s, cutoff);
    }
    s.frac_coords.push_back({1 - 1e-12, 0.5, 0.0});
    s.atomic_numbers.push_back(8);
    for (const double cutoff : {a, a * std::sqrt(2.0), a * std::sqrt(3.0)}) {
      ExpectMatchesFullBox(s, cutoff);
    }
  }
}

TEST(MeanDegree, Computes) {
  EXPECT_DOUBLE_EQ(MeanDegree(std::vector<Neighbor>(12), 4), 3.0);
  EXPECT_DOUBLE_EQ(MeanDegree({}, 0), 0.0);
}

// ---- encoding ------------------------------------------------------------

TEST(EncodeGraph, ShapesAndFeatures) {
  Structure s = SimpleCubic(3.0, 26);
  s.energy_per_atom = -1.5;
  s.space_group_class = 2;
  GraphEncodeOptions options;
  options.cutoff = 3.0 + 1e-9;
  const auto g = EncodeGraph(s, options);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 1u);
  EXPECT_EQ(g->NumEdges(), 6u);
  EXPECT_EQ(g->node_features.shape(), (Shape{1, 4}));
  EXPECT_EQ(g->edge_index.shape(), (Shape{2, 6}));
  EXPECT_EQ(g->edge_features.shape(), (Shape{6, 2}));
  EXPECT_NEAR(g->node_features.GetAsDouble(0), 26.0 / 118.0, 1e-6);
  EXPECT_NEAR(g->edge_features.GetAsDouble(0), 3.0, 1e-6);       // distance
  EXPECT_NEAR(g->edge_features.GetAsDouble(1), 1.0 / 3.0, 1e-6); // inverse
  EXPECT_EQ(g->label, -1.5);
  EXPECT_EQ(g->class_label, 2);
}

TEST(EncodeGraph, ExampleRoundTrip) {
  Structure s = SimpleCubic(3.0);
  s.energy_per_atom = 0.75;
  s.space_group_class = 1;
  const auto g = EncodeGraph(s, {});
  ASSERT_TRUE(g.ok());
  const shard::Example ex = ToExample(*g);
  EXPECT_EQ(ex.key, "sc");
  const auto back = FromExample(ex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumNodes(), g->NumNodes());
  EXPECT_EQ(back->NumEdges(), g->NumEdges());
  EXPECT_EQ(back->label, 0.75);
  EXPECT_EQ(back->class_label, 1);
}

TEST(EncodeGraph, FromExampleRejectsMissingFeatures) {
  shard::Example ex;
  ex.key = "broken";
  ex.SetLabel(0);
  EXPECT_EQ(FromExample(ex).status().code(), StatusCode::kDataLoss);
}

// ---- rebalancing -----------------------------------------------------------

TEST(Rebalance, OversampleEqualizesCounts) {
  std::vector<int> classes(80, 0);
  classes.insert(classes.end(), 15, 1);
  classes.insert(classes.end(), 5, 2);
  const auto order =
      RebalanceIndices(classes, RebalanceStrategy::kOversample, 7);
  std::map<int, size_t> counts;
  for (size_t idx : order) ++counts[classes[idx]];
  EXPECT_EQ(counts[0], 80u);
  EXPECT_EQ(counts[1], 80u);
  EXPECT_EQ(counts[2], 80u);
}

TEST(Rebalance, UndersampleEqualizesCounts) {
  std::vector<int> classes(60, 0);
  classes.insert(classes.end(), 9, 1);
  const auto order =
      RebalanceIndices(classes, RebalanceStrategy::kUndersample, 7);
  std::map<int, size_t> counts;
  std::set<size_t> distinct(order.begin(), order.end());
  for (size_t idx : order) ++counts[classes[idx]];
  EXPECT_EQ(counts[0], 9u);
  EXPECT_EQ(counts[1], 9u);
  EXPECT_EQ(distinct.size(), order.size());  // no duplicates when undersampling
}

TEST(Rebalance, DeterministicGivenSeed) {
  std::vector<int> classes = {0, 0, 0, 1, 1, 2};
  EXPECT_EQ(RebalanceIndices(classes, RebalanceStrategy::kOversample, 5),
            RebalanceIndices(classes, RebalanceStrategy::kOversample, 5));
  EXPECT_NE(RebalanceIndices(classes, RebalanceStrategy::kOversample, 5),
            RebalanceIndices(classes, RebalanceStrategy::kOversample, 6));
}

TEST(Rebalance, EmptyInput) {
  EXPECT_TRUE(RebalanceIndices({}, RebalanceStrategy::kOversample, 1).empty());
}

}  // namespace
}  // namespace drai::graph
