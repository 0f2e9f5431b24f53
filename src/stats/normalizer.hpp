// drai/stats/normalizer.hpp
//
// Per-feature normalization — the `normalize` step every archetype in the
// paper shares (climate variables by mean/std, fusion shots, materials
// descriptors). A Normalizer is fit (streaming, mergeable across ranks),
// then applied to NDArrays or raw spans, and serializes with the dataset so
// inference uses the exact training statistics (reproducibility).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "ndarray/ndarray.hpp"
#include "stats/quantile.hpp"
#include "stats/running.hpp"

namespace drai::stats {

enum class NormKind : uint8_t {
  kZScore = 0,   ///< (x - mean) / std
  kMinMax = 1,   ///< (x - min) / (max - min) -> [0, 1]
  kRobust = 2,   ///< (x - median) / IQR
  kLog1pZ = 3,   ///< z-score of log1p(x); heavy-tailed positive data
};

std::string_view NormKindName(NormKind k);

/// Fit-then-apply normalizer over `n_features` independent features.
/// Feature j of a 2-D array [rows, features] is column j; for spans the
/// caller supplies the feature index.
class Normalizer {
 public:
  Normalizer(NormKind kind, size_t n_features);

  [[nodiscard]] NormKind kind() const { return kind_; }
  [[nodiscard]] size_t n_features() const { return features_.size(); }
  [[nodiscard]] bool fitted() const { return fitted_; }

  /// One array of observations of one feature, for ObserveBatch.
  struct FeatureArray {
    size_t feature;
    const NDArray* values;
  };

  /// Absorb one observation of feature j.
  void Observe(size_t feature, double x);
  /// Absorb every element of each array, in row-major order, as
  /// observations of its feature: the state Observe per element gives.
  /// The arrays of one feature are taken in their given order; distinct
  /// features advance side by side.
  void ObserveBatch(std::span<const FeatureArray> batch);
  /// Absorb every row of a 2-D [rows, features] array.
  void ObserveMatrix(const NDArray& matrix);
  /// Merge the streaming state of another (identically configured)
  /// normalizer — the cross-rank reduction step.
  void Merge(const Normalizer& other);
  /// Freeze statistics; Apply* becomes legal.
  void Fit();

  /// Normalize a single value of feature j.
  [[nodiscard]] double Apply(size_t feature, double x) const;
  /// Invert (approximately exact for all kinds).
  [[nodiscard]] double Invert(size_t feature, double y) const;
  /// Normalize a 2-D [rows, features] array in place.
  void ApplyMatrix(NDArray& matrix) const;
  /// Normalize all elements of an array as one feature (feature 0) —
  /// climate fields normalize per-variable over the whole grid.
  void ApplyAll(NDArray& array, size_t feature = 0) const;

  /// Fitted statistics of feature j (mean/std for kZScore & kLog1pZ,
  /// min/max for kMinMax, median/iqr for kRobust).
  [[nodiscard]] double Center(size_t feature) const;
  [[nodiscard]] double Scale(size_t feature) const;

  void Serialize(ByteWriter& w) const;
  static Result<Normalizer> Deserialize(ByteReader& r);

  /// Wire round-trip of the *unfitted* streaming state, for shipping
  /// observations between ranks before a distributed merge+fit. Robust
  /// normalizers are not mergeable and return kFailedPrecondition.
  Status SerializeObservations(ByteWriter& w) const;
  static Result<Normalizer> DeserializeObservations(ByteReader& r);

 private:
  struct FeatureState {
    RunningStats stats;
    P2Quantile q25{0.25};
    P2Quantile q50{0.50};
    P2Quantile q75{0.75};
    double center = 0;
    double scale = 1;
  };

  void CheckFitted() const;
  void CheckFeature(size_t feature) const;
  void CheckObservable() const;
  /// Feeds streams[k] to distinct features[k], side by side.
  void ObserveStreams(std::span<const size_t> features,
                      std::span<const ValueStream> streams);

  NormKind kind_;
  std::vector<FeatureState> features_;
  bool fitted_ = false;
};

}  // namespace drai::stats
