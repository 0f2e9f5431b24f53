#include "stats/normalizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ndarray/kernels.hpp"

namespace drai::stats {

std::string_view NormKindName(NormKind k) {
  switch (k) {
    case NormKind::kZScore: return "zscore";
    case NormKind::kMinMax: return "minmax";
    case NormKind::kRobust: return "robust";
    case NormKind::kLog1pZ: return "log1p-z";
  }
  return "?";
}

Normalizer::Normalizer(NormKind kind, size_t n_features) : kind_(kind) {
  if (n_features == 0) {
    throw std::invalid_argument("Normalizer: n_features must be > 0");
  }
  features_.resize(n_features);
}

void Normalizer::CheckFeature(size_t feature) const {
  if (feature >= features_.size()) {
    throw std::out_of_range("Normalizer: feature index out of range");
  }
}

void Normalizer::Observe(size_t feature, double x) {
  CheckFeature(feature);
  if (fitted_) {
    throw std::logic_error("Normalizer: Observe after Fit");
  }
  FeatureState& f = features_[feature];
  const double v = kind_ == NormKind::kLog1pZ ? std::log1p(std::max(x, -1.0 + 1e-12)) : x;
  f.stats.Add(v);
  if (kind_ == NormKind::kRobust) {
    f.q25.Add(v);
    f.q50.Add(v);
    f.q75.Add(v);
  }
}

void Normalizer::ObserveMatrix(const NDArray& matrix) {
  if (matrix.rank() != 2) {
    throw std::invalid_argument("ObserveMatrix: expected 2-D [rows, features]");
  }
  if (matrix.shape()[1] != features_.size()) {
    throw std::invalid_argument("ObserveMatrix: feature count mismatch");
  }
  const size_t cols = matrix.shape()[1];
  size_t i = 0;
  ForEachAsDouble(matrix, [&](double x) { Observe(i++ % cols, x); });
}

void Normalizer::Merge(const Normalizer& other) {
  if (other.kind_ != kind_ || other.features_.size() != features_.size()) {
    throw std::invalid_argument("Normalizer::Merge: configuration mismatch");
  }
  if (fitted_ || other.fitted_) {
    throw std::logic_error("Normalizer::Merge after Fit");
  }
  if (kind_ == NormKind::kRobust) {
    // P² markers do not merge exactly; robust fits must be single-stream.
    throw std::logic_error(
        "Normalizer::Merge: robust normalization is not mergeable; "
        "fit on one rank or use zscore");
  }
  for (size_t i = 0; i < features_.size(); ++i) {
    features_[i].stats.Merge(other.features_[i].stats);
  }
}

void Normalizer::Fit() {
  for (FeatureState& f : features_) {
    switch (kind_) {
      case NormKind::kZScore:
      case NormKind::kLog1pZ: {
        f.center = f.stats.mean();
        f.scale = f.stats.stddev();
        break;
      }
      case NormKind::kMinMax: {
        f.center = f.stats.count() ? f.stats.min() : 0.0;
        f.scale = f.stats.count() ? f.stats.max() - f.stats.min() : 1.0;
        break;
      }
      case NormKind::kRobust: {
        f.center = f.q50.Value();
        f.scale = f.q75.Value() - f.q25.Value();
        break;
      }
    }
    // Constant features normalize to zero rather than dividing by zero.
    if (!(f.scale > 0) || !std::isfinite(f.scale)) f.scale = 1.0;
  }
  fitted_ = true;
}

void Normalizer::CheckFitted() const {
  if (!fitted_) throw std::logic_error("Normalizer: Apply before Fit");
}

double Normalizer::Apply(size_t feature, double x) const {
  CheckFitted();
  CheckFeature(feature);
  const FeatureState& f = features_[feature];
  const double v = kind_ == NormKind::kLog1pZ
                       ? std::log1p(std::max(x, -1.0 + 1e-12))
                       : x;
  return (v - f.center) / f.scale;
}

double Normalizer::Invert(size_t feature, double y) const {
  CheckFitted();
  CheckFeature(feature);
  const FeatureState& f = features_[feature];
  const double v = y * f.scale + f.center;
  return kind_ == NormKind::kLog1pZ ? std::expm1(v) : v;
}

void Normalizer::ApplyMatrix(NDArray& matrix) const {
  CheckFitted();
  if (matrix.rank() != 2 || matrix.shape()[1] != features_.size()) {
    throw std::invalid_argument("ApplyMatrix: shape mismatch");
  }
  const size_t cols = matrix.shape()[1];
  size_t i = 0;
  TransformInPlace(matrix, [&](double x) { return Apply(i++ % cols, x); });
}

void Normalizer::ApplyAll(NDArray& array, size_t feature) const {
  CheckFitted();
  CheckFeature(feature);
  TransformInPlace(array, [&](double x) { return Apply(feature, x); });
}

double Normalizer::Center(size_t feature) const {
  CheckFitted();
  CheckFeature(feature);
  return features_[feature].center;
}

double Normalizer::Scale(size_t feature) const {
  CheckFitted();
  CheckFeature(feature);
  return features_[feature].scale;
}

Status Normalizer::SerializeObservations(ByteWriter& w) const {
  if (fitted_) {
    return FailedPrecondition("SerializeObservations: already fitted");
  }
  if (kind_ == NormKind::kRobust) {
    return FailedPrecondition(
        "SerializeObservations: robust state is not mergeable");
  }
  w.PutU8(static_cast<uint8_t>(kind_));
  w.PutVarU64(features_.size());
  for (const FeatureState& f : features_) {
    f.stats.Serialize(w);
  }
  return Status::Ok();
}

Result<Normalizer> Normalizer::DeserializeObservations(ByteReader& r) {
  uint8_t kind = 0;
  DRAI_RETURN_IF_ERROR(r.GetU8(kind));
  if (kind > static_cast<uint8_t>(NormKind::kLog1pZ) ||
      static_cast<NormKind>(kind) == NormKind::kRobust) {
    return DataLoss("Normalizer observations: bad kind");
  }
  uint64_t n = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n));
  if (n == 0 || n > (1ull << 32)) {
    return DataLoss("Normalizer observations: bad feature count");
  }
  // Size features_ from what the remaining input can hold, never from the
  // claimed count alone: a short input must not buy a 664-byte
  // FeatureState per claimed feature.
  Normalizer out(static_cast<NormKind>(kind), 1);
  out.features_.clear();
  out.features_.reserve(
      std::min<uint64_t>(n, r.remaining() / RunningStats::kSerializedBytes));
  for (uint64_t i = 0; i < n; ++i) {
    DRAI_ASSIGN_OR_RETURN(out.features_.emplace_back().stats,
                          RunningStats::Deserialize(r));
  }
  return out;
}

void Normalizer::Serialize(ByteWriter& w) const {
  CheckFitted();
  w.PutU8(static_cast<uint8_t>(kind_));
  w.PutVarU64(features_.size());
  for (const FeatureState& f : features_) {
    w.PutF64(f.center);
    w.PutF64(f.scale);
    f.stats.Serialize(w);
  }
}

Result<Normalizer> Normalizer::Deserialize(ByteReader& r) {
  uint8_t kind = 0;
  DRAI_RETURN_IF_ERROR(r.GetU8(kind));
  if (kind > static_cast<uint8_t>(NormKind::kLog1pZ)) {
    return DataLoss("Normalizer: bad kind byte");
  }
  uint64_t n = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n));
  if (n == 0 || n > (1ull << 32)) return DataLoss("Normalizer: bad feature count");
  // Sized from the remaining input, as in DeserializeObservations.
  Normalizer out(static_cast<NormKind>(kind), 1);
  out.features_.clear();
  constexpr size_t kFeatureBytes =
      2 * sizeof(double) + RunningStats::kSerializedBytes;
  out.features_.reserve(std::min<uint64_t>(n, r.remaining() / kFeatureBytes));
  for (uint64_t i = 0; i < n; ++i) {
    FeatureState& f = out.features_.emplace_back();
    DRAI_RETURN_IF_ERROR(r.GetF64(f.center));
    DRAI_RETURN_IF_ERROR(r.GetF64(f.scale));
    DRAI_ASSIGN_OR_RETURN(f.stats, RunningStats::Deserialize(r));
  }
  out.fitted_ = true;
  return out;
}

}  // namespace drai::stats
