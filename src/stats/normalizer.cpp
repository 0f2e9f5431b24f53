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

namespace {

double Log1pClamped(double x) { return std::log1p(std::max(x, -1.0 + 1e-12)); }

/// Calls fn with the map a kind takes every value through before its
/// statistics: log1p for kLog1pZ, identity otherwise. Element loops choose
/// it once, outside the loop.
template <typename Fn>
void WithPreMap(NormKind kind, Fn&& fn) {
  if (kind == NormKind::kLog1pZ) {
    fn([](double x) { return Log1pClamped(x); });
  } else {
    fn([](double x) { return x; });
  }
}

/// The elements of `a` in row-major order as doubles through the kind's
/// pre-map: read in place from a dense f64 array that needs no map, else
/// copied into `owned`.
const double* PreMapped(NormKind kind, const NDArray& a,
                        std::vector<double>& owned) {
  if (kind != NormKind::kLog1pZ && a.dtype() == DType::kF64 &&
      a.IsContiguous()) {
    return a.span<double>().data();
  }
  owned.resize(a.numel());
  WithPreMap(kind, [&](auto pre) {
    size_t i = 0;
    ForEachAsDouble(a, [&](double x) { owned[i++] = pre(x); });
  });
  return owned.data();
}

}  // namespace

void Normalizer::CheckFeature(size_t feature) const {
  if (feature >= features_.size()) {
    throw std::out_of_range("Normalizer: feature index out of range");
  }
}

void Normalizer::CheckObservable() const {
  if (fitted_) {
    throw std::logic_error("Normalizer: Observe after Fit");
  }
}

void Normalizer::Observe(size_t feature, double x) {
  CheckFeature(feature);
  CheckObservable();
  FeatureState& f = features_[feature];
  const double v = kind_ == NormKind::kLog1pZ ? Log1pClamped(x) : x;
  f.stats.Add(v);
  if (kind_ == NormKind::kRobust) {
    f.q25.Add(v);
    f.q50.Add(v);
    f.q75.Add(v);
  }
}

void Normalizer::ObserveStreams(std::span<const size_t> features,
                                std::span<const ValueStream> streams) {
  std::vector<RunningStats*> stats(features.size());
  for (size_t k = 0; k < features.size(); ++k) {
    stats[k] = &features_[features[k]].stats;
  }
  RunningStats::AddInterleaved(stats, streams);
  if (kind_ != NormKind::kRobust) return;
  for (size_t k = 0; k < features.size(); ++k) {
    FeatureState& f = features_[features[k]];
    for (size_t i = 0; i < streams[k].n; ++i) {
      const double v = streams[k].data[i * streams[k].stride];
      f.q25.Add(v);
      f.q50.Add(v);
      f.q75.Add(v);
    }
  }
}

void Normalizer::ObserveBatch(std::span<const FeatureArray> batch) {
  for (const FeatureArray& a : batch) CheckFeature(a.feature);
  CheckObservable();
  // Round r holds the r-th array of every feature it names, so a round
  // never names a feature twice and each feature's arrays go in order.
  struct Round {
    std::vector<size_t> features;
    std::vector<ValueStream> streams;
  };
  std::vector<Round> rounds;
  std::vector<size_t> seen(features_.size(), 0);
  std::vector<std::vector<double>> owned(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const NDArray& a = *batch[i].values;
    const size_t r = seen[batch[i].feature]++;
    if (r == rounds.size()) rounds.emplace_back();
    rounds[r].features.push_back(batch[i].feature);
    rounds[r].streams.push_back({PreMapped(kind_, a, owned[i]), a.numel()});
  }
  for (const Round& round : rounds) {
    ObserveStreams(round.features, round.streams);
  }
}

void Normalizer::ObserveMatrix(const NDArray& matrix) {
  if (matrix.rank() != 2) {
    throw std::invalid_argument("ObserveMatrix: expected 2-D [rows, features]");
  }
  if (matrix.shape()[1] != features_.size()) {
    throw std::invalid_argument("ObserveMatrix: feature count mismatch");
  }
  CheckObservable();
  const size_t rows = matrix.shape()[0];
  const size_t cols = matrix.shape()[1];
  if (rows == 0) return;
  std::vector<double> owned;
  const double* values = PreMapped(kind_, matrix, owned);
  // Column j is feature j's stream, strided by the row length.
  std::vector<size_t> features(cols);
  std::vector<ValueStream> streams(cols);
  for (size_t j = 0; j < cols; ++j) {
    features[j] = j;
    streams[j] = {values + j, rows, cols};
  }
  ObserveStreams(features, streams);
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
  const double v = kind_ == NormKind::kLog1pZ ? Log1pClamped(x) : x;
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
  const size_t cols = features_.size();
  std::vector<double> center(cols), scale(cols);
  for (size_t j = 0; j < cols; ++j) {
    center[j] = features_[j].center;
    scale[j] = features_[j].scale;
  }
  WithPreMap(kind_, [&](auto pre) {
    size_t j = 0;  // the column of the element in hand
    TransformInPlace(matrix, [&](double x) {
      const double y = (pre(x) - center[j]) / scale[j];
      if (++j == cols) j = 0;
      return y;
    });
  });
}

void Normalizer::ApplyAll(NDArray& array, size_t feature) const {
  CheckFitted();
  CheckFeature(feature);
  const double center = features_[feature].center;
  const double scale = features_[feature].scale;
  WithPreMap(kind_, [&](auto pre) {
    TransformInPlace(array,
                     [&](double x) { return (pre(x) - center) / scale; });
  });
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
