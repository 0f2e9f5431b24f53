// drai/shard/example.hpp
//
// Example — the training-sample record stored in shards, analogous to
// tf.train.Example: a keyed bag of named tensors. The key is the sample's
// stable identity (shot id, tile id, structure id) and drives deterministic
// split assignment; features are what the model consumes.
#pragma once

#include <map>
#include <string>

#include "codec/codec.hpp"
#include "common/bytes.hpp"
#include "ndarray/ndarray.hpp"

namespace drai::shard {

struct Example {
  std::string key;
  std::map<std::string, NDArray> features;

  /// Optional integer label stored under the conventional feature name
  /// "label" as a scalar i64 tensor.
  void SetLabel(int64_t label);
  [[nodiscard]] Result<int64_t> Label() const;

  [[nodiscard]] const NDArray* Find(const std::string& name) const;

  /// Total feature payload bytes (uncompressed).
  [[nodiscard]] size_t PayloadBytes() const;

  /// Serialize() size estimate: the payload plus names and tensor headers.
  /// Sizes buffer reservations and in-place length prefixes.
  [[nodiscard]] size_t SerializedSizeHint() const;

  [[nodiscard]] Bytes Serialize(codec::Codec codec = codec::Codec::kNone) const;
  /// Serialize() appended to `w` in place.
  void Serialize(ByteWriter& w, codec::Codec codec = codec::Codec::kNone) const;
  static Result<Example> Parse(std::span<const std::byte> bytes);
};

/// Dataset split identity.
enum class Split : uint8_t { kTrain = 0, kVal = 1, kTest = 2 };
std::string_view SplitName(Split s);
inline constexpr Split kAllSplits[] = {Split::kTrain, Split::kVal, Split::kTest};

/// Deterministic hash-based split assignment: the same key always lands in
/// the same split for a given seed, independent of arrival order and rank —
/// the reproducibility property the paper's level-5 "partitioned into
/// train/test/val" requires.
class SplitAssigner {
 public:
  /// Fractions must be non-negative and sum to (approximately) 1.
  SplitAssigner(double train_frac, double val_frac, double test_frac,
                uint64_t seed = 0);

  [[nodiscard]] Split Assign(std::string_view key) const;

 private:
  double train_frac_, val_frac_;
  uint64_t seed_;
};

}  // namespace drai::shard
