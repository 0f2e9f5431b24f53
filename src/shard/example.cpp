#include "shard/example.hpp"

#include <cmath>

#include "common/hash.hpp"
#include "container/tensor_io.hpp"

namespace drai::shard {

void Example::SetLabel(int64_t label) {
  features["label"] = NDArray::FromVector<int64_t>({1}, {label});
}

Result<int64_t> Example::Label() const {
  const NDArray* l = Find("label");
  if (l == nullptr) return NotFound("example has no label feature");
  if (l->numel() != 1) return InvalidArgument("label is not scalar");
  return static_cast<int64_t>(l->GetAsDouble(0));
}

const NDArray* Example::Find(const std::string& name) const {
  auto it = features.find(name);
  return it == features.end() ? nullptr : &it->second;
}

size_t Example::PayloadBytes() const {
  size_t total = 0;
  for (const auto& [_, t] : features) total += t.nbytes();
  return total;
}

size_t Example::SerializedSizeHint() const {
  // A tensor header (dtype, rank, dims, frame prefix, CRC) stays well
  // under 48 bytes for the ranks examples carry.
  size_t total = key.size() + 16;
  for (const auto& [name, t] : features) total += name.size() + t.nbytes() + 48;
  return total;
}

Bytes Example::Serialize(codec::Codec codec) const {
  ByteWriter w(SerializedSizeHint());
  Serialize(w, codec);
  return w.Take();
}

void Example::Serialize(ByteWriter& w, codec::Codec codec) const {
  w.PutString(key);
  w.PutVarU64(features.size());
  for (const auto& [name, tensor] : features) {
    w.PutString(name);
    container::WriteTensor(w, tensor, codec);
  }
}

Result<Example> Example::Parse(std::span<const std::byte> bytes) {
  Example ex;
  ByteReader r(bytes);
  DRAI_RETURN_IF_ERROR(r.GetString(ex.key));
  uint64_t n = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n));
  if (n > (1ull << 16)) return DataLoss("example: implausible feature count");
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    DRAI_RETURN_IF_ERROR(r.GetString(name));
    DRAI_ASSIGN_OR_RETURN(NDArray t, container::ReadTensor(r));
    ex.features[name] = std::move(t);
  }
  if (!r.exhausted()) return DataLoss("example: trailing bytes");
  return ex;
}

std::string_view SplitName(Split s) {
  switch (s) {
    case Split::kTrain: return "train";
    case Split::kVal: return "val";
    case Split::kTest: return "test";
  }
  return "?";
}

SplitAssigner::SplitAssigner(double train_frac, double val_frac,
                             double test_frac, uint64_t seed)
    : train_frac_(train_frac), val_frac_(val_frac), seed_(seed) {
  if (train_frac < 0 || val_frac < 0 || test_frac < 0) {
    throw std::invalid_argument("SplitAssigner: negative fraction");
  }
  const double sum = train_frac + val_frac + test_frac;
  if (std::fabs(sum - 1.0) > 1e-9) {
    throw std::invalid_argument("SplitAssigner: fractions must sum to 1");
  }
}

Split SplitAssigner::Assign(std::string_view key) const {
  // FNV-1a's high bits are weakly mixed for short, similar keys; finalize
  // with a SplitMix64-style avalanche so the [0,1) mapping is unbiased.
  uint64_t h = Fnv1a64(key, seed_);
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  // Map to [0, 1) with 53-bit precision.
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u < train_frac_) return Split::kTrain;
  if (u < train_frac_ + val_frac_) return Split::kVal;
  return Split::kTest;
}

}  // namespace drai::shard
