#include "shard/manifest.hpp"

#include <cstring>

#include "common/hash.hpp"

namespace drai::shard {

namespace {
constexpr char kMagic[4] = {'D', 'M', 'F', '1'};
}

uint64_t DatasetManifest::TotalRecords(Split split) const {
  auto it = shards.find(split);
  if (it == shards.end()) return 0;
  uint64_t total = 0;
  for (const ShardInfo& s : it->second) total += s.records;
  return total;
}

uint64_t DatasetManifest::TotalRecords() const {
  uint64_t total = 0;
  for (Split s : kAllSplits) total += TotalRecords(s);
  return total;
}

uint64_t DatasetManifest::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& [_, list] : shards) {
    for (const ShardInfo& s : list) total += s.bytes;
  }
  return total;
}

Bytes DatasetManifest::Serialize() const {
  ByteWriter w;
  w.PutMagic({kMagic, 4});
  w.PutU16(1);  // version
  w.PutString(dataset_name);
  w.PutString(created_by);
  w.PutU64(split_seed);
  w.PutVarU64(schema.size());
  for (const FeatureSpec& f : schema) {
    w.PutString(f.name);
    w.PutU8(static_cast<uint8_t>(f.dtype));
    w.PutVarU64(f.shape.size());
    for (size_t d : f.shape) w.PutVarU64(d);
  }
  w.PutVarU64(shards.size());
  for (const auto& [split, list] : shards) {
    w.PutU8(static_cast<uint8_t>(split));
    w.PutVarU64(list.size());
    for (const ShardInfo& s : list) {
      w.PutString(s.file);
      w.PutU64(s.records);
      w.PutU64(s.bytes);
    }
  }
  w.PutBlob(normalizer_blob);
  w.PutString(provenance_hash);
  w.PutU32(Crc32(w.bytes()));
  return w.Take();
}

Result<DatasetManifest> DatasetManifest::Parse(
    std::span<const std::byte> bytes) {
  if (bytes.size() < 10) return DataLoss("manifest: too small");
  ByteReader crc_reader(bytes.subspan(bytes.size() - 4));
  uint32_t stored_crc = 0;
  DRAI_RETURN_IF_ERROR(crc_reader.GetU32(stored_crc));
  if (Crc32(bytes.subspan(0, bytes.size() - 4)) != stored_crc) {
    return DataLoss("manifest: crc mismatch");
  }
  ByteReader r(bytes.subspan(0, bytes.size() - 4));
  char magic[4];
  DRAI_RETURN_IF_ERROR(r.GetRaw(magic, 4));
  if (std::memcmp(magic, kMagic, 4) != 0) return DataLoss("manifest: bad magic");
  uint16_t version = 0;
  DRAI_RETURN_IF_ERROR(r.GetU16(version));
  if (version != 1) return DataLoss("manifest: unsupported version");

  DatasetManifest m;
  DRAI_RETURN_IF_ERROR(r.GetString(m.dataset_name));
  DRAI_RETURN_IF_ERROR(r.GetString(m.created_by));
  DRAI_RETURN_IF_ERROR(r.GetU64(m.split_seed));
  uint64_t n_schema = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n_schema));
  if (n_schema > (1ull << 16)) return DataLoss("manifest: implausible schema");
  m.schema.resize(n_schema);
  for (auto& f : m.schema) {
    DRAI_RETURN_IF_ERROR(r.GetString(f.name));
    uint8_t dtype = 0;
    DRAI_RETURN_IF_ERROR(r.GetU8(dtype));
    if (dtype > static_cast<uint8_t>(DType::kU8)) {
      return DataLoss("manifest: bad dtype");
    }
    f.dtype = static_cast<DType>(dtype);
    uint64_t rank = 0;
    DRAI_RETURN_IF_ERROR(r.GetVarU64(rank));
    if (rank > 16) return DataLoss("manifest: bad rank");
    f.shape.resize(rank);
    for (auto& d : f.shape) {
      uint64_t v = 0;
      DRAI_RETURN_IF_ERROR(r.GetVarU64(v));
      d = static_cast<size_t>(v);
    }
  }
  uint64_t n_splits = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n_splits));
  if (n_splits > 3) return DataLoss("manifest: too many splits");
  for (uint64_t i = 0; i < n_splits; ++i) {
    uint8_t split = 0;
    DRAI_RETURN_IF_ERROR(r.GetU8(split));
    if (split > static_cast<uint8_t>(Split::kTest)) {
      return DataLoss("manifest: bad split id");
    }
    uint64_t n_shards = 0;
    DRAI_RETURN_IF_ERROR(r.GetVarU64(n_shards));
    if (n_shards > (1ull << 24)) return DataLoss("manifest: implausible shards");
    std::vector<ShardInfo> list(n_shards);
    for (auto& s : list) {
      DRAI_RETURN_IF_ERROR(r.GetString(s.file));
      DRAI_RETURN_IF_ERROR(r.GetU64(s.records));
      DRAI_RETURN_IF_ERROR(r.GetU64(s.bytes));
    }
    m.shards[static_cast<Split>(split)] = std::move(list);
  }
  DRAI_RETURN_IF_ERROR(r.GetBlob(m.normalizer_blob));
  DRAI_RETURN_IF_ERROR(r.GetString(m.provenance_hash));
  if (!r.exhausted()) return DataLoss("manifest: trailing bytes");
  return m;
}

}  // namespace drai::shard
