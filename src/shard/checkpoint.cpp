#include "shard/checkpoint.hpp"

#include <stdexcept>

namespace drai::shard {

namespace {

constexpr uint32_t kMetaVersion = 1;

Bytes EncodeMeta(const CheckpointMeta& meta) {
  ByteWriter w;
  w.PutU32(kMetaVersion);
  w.PutString(meta.pipeline);
  w.PutU64(meta.run_index);
  w.PutString(meta.plan_fingerprint);
  w.PutU64(meta.stages_done);
  return w.Take();
}

Result<CheckpointMeta> DecodeMeta(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  uint32_t version = 0;
  DRAI_RETURN_IF_ERROR(r.GetU32(version));
  if (version != kMetaVersion) {
    return DataLoss("checkpoint meta version " + std::to_string(version) +
                    " unsupported");
  }
  CheckpointMeta meta;
  DRAI_RETURN_IF_ERROR(r.GetString(meta.pipeline));
  DRAI_RETURN_IF_ERROR(r.GetU64(meta.run_index));
  DRAI_RETURN_IF_ERROR(r.GetString(meta.plan_fingerprint));
  DRAI_RETURN_IF_ERROR(r.GetU64(meta.stages_done));
  return meta;
}

}  // namespace

CheckpointWriter::CheckpointWriter(const CheckpointMeta& meta,
                                   size_t size_hint)
    : records_(EncodeMeta(meta), size_hint) {}

void CheckpointWriter::Add(std::string_view name,
                           std::span<const std::byte> payload) {
  Add(name, payload.size(), [&](ByteWriter& w) { w.PutRaw(payload); });
}

void CheckpointWriter::CheckOrder(std::string_view name) {
  if (last_.has_value() && name <= *last_) {
    throw std::invalid_argument("checkpoint section '" + std::string(name) +
                                "' is out of order");
  }
  last_ = std::string(name);
}

Bytes EncodeCheckpoint(const CheckpointMeta& meta,
                       const std::map<std::string, Bytes>& sections) {
  size_t size_hint = 64;
  for (const auto& [name, payload] : sections) {
    size_hint += name.size() + payload.size() + 24;
  }
  CheckpointWriter writer(meta, size_hint);
  for (const auto& [name, payload] : sections) {  // std::map: ascending
    writer.Add(name, payload);
  }
  return writer.Finish();
}

Result<CheckpointFile> DecodeCheckpoint(std::span<const std::byte> file) {
  DRAI_ASSIGN_OR_RETURN(container::RecReader reader,
                        container::RecReader::Open(file));
  CheckpointFile out;
  DRAI_ASSIGN_OR_RETURN(out.meta, DecodeMeta(reader.metadata()));
  for (;;) {
    DRAI_ASSIGN_OR_RETURN(std::optional<Bytes> record, reader.Next());
    if (!record.has_value()) break;
    ByteReader r(*record);
    std::string name;
    Bytes payload;
    DRAI_RETURN_IF_ERROR(r.GetString(name));
    DRAI_RETURN_IF_ERROR(r.GetBlob(payload));
    out.sections[std::move(name)] = std::move(payload);
  }
  return out;
}

}  // namespace drai::shard
