#include "container/recio.hpp"

#include <cstring>

#include "common/hash.hpp"

namespace drai::container {

RecWriter::RecWriter(std::span<const std::byte> metadata, size_t reserve)
    : writer_(reserve) {
  writer_.PutMagic({kMagic, 4});
  writer_.PutU16(1);  // version
  writer_.PutBlob(metadata);
}

void RecWriter::Append(std::span<const std::byte> payload) {
  AppendWith(payload.size(), [&](ByteWriter& w) { w.PutRaw(payload); });
}

void RecWriter::Seal(size_t at, size_t reserved) {
  const size_t start = at + reserved + sizeof(uint32_t);
  writer_.PatchU32(at + reserved, Crc32(writer_.bytes().subspan(start)));
  writer_.PatchVarU64(at, reserved, writer_.size() - start);
  ++count_;
}

void RecWriter::Append(std::string_view payload) {
  Append(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(payload.data()), payload.size()));
}

Bytes RecWriter::Finish() {
  count_ = 0;
  Bytes out = writer_.Take();
  // Re-arm with an empty header so accidental reuse still produces a valid
  // (empty) stream rather than a corrupt one.
  writer_ = ByteWriter();
  writer_.PutMagic({kMagic, 4});
  writer_.PutU16(1);
  writer_.PutBlob({});
  return out;
}

Result<RecReader> RecReader::Open(std::span<const std::byte> file) {
  RecReader rd(file);
  char magic[4];
  DRAI_RETURN_IF_ERROR(rd.reader_.GetRaw(magic, 4));
  if (std::memcmp(magic, RecWriter::kMagic, 4) != 0) {
    return DataLoss("recio: bad magic");
  }
  uint16_t version = 0;
  DRAI_RETURN_IF_ERROR(rd.reader_.GetU16(version));
  if (version != 1) return DataLoss("recio: unsupported version");
  uint64_t meta_len = 0;
  DRAI_RETURN_IF_ERROR(rd.reader_.GetVarU64(meta_len));
  DRAI_RETURN_IF_ERROR(rd.reader_.GetSpan(meta_len, rd.metadata_));
  return rd;
}

Result<std::optional<Bytes>> RecReader::Next() {
  if (reader_.exhausted()) return std::optional<Bytes>(std::nullopt);
  uint64_t len = 0;
  DRAI_RETURN_IF_ERROR(reader_.GetVarU64(len));
  uint32_t crc = 0;
  DRAI_RETURN_IF_ERROR(reader_.GetU32(crc));
  std::span<const std::byte> payload;
  DRAI_RETURN_IF_ERROR(reader_.GetSpan(len, payload));
  if (Crc32(payload) != crc) return DataLoss("recio: record crc mismatch");
  return std::optional<Bytes>(Bytes(payload.begin(), payload.end()));
}

Result<std::vector<Bytes>> RecReader::ReadAll() {
  std::vector<Bytes> out;
  for (;;) {
    DRAI_ASSIGN_OR_RETURN(std::optional<Bytes> rec, Next());
    if (!rec.has_value()) break;
    out.push_back(std::move(*rec));
  }
  return out;
}

Result<size_t> RecReader::CountRecords() {
  size_t n = 0;
  for (;;) {
    DRAI_ASSIGN_OR_RETURN(std::optional<Bytes> rec, Next());
    if (!rec.has_value()) break;
    ++n;
  }
  return n;
}

}  // namespace drai::container
