#include "common/bytes.hpp"

namespace drai {

void ByteWriter::PutVarU64(uint64_t v) {
  while (v >= 0x80) {
    PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  PutU8(static_cast<uint8_t>(v));
}

void ByteWriter::PutVarI64(int64_t v) {
  // Zigzag: maps small-magnitude signed values to small unsigned values.
  const uint64_t u = (static_cast<uint64_t>(v) << 1) ^
                     static_cast<uint64_t>(v >> 63);
  PutVarU64(u);
}

void ByteWriter::PutMagic(std::string_view magic) {
  PutRaw(magic.data(), magic.size());
}

void ByteWriter::PatchU32(size_t offset, uint32_t v) {
  if (offset + 4 > buf_.size()) {
    throw std::out_of_range("ByteWriter::PatchU32 past end");
  }
  for (size_t i = 0; i < 4; ++i) {
    buf_[offset + i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}

void ByteWriter::PatchU64(size_t offset, uint64_t v) {
  if (offset + 8 > buf_.size()) {
    throw std::out_of_range("ByteWriter::PatchU64 past end");
  }
  for (size_t i = 0; i < 8; ++i) {
    buf_[offset + i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}

void ByteWriter::PatchVarU64(size_t offset, size_t reserved, uint64_t v) {
  if (offset + reserved > buf_.size()) {
    throw std::out_of_range("ByteWriter::PatchVarU64 past end");
  }
  const size_t width = VarU64Size(v);
  const auto slot = buf_.begin() + static_cast<ptrdiff_t>(offset);
  if (width < reserved) {
    buf_.erase(slot, slot + static_cast<ptrdiff_t>(reserved - width));
  } else if (width > reserved) {
    buf_.insert(slot, width - reserved, std::byte{0});
  }
  for (size_t i = 0; i + 1 < width; ++i, v >>= 7) {
    buf_[offset + i] = static_cast<std::byte>((v & 0x7f) | 0x80);
  }
  buf_[offset + width - 1] = static_cast<std::byte>(v);
}

Status ByteReader::GetU8(uint8_t& out) {
  if (remaining() < 1) return DataLoss("byte stream truncated");
  out = static_cast<uint8_t>(data_[pos_++]);
  return Status::Ok();
}

Status ByteReader::GetI8(int8_t& out) {
  uint8_t u = 0;
  DRAI_RETURN_IF_ERROR(GetU8(u));
  out = static_cast<int8_t>(u);
  return Status::Ok();
}

Status ByteReader::GetI16(int16_t& out) {
  uint16_t u = 0;
  DRAI_RETURN_IF_ERROR(GetU16(u));
  out = static_cast<int16_t>(u);
  return Status::Ok();
}

Status ByteReader::GetI32(int32_t& out) {
  uint32_t u = 0;
  DRAI_RETURN_IF_ERROR(GetU32(u));
  out = static_cast<int32_t>(u);
  return Status::Ok();
}

Status ByteReader::GetI64(int64_t& out) {
  uint64_t u = 0;
  DRAI_RETURN_IF_ERROR(GetU64(u));
  out = static_cast<int64_t>(u);
  return Status::Ok();
}

Status ByteReader::GetF32(float& out) {
  uint32_t bits = 0;
  DRAI_RETURN_IF_ERROR(GetU32(bits));
  std::memcpy(&out, &bits, sizeof(out));
  return Status::Ok();
}

Status ByteReader::GetF64(double& out) {
  uint64_t bits = 0;
  DRAI_RETURN_IF_ERROR(GetU64(bits));
  std::memcpy(&out, &bits, sizeof(out));
  return Status::Ok();
}

Status ByteReader::GetVarU64(uint64_t& out) {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) return DataLoss("varint overflows 64 bits");
    uint8_t b = 0;
    DRAI_RETURN_IF_ERROR(GetU8(b));
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  out = v;
  return Status::Ok();
}

Status ByteReader::GetVarI64(int64_t& out) {
  uint64_t u = 0;
  DRAI_RETURN_IF_ERROR(GetVarU64(u));
  out = static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
  return Status::Ok();
}

Status ByteReader::GetRaw(void* out, size_t n) {
  if (remaining() < n) return DataLoss("byte stream truncated");
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return Status::Ok();
}

Status ByteReader::GetSpan(size_t n, std::span<const std::byte>& out) {
  if (remaining() < n) return DataLoss("byte stream truncated");
  out = data_.subspan(pos_, n);
  pos_ += n;
  return Status::Ok();
}

Status ByteReader::GetString(std::string& out) {
  uint64_t n = 0;
  DRAI_RETURN_IF_ERROR(GetVarU64(n));
  if (remaining() < n) return DataLoss("string truncated");
  out.assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return Status::Ok();
}

Status ByteReader::GetBlob(Bytes& out) {
  uint64_t n = 0;
  DRAI_RETURN_IF_ERROR(GetVarU64(n));
  if (remaining() < n) return DataLoss("blob truncated");
  out.assign(data_.begin() + static_cast<ptrdiff_t>(pos_),
             data_.begin() + static_cast<ptrdiff_t>(pos_ + n));
  pos_ += n;
  return Status::Ok();
}

Status ByteReader::Skip(size_t n) {
  if (remaining() < n) return DataLoss("skip past end of stream");
  pos_ += n;
  return Status::Ok();
}

Status ByteReader::Seek(size_t pos) {
  if (pos > data_.size()) return OutOfRange("seek past end of stream");
  pos_ = pos;
  return Status::Ok();
}

Bytes ToBytes(std::string_view s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return Bytes(p, p + s.size());
}

std::string BytesToString(std::span<const std::byte> b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

}  // namespace drai
