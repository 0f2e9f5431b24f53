// drai/common/bytes.hpp
//
// Little-endian byte serialization used by every drai on-disk format.
// ByteWriter appends primitives to a growable buffer; ByteReader consumes a
// span of untrusted bytes and reports truncation via Status rather than UB.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace drai {

using Bytes = std::vector<std::byte>;

/// Appends little-endian primitives, varints and length-prefixed blobs to an
/// internal buffer. All drai containers serialize through this class so the
/// wire format is uniform and host-endianness independent.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(size_t reserve) { buf_.reserve(reserve); }

  void PutU8(uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void PutU16(uint16_t v) { PutLE(v); }
  void PutU32(uint32_t v) { PutLE(v); }
  void PutU64(uint64_t v) { PutLE(v); }
  void PutI8(int8_t v) { PutU8(static_cast<uint8_t>(v)); }
  void PutI16(int16_t v) { PutLE(static_cast<uint16_t>(v)); }
  void PutI32(int32_t v) { PutLE(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutLE(static_cast<uint64_t>(v)); }

  void PutF32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutLE(bits);
  }
  void PutF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutLE(bits);
  }

  /// Unsigned LEB128.
  void PutVarU64(uint64_t v);
  /// Zigzag-encoded signed LEB128.
  void PutVarI64(int64_t v);

  /// Raw bytes, no length prefix.
  void PutRaw(std::span<const std::byte> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void PutRaw(const void* data, size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  /// A format magic such as "SDF1". Out of line on purpose: PutRaw inlined
  /// into a freshly built writer trips g++ 12's -Wstringop-overflow at -O3
  /// (a false positive on the empty vector), and every format opens so.
  void PutMagic(std::string_view magic);

  /// Little-endian 16-bit words, in one bulk write.
  void PutU16s(std::span<const uint16_t> words) {
    const size_t at = buf_.size();
    buf_.resize(at + 2 * words.size());
    std::byte* out = buf_.data() + at;
    if constexpr (std::endian::native == std::endian::little) {
      if (!words.empty()) std::memcpy(out, words.data(), 2 * words.size());
    } else {
      for (const uint16_t v : words) {
        *out++ = static_cast<std::byte>(v & 0xff);
        *out++ = static_cast<std::byte>(v >> 8);
      }
    }
  }

  /// Varint length prefix followed by the string bytes.
  void PutString(std::string_view s) {
    PutVarU64(s.size());
    PutRaw(s.data(), s.size());
  }
  /// Varint length prefix followed by the blob bytes.
  void PutBlob(std::span<const std::byte> data) {
    PutVarU64(data.size());
    PutRaw(data);
  }
  /// PutBlob for a blob that `write(*this)` appends in place, so it is never
  /// built in a buffer of its own. The length prefix is reserved for
  /// `size_hint` bytes and patched afterwards; a hint whose varint width is
  /// wrong costs one move of the blob, never different bytes.
  template <typename Write>
  void PutBlobWith(uint64_t size_hint, Write&& write) {
    const size_t at = buf_.size();
    const size_t reserved = VarU64Size(size_hint);
    PutZeros(reserved);
    write(*this);
    PatchVarU64(at, reserved, buf_.size() - at - reserved);
  }

  /// `n` zero bytes (placeholders patched later).
  void PutZeros(size_t n) { buf_.resize(buf_.size() + n); }

  /// Bytes PutVarU64(v) appends.
  static size_t VarU64Size(uint64_t v) {
    size_t n = 1;
    for (; v >= 0x80; v >>= 7) ++n;
    return n;
  }

  [[nodiscard]] size_t size() const { return buf_.size(); }
  [[nodiscard]] std::span<const std::byte> bytes() const { return buf_; }

  /// Overwrite 4 bytes at `offset` (used for patching placeholder lengths
  /// and CRCs after a section is complete).
  void PatchU32(size_t offset, uint32_t v);
  void PatchU64(size_t offset, uint64_t v);
  /// Write `v` as a varint into the `reserved` bytes set aside at `offset`.
  /// When the varint is wider or narrower than that, everything after the
  /// slot moves so the varint fits exactly.
  void PatchVarU64(size_t offset, size_t reserved, uint64_t v);

  /// Moves the buffer out; the writer is empty afterwards.
  Bytes Take() { return std::move(buf_); }

 private:
  template <typename T>
  void PutLE(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
    }
  }
  Bytes buf_;
};

/// Consumes a non-owning span of bytes. Every getter checks remaining size
/// and returns kDataLoss on truncation — decoders never read past the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] size_t position() const { return pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ >= data_.size(); }

  Status GetU8(uint8_t& out);
  Status GetU16(uint16_t& out) { return GetLE(out); }
  Status GetU32(uint32_t& out) { return GetLE(out); }
  Status GetU64(uint64_t& out) { return GetLE(out); }
  Status GetI8(int8_t& out);
  Status GetI16(int16_t& out);
  Status GetI32(int32_t& out);
  Status GetI64(int64_t& out);
  Status GetF32(float& out);
  Status GetF64(double& out);
  Status GetVarU64(uint64_t& out);
  Status GetVarI64(int64_t& out);

  /// Reads exactly n bytes into out.
  Status GetRaw(void* out, size_t n);
  /// Returns a subspan view of n bytes (no copy) and advances.
  Status GetSpan(size_t n, std::span<const std::byte>& out);
  /// Varint-prefixed string.
  Status GetString(std::string& out);
  /// Varint-prefixed blob (copied).
  Status GetBlob(Bytes& out);

  /// Skip n bytes.
  Status Skip(size_t n);
  /// Absolute seek.
  Status Seek(size_t pos);

 private:
  template <typename T>
  Status GetLE(T& out) {
    if (remaining() < sizeof(T)) {
      return DataLoss("byte stream truncated");
    }
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    out = v;
    pos_ += sizeof(T);
    return Status::Ok();
  }
  std::span<const std::byte> data_;
  size_t pos_ = 0;
};

/// Convenience conversions between string-ish data and Bytes.
Bytes ToBytes(std::string_view s);
std::string BytesToString(std::span<const std::byte> b);

}  // namespace drai
