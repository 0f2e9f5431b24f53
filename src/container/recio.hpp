// drai/container/recio.hpp
//
// RecIO — a TFRecord-style record stream: the write-once, read-sequential
// binary format training shards use. Each record is opaque bytes framed as
//   length:varint | crc32(payload):u32 | payload
// after a file header (magic, version, user metadata blob). Designed so a
// reader can (a) iterate records without deserializing them and (b) detect
// torn writes at the exact record that was cut.
#pragma once

#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace drai::container {

/// Builds a record stream in memory. The result is a complete, valid file
/// after every Append — suitable for append-mode shard writers.
class RecWriter {
 public:
  /// `metadata` is an opaque user blob stored in the header (e.g. a
  /// serialized schema or normalizer). `reserve` is the expected stream
  /// size, allocated up front.
  explicit RecWriter(std::span<const std::byte> metadata = {},
                     size_t reserve = 0);

  /// Append one record.
  void Append(std::span<const std::byte> payload);
  void Append(std::string_view payload);
  /// Append one record whose payload `write(w)` appends to the stream in
  /// place, so it is never built in a buffer of its own. `size_hint` is
  /// the expected payload size (see ByteWriter::PutBlobWith).
  template <typename Write>
  void AppendWith(uint64_t size_hint, Write&& write) {
    const size_t at = writer_.size();
    const size_t reserved = ByteWriter::VarU64Size(size_hint);
    writer_.PutZeros(reserved + sizeof(uint32_t));  // length, CRC
    write(writer_);
    Seal(at, reserved);
  }

  [[nodiscard]] size_t record_count() const { return count_; }
  [[nodiscard]] size_t byte_size() const { return writer_.size(); }

  /// The finished stream. The writer is reset afterwards.
  Bytes Finish();

  static constexpr char kMagic[4] = {'R', 'E', 'C', '1'};

 private:
  /// Fill in the length and CRC of the record whose header slot (a
  /// `reserved`-byte length, then the CRC) starts at `at`.
  void Seal(size_t at, size_t reserved);

  ByteWriter writer_;
  size_t count_ = 0;
};

/// Iterates a record stream. Construction validates the header only;
/// records are validated (CRC) as they are read.
class RecReader {
 public:
  static Result<RecReader> Open(std::span<const std::byte> file);

  /// Metadata blob from the header.
  [[nodiscard]] std::span<const std::byte> metadata() const { return metadata_; }

  /// Next record payload, or std::nullopt at end of stream.
  /// Corruption returns kDataLoss.
  Result<std::optional<Bytes>> Next();

  /// Read all remaining records.
  Result<std::vector<Bytes>> ReadAll();

  /// Count records without copying payloads (still CRC-checks).
  Result<size_t> CountRecords();

 private:
  explicit RecReader(std::span<const std::byte> file) : reader_(file) {}
  ByteReader reader_;
  std::span<const std::byte> metadata_;
};

}  // namespace drai::container
