// drai/shard/checkpoint.hpp
//
// On-disk checkpoint container: the format layer for pipeline stage
// checkpoint/resume. A checkpoint file is a RecIO stream (CRC-protected
// records, torn-write detection) whose header metadata carries the
// checkpoint identity (pipeline, run, plan fingerprint, stages done) and
// whose records are named opaque sections — the executor stores its bundle
// and provenance snapshots here without this layer knowing their types.
// Like every shard format, a reader rejects corruption as kDataLoss at the
// exact record that was damaged.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "container/recio.hpp"

namespace drai::shard {

/// Identity of one checkpoint: which pipeline run it belongs to, the
/// structural fingerprint of the plan that produced it, and how many plan
/// stages the saved state has already absorbed.
struct CheckpointMeta {
  std::string pipeline;
  uint64_t run_index = 0;
  std::string plan_fingerprint;
  uint64_t stages_done = 0;
};

/// A decoded checkpoint: identity plus named opaque sections.
struct CheckpointFile {
  CheckpointMeta meta;
  std::map<std::string, Bytes> sections;
};

/// Builds a checkpoint file in one buffer. Each section's payload is
/// written straight into the file, so a multi-megabyte bundle is serialized
/// once and never copied. Sections go in strictly ascending name order, the
/// order EncodeCheckpoint writes, so equal inputs give equal files.
class CheckpointWriter {
 public:
  /// `size_hint` is the expected file size, allocated up front.
  CheckpointWriter(const CheckpointMeta& meta, size_t size_hint);

  /// Append section `name`, whose payload `write(w)` appends to `w`;
  /// `size_hint` is the payload's expected size.
  template <typename Write>
  void Add(std::string_view name, uint64_t size_hint, Write&& write) {
    CheckOrder(name);
    const uint64_t record_hint = ByteWriter::VarU64Size(name.size()) +
                                 name.size() +
                                 ByteWriter::VarU64Size(size_hint) + size_hint;
    records_.AppendWith(record_hint, [&](ByteWriter& w) {
      w.PutString(name);
      w.PutBlobWith(size_hint, write);
    });
  }
  void Add(std::string_view name, std::span<const std::byte> payload);

  /// The finished file.
  Bytes Finish() { return records_.Finish(); }

 private:
  /// Throws std::invalid_argument unless `name` sorts after the last one.
  void CheckOrder(std::string_view name);

  container::RecWriter records_;
  std::optional<std::string> last_;
};

/// Serialize a checkpoint. Sections are written in ascending name order so
/// equal inputs produce byte-identical files.
Bytes EncodeCheckpoint(const CheckpointMeta& meta,
                       const std::map<std::string, Bytes>& sections);

/// Parse a checkpoint file. Corruption anywhere (header, meta, any
/// section's CRC) returns kDataLoss — a damaged checkpoint must never be
/// resumed from.
Result<CheckpointFile> DecodeCheckpoint(std::span<const std::byte> file);

}  // namespace drai::shard
