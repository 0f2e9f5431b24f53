// drai/core/bundle.hpp
//
// DataBundle — the typed blackboard a pipeline's stages read and write.
// A bundle can carry every modality the four archetypes produce (tensors,
// raw file blobs, tabular records, time-series signals, examples ready to
// shard) plus string/numeric annotations. Stages take what they need and
// leave the rest; the pipeline records what changed for provenance.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "container/tensor_io.hpp"
#include "ndarray/ndarray.hpp"
#include "privacy/tabular.hpp"
#include "shard/example.hpp"
#include "timeseries/signal.hpp"

namespace drai::core {

class DataBundle {
 public:
  // -- raw file blobs (ingest inputs) --
  std::map<std::string, Bytes> blobs;
  // -- decoded tensors (fields, feature matrices) --
  std::map<std::string, NDArray> tensors;
  // -- tabular data (clinical records) --
  std::map<std::string, privacy::Table> tables;
  // -- irregular time series (fusion diagnostics) --
  std::map<std::string, std::vector<timeseries::Signal>> signal_sets;
  // -- training examples (structure/shard stages) --
  std::vector<shard::Example> examples;
  // -- annotations: stage outputs, units, parameters --
  std::map<std::string, container::AttrValue> attrs;

  /// Lookup helpers returning kNotFound instead of default-constructing.
  Result<NDArray> Tensor(const std::string& name) const;
  Result<Bytes> Blob(const std::string& name) const;

  void SetAttr(const std::string& name, container::AttrValue v) {
    attrs[name] = std::move(v);
  }
  [[nodiscard]] std::optional<container::AttrValue> Attr(
      const std::string& name) const;
  [[nodiscard]] double AttrOr(const std::string& name, double fallback) const;

  /// Approximate resident size, for stage metrics.
  [[nodiscard]] uint64_t ApproxBytes() const;

  /// Deep copy. Plain copy-construction shares NDArray storage (tensors and
  /// example features are views onto refcounted buffers), so a stage that
  /// mutates a tensor in place writes through every "copy". Snapshots that
  /// must stay pristine while the original keeps running — retry/quarantine
  /// slices, speculative working copies — need Clone.
  [[nodiscard]] DataBundle Clone() const;

  /// Full-fidelity serialization for checkpointing: every collection, in
  /// deterministic (map/vector) order, so equal bundles produce equal
  /// bytes. Tensors ride the CRC-checked container encoding; corruption
  /// surfaces as kDataLoss from Parse.
  [[nodiscard]] Bytes Serialize() const;
  /// Serialize() appended to `w` in place (checkpoint files write the
  /// bundle straight into the file buffer).
  void Serialize(ByteWriter& w) const;
  /// Serialize() size estimate: payload bytes plus names, length prefixes
  /// and tensor headers. Sizes buffer reservations and in-place length
  /// prefixes; it need not be exact.
  [[nodiscard]] uint64_t SerializedSizeHint() const;
  static Result<DataBundle> Parse(std::span<const std::byte> bytes);
};

}  // namespace drai::core
