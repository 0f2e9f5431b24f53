// drai/core/checkpoint.hpp
//
// Stage checkpoint/resume for the pipeline executor. After every successful
// stage group the executor can persist the run's full restart state — the
// merged bundle, the provenance graph, and the lineage cursor — through a
// CheckpointSink. Pipeline::Resume later reloads the newest checkpoint and
// runs only the remaining stages; because RNG streams and fault decisions
// key off absolute stage indices, a resumed run reproduces the killed run's
// downstream results byte-for-byte.
//
// The on-disk format lives in shard/checkpoint.hpp (a CRC-checked RecIO
// section container); this layer binds it to the executor's types.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "core/bundle.hpp"
#include "core/executor.hpp"

namespace drai::par {
class StripedStore;
}  // namespace drai::par

namespace drai::core {

/// Everything needed to restart a run from after stage `stages_done - 1`.
struct PipelineCheckpoint {
  std::string pipeline;
  uint64_t run_index = 1;
  /// PipelinePlan::Fingerprint() of the plan that produced the state; a
  /// resume against a structurally different plan is refused.
  std::string plan_fingerprint;
  /// Plan stages already applied to `bundle` (== next stage to run).
  size_t stages_done = 0;
  DataBundle bundle;
  /// Serialized ProvenanceGraph at the checkpoint, empty when capture was
  /// off. Restored on resume so lineage (and the provenance hash embedded
  /// in downstream shard manifests) is identical to an uninterrupted run.
  Bytes provenance;
  /// The lineage cursor (index of the latest bundle-state artifact).
  std::optional<size_t> last_state;
  /// Partitions the run quarantined so far, pristine slices included, so a
  /// later Resume can re-ingest the dropped records once the transient
  /// fault clears.
  std::vector<QuarantineRecord> quarantined;
};

/// Where checkpoints go. Save replaces the pipeline's previous checkpoint
/// and, when `bytes_written` is set, stores the size of what it wrote there;
/// LoadLatest returns nullopt when none exists yet.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  virtual Status Save(const PipelineCheckpoint& checkpoint,
                      uint64_t* bytes_written = nullptr) = 0;
  virtual Result<std::optional<PipelineCheckpoint>> LoadLatest(
      const std::string& pipeline) = 0;
};

/// CheckpointSink over the simulated parallel filesystem, one file per
/// pipeline under `directory`, in the shard/checkpoint.hpp container
/// format. Save serializes the checkpoint once, straight into the buffer
/// that becomes the file, and swaps it in with one all-or-nothing
/// StripedStore::Replace: a save the store refuses leaves the previous
/// checkpoint whole. A torn or corrupted file surfaces as kDataLoss from
/// LoadLatest.
class StoreCheckpointSink final : public CheckpointSink {
 public:
  StoreCheckpointSink(par::StripedStore& store, std::string directory);

  Status Save(const PipelineCheckpoint& checkpoint,
              uint64_t* bytes_written = nullptr) override;
  Result<std::optional<PipelineCheckpoint>> LoadLatest(
      const std::string& pipeline) override;

  /// Path a pipeline's checkpoint lives at (for tests and corruption
  /// drills).
  [[nodiscard]] std::string PathFor(const std::string& pipeline) const;

 private:
  par::StripedStore& store_;
  std::string directory_;
};

}  // namespace drai::core
