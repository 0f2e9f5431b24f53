#include "core/checkpoint.hpp"

#include <cstdio>
#include <map>

#include "parallel/striped_store.hpp"
#include "shard/checkpoint.hpp"

namespace drai::core {

namespace {

// Quarantined partitions travel as one section each ("quarantine/0007"),
// pristine slice included, so Resume can re-ingest the dropped records.
// Zero-padded keys keep the section map's lexicographic order equal to
// execution order.
std::string QuarantineKey(size_t i) {
  char key[32];
  std::snprintf(key, sizeof key, "quarantine/%04zu", i);
  return key;
}

void EncodeQuarantine(ByteWriter& w, const QuarantineRecord& q) {
  w.PutString(q.stage);
  w.PutVarU64(q.stage_index);
  w.PutVarU64(q.partition);
  w.PutVarU64(q.slot.index);
  w.PutVarU64(q.slot.count);
  w.PutVarU64(q.slot.lo);
  w.PutVarU64(q.slot.hi);
  w.PutVarU64(q.attempts);
  w.PutVarU64(static_cast<uint64_t>(q.error.code()));
  w.PutString(q.error.message());
  w.PutVarU64(q.units);
  w.PutBlobWith(q.slice.SerializedSizeHint(),
                [&](ByteWriter& out) { q.slice.Serialize(out); });
}

/// EncodeQuarantine's size estimate: ten varints, two strings, the slice.
uint64_t QuarantineSizeHint(const QuarantineRecord& q) {
  return q.stage.size() + q.error.message().size() +
         q.slice.SerializedSizeHint() + 64;
}

Result<QuarantineRecord> DecodeQuarantine(const Bytes& payload) {
  ByteReader r(payload);
  QuarantineRecord q;
  uint64_t u = 0;
  DRAI_RETURN_IF_ERROR(r.GetString(q.stage));
  DRAI_RETURN_IF_ERROR(r.GetVarU64(u));
  q.stage_index = static_cast<size_t>(u);
  DRAI_RETURN_IF_ERROR(r.GetVarU64(u));
  q.partition = static_cast<size_t>(u);
  DRAI_RETURN_IF_ERROR(r.GetVarU64(u));
  q.slot.index = static_cast<size_t>(u);
  DRAI_RETURN_IF_ERROR(r.GetVarU64(u));
  q.slot.count = static_cast<size_t>(u);
  DRAI_RETURN_IF_ERROR(r.GetVarU64(u));
  q.slot.lo = static_cast<size_t>(u);
  DRAI_RETURN_IF_ERROR(r.GetVarU64(u));
  q.slot.hi = static_cast<size_t>(u);
  DRAI_RETURN_IF_ERROR(r.GetVarU64(u));
  q.attempts = static_cast<size_t>(u);
  DRAI_RETURN_IF_ERROR(r.GetVarU64(u));
  std::string message;
  DRAI_RETURN_IF_ERROR(r.GetString(message));
  q.error = Status(static_cast<StatusCode>(u), std::move(message));
  DRAI_RETURN_IF_ERROR(r.GetVarU64(u));
  q.units = static_cast<size_t>(u);
  Bytes slice;
  DRAI_RETURN_IF_ERROR(r.GetBlob(slice));
  DRAI_ASSIGN_OR_RETURN(q.slice, DataBundle::Parse(slice));
  return q;
}

}  // namespace

StoreCheckpointSink::StoreCheckpointSink(par::StripedStore& store,
                                         std::string directory)
    : store_(store), directory_(std::move(directory)) {}

std::string StoreCheckpointSink::PathFor(const std::string& pipeline) const {
  return directory_ + "/" + pipeline + ".ckpt";
}

Status StoreCheckpointSink::Save(const PipelineCheckpoint& checkpoint,
                                 uint64_t* bytes_written) {
  shard::CheckpointMeta meta;
  meta.pipeline = checkpoint.pipeline;
  meta.run_index = checkpoint.run_index;
  meta.plan_fingerprint = checkpoint.plan_fingerprint;
  meta.stages_done = checkpoint.stages_done;

  // Sized so the file is built without regrowing: the header, meta and
  // each record's name and framing take well under the 256 and 32 bytes.
  const uint64_t bundle_hint = checkpoint.bundle.SerializedSizeHint();
  uint64_t file_hint = bundle_hint + checkpoint.provenance.size() + 256;
  for (const QuarantineRecord& q : checkpoint.quarantined) {
    file_hint += QuarantineSizeHint(q) + 32;
  }
  // Sections in ascending name order: bundle, last_state, provenance,
  // quarantine/NNNN.
  shard::CheckpointWriter file(meta, file_hint);
  file.Add("bundle", bundle_hint,
           [&](ByteWriter& w) { checkpoint.bundle.Serialize(w); });
  if (checkpoint.last_state.has_value()) {
    file.Add("last_state", sizeof(uint64_t), [&](ByteWriter& w) {
      w.PutU64(static_cast<uint64_t>(*checkpoint.last_state));
    });
  }
  if (!checkpoint.provenance.empty()) {
    file.Add("provenance", checkpoint.provenance);
  }
  // In key order, which is index order below 10000 quarantined slices.
  std::map<std::string, const QuarantineRecord*> quarantine;
  for (size_t i = 0; i < checkpoint.quarantined.size(); ++i) {
    quarantine.emplace(QuarantineKey(i), &checkpoint.quarantined[i]);
  }
  for (const auto& [key, q] : quarantine) {
    file.Add(key, QuarantineSizeHint(*q),
             [&](ByteWriter& w) { EncodeQuarantine(w, *q); });
  }

  Bytes bytes = file.Finish();
  const uint64_t size = bytes.size();
  // Replace swaps the new checkpoint in whole, or not at all: a reader never
  // sees a mix of two saves, and a refused save keeps the previous one.
  DRAI_RETURN_IF_ERROR(
      store_.Replace(PathFor(checkpoint.pipeline), std::move(bytes)));
  if (bytes_written != nullptr) *bytes_written = size;
  return Status::Ok();
}

Result<std::optional<PipelineCheckpoint>> StoreCheckpointSink::LoadLatest(
    const std::string& pipeline) {
  const std::string path = PathFor(pipeline);
  if (!store_.Exists(path)) return std::optional<PipelineCheckpoint>{};
  DRAI_ASSIGN_OR_RETURN(Bytes file, store_.ReadAll(path));
  DRAI_ASSIGN_OR_RETURN(shard::CheckpointFile decoded,
                        shard::DecodeCheckpoint(file));

  PipelineCheckpoint cp;
  cp.pipeline = decoded.meta.pipeline;
  cp.run_index = decoded.meta.run_index;
  cp.plan_fingerprint = decoded.meta.plan_fingerprint;
  cp.stages_done = static_cast<size_t>(decoded.meta.stages_done);

  const auto bundle_it = decoded.sections.find("bundle");
  if (bundle_it == decoded.sections.end()) {
    return DataLoss("checkpoint '" + path + "' has no bundle section");
  }
  DRAI_ASSIGN_OR_RETURN(cp.bundle, DataBundle::Parse(bundle_it->second));
  if (const auto it = decoded.sections.find("provenance");
      it != decoded.sections.end()) {
    cp.provenance = it->second;
  }
  if (const auto it = decoded.sections.find("last_state");
      it != decoded.sections.end()) {
    ByteReader r(it->second);
    uint64_t v = 0;
    DRAI_RETURN_IF_ERROR(r.GetU64(v));
    cp.last_state = static_cast<size_t>(v);
  }
  // The section map is sorted and the keys are zero-padded, so quarantined
  // slices come back in the order the run dropped them.
  for (const auto& [key, payload] : decoded.sections) {
    if (key.rfind("quarantine/", 0) != 0) continue;
    DRAI_ASSIGN_OR_RETURN(QuarantineRecord q, DecodeQuarantine(payload));
    cp.quarantined.push_back(std::move(q));
  }
  return std::optional<PipelineCheckpoint>{std::move(cp)};
}

}  // namespace drai::core
