#include "shard/shard_writer.hpp"

#include <cstdio>

namespace drai::shard {

ShardWriter::ShardWriter(par::StripedStore& store, ShardWriterConfig config)
    : store_(store),
      config_(std::move(config)),
      assigner_(config_.train_frac, config_.val_frac, config_.test_frac,
                config_.split_seed) {}

std::string ShardWriter::ManifestPath(const std::string& directory) {
  return directory + "/manifest.dmf";
}

std::string ShardWriter::ShardPath(Split split, uint64_t index) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s-%05llu.rec",
                std::string(SplitName(split)).c_str(),
                static_cast<unsigned long long>(index));
  return config_.directory + "/" + buf;
}

Status ShardWriter::CheckSchema(const Example& example) {
  if (schema_.empty()) {
    for (const auto& [name, tensor] : example.features) {
      schema_.push_back({name, tensor.dtype(), tensor.shape()});
    }
    return Status::Ok();
  }
  if (example.features.size() != schema_.size()) {
    return InvalidArgument("example '" + example.key +
                           "' feature count differs from schema");
  }
  size_t i = 0;
  for (const auto& [name, tensor] : example.features) {
    FeatureSpec& spec = schema_[i++];
    if (name != spec.name) {
      return InvalidArgument("example '" + example.key + "' feature '" + name +
                             "' not in schema");
    }
    if (tensor.dtype() != spec.dtype || tensor.rank() != spec.shape.size()) {
      return InvalidArgument("example '" + example.key + "' feature '" + name +
                             "' rank/dtype differs from schema");
    }
    // Graph-like datasets have per-sample sizes (node/edge counts); a
    // dimension that varies is recorded as 0 ("dynamic") in the schema.
    for (size_t d = 0; d < spec.shape.size(); ++d) {
      if (spec.shape[d] != 0 && tensor.shape()[d] != spec.shape[d]) {
        spec.shape[d] = 0;
      }
    }
  }
  return Status::Ok();
}

Result<Split> ShardWriter::Add(const Example& example) {
  const Split split = assigner_.Assign(example.key);
  DRAI_RETURN_IF_ERROR(AddTo(split, example));
  return split;
}

Status ShardWriter::AddTo(Split split, const Example& example) {
  if (finalized_) return FailedPrecondition("ShardWriter already finalized");
  DRAI_RETURN_IF_ERROR(CheckSchema(example));
  OpenShard& shard = open_.try_emplace(split).first->second;
  const Bytes payload = example.Serialize(config_.tensor_codec);
  shard.rec.Append(payload);
  ++shard.records;
  ++records_written_;
  const bool size_full = shard.rec.byte_size() >= config_.target_shard_bytes;
  const bool count_full = config_.max_records_per_shard > 0 &&
                          shard.records >= config_.max_records_per_shard;
  if (size_full || count_full) {
    DRAI_RETURN_IF_ERROR(FlushShard(split));
  }
  return Status::Ok();
}

Status ShardWriter::FlushShard(Split split) {
  auto it = open_.find(split);
  if (it == open_.end() || it->second.records == 0) return Status::Ok();
  OpenShard& shard = it->second;
  const uint64_t records = shard.records;
  const Bytes file = shard.rec.Finish();
  const std::string path = ShardPath(split, done_[split].size());
  DRAI_RETURN_IF_ERROR(store_.Create(path, config_.stripe_count));
  DRAI_RETURN_IF_ERROR(store_.Write(path, 0, file));
  done_[split].push_back({path, records, file.size()});
  open_.erase(it);
  return Status::Ok();
}

void ShardWriter::SetNormalizerBlob(Bytes blob) {
  normalizer_blob_ = std::move(blob);
}

void ShardWriter::SetProvenanceHash(std::string hex) {
  provenance_hash_ = std::move(hex);
}

Result<DatasetManifest> ShardWriter::Finalize() {
  if (finalized_) return FailedPrecondition("ShardWriter already finalized");
  for (Split s : kAllSplits) {
    DRAI_RETURN_IF_ERROR(FlushShard(s));
  }
  finalized_ = true;
  DatasetManifest m;
  m.dataset_name = config_.dataset_name;
  m.created_by = config_.created_by;
  m.split_seed = config_.split_seed;
  m.schema = schema_;
  m.shards = done_;
  m.normalizer_blob = normalizer_blob_;
  m.provenance_hash = provenance_hash_;
  const Bytes bytes = m.Serialize();
  const std::string path = ManifestPath(config_.directory);
  DRAI_RETURN_IF_ERROR(store_.Create(path, config_.stripe_count));
  DRAI_RETURN_IF_ERROR(store_.Write(path, 0, bytes));
  return m;
}

}  // namespace drai::shard
