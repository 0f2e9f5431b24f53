#include "shard/shard_reader.hpp"

#include <algorithm>
#include <cstring>

#include "container/recio.hpp"
#include "shard/shard_writer.hpp"

namespace drai::shard {

Result<ShardReader> ShardReader::Open(par::StripedStore& store,
                                      const std::string& directory) {
  DRAI_ASSIGN_OR_RETURN(Bytes bytes,
                        store.ReadAll(ShardWriter::ManifestPath(directory)));
  DRAI_ASSIGN_OR_RETURN(DatasetManifest manifest,
                        DatasetManifest::Parse(bytes));
  return ShardReader(store, std::move(manifest));
}

size_t ShardReader::NumShards(Split split) const {
  auto it = manifest_.shards.find(split);
  return it == manifest_.shards.end() ? 0 : it->second.size();
}

Result<std::vector<Example>> ShardReader::ReadShard(Split split,
                                                    size_t shard_index) const {
  auto it = manifest_.shards.find(split);
  if (it == manifest_.shards.end() || shard_index >= it->second.size()) {
    return OutOfRange("shard index out of range");
  }
  const ShardInfo& info = it->second[shard_index];
  DRAI_ASSIGN_OR_RETURN(Bytes file, store_->ReadAll(info.file));
  DRAI_ASSIGN_OR_RETURN(container::RecReader rec,
                        container::RecReader::Open(file));
  // No reserve: the manifest's record count is untrusted.
  std::vector<Example> out;
  for (;;) {
    DRAI_ASSIGN_OR_RETURN(std::optional<Bytes> payload, rec.Next());
    if (!payload.has_value()) break;
    DRAI_ASSIGN_OR_RETURN(Example ex, Example::Parse(*payload));
    out.push_back(std::move(ex));
  }
  if (out.size() != info.records) {
    return DataLoss("shard record count mismatch: " + info.file);
  }
  return out;
}

Result<std::vector<Example>> ShardReader::ReadAll(Split split) const {
  std::vector<Example> out;
  for (size_t i = 0; i < NumShards(split); ++i) {
    DRAI_ASSIGN_OR_RETURN(std::vector<Example> shard, ReadShard(split, i));
    for (auto& ex : shard) out.push_back(std::move(ex));
  }
  return out;
}

Result<Batch> Collate(std::span<const Example> examples) {
  Batch batch;
  if (examples.empty()) return batch;
  const Example& first = examples.front();
  for (const auto& [name, tensor] : first.features) {
    Shape batched = tensor.shape();
    batched.insert(batched.begin(), examples.size());
    batch.features[name] = NDArray::Zeros(batched, tensor.dtype());
  }
  for (size_t i = 0; i < examples.size(); ++i) {
    const Example& ex = examples[i];
    batch.keys.push_back(ex.key);
    if (ex.features.size() != first.features.size()) {
      return InvalidArgument("collate: inconsistent feature sets");
    }
    for (const auto& [name, tensor] : ex.features) {
      auto it = batch.features.find(name);
      if (it == batch.features.end()) {
        return InvalidArgument("collate: feature '" + name +
                               "' missing from first example");
      }
      NDArray& dst = it->second;
      if (tensor.shape() != first.features.at(name).shape() ||
          tensor.dtype() != first.features.at(name).dtype()) {
        return InvalidArgument("collate: feature '" + name +
                               "' shape/dtype mismatch at sample " + ex.key);
      }
      // Contiguous row copy into slot i.
      const NDArray contiguous =
          tensor.IsContiguous() ? tensor : tensor.AsContiguous();
      const size_t row_bytes = contiguous.nbytes();
      std::memcpy(dst.raw_bytes_mut().data() + i * row_bytes,
                  contiguous.raw_bytes().data(), row_bytes);
    }
  }
  return batch;
}

DataLoader::DataLoader(const ShardReader& reader, Split split,
                       DataLoaderOptions options)
    : reader_(&reader), split_(split), options_(options) {
  if (options_.batch_size == 0) {
    throw std::invalid_argument("DataLoader: batch_size must be > 0");
  }
  shard_order_.resize(reader.NumShards(split));
  for (size_t i = 0; i < shard_order_.size(); ++i) shard_order_[i] = i;
}

uint64_t DataLoader::RecordsPerEpoch() const {
  const uint64_t total = reader_->NumRecords(split_);
  if (!options_.drop_last) return total;
  return total - total % options_.batch_size;
}

void DataLoader::StartEpoch(uint64_t epoch) {
  epoch_ = epoch;
  epoch_active_ = true;
  buffer_.clear();
  inflight_.clear();
  next_shard_to_schedule_ = 0;
  epoch_rng_ = Rng(options_.seed ^ (epoch * 0x9E3779B97F4A7C15ull) ^ epoch);
  for (size_t i = 0; i < shard_order_.size(); ++i) shard_order_[i] = i;
  if (options_.shuffle) epoch_rng_.Shuffle(shard_order_);
  ScheduleFetches();
}

void DataLoader::ScheduleFetches() {
  const size_t want = std::max<size_t>(1, options_.prefetch_shards);
  while (inflight_.size() < want &&
         next_shard_to_schedule_ < shard_order_.size()) {
    const size_t shard_index = shard_order_[next_shard_to_schedule_++];
    const ShardReader* reader = reader_;
    const Split split = split_;
    // Promote the shard decode onto the worker pool; futures keep order.
    auto task = std::make_shared<
        std::packaged_task<Result<std::vector<Example>>()>>(
        [reader, split, shard_index] {
          return reader->ReadShard(split, shard_index);
        });
    inflight_.push_back(task->get_future());
    par::GlobalPool().Submit([task] { (*task)(); });
  }
}

Status DataLoader::EnsureBuffered() {
  // Keep at least one batch in the buffer while shards remain.
  while (buffer_.size() < options_.batch_size && !inflight_.empty()) {
    Result<std::vector<Example>> shard = inflight_.front().get();
    inflight_.pop_front();
    ScheduleFetches();
    if (!shard.ok()) return shard.status();
    std::vector<Example>& examples = shard.value();
    if (options_.shuffle) epoch_rng_.Shuffle(examples);
    for (auto& ex : examples) buffer_.push_back(std::move(ex));
  }
  return Status::Ok();
}

Result<std::optional<Batch>> DataLoader::Next() {
  if (!epoch_active_) {
    return FailedPrecondition("DataLoader: StartEpoch before Next");
  }
  DRAI_RETURN_IF_ERROR(EnsureBuffered());
  if (buffer_.empty()) {
    epoch_active_ = false;
    return std::optional<Batch>(std::nullopt);
  }
  const size_t take = std::min<size_t>(options_.batch_size, buffer_.size());
  if (take < options_.batch_size && options_.drop_last) {
    buffer_.clear();
    epoch_active_ = false;
    return std::optional<Batch>(std::nullopt);
  }
  std::vector<Example> examples;
  examples.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    examples.push_back(std::move(buffer_.front()));
    buffer_.pop_front();
  }
  DRAI_ASSIGN_OR_RETURN(Batch batch, Collate(examples));
  return std::optional<Batch>(std::move(batch));
}

}  // namespace drai::shard
