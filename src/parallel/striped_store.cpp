#include "parallel/striped_store.hpp"

#include <algorithm>

namespace drai::par {

StripedStore::StripedStore(StripedStoreConfig config)
    : config_(config),
      ost_busy_until_(static_cast<size_t>(std::max(1, config.num_osts)), 0.0) {
  if (config_.num_osts <= 0) {
    throw std::invalid_argument("StripedStore: num_osts must be > 0");
  }
  if (config_.stripe_size == 0) {
    throw std::invalid_argument("StripedStore: stripe_size must be > 0");
  }
  if (config_.default_stripe_count <= 0) {
    config_.default_stripe_count = 1;
  }
}

double StripedStore::ChargeOp(uint64_t offset, uint64_t n, int stripe_count,
                              int ost_offset) {
  // Map the byte range [offset, offset+n) onto stripes; stripe s of a file
  // lives on OST (s % stripe_count + file's starting OST), so distinct
  // files rotate across OSTs (like Lustre's round-robin allocator) while a
  // single file spreads over stripe_count of them.
  const int sc = std::clamp(stripe_count, 1, config_.num_osts);
  std::vector<uint64_t> per_ost(static_cast<size_t>(config_.num_osts), 0);
  uint64_t pos = offset;
  uint64_t left = n;
  while (left > 0) {
    const uint64_t stripe = pos / config_.stripe_size;
    const uint64_t stripe_end = (stripe + 1) * config_.stripe_size;
    const uint64_t chunk = std::min(left, stripe_end - pos);
    const uint64_t ost =
        (stripe % static_cast<uint64_t>(sc) + static_cast<uint64_t>(ost_offset)) %
        static_cast<uint64_t>(config_.num_osts);
    per_ost[ost] += chunk;
    pos += chunk;
    left -= chunk;
  }
  // Queueing model: each involved OST accumulates latency + transfer time
  // for its share of the op. Ops are treated as asynchronously queued
  // (buffered/collective I/O), so the campaign's simulated completion time
  // is the *makespan* — the busiest OST's total queue. This is what makes
  // striping and adding writers matter: spreading bytes over more OSTs
  // shortens the longest queue, while piling writers onto few OSTs grows it.
  for (int o = 0; o < config_.num_osts; ++o) {
    const uint64_t b = per_ost[static_cast<size_t>(o)];
    if (b == 0) continue;
    ost_busy_until_[static_cast<size_t>(o)] +=
        config_.op_latency_s +
        static_cast<double>(b) / config_.ost_bandwidth_bytes_per_s;
  }
  const double makespan =
      *std::max_element(ost_busy_until_.begin(), ost_busy_until_.end());
  const double delay = makespan - sim_now_;
  sim_now_ = makespan;
  stats_.simulated_seconds = makespan;
  return delay;
}

StripedStore::File StripedStore::NewFileLocked(int stripe_count) {
  File f;
  f.stripe_count = stripe_count > 0
                       ? std::clamp(stripe_count, 1, config_.num_osts)
                       : config_.default_stripe_count;
  f.ost_offset = next_ost_offset_++ % config_.num_osts;
  return f;
}

Status StripedStore::Create(const std::string& path, int stripe_count) {
  std::lock_guard<std::mutex> lock(mutex_);
  files_[path] = NewFileLocked(stripe_count);
  return Status::Ok();
}

Status StripedStore::Replace(const std::string& path, Bytes data) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (config_.capacity_bytes != 0) {
    const uint64_t old = it == files_.end() ? 0 : it->second.data.size();
    if (UsedBytesLocked() - old + data.size() > config_.capacity_bytes) {
      return ResourceExhausted("StripedStore capacity exceeded");
    }
  }
  File f = NewFileLocked(0);
  f.data = std::move(data);
  stats_.bytes_written += f.data.size();
  stats_.write_ops += 1;
  ChargeOp(0, f.data.size(), f.stripe_count, f.ost_offset);
  files_.insert_or_assign(path, std::move(f));
  return Status::Ok();
}

Status StripedStore::Write(const std::string& path, uint64_t offset,
                           std::span<const std::byte> data) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    // Implicit create with default striping, like open(O_CREAT).
    it = files_.emplace(path, NewFileLocked(0)).first;
  }
  File& f = it->second;
  const uint64_t end = offset + data.size();
  if (config_.capacity_bytes != 0) {
    const uint64_t growth = end > f.data.size() ? end - f.data.size() : 0;
    if (UsedBytesLocked() + growth > config_.capacity_bytes) {
      return ResourceExhausted("StripedStore capacity exceeded");
    }
  }
  if (end > f.data.size()) f.data.resize(end);
  std::copy(data.begin(), data.end(),
            f.data.begin() + static_cast<ptrdiff_t>(offset));
  stats_.bytes_written += data.size();
  stats_.write_ops += 1;
  ChargeOp(offset, data.size(), f.stripe_count, f.ost_offset);
  return Status::Ok();
}

Result<uint64_t> StripedStore::Append(const std::string& path,
                                      std::span<const std::byte> data) {
  uint64_t offset = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = files_.find(path);
    if (it != files_.end()) offset = it->second.data.size();
  }
  DRAI_RETURN_IF_ERROR(Write(path, offset, data));
  return offset;
}

Result<Bytes> StripedStore::Read(const std::string& path, uint64_t offset,
                                 uint64_t n) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return NotFound("no such file: " + path);
  const File& f = it->second;
  if (offset + n > f.data.size()) {
    return OutOfRange("read past EOF: " + path);
  }
  auto* self = const_cast<StripedStore*>(this);
  self->stats_.bytes_read += n;
  self->stats_.read_ops += 1;
  self->ChargeOp(offset, n, f.stripe_count, f.ost_offset);
  return Bytes(f.data.begin() + static_cast<ptrdiff_t>(offset),
               f.data.begin() + static_cast<ptrdiff_t>(offset + n));
}

Result<Bytes> StripedStore::ReadAll(const std::string& path) const {
  uint64_t size;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = files_.find(path);
    if (it == files_.end()) return NotFound("no such file: " + path);
    size = it->second.data.size();
  }
  return Read(path, 0, size);
}

Result<uint64_t> StripedStore::Size(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return NotFound("no such file: " + path);
  return static_cast<uint64_t>(it->second.data.size());
}

bool StripedStore::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return files_.count(path) > 0;
}

Status StripedStore::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (files_.erase(path) == 0) return NotFound("no such file: " + path);
  return Status::Ok();
}

std::vector<std::string> StripedStore::List(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [path, _] : files_) {
    if (path.rfind(prefix, 0) == 0) out.push_back(path);
  }
  return out;
}

uint64_t StripedStore::UsedBytesLocked() const {
  uint64_t total = 0;
  for (const auto& [_, f] : files_) total += f.data.size();
  return total;
}

uint64_t StripedStore::UsedBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return UsedBytesLocked();
}

StripedStoreStats StripedStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void StripedStore::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = StripedStoreStats{};
  std::fill(ost_busy_until_.begin(), ost_busy_until_.end(), 0.0);
  sim_now_ = 0;
}

}  // namespace drai::par
