// drai/parallel/striped_store.hpp
//
// In-memory object store with a Lustre-style striping *performance model*.
//
// Files are striped round-robin over simulated OSTs (object storage
// targets) in fixed-size stripes. Every read/write both (a) actually moves
// bytes in memory — so the store is a functional filesystem for the
// containers and shards built on it — and (b) charges simulated time to the
// OSTs it touches. The model captures the effects the paper's scaling
// discussion cares about:
//   * per-operation latency (metadata + RPC),
//   * per-OST bandwidth limits,
//   * contention when concurrent writers land on the same OST,
//   * stripe-count scaling until writers > OSTs.
//
// SimulatedSeconds() is a deterministic proxy for wall time on a real
// parallel filesystem; benches report it next to wall-clock.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace drai::par {

/// Performance/geometry knobs. Defaults roughly shaped like one Lustre
/// scratch tier: 1 ms op latency, 2 GiB/s per OST.
struct StripedStoreConfig {
  int num_osts = 8;                     ///< object storage targets
  uint64_t stripe_size = 1 << 20;       ///< bytes per stripe (1 MiB)
  int default_stripe_count = 4;         ///< OSTs a new file stripes across
  double ost_bandwidth_bytes_per_s = 2.0e9;
  double op_latency_s = 1.0e-3;         ///< fixed cost per I/O call
  uint64_t capacity_bytes = 0;          ///< 0 = unlimited
};

/// Statistics accumulated since construction or last ResetStats().
struct StripedStoreStats {
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t write_ops = 0;
  uint64_t read_ops = 0;
  /// Modeled campaign completion time: the makespan of the busiest OST's
  /// queue since the last ResetStats (ops modeled as asynchronously queued).
  double simulated_seconds = 0;
};

class StripedStore {
 public:
  explicit StripedStore(StripedStoreConfig config = {});

  /// Create (or truncate) a file with an explicit stripe count
  /// (clamped to [1, num_osts]).
  Status Create(const std::string& path, int stripe_count = 0);

  /// Write `data` at `offset`, extending the file as needed.
  Status Write(const std::string& path, uint64_t offset,
               std::span<const std::byte> data);
  /// Replace the file's contents with `data`, recreating the file with
  /// default striping; the file takes the buffer over without copying it.
  /// All or nothing: when the new contents do not fit (used - old + new >
  /// capacity), the old contents stay as they were. Counted and charged
  /// exactly like Create followed by one Write of the whole buffer.
  Status Replace(const std::string& path, Bytes data);
  /// Append at current EOF; returns the offset written at.
  Result<uint64_t> Append(const std::string& path,
                          std::span<const std::byte> data);

  /// Read exactly `n` bytes at `offset`.
  Result<Bytes> Read(const std::string& path, uint64_t offset, uint64_t n) const;
  /// Read the whole file.
  Result<Bytes> ReadAll(const std::string& path) const;

  Result<uint64_t> Size(const std::string& path) const;
  [[nodiscard]] bool Exists(const std::string& path) const;
  Status Remove(const std::string& path);
  /// Paths with the given prefix, sorted.
  std::vector<std::string> List(const std::string& prefix = "") const;

  /// Total bytes currently stored.
  [[nodiscard]] uint64_t UsedBytes() const;

  [[nodiscard]] StripedStoreStats stats() const;
  void ResetStats();
  [[nodiscard]] const StripedStoreConfig& config() const { return config_; }

 private:
  struct File {
    Bytes data;
    int stripe_count;
    int ost_offset = 0;  ///< starting OST, rotated per file like Lustre
  };

  /// Charge the striping model for an op of `n` bytes on `stripe_count`
  /// OSTs starting at byte `offset`; returns op completion delay.
  double ChargeOp(uint64_t offset, uint64_t n, int stripe_count,
                  int ost_offset);

  /// A new, empty file on the next OST in rotation (stripe_count 0 = the
  /// default); caller must hold mutex_.
  File NewFileLocked(int stripe_count);

  /// Sum of file sizes; caller must hold mutex_.
  [[nodiscard]] uint64_t UsedBytesLocked() const;

  StripedStoreConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, File> files_;
  int next_ost_offset_ = 0;
  std::vector<double> ost_busy_until_;  ///< per-OST simulated busy horizon
  double sim_now_ = 0;                  ///< simulated submission clock
  StripedStoreStats stats_;
};

}  // namespace drai::par
