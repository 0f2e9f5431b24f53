// drai/parallel/communicator.hpp
//
// An in-process SPMD rank model following the MPI programming model
// (LLNL HPC tutorial): data moves between ranks only through cooperative
// send/receive operations; all parallelism is explicit. Ranks are threads
// launched by RunSpmd; each receives a Communicator bound to its rank.
//
// Point-to-point Send/Recv over typed byte messages is the primitive;
// collectives (Barrier, Broadcast, Reduce, AllReduce, Gather, AllGather,
// Scatter, AllToAll) are built on top with textbook algorithms. This gives
// the same programming model as MPI on a cluster, so rank-count sweeps in
// the benches reproduce scaling *shapes* without real hardware.
#pragma once

#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/timer.hpp"

namespace drai::par {

/// Reduction operators supported by Reduce/AllReduce.
enum class ReduceOp { kSum, kMin, kMax, kProd };

/// Thrown by a blocking wait whose deadline passed. Collectives are built
/// from Recv + Barrier and every collective ends in a Barrier, so when one
/// rank is stuck, every rank that did arrive times out within its budget and
/// throws this together — the all-or-nothing discipline collective *errors*
/// already follow, extended to hangs. Carries kDeadlineExceeded.
class DeadlineExceededError : public std::runtime_error {
 public:
  explicit DeadlineExceededError(const std::string& what)
      : std::runtime_error(what) {}
  [[nodiscard]] Status ToStatus() const {
    return Status(StatusCode::kDeadlineExceeded, what());
  }
};

namespace internal {

/// Shared mailbox state for one SPMD world. One mailbox per (src, dst)
/// ordered FIFO per tag, like MPI's non-overtaking guarantee per channel.
struct World {
  explicit World(int size) : size(size), barrier_arrived(0), barrier_generation(0) {}

  const int size;

  std::mutex mutex;
  std::condition_variable cv;

  struct Key {
    int src, dst, tag;
    bool operator<(const Key& o) const {
      if (src != o.src) return src < o.src;
      if (dst != o.dst) return dst < o.dst;
      return tag < o.tag;
    }
  };
  std::map<Key, std::deque<Bytes>> mailboxes;

  // Sense-reversing barrier state.
  int barrier_arrived;
  uint64_t barrier_generation;
};

}  // namespace internal

/// Handle held by one rank. All methods are callable only from that rank's
/// thread. Copyable-by-reference semantics are intentional: the World
/// outlives all ranks for the duration of RunSpmd.
class Communicator {
 public:
  Communicator(std::shared_ptr<internal::World> world, int rank)
      : world_(std::move(world)), rank_(rank) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return world_->size; }

  /// Bound every subsequent blocking wait (Recv, Barrier — and therefore
  /// every collective) by `ms` milliseconds; 0 restores unbounded waits.
  /// Per-Communicator (per-rank) state: set it uniformly across ranks, or a
  /// rank without a budget will wait forever for peers that gave up.
  void SetWaitTimeout(double ms) { wait_timeout_ms_ = ms; }
  [[nodiscard]] double wait_timeout_ms() const { return wait_timeout_ms_; }

  // ---- point to point -----------------------------------------------
  /// Buffered send: copies `data` into dst's mailbox and returns.
  void Send(int dst, int tag, std::span<const std::byte> data);
  /// Blocking receive of the next message from (src, tag). The no-deadline
  /// overload applies the configured wait timeout; both throw
  /// DeadlineExceededError when the wait expires.
  Bytes Recv(int src, int tag);
  Bytes Recv(int src, int tag, const Deadline& deadline);

  /// Typed convenience wrappers (trivially-copyable element types only).
  template <typename T>
  void SendVec(int dst, int tag, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Send(dst, tag,
         std::span<const std::byte>(
             reinterpret_cast<const std::byte*>(v.data()), v.size() * sizeof(T)));
  }
  template <typename T>
  std::vector<T> RecvVec(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const Bytes b = Recv(src, tag);
    std::vector<T> v(b.size() / sizeof(T));
    // An empty vector's data() may be null, which memcpy must not get.
    if (!v.empty()) std::memcpy(v.data(), b.data(), v.size() * sizeof(T));
    return v;
  }

  // ---- collectives ----------------------------------------------------
  /// All ranks wait until every rank has arrived. The no-deadline overload
  /// applies the configured wait timeout; an expired wait un-registers this
  /// rank's arrival and throws DeadlineExceededError.
  void Barrier();
  void Barrier(const Deadline& deadline);

  /// Root's buffer is copied to every rank (binomial-tree order is not
  /// needed in-process; root fan-out keeps semantics identical).
  template <typename T>
  void Broadcast(std::vector<T>& data, int root);

  /// Element-wise reduction of equal-length vectors onto root.
  template <typename T>
  std::vector<T> Reduce(const std::vector<T>& local, ReduceOp op, int root);

  /// Reduce + Broadcast.
  template <typename T>
  std::vector<T> AllReduce(const std::vector<T>& local, ReduceOp op);

  /// Concatenate each rank's vector at root, ordered by rank. Non-root
  /// ranks receive an empty vector.
  template <typename T>
  std::vector<std::vector<T>> Gather(const std::vector<T>& local, int root);

  /// Gather + Broadcast of the concatenation.
  template <typename T>
  std::vector<std::vector<T>> AllGather(const std::vector<T>& local);

  /// Root distributes parts[i] to rank i; returns this rank's part.
  template <typename T>
  std::vector<T> Scatter(const std::vector<std::vector<T>>& parts, int root);

  /// Personalized all-to-all: send[i] goes to rank i; returns the vector
  /// of messages received, indexed by source rank.
  template <typename T>
  std::vector<std::vector<T>> AllToAll(const std::vector<std::vector<T>>& send);

  /// Scalar sugar.
  double AllReduceScalar(double v, ReduceOp op);
  int64_t AllReduceScalar(int64_t v, ReduceOp op);

 private:
  template <typename T>
  static void ApplyOp(std::vector<T>& acc, const std::vector<T>& v, ReduceOp op);

  /// The deadline a no-deadline blocking call runs under.
  [[nodiscard]] Deadline WaitDeadline() const {
    return Deadline::AfterMs(wait_timeout_ms_);
  }

  std::shared_ptr<internal::World> world_;
  int rank_;
  double wait_timeout_ms_ = 0.0;
};

/// Launch `n_ranks` threads, each running `body(comm)` with its own rank.
/// Returns when every rank has finished. Exceptions from any rank are
/// rethrown (first by rank order) after all ranks have been joined.
void RunSpmd(int n_ranks, const std::function<void(Communicator&)>& body);

// ---- partition assignment and agreement helpers ------------------------
//
// The distributed-executor building blocks: root deals a block-cyclic
// partition assignment out to the world, each rank works its share, and
// the ranks agree on which partitions were quarantined. Outcomes need no
// gather: ranks are in-process threads that write them in place, and the
// scheduler merges them in ascending partition order, so results are
// independent of the world size.

/// Root computes the block-cyclic owner map for `n_parts` partitions
/// (partition p belongs to rank p % size) and scatters it; every rank
/// returns its own partition indices in ascending order. Collective: all
/// ranks must call with the same `n_parts` and `root`.
std::vector<uint64_t> ScatterAssignment(Communicator& comm, uint64_t n_parts,
                                        int root);

/// Agree on the union of per-rank quarantined partition sets: each rank
/// passes the partitions *it* dropped (ascending or not), every rank
/// returns the same global set in ascending order. Built on an
/// AllReduce(kMax) bitmap, so the result is independent of rank count and
/// arrival order — every rank can then apply the identical degraded-merge
/// decision, whatever the world size.
/// Throws std::out_of_range if a local index is >= n_parts. Collective.
std::vector<uint64_t> AgreeQuarantine(Communicator& comm, uint64_t n_parts,
                                      const std::vector<uint64_t>& local);

// ---- template definitions ----------------------------------------------

namespace internal {
constexpr int kCollectiveTag = -1;  // reserved tag for collective traffic
}

template <typename T>
void Communicator::Broadcast(std::vector<T>& data, int root) {
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r != root) SendVec(r, internal::kCollectiveTag, data);
    }
  } else {
    data = RecvVec<T>(root, internal::kCollectiveTag);
  }
  Barrier();
}

template <typename T>
void Communicator::ApplyOp(std::vector<T>& acc, const std::vector<T>& v,
                           ReduceOp op) {
  if (acc.size() != v.size()) {
    throw std::invalid_argument("Reduce: mismatched vector lengths");
  }
  for (size_t i = 0; i < acc.size(); ++i) {
    switch (op) {
      case ReduceOp::kSum: acc[i] += v[i]; break;
      case ReduceOp::kMin: acc[i] = std::min(acc[i], v[i]); break;
      case ReduceOp::kMax: acc[i] = std::max(acc[i], v[i]); break;
      case ReduceOp::kProd: acc[i] *= v[i]; break;
    }
  }
}

template <typename T>
std::vector<T> Communicator::Reduce(const std::vector<T>& local, ReduceOp op,
                                    int root) {
  std::vector<T> result;
  bool bad = false;
  if (rank_ == root) {
    result = local;
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      // Keep draining every rank's contribution even after a mismatch, so
      // no mailbox is left holding a stale collective message.
      const auto v = RecvVec<T>(r, internal::kCollectiveTag);
      if (bad || v.size() != result.size()) {
        bad = true;
        continue;
      }
      ApplyOp(result, v, op);
    }
  } else {
    SendVec(root, internal::kCollectiveTag, local);
  }
  Barrier();
  // Root tells every rank whether the reduction was well-formed, so a
  // mismatch throws on all ranks together instead of stranding the
  // survivors at the next collective.
  std::vector<uint8_t> status{static_cast<uint8_t>(bad ? 1 : 0)};
  Broadcast(status, root);
  if (status[0] != 0) {
    throw std::invalid_argument("Reduce: mismatched vector lengths");
  }
  return result;
}

template <typename T>
std::vector<T> Communicator::AllReduce(const std::vector<T>& local,
                                       ReduceOp op) {
  std::vector<T> result = Reduce(local, op, /*root=*/0);
  Broadcast(result, /*root=*/0);
  return result;
}

template <typename T>
std::vector<std::vector<T>> Communicator::Gather(const std::vector<T>& local,
                                                 int root) {
  std::vector<std::vector<T>> out;
  if (rank_ == root) {
    out.resize(size());
    out[static_cast<size_t>(root)] = local;
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      out[static_cast<size_t>(r)] = RecvVec<T>(r, internal::kCollectiveTag);
    }
  } else {
    SendVec(root, internal::kCollectiveTag, local);
  }
  Barrier();
  return out;
}

template <typename T>
std::vector<std::vector<T>> Communicator::AllGather(
    const std::vector<T>& local) {
  auto out = Gather(local, /*root=*/0);
  // Flatten-free broadcast: root sends each slot in rank order.
  if (rank_ == 0) {
    for (int r = 1; r < size(); ++r) {
      for (int slot = 0; slot < size(); ++slot) {
        SendVec(r, internal::kCollectiveTag, out[static_cast<size_t>(slot)]);
      }
    }
  } else {
    out.resize(size());
    for (int slot = 0; slot < size(); ++slot) {
      out[static_cast<size_t>(slot)] = RecvVec<T>(0, internal::kCollectiveTag);
    }
  }
  Barrier();
  return out;
}

template <typename T>
std::vector<T> Communicator::Scatter(const std::vector<std::vector<T>>& parts,
                                     int root) {
  std::vector<T> mine;
  bool bad = false;
  if (rank_ == root) {
    bad = parts.size() != static_cast<size_t>(size());
    if (!bad) mine = parts[static_cast<size_t>(root)];
    // On a malformed call still send placeholders, so non-root ranks are
    // not stranded in Recv; the status broadcast below makes every rank
    // throw together.
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      SendVec(r, internal::kCollectiveTag,
              bad ? std::vector<T>{} : parts[static_cast<size_t>(r)]);
    }
  } else {
    mine = RecvVec<T>(root, internal::kCollectiveTag);
  }
  Barrier();
  std::vector<uint8_t> status{static_cast<uint8_t>(bad ? 1 : 0)};
  Broadcast(status, root);
  if (status[0] != 0) {
    throw std::invalid_argument("Scatter: parts.size() != world size");
  }
  return mine;
}

template <typename T>
std::vector<std::vector<T>> Communicator::AllToAll(
    const std::vector<std::vector<T>>& send) {
  if (send.size() != static_cast<size_t>(size())) {
    throw std::invalid_argument("AllToAll: send.size() != world size");
  }
  // Everyone sends first (buffered), then receives — safe because Send is
  // non-blocking buffered.
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    SendVec(r, internal::kCollectiveTag, send[static_cast<size_t>(r)]);
  }
  std::vector<std::vector<T>> recv(size());
  recv[static_cast<size_t>(rank_)] = send[static_cast<size_t>(rank_)];
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    recv[static_cast<size_t>(r)] = RecvVec<T>(r, internal::kCollectiveTag);
  }
  Barrier();
  return recv;
}

}  // namespace drai::par
