#include "core/backend.hpp"

#include <future>
#include <stdexcept>
#include <vector>

#include "parallel/communicator.hpp"
#include "parallel/thread_pool.hpp"

namespace drai::core {

std::string_view BackendName(Backend b) {
  switch (b) {
    case Backend::kThread: return "thread";
    case Backend::kSpmd: return "spmd";
  }
  return "unknown";
}

// ---- ThreadBackend -----------------------------------------------------

ThreadBackend::ThreadBackend(size_t threads) : threads_(threads) {
  if (threads_ > 1) {
    pool_ = std::make_unique<par::ThreadPool>(threads_);
  }
}

ThreadBackend::~ThreadBackend() = default;

void ThreadBackend::Map(const PartitionTask& task) {
  const bool inline_run =
      task.n_parts <= 1 || threads_ == 1 || par::InPoolWorker();
  if (inline_run) {
    for (size_t p = 0; p < task.n_parts; ++p) task.run(p);
    return;
  }
  par::ThreadPool& pool = pool_ ? *pool_ : par::GlobalPool();
  std::vector<std::future<void>> futures;
  futures.reserve(task.n_parts);
  for (size_t p = 0; p < task.n_parts; ++p) {
    futures.push_back(pool.Submit([&task, p] { task.run(p); }));
  }
  for (auto& f : futures) f.get();  // task.run never throws
}

// ---- SpmdBackend -------------------------------------------------------

SpmdBackend::SpmdBackend(size_t ranks) : ranks_(ranks) {
  if (ranks_ == 0) ranks_ = par::GlobalPool().thread_count();
  if (ranks_ == 0) ranks_ = 1;
}

void SpmdBackend::Map(const PartitionTask& task) {
  const uint64_t n_parts = task.n_parts;
  par::RunSpmd(static_cast<int>(ranks_), [&](par::Communicator& comm) {
    if (task.collective_timeout_ms > 0) {
      comm.SetWaitTimeout(task.collective_timeout_ms);
    }
    // Rank 0 deals partitions out block-cyclically; determinism does not
    // depend on the assignment (any rank may run any partition), only on
    // the scheduler's ascending-partition merge.
    const std::vector<uint64_t> mine =
        par::ScatterAssignment(comm, n_parts, /*root=*/0);
    for (uint64_t p : mine) task.run(static_cast<size_t>(p));
    // Quarantine agreement: every rank learns the full dropped set before
    // anyone proceeds — the multi-process invariant that collective
    // operations (degraded merge, collective I/O) need all ranks to share
    // the same view of which partitions survived. The condition is uniform
    // across ranks (one shared task), so all ranks enter the collective.
    std::vector<uint64_t> agreed;
    if (task.quarantined) {
      std::vector<uint64_t> local;
      for (uint64_t p : mine) {
        if (task.quarantined(static_cast<size_t>(p))) local.push_back(p);
      }
      agreed = par::AgreeQuarantine(comm, n_parts, local);
    }
    // Every rank has written its outcomes in place; the closing barrier
    // orders those writes before rank 0 (and the scheduler, after the
    // join) reads them.
    comm.Barrier();
    if (comm.rank() != 0 || !task.quarantined) return;
    // Cross-check on the scheduler rank: the written outcomes must name
    // exactly the partitions the collective agreed on. A mismatch means a
    // rank dropped a partition the others did not hear about — a protocol
    // bug worth failing loudly on, never silently merging.
    std::vector<uint64_t> written;
    for (uint64_t p = 0; p < n_parts; ++p) {
      if (task.quarantined(static_cast<size_t>(p))) written.push_back(p);
    }
    if (written != agreed) {
      throw std::logic_error(
          "SpmdBackend: quarantine agreement mismatch (agreed " +
          std::to_string(agreed.size()) + " partitions, outcomes name " +
          std::to_string(written.size()) + ")");
    }
  });
}

std::unique_ptr<ExecutionBackend> MakeBackend(Backend backend, size_t workers) {
  switch (backend) {
    case Backend::kThread: return std::make_unique<ThreadBackend>(workers);
    case Backend::kSpmd: return std::make_unique<SpmdBackend>(workers);
  }
  throw std::invalid_argument("MakeBackend: unknown backend");
}

}  // namespace drai::core
