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
  // Workers share the scheduler's memory, so no pack/unpack transport.
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
    // the ascending gather order below.
    const std::vector<uint64_t> mine =
        par::ScatterAssignment(comm, n_parts, /*root=*/0);
    std::vector<std::pair<uint64_t, Bytes>> outcomes;
    outcomes.reserve(mine.size());
    for (uint64_t p : mine) {
      task.run(static_cast<size_t>(p));
      if (task.pack) {
        outcomes.emplace_back(p, task.pack(static_cast<size_t>(p)));
      }
    }
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
    if (task.pack == nullptr) {
      comm.Barrier();
      return;
    }
    // Per-partition outcomes come home to rank 0 in ascending partition
    // order — the gather is the reduction's transport, so the scheduler
    // consumes exactly what a multi-process world would have sent.
    const auto gathered = par::GatherByIndex(comm, outcomes, /*root=*/0);
    if (comm.rank() != 0) return;
    if (gathered.size() != n_parts) {
      throw std::logic_error("SpmdBackend: gather covered " +
                             std::to_string(gathered.size()) + " of " +
                             std::to_string(n_parts) + " partitions");
    }
    if (task.unpack) {
      for (const auto& [p, payload] : gathered) {
        task.unpack(static_cast<size_t>(p), payload);
      }
    }
    // Cross-check on the scheduler rank: the transported outcomes must name
    // exactly the partitions the collective agreed on. A mismatch means a
    // rank dropped a partition the others did not hear about — a protocol
    // bug worth failing loudly on, never silently merging.
    if (task.quarantined) {
      std::vector<uint64_t> unpacked;
      for (uint64_t p = 0; p < n_parts; ++p) {
        if (task.quarantined(static_cast<size_t>(p))) unpacked.push_back(p);
      }
      if (unpacked != agreed) {
        throw std::logic_error(
            "SpmdBackend: quarantine agreement mismatch (agreed " +
            std::to_string(agreed.size()) + " partitions, outcomes name " +
            std::to_string(unpacked.size()) + ")");
      }
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
