#include "parallel/communicator.hpp"

#include <stdexcept>
#include <exception>

namespace drai::par {

void Communicator::Send(int dst, int tag, std::span<const std::byte> data) {
  if (dst < 0 || dst >= size()) {
    throw std::out_of_range("Send: destination rank out of range");
  }
  internal::World& w = *world_;
  {
    std::lock_guard<std::mutex> lock(w.mutex);
    w.mailboxes[{rank_, dst, tag}].emplace_back(data.begin(), data.end());
  }
  w.cv.notify_all();
}

Bytes Communicator::Recv(int src, int tag) {
  return Recv(src, tag, WaitDeadline());
}

Bytes Communicator::Recv(int src, int tag, const Deadline& deadline) {
  if (src < 0 || src >= size()) {
    throw std::out_of_range("Recv: source rank out of range");
  }
  internal::World& w = *world_;
  std::unique_lock<std::mutex> lock(w.mutex);
  const internal::World::Key key{src, rank_, tag};
  const auto ready = [&] {
    auto it = w.mailboxes.find(key);
    return it != w.mailboxes.end() && !it->second.empty();
  };
  if (deadline.infinite()) {
    w.cv.wait(lock, ready);
  } else if (!w.cv.wait_until(lock, deadline.when(), ready)) {
    throw DeadlineExceededError(
        "Recv: rank " + std::to_string(rank_) + " timed out waiting for rank " +
        std::to_string(src) + " (tag " + std::to_string(tag) + ")");
  }
  auto it = w.mailboxes.find(key);
  Bytes msg = std::move(it->second.front());
  it->second.pop_front();
  return msg;
}

void Communicator::Barrier() { Barrier(WaitDeadline()); }

void Communicator::Barrier(const Deadline& deadline) {
  internal::World& w = *world_;
  std::unique_lock<std::mutex> lock(w.mutex);
  const uint64_t my_generation = w.barrier_generation;
  if (++w.barrier_arrived == w.size) {
    w.barrier_arrived = 0;
    ++w.barrier_generation;
    w.cv.notify_all();
    return;
  }
  const auto released = [&] { return w.barrier_generation != my_generation; };
  if (deadline.infinite()) {
    w.cv.wait(lock, released);
    return;
  }
  if (!w.cv.wait_until(lock, deadline.when(), released)) {
    // Un-register this rank's arrival so the barrier count stays coherent:
    // a rank that gave up is indistinguishable from one that never arrived,
    // and any rank still (or later) waiting here times out in turn.
    --w.barrier_arrived;
    throw DeadlineExceededError("Barrier: rank " + std::to_string(rank_) +
                                " timed out waiting for the world");
  }
}

double Communicator::AllReduceScalar(double v, ReduceOp op) {
  return AllReduce(std::vector<double>{v}, op)[0];
}

int64_t Communicator::AllReduceScalar(int64_t v, ReduceOp op) {
  return AllReduce(std::vector<int64_t>{v}, op)[0];
}

std::vector<uint64_t> ScatterAssignment(Communicator& comm, uint64_t n_parts,
                                        int root) {
  std::vector<std::vector<uint64_t>> assignment;
  if (comm.rank() == root) {
    assignment.resize(static_cast<size_t>(comm.size()));
    for (uint64_t p = 0; p < n_parts; ++p) {
      assignment[static_cast<size_t>(p % static_cast<uint64_t>(comm.size()))]
          .push_back(p);
    }
  }
  return comm.Scatter(assignment, root);
}

std::vector<uint64_t> AgreeQuarantine(Communicator& comm, uint64_t n_parts,
                                      const std::vector<uint64_t>& local) {
  std::vector<uint8_t> bitmap(static_cast<size_t>(n_parts), 0);
  for (uint64_t p : local) {
    if (p >= n_parts) {
      throw std::out_of_range("AgreeQuarantine: partition " +
                              std::to_string(p) + " >= n_parts " +
                              std::to_string(n_parts));
    }
    bitmap[static_cast<size_t>(p)] = 1;
  }
  const std::vector<uint8_t> agreed = comm.AllReduce(bitmap, ReduceOp::kMax);
  std::vector<uint64_t> out;
  for (uint64_t p = 0; p < n_parts; ++p) {
    if (agreed[static_cast<size_t>(p)] != 0) out.push_back(p);
  }
  return out;
}

void RunSpmd(int n_ranks, const std::function<void(Communicator&)>& body) {
  if (n_ranks <= 0) throw std::invalid_argument("RunSpmd: n_ranks must be > 0");
  auto world = std::make_shared<internal::World>(n_ranks);
  std::vector<std::exception_ptr> errors(static_cast<size_t>(n_ranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n_ranks));
  for (int r = 0; r < n_ranks; ++r) {
    threads.emplace_back([&, r] {
      Communicator comm(world, r);
      try {
        body(comm);
      } catch (...) {
        errors[static_cast<size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace drai::par
