// Tests for drai/parallel: thread pool, parallel_for, the MPI-model
// communicator, and the striped filesystem model.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "parallel/communicator.hpp"
#include "parallel/striped_store.hpp"
#include "parallel/thread_pool.hpp"

namespace drai::par {
namespace {

// ---- thread pool -------------------------------------------------------

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(1);
  auto f = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, hits.size(), [&](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(5, 5, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, NestedCallsDegradeToSerial) {
  std::atomic<int> total{0};
  ParallelFor(0, 4, [&](size_t) {
    ParallelFor(0, 10, [&](size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 40);
}

TEST(ParallelFor, ChunksPartitionRange) {
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  ParallelForChunks(0, 1003, [&](size_t lo, size_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  size_t expect = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expect);
    EXPECT_GT(hi, lo);
    expect = hi;
  }
  EXPECT_EQ(expect, 1003u);
}

TEST(ParallelFor, ExceptionsPropagate) {
  EXPECT_THROW(
      ParallelFor(0, 100,
                  [](size_t i) {
                    if (i == 50) throw std::runtime_error("bad index");
                  }),
      std::runtime_error);
}

// ---- communicator (MPI model) ---------------------------------------------

class SpmdParam : public ::testing::TestWithParam<int> {};

TEST_P(SpmdParam, BarrierSynchronizesAllRanks) {
  const int n = GetParam();
  std::atomic<int> before{0}, after{0};
  RunSpmd(n, [&](Communicator& comm) {
    ++before;
    comm.Barrier();
    EXPECT_EQ(before.load(), n);  // nobody passes until all arrive
    ++after;
    comm.Barrier();
    EXPECT_EQ(after.load(), n);
  });
}

TEST_P(SpmdParam, SendRecvDeliversInOrder) {
  const int n = GetParam();
  if (n < 2) GTEST_SKIP();
  RunSpmd(n, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int r = 1; r < comm.size(); ++r) {
        comm.SendVec<int>(r, 1, {r, r * 2, r * 3});
        comm.SendVec<int>(r, 1, {r + 100});
      }
    } else {
      const auto first = comm.RecvVec<int>(0, 1);
      const auto second = comm.RecvVec<int>(0, 1);
      EXPECT_EQ(first, (std::vector<int>{comm.rank(), comm.rank() * 2,
                                         comm.rank() * 3}));
      EXPECT_EQ(second, (std::vector<int>{comm.rank() + 100}));
    }
  });
}

TEST_P(SpmdParam, BroadcastReachesEveryRank) {
  const int n = GetParam();
  RunSpmd(n, [&](Communicator& comm) {
    std::vector<double> data;
    if (comm.rank() == 0) data = {1.5, 2.5, 3.5};
    comm.Broadcast(data, 0);
    EXPECT_EQ(data, (std::vector<double>{1.5, 2.5, 3.5}));
  });
}

TEST_P(SpmdParam, AllReduceSumMatchesClosedForm) {
  const int n = GetParam();
  RunSpmd(n, [&](Communicator& comm) {
    const auto sum = comm.AllReduce(
        std::vector<int64_t>{comm.rank() + 1, 10 * (comm.rank() + 1)},
        ReduceOp::kSum);
    const int64_t expect = static_cast<int64_t>(n) * (n + 1) / 2;
    EXPECT_EQ(sum[0], expect);
    EXPECT_EQ(sum[1], 10 * expect);
  });
}

TEST_P(SpmdParam, ReduceMinMaxProd) {
  const int n = GetParam();
  RunSpmd(n, [&](Communicator& comm) {
    const auto mn =
        comm.Reduce(std::vector<int64_t>{comm.rank()}, ReduceOp::kMin, 0);
    const auto mx =
        comm.Reduce(std::vector<int64_t>{comm.rank()}, ReduceOp::kMax, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(mn[0], 0);
      EXPECT_EQ(mx[0], n - 1);
    }
  });
}

TEST_P(SpmdParam, GatherOrdersByRank) {
  const int n = GetParam();
  RunSpmd(n, [&](Communicator& comm) {
    const auto gathered =
        comm.Gather(std::vector<int>{comm.rank() * 7}, /*root=*/0);
    if (comm.rank() == 0) {
      ASSERT_EQ(gathered.size(), static_cast<size_t>(n));
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(gathered[static_cast<size_t>(r)],
                  (std::vector<int>{r * 7}));
      }
    }
  });
}

TEST_P(SpmdParam, AllGatherGivesEveryoneEverything) {
  const int n = GetParam();
  RunSpmd(n, [&](Communicator& comm) {
    const auto all = comm.AllGather(std::vector<int>{comm.rank()});
    ASSERT_EQ(all.size(), static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(all[static_cast<size_t>(r)], (std::vector<int>{r}));
    }
  });
}

TEST_P(SpmdParam, ScatterDistributesParts) {
  const int n = GetParam();
  RunSpmd(n, [&](Communicator& comm) {
    std::vector<std::vector<int>> parts;
    if (comm.rank() == 0) {
      for (int r = 0; r < n; ++r) parts.push_back({r, r + 1});
    }
    const auto mine = comm.Scatter(parts, 0);
    EXPECT_EQ(mine, (std::vector<int>{comm.rank(), comm.rank() + 1}));
  });
}

TEST_P(SpmdParam, AllToAllPersonalizedExchange) {
  const int n = GetParam();
  RunSpmd(n, [&](Communicator& comm) {
    std::vector<std::vector<int>> send(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      send[static_cast<size_t>(r)] = {comm.rank() * 100 + r};
    }
    const auto recv = comm.AllToAll(send);
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(recv[static_cast<size_t>(r)],
                (std::vector<int>{r * 100 + comm.rank()}));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, SpmdParam, ::testing::Values(1, 2, 3, 5, 8));

TEST(Spmd, DistributedWelfordViaAllReduce) {
  // The cross-rank normalization fit: each rank owns a slice, moments are
  // merged with one AllReduce — must equal the serial result.
  const int n_ranks = 4;
  const size_t per_rank = 1000;
  std::vector<double> all;
  drai::Rng gen(55);
  for (size_t i = 0; i < per_rank * n_ranks; ++i) {
    all.push_back(gen.Normal(3.0, 2.0));
  }
  double serial_mean = std::accumulate(all.begin(), all.end(), 0.0) /
                       static_cast<double>(all.size());

  RunSpmd(n_ranks, [&](Communicator& comm) {
    double local_sum = 0;
    for (size_t i = 0; i < per_rank; ++i) {
      local_sum += all[comm.rank() * per_rank + i];
    }
    const double total = comm.AllReduceScalar(local_sum, ReduceOp::kSum);
    const double mean = total / static_cast<double>(all.size());
    EXPECT_NEAR(mean, serial_mean, 1e-12);
  });
}

TEST(Spmd, InvalidRankCountThrows) {
  EXPECT_THROW(RunSpmd(0, [](Communicator&) {}), std::invalid_argument);
}

// ---- collective error paths -------------------------------------------------

TEST(Spmd, ZeroBytePayloadsDeliverAsEmptyMessages) {
  RunSpmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, /*tag=*/7, std::span<const std::byte>{});
      EXPECT_TRUE(comm.Recv(1, 7).empty());
    } else {
      EXPECT_TRUE(comm.Recv(0, 7).empty());
      comm.Send(0, 7, std::span<const std::byte>{});
    }
  });
}

TEST(Spmd, CollectivesOnEmptyVectorsAreWellDefined) {
  RunSpmd(3, [](Communicator& comm) {
    // Reduce over zero-length vectors: every rank contributes nothing,
    // the result is an empty vector, and no rank deadlocks.
    const std::vector<double> reduced =
        comm.AllReduce(std::vector<double>{}, ReduceOp::kSum);
    EXPECT_TRUE(reduced.empty());
    const auto gathered = comm.Gather(std::vector<int64_t>{}, /*root=*/0);
    if (comm.rank() == 0) {
      ASSERT_EQ(gathered.size(), 3u);
      for (const auto& g : gathered) EXPECT_TRUE(g.empty());
    }
    std::vector<int64_t> empty;
    comm.Broadcast(empty, /*root=*/0);
    EXPECT_TRUE(empty.empty());
  });
}

TEST(Spmd, ReduceMismatchedLengthsThrowOnEveryRank) {
  // The mismatch is only observable at the root, but the error must reach
  // every rank — otherwise the survivors deadlock at the next collective.
  std::atomic<int> throwers{0};
  RunSpmd(3, [&](Communicator& comm) {
    std::vector<double> local(comm.rank() == 1 ? 3 : 2, 1.0);
    try {
      comm.Reduce(local, ReduceOp::kSum, /*root=*/0);
    } catch (const std::invalid_argument&) {
      ++throwers;
      return;
    }
    ADD_FAILURE() << "rank " << comm.rank() << " did not throw";
  });
  EXPECT_EQ(throwers.load(), 3);
}

TEST(Spmd, ScatterWrongPartCountThrowsOnEveryRank) {
  std::atomic<int> throwers{0};
  RunSpmd(2, [&](Communicator& comm) {
    std::vector<std::vector<int64_t>> parts;
    if (comm.rank() == 0) parts = {{1}, {2}, {3}};  // 3 parts, 2 ranks
    try {
      comm.Scatter(parts, /*root=*/0);
    } catch (const std::invalid_argument&) {
      ++throwers;
      return;
    }
    ADD_FAILURE() << "rank " << comm.rank() << " did not throw";
  });
  EXPECT_EQ(throwers.load(), 2);
}

TEST(Spmd, DistinctTagsAreIndependentFifos) {
  // Messages on different tags between the same pair of ranks never
  // collide: receiving tag 2 first must not consume or reorder tag 1.
  RunSpmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.SendVec(1, /*tag=*/1, std::vector<int64_t>{11});
      comm.SendVec(1, /*tag=*/2, std::vector<int64_t>{22});
      comm.SendVec(1, /*tag=*/1, std::vector<int64_t>{12});
    } else {
      EXPECT_EQ(comm.RecvVec<int64_t>(0, 2), (std::vector<int64_t>{22}));
      EXPECT_EQ(comm.RecvVec<int64_t>(0, 1), (std::vector<int64_t>{11}));
      EXPECT_EQ(comm.RecvVec<int64_t>(0, 1), (std::vector<int64_t>{12}));
    }
  });
}

TEST(Spmd, UserTagsSurviveInterleavedCollectives) {
  // Point-to-point traffic on user tags must not collide with the
  // reserved collective tag: a pending user message survives a Barrier
  // and an AllReduce untouched.
  RunSpmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) comm.SendVec(1, /*tag=*/5, std::vector<int64_t>{99});
    comm.Barrier();
    const int64_t sum = comm.AllReduceScalar(int64_t{1}, ReduceOp::kSum);
    EXPECT_EQ(sum, 2);
    if (comm.rank() == 1) {
      EXPECT_EQ(comm.RecvVec<int64_t>(0, 5), (std::vector<int64_t>{99}));
    }
  });
}

TEST(Spmd, AgreeQuarantineUnionsDisjointLocalSets) {
  // Each rank reports a disjoint local quarantine set; every rank must see
  // the identical ascending union — the precondition for every rank
  // applying the same degraded merge.
  RunSpmd(3, [](Communicator& comm) {
    std::vector<uint64_t> local;
    if (comm.rank() == 0) local = {4};
    if (comm.rank() == 2) local = {1, 7};
    const std::vector<uint64_t> agreed = AgreeQuarantine(comm, 8, local);
    EXPECT_EQ(agreed, (std::vector<uint64_t>{1, 4, 7}));
  });
}

TEST(Spmd, AgreeQuarantineEmptyEverywhereIsEmpty) {
  RunSpmd(2, [](Communicator& comm) {
    const std::vector<uint64_t> agreed = AgreeQuarantine(comm, 5, {});
    EXPECT_TRUE(agreed.empty());
  });
}

TEST(Spmd, AgreeQuarantineRejectsOutOfRangeIndex) {
  std::atomic<int> throwers{0};
  RunSpmd(2, [&](Communicator& comm) {
    std::vector<uint64_t> local;
    if (comm.rank() == 0) local = {9};  // >= n_parts
    try {
      AgreeQuarantine(comm, 4, local);
    } catch (const std::out_of_range&) {
      ++throwers;
      // The other rank is still parked in the collective; feed it a clean
      // contribution so the test can finish.
      AgreeQuarantine(comm, 4, {});
    }
  });
  EXPECT_EQ(throwers.load(), 1);
}

TEST(Spmd, SendToSelfRoundTrips) {
  RunSpmd(1, [](Communicator& comm) {
    comm.SendVec(0, /*tag=*/3, std::vector<int64_t>{1, 2, 3});
    EXPECT_EQ(comm.RecvVec<int64_t>(0, 3), (std::vector<int64_t>{1, 2, 3}));
  });
}

// ---- bounded waits (deadlines) --------------------------------------------
//
// The hang failure model: a rank that never arrives must not park its
// peers forever. Every blocking wait accepts a deadline; on expiry the
// waiting rank throws DeadlineExceededError (kDeadlineExceeded) instead of
// hanging, and because collectives are built on the same bounded waits,
// every rank that DID arrive fails the same way.

TEST(SpmdDeadline, RecvTimesOutWhenSenderNeverArrives) {
  std::atomic<int> timed_out{0};
  RunSpmd(2, [&](Communicator& comm) {
    if (comm.rank() == 1) return;  // the wedged peer: never sends
    try {
      comm.Recv(1, /*tag=*/3, Deadline::AfterMs(50));
      ADD_FAILURE() << "rank 0 did not time out";
    } catch (const DeadlineExceededError& e) {
      EXPECT_EQ(e.ToStatus().code(), StatusCode::kDeadlineExceeded);
      ++timed_out;
    }
  });
  EXPECT_EQ(timed_out.load(), 1);
}

TEST(SpmdDeadline, RecvWithInfiniteDeadlineStillDelivers) {
  RunSpmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.SendVec(1, /*tag=*/1, std::vector<int64_t>{5});
    } else {
      EXPECT_EQ(comm.RecvVec<int64_t>(0, 1), (std::vector<int64_t>{5}));
    }
  });
}

TEST(SpmdDeadline, BarrierTimesOutOnEveryArrivingRank) {
  std::atomic<int> timed_out{0};
  RunSpmd(3, [&](Communicator& comm) {
    if (comm.rank() == 2) return;  // never arrives at the barrier
    try {
      comm.Barrier(Deadline::AfterMs(50));
      ADD_FAILURE() << "rank " << comm.rank() << " did not time out";
    } catch (const DeadlineExceededError&) {
      ++timed_out;
    }
  });
  EXPECT_EQ(timed_out.load(), 2);
}

TEST(SpmdDeadline, BarrierStateSurvivesATimeout) {
  // A timed-out waiter un-registers its arrival, so a later full barrier
  // on the same communicator still works (the wedged rank "recovered").
  RunSpmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      try {
        comm.Barrier(Deadline::AfterMs(30));
        ADD_FAILURE() << "rank 0 did not time out";
      } catch (const DeadlineExceededError&) {
      }
    } else {
      // Arrive only after rank 0 has certainly timed out and withdrawn.
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    }
    comm.Barrier();  // all ranks arrive: must complete
  });
}

TEST(SpmdDeadline, AllReduceTimesOutOnEveryArrivingRank) {
  std::atomic<int> timed_out{0};
  RunSpmd(3, [&](Communicator& comm) {
    if (comm.rank() == 2) return;  // never joins the collective
    comm.SetWaitTimeout(50);
    try {
      comm.AllReduceScalar(int64_t{1}, ReduceOp::kSum);
      ADD_FAILURE() << "rank " << comm.rank() << " did not time out";
    } catch (const DeadlineExceededError&) {
      ++timed_out;
    }
  });
  EXPECT_EQ(timed_out.load(), 2);
}

TEST(SpmdDeadline, ScatterTimesOutWhenRootNeverArrives) {
  std::atomic<int> timed_out{0};
  RunSpmd(2, [&](Communicator& comm) {
    if (comm.rank() == 0) return;  // the root never scatters
    comm.SetWaitTimeout(50);
    try {
      comm.Scatter(std::vector<std::vector<int64_t>>{}, /*root=*/0);
      ADD_FAILURE() << "rank 1 did not time out";
    } catch (const DeadlineExceededError&) {
      ++timed_out;
    }
  });
  EXPECT_EQ(timed_out.load(), 1);
}

TEST(SpmdDeadline, AgreeQuarantineTimesOutOnEveryArrivingRank) {
  std::atomic<int> timed_out{0};
  RunSpmd(3, [&](Communicator& comm) {
    if (comm.rank() == 1) return;  // wedged mid-stage, never agrees
    comm.SetWaitTimeout(50);
    try {
      AgreeQuarantine(comm, 8, {static_cast<uint64_t>(comm.rank())});
      ADD_FAILURE() << "rank " << comm.rank() << " did not time out";
    } catch (const DeadlineExceededError&) {
      ++timed_out;
    }
  });
  EXPECT_EQ(timed_out.load(), 2);
}

TEST(SpmdDeadline, ZeroWaitTimeoutMeansUnbounded) {
  // SetWaitTimeout(0) restores the default: block until the peer arrives.
  RunSpmd(2, [](Communicator& comm) {
    comm.SetWaitTimeout(50);
    comm.SetWaitTimeout(0);
    if (comm.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
      comm.SendVec(1, /*tag=*/1, std::vector<int64_t>{7});
    } else {
      // Would throw at ~50 ms if the reset did not take.
      EXPECT_EQ(comm.RecvVec<int64_t>(0, 1), (std::vector<int64_t>{7}));
    }
  });
}

// ---- striped store --------------------------------------------------------

TEST(StripedStore, WriteReadRoundTrip) {
  StripedStore store;
  const Bytes data = ToBytes("the quick brown fox");
  ASSERT_TRUE(store.Create("/f", 2).ok());
  ASSERT_TRUE(store.Write("/f", 0, data).ok());
  const auto read = store.ReadAll("/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(BytesToString(*read), "the quick brown fox");
}

TEST(StripedStore, OffsetWriteExtends) {
  StripedStore store;
  ASSERT_TRUE(store.Write("/f", 4, ToBytes("abcd")).ok());
  EXPECT_EQ(store.Size("/f").value(), 8u);
  const auto head = store.Read("/f", 0, 4);
  ASSERT_TRUE(head.ok());  // zero-filled hole
  EXPECT_EQ(BytesToString(*head), std::string(4, '\0'));
}

TEST(StripedStore, AppendReturnsOffsets) {
  StripedStore store;
  EXPECT_EQ(store.Append("/log", ToBytes("aaaa")).value(), 0u);
  EXPECT_EQ(store.Append("/log", ToBytes("bb")).value(), 4u);
  EXPECT_EQ(store.Size("/log").value(), 6u);
}

TEST(StripedStore, MissingFileIsNotFound) {
  StripedStore store;
  EXPECT_EQ(store.ReadAll("/nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Remove("/nope").code(), StatusCode::kNotFound);
}

TEST(StripedStore, ReadPastEofIsOutOfRange) {
  StripedStore store;
  ASSERT_TRUE(store.Write("/f", 0, ToBytes("xy")).ok());
  EXPECT_EQ(store.Read("/f", 1, 5).status().code(), StatusCode::kOutOfRange);
}

TEST(StripedStore, CapacityEnforced) {
  StripedStoreConfig config;
  config.capacity_bytes = 10;
  StripedStore store(config);
  EXPECT_TRUE(store.Write("/a", 0, Bytes(8)).ok());
  EXPECT_EQ(store.Write("/b", 0, Bytes(8)).code(),
            StatusCode::kResourceExhausted);
}

TEST(StripedStore, ReplaceCountsLikeCreateThenWrite) {
  StripedStore replaced;
  StripedStore written;
  for (size_t n : {size_t{3} << 20, size_t{100}, size_t{0}}) {
    ASSERT_TRUE(replaced.Replace("/f", Bytes(n, std::byte{1})).ok());
    ASSERT_TRUE(written.Create("/f").ok());
    ASSERT_TRUE(written.Write("/f", 0, Bytes(n, std::byte{1})).ok());
    EXPECT_EQ(replaced.ReadAll("/f").value(), written.ReadAll("/f").value());
    const StripedStoreStats a = replaced.stats();
    const StripedStoreStats b = written.stats();
    EXPECT_EQ(a.bytes_written, b.bytes_written);
    EXPECT_EQ(a.write_ops, b.write_ops);
    EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
  }
}

TEST(StripedStore, ReplaceIsAllOrNothing) {
  StripedStoreConfig config;
  config.capacity_bytes = 10;
  StripedStore store(config);
  ASSERT_TRUE(store.Write("/other", 0, Bytes(4)).ok());
  ASSERT_TRUE(store.Replace("/f", Bytes(6, std::byte{1})).ok());
  // used - old + new: 10 - 6 + 6 fits exactly; 10 - 6 + 7 does not.
  EXPECT_TRUE(store.Replace("/f", Bytes(6, std::byte{2})).ok());
  const StripedStoreStats before = store.stats();
  EXPECT_EQ(store.Replace("/f", Bytes(7, std::byte{3})).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(store.stats().write_ops, before.write_ops);
  EXPECT_EQ(store.stats().bytes_written, before.bytes_written);
  EXPECT_EQ(store.stats().simulated_seconds, before.simulated_seconds);
  EXPECT_EQ(store.ReadAll("/f").value(), Bytes(6, std::byte{2}));
  EXPECT_EQ(store.UsedBytes(), 10u);
}

TEST(StripedStore, ListByPrefix) {
  StripedStore store;
  store.Write("/d/a", 0, Bytes(1)).OrDie();
  store.Write("/d/b", 0, Bytes(1)).OrDie();
  store.Write("/e/c", 0, Bytes(1)).OrDie();
  EXPECT_EQ(store.List("/d/"), (std::vector<std::string>{"/d/a", "/d/b"}));
  EXPECT_EQ(store.List().size(), 3u);
}

TEST(StripedStore, SimulatedTimeGrowsWithBytes) {
  StripedStore store;
  store.Write("/f", 0, Bytes(1 << 20)).OrDie();
  const double t1 = store.stats().simulated_seconds;
  store.Write("/f", 1 << 20, Bytes(64 << 20)).OrDie();
  const double t2 = store.stats().simulated_seconds;
  EXPECT_GT(t1, 0);
  EXPECT_GT(t2 - t1, t1);  // 64x the bytes takes much longer
}

TEST(StripedStore, MoreStripesFasterLargeWrites) {
  // Model property: striping a large write over more OSTs reduces the
  // simulated completion time (until writers saturate).
  auto time_with_stripes = [](int stripes) {
    StripedStoreConfig config;
    config.num_osts = 8;
    StripedStore store(config);
    store.Create("/f", stripes).OrDie();
    store.Write("/f", 0, Bytes(256 << 20)).OrDie();
    return store.stats().simulated_seconds;
  };
  const double t1 = time_with_stripes(1);
  const double t4 = time_with_stripes(4);
  const double t8 = time_with_stripes(8);
  EXPECT_GT(t1, t4);
  EXPECT_GT(t4, t8);
}

TEST(StripedStore, StatsCountOps) {
  StripedStore store;
  store.Write("/f", 0, Bytes(100)).OrDie();
  store.ReadAll("/f").value();
  const auto stats = store.stats();
  EXPECT_EQ(stats.bytes_written, 100u);
  EXPECT_EQ(stats.bytes_read, 100u);
  EXPECT_EQ(stats.write_ops, 1u);
  EXPECT_EQ(stats.read_ops, 1u);
  store.ResetStats();
  EXPECT_EQ(store.stats().bytes_written, 0u);
}

}  // namespace
}  // namespace drai::par
