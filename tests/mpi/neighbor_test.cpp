#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "world_fixture.hpp"

namespace mel::test {
namespace {

using mpi::Comm;
using sim::RankTask;

/// Pack caller-built byte vectors into one block, one slice per neighbor.
mpi::PackedSlices staged(const std::vector<std::vector<std::byte>>& slices) {
  std::vector<std::size_t> bytes;
  for (const auto& s : slices) bytes.push_back(s.size());
  mpi::PackedSlices packed(bytes);
  for (std::size_t k = 0; k < slices.size(); ++k) {
    std::copy(slices[k].begin(), slices[k].end(), packed.writable(k).begin());
  }
  return packed;
}

TEST(Neighbor, RingExchangeI64) {
  World w(4);
  w.ring_topology();
  std::vector<std::vector<std::int64_t>> got(4);
  auto body = [&](Comm& c) -> RankTask {
    // Send my rank to each neighbor.
    std::vector<std::int64_t> vals(c.neighbors().size(), c.rank());
    got[c.rank()] = co_await c.neighbor_alltoall_i64(vals);
    co_return;
  };
  w.spawn_all(body);
  w.run();
  // Rank 0's neighbors on a 4-ring are {3, 1} (prev, next).
  EXPECT_EQ(got[0], (std::vector<std::int64_t>{3, 1}));
  EXPECT_EQ(got[2], (std::vector<std::int64_t>{1, 3}));
}

TEST(Neighbor, AlltoallvVariableSizes) {
  World w(3);
  w.full_topology();
  std::vector<std::vector<std::int64_t>> got(3);
  auto body = [&](Comm& c) -> RankTask {
    // Rank r sends (r+1) records of value r to each neighbor.
    std::vector<std::vector<std::byte>> slices;
    for (std::size_t i = 0; i < c.neighbors().size(); ++i) {
      std::vector<std::byte> slice;
      for (int k = 0; k <= c.rank(); ++k) {
        const auto b = mpi::to_bytes<std::int64_t>(c.rank());
        slice.insert(slice.end(), b.begin(), b.end());
      }
      slices.push_back(std::move(slice));
    }
    const auto recv = co_await c.neighbor_alltoallv(staged(slices));
    for (const auto& slice : recv) {
      const auto n = mpi::record_count<std::int64_t>(slice);
      for (std::size_t i = 0; i < n; ++i) {
        got[c.rank()].push_back(mpi::nth_record<std::int64_t>(slice, i));
      }
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  // Rank 0 receives from 1 (two records of 1) and 2 (three records of 2).
  EXPECT_EQ(got[0], (std::vector<std::int64_t>{1, 1, 2, 2, 2}));
  EXPECT_EQ(got[1], (std::vector<std::int64_t>{0, 2, 2, 2}));
}

TEST(Neighbor, EmptySlicesAllowed) {
  World w(3);
  w.ring_topology();
  bool done = false;
  auto body = [&](Comm& c) -> RankTask {
    std::vector<std::vector<std::byte>> empty(c.neighbors().size());
    (void)co_await c.neighbor_alltoallv(staged(empty));
    if (c.rank() == 0) done = true;
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_TRUE(done);
}

TEST(Neighbor, RepeatedCollectivesStaySequenced) {
  constexpr int kRounds = 20;
  World w(4);
  w.ring_topology();
  std::vector<int> mismatches(4, 0);
  auto body = [&](Comm& c) -> RankTask {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::int64_t> vals(c.neighbors().size(),
                                     c.rank() * 1000 + round);
      const auto recv = co_await c.neighbor_alltoall_i64(vals);
      for (std::size_t i = 0; i < recv.size(); ++i) {
        if (recv[i] % 1000 != round) ++mismatches[c.rank()];
        if (recv[i] / 1000 != c.neighbors()[i]) ++mismatches[c.rank()];
      }
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  for (int r = 0; r < 4; ++r) EXPECT_EQ(mismatches[r], 0) << "rank " << r;
}

TEST(Neighbor, CompletionWaitsForSlowestNeighbor) {
  World w(3);
  w.ring_topology();
  sim::Time done_at_0 = 0;
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 2) c.compute(50 * sim::kMicrosecond);
    std::vector<std::int64_t> vals(c.neighbors().size(), 1);
    (void)co_await c.neighbor_alltoall_i64(vals);
    if (c.rank() == 0) done_at_0 = c.now();
    co_return;
  };
  w.spawn_all(body);
  w.run();
  // Rank 0 neighbors rank 2 (ring of 3), so it must wait for it.
  EXPECT_GT(done_at_0, 50 * sim::kMicrosecond);
}

TEST(Neighbor, NonNeighborsDoNotSynchronize) {
  // Line topology 0-1, 2-3 (two disjoint pairs): the pair {0,1} completes
  // without waiting for the slow pair {2,3}.
  World w(4);
  w.machine.set_topology({{1}, {0}, {3}, {2}});
  sim::Time done_at_0 = 0;
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() >= 2) c.compute(1 * sim::kSecond);
    std::vector<std::int64_t> vals(c.neighbors().size(), 7);
    (void)co_await c.neighbor_alltoall_i64(vals);
    if (c.rank() == 0) done_at_0 = c.now();
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_LT(done_at_0, 1 * sim::kMillisecond);
}

TEST(Neighbor, AsymmetricTopologyRejected) {
  World w(2);
  EXPECT_THROW(w.machine.set_topology({{1}, {}}), std::logic_error);
}

TEST(Neighbor, DuplicateNeighborRejected) {
  World w(3);
  EXPECT_THROW(w.machine.set_topology({{1, 1}, {0}, {}}), std::logic_error);
}

TEST(Neighbor, SelfNeighborRejected) {
  World w(2);
  EXPECT_THROW(w.machine.set_topology({{0}, {}}), std::invalid_argument);
}

TEST(Neighbor, WrongNumberOfListsRejected) {
  World w(3);
  EXPECT_THROW(w.machine.set_topology({{1}, {0}}), std::invalid_argument);
  EXPECT_THROW(w.machine.set_topology({{1}, {0}, {}, {}}),
               std::invalid_argument);
}

TEST(Neighbor, ShuffledCompleteTopologyDeliversEachSliceToItsOwner) {
  // Every rank lists all others, each in its own order, so a slice's
  // position in the sender's list differs from the receiver's position
  // in it: a receiver gets the right slice only through the reverse
  // index. Every slice carries its sender and its intended receiver.
  constexpr int kRanks = 12;
  World w(kRanks);
  std::vector<std::vector<sim::Rank>> topo(kRanks);
  for (sim::Rank r = 0; r < kRanks; ++r) {
    for (sim::Rank n = 0; n < kRanks; ++n) {
      if (n != r) topo[r].push_back(n);
    }
    // A distinct permutation per rank: 13 is prime and r + 1 is a unit
    // modulo 13, so the keys are distinct.
    const auto key = [r](sim::Rank n) { return (n + 1) * (r + 1) % 13; };
    std::sort(topo[r].begin(), topo[r].end(),
              [&key](sim::Rank a, sim::Rank b) { return key(a) < key(b); });
  }
  ASSERT_NE(topo[1], topo[2]);
  w.machine.set_topology(topo);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> got(kRanks);
  auto body = [&](Comm& c) -> RankTask {
    std::vector<std::vector<std::byte>> slices;
    for (const sim::Rank n : c.neighbors()) {
      auto slice = mpi::to_bytes<std::int64_t>(c.rank());
      const auto to = mpi::to_bytes<std::int64_t>(n);
      slice.insert(slice.end(), to.begin(), to.end());
      slices.push_back(std::move(slice));
    }
    const auto recv = co_await c.neighbor_alltoallv(staged(slices));
    for (const auto& slice : recv) {
      got[c.rank()].emplace_back(mpi::nth_record<std::int64_t>(slice, 0),
                                 mpi::nth_record<std::int64_t>(slice, 1));
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  for (sim::Rank r = 0; r < kRanks; ++r) {
    ASSERT_EQ(got[r].size(), topo[r].size()) << "rank " << r;
    for (std::size_t k = 0; k < topo[r].size(); ++k) {
      EXPECT_EQ(got[r][k].first, w.machine.topology(r)[k])
          << "rank " << r << " slice " << k;
      EXPECT_EQ(got[r][k].second, r) << "rank " << r << " slice " << k;
    }
  }
}

TEST(Neighbor, WrongSliceCountThrows) {
  World w(2);
  w.ring_topology();
  auto body = [&](Comm& c) -> RankTask {
    std::vector<std::vector<std::byte>> slices(5);  // degree is 1
    (void)co_await c.neighbor_alltoallv(staged(slices));
    co_return;
  };
  w.spawn_all(body);
  EXPECT_THROW(w.run(), std::invalid_argument);
}

TEST(Neighbor, IsolatedRankCompletesImmediately) {
  World w(3);
  w.machine.set_topology({{1}, {0}, {}});
  bool isolated_done = false;
  auto body = [&](Comm& c) -> RankTask {
    std::vector<std::int64_t> vals(c.neighbors().size(), 0);
    (void)co_await c.neighbor_alltoall_i64(vals);
    if (c.rank() == 2) isolated_done = true;
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_TRUE(isolated_done);
}

TEST(Neighbor, CountersAndMatrix) {
  World w(2);
  w.ring_topology();
  auto body = [&](Comm& c) -> RankTask {
    std::vector<std::int64_t> vals(c.neighbors().size(), 42);
    (void)co_await c.neighbor_alltoall_i64(vals);
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(w.machine.counters(0).neighbor_colls, 1u);
  EXPECT_EQ(w.machine.counters(0).bytes_coll, 8u);
  const auto matrix = w.machine.take_matrix();
  EXPECT_EQ(matrix->msgs(0, 1), 1u);
  EXPECT_EQ(matrix->msgs(1, 0), 1u);
}

TEST(Neighbor, SplitPhaseMatchesBlocking) {
  World w(4);
  w.ring_topology();
  std::vector<std::vector<std::int64_t>> got(4);
  auto body = [&](Comm& c) -> RankTask {
    std::vector<std::vector<std::byte>> slices;
    for (std::size_t i = 0; i < c.neighbors().size(); ++i) {
      slices.push_back(mpi::to_bytes<std::int64_t>(c.rank() * 100));
    }
    mpi::NeighborRequest req;
    c.ineighbor_alltoallv(staged(slices), req);
    c.compute(5 * sim::kMicrosecond);  // overlapped work
    co_await c.ineighbor_wait(req);
    for (const auto& slice : req.recv) {
      got[c.rank()].push_back(mpi::from_bytes<std::int64_t>(slice));
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(got[0], (std::vector<std::int64_t>{300, 100}));
  EXPECT_EQ(got[2], (std::vector<std::int64_t>{100, 300}));
}

TEST(Neighbor, SplitPhaseOverlapHidesLatency) {
  // With enough overlapped compute, the wait should be (nearly) free:
  // total time ~ compute, not compute + collective.
  World w(2);
  w.ring_topology();
  sim::Time split_time = 0, blocking_time = 0;
  {
    World wb(2);
    wb.ring_topology();
    auto blocking = [&](Comm& c) -> RankTask {
      std::vector<std::vector<std::byte>> slices(c.neighbors().size());
      (void)co_await c.neighbor_alltoallv(staged(slices));
      c.compute(100 * sim::kMicrosecond);
      if (c.rank() == 0) blocking_time = c.now();
      co_return;
    };
    wb.spawn_all(blocking);
    wb.run();
  }
  auto split = [&](Comm& c) -> RankTask {
    std::vector<std::vector<std::byte>> slices(c.neighbors().size());
    mpi::NeighborRequest req;
    c.ineighbor_alltoallv(staged(slices), req);
    c.compute(100 * sim::kMicrosecond);
    co_await c.ineighbor_wait(req);
    if (c.rank() == 0) split_time = c.now();
    co_return;
  };
  w.spawn_all(split);
  w.run();
  EXPECT_LE(split_time, blocking_time);
}

TEST(Neighbor, DoubleBeginThrows) {
  World w(2);
  w.ring_topology();
  auto body = [&](Comm& c) -> RankTask {
    mpi::NeighborRequest a, b;
    std::vector<std::vector<std::byte>> s1(c.neighbors().size());
    std::vector<std::vector<std::byte>> s2(c.neighbors().size());
    c.ineighbor_alltoallv(staged(s1), a);
    c.ineighbor_alltoallv(staged(s2), b);  // second outstanding: error
    co_return;
  };
  w.spawn_all(body);
  EXPECT_THROW(w.run(), std::logic_error);
}

TEST(Neighbor, WaitWithoutBeginThrows) {
  World w(2);
  w.ring_topology();
  auto body = [&](Comm& c) -> RankTask {
    mpi::NeighborRequest req;
    co_await c.ineighbor_wait(req);
    co_return;
  };
  w.spawn_all(body);
  EXPECT_THROW(w.run(), std::logic_error);
}

/// The one slice a rank on a 2-rank ring sends, empty.
mpi::PackedSlices empty_slice() {
  return staged(std::vector<std::vector<std::byte>>(1));
}

TEST(Neighbor, MismatchedCallKindThrows) {
  // MPI matches a neighborhood collective only with the same kind of call
  // on each neighbor: blocking, split-phase or persistent start. A
  // mismatch fails the run with a logic_error naming the instance, both
  // ranks and both calls.
  using Start = std::function<void(Comm&, mpi::NeighborRequest&)>;
  const Start split = [](Comm& c, mpi::NeighborRequest& req) {
    c.ineighbor_alltoallv(empty_slice(), req);
  };
  const Start persistent = [](Comm& c, mpi::NeighborRequest& req) {
    c.neighbor_alltoallv_init(req);
    c.neighbor_alltoallv_start(req, empty_slice());
  };
  struct Case {
    Start rank1;  // rank 0 makes a blocking call when empty
    Start rank0;
    std::vector<std::string> named;
  };
  const std::vector<Case> cases = {
      {split, {}, {"neighbor_alltoallv()", "ineighbor_alltoallv()"}},
      {persistent, split,
       {"ineighbor_alltoallv()", "neighbor_alltoallv_start()"}},
  };
  for (const Case& test : cases) {
    World w(2);
    w.ring_topology();
    auto body = [&test](Comm& c) -> RankTask {
      const Start& start = c.rank() == 0 ? test.rank0 : test.rank1;
      if (!start) {
        (void)co_await c.neighbor_alltoallv(empty_slice());
        co_return;
      }
      mpi::NeighborRequest req;
      start(c, req);
      co_await c.ineighbor_wait(req);
    };
    w.spawn_all(body);
    try {
      w.run();
      ADD_FAILURE() << "no error for " << test.named[0] << " against "
                    << test.named[1];
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("neighborhood collective #0"), std::string::npos)
          << what;
      EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
      EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
      for (const std::string& call : test.named) {
        EXPECT_NE(what.find(call), std::string::npos) << what;
      }
    }
  }
}

TEST(Neighbor, PersistentStartNeedsItsOwnInit) {
  // The persistent schedule belongs to the request init built it on, so a
  // start on another request is an error even after the rank ran an init.
  World w(2);
  w.ring_topology();
  auto body = [&](Comm& c) -> RankTask {
    mpi::NeighborRequest built, other;
    c.neighbor_alltoallv_init(built);
    c.neighbor_alltoallv_start(other, empty_slice());
    co_await c.neighbor_alltoallv_wait(other);
  };
  w.spawn_all(body);
  EXPECT_THROW(w.run(), std::logic_error);
}

TEST(Neighbor, WaitNamesTheOutstandingRequest) {
  // Completing the outstanding call through another request would leave
  // that request's recv empty and the caller reading nothing.
  World w(2);
  w.ring_topology();
  auto body = [&](Comm& c) -> RankTask {
    mpi::NeighborRequest started, other;
    c.ineighbor_alltoallv(staged({mpi::to_bytes<std::int64_t>(c.rank())}),
                          started);
    co_await c.ineighbor_wait(other);
  };
  w.spawn_all(body);
  try {
    w.run();
    ADD_FAILURE() << "a wait on a request never started completed";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("not the outstanding"),
              std::string::npos)
        << e.what();
  }
}

TEST(Neighbor, TopologyCollectivesOrderApartFromGlobalOnes) {
  // The process topology is a communicator of its own, as
  // MPI_Dist_graph_create_adjacent returns one, so its collectives keep
  // their own sequence: a rank may start a neighborhood collective before
  // a global one while its neighbor starts it after.
  for (const sim::Rank neighborhood_first : {0, 1}) {
    World w(2);
    w.ring_topology();
    std::vector<std::int64_t> sums(2, 0);
    std::vector<std::int64_t> slices(2, 0);
    auto body = [&](Comm& c) -> RankTask {
      mpi::NeighborRequest req;
      const auto begin = [&] {
        c.ineighbor_alltoallv(
            staged({mpi::to_bytes<std::int64_t>(10 + c.rank())}), req);
      };
      if (c.rank() == neighborhood_first) begin();
      sums[c.rank()] = co_await c.allreduce_sum(c.rank() + 1);
      if (c.rank() != neighborhood_first) begin();
      co_await c.ineighbor_wait(req);
      slices[c.rank()] = mpi::from_bytes<std::int64_t>(req.recv.at(0));
    };
    w.spawn_all(body);
    w.run();
    EXPECT_EQ(sums, (std::vector<std::int64_t>{3, 3}))
        << "rank " << neighborhood_first << " first";
    EXPECT_EQ(slices, (std::vector<std::int64_t>{11, 10}))
        << "rank " << neighborhood_first << " first";
  }
}

TEST(Neighbor, DeadlockWhenNeighborNeverArrives) {
  World w(2);
  w.ring_topology();
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      std::vector<std::int64_t> vals(c.neighbors().size(), 0);
      (void)co_await c.neighbor_alltoall_i64(vals);
    }
    co_return;
  };
  w.spawn_all(body);
  EXPECT_THROW(w.run(), sim::DeadlockError);
}

}  // namespace
}  // namespace mel::test
