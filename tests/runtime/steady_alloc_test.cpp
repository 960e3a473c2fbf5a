// Steady-state allocation: inline event closures and recycled queue
// storage keep the number of heap allocations during a simulation run
// independent of how many events execute. What remains is one block per
// message, its payload, and a few allocations per neighborhood call
// whatever the degree. Verified with a counting global operator new: two
// runs of a workload differing only in round count must differ by exactly
// those, up to a small budget.
//
// This test lives in its own binary because it replaces the global
// allocation functions. The counter is atomic because the sharded
// engine's worker threads allocate too.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "../mpi/world_fixture.hpp"
#include "mel/match/exchange.hpp"
#include "mel/mpi/comm.hpp"
#include "mel/mpi/machine.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void* operator new[](std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mel;

sim::RankTask ring_rank(mpi::Comm& c, int rounds) {
  const int p = c.size();
  const sim::Rank next = (c.rank() + 1) % p;
  const sim::Rank prev = (c.rank() + p - 1) % p;
  for (int i = 0; i < rounds; ++i) {
    c.isend_pod<std::int64_t>(next, 0, i);
    (void)co_await c.recv(prev, 0);
  }
  co_return;
}

/// Ranks 1..p-1 each send rank 0 a 1 KiB request per round and wait for
/// its 8-byte reply; rank 0 takes the requests in any order. So request
/// payloads are freed on rank 0's shard whichever shard allocated them,
/// and replies travel the other way.
sim::RankTask one_way_rank(mpi::Comm& c, int rounds) {
  if (c.rank() == 0) {
    for (int i = 0; i < rounds * (c.size() - 1); ++i) {
      const mpi::Message request = co_await c.recv(mpi::kAnySource, 0);
      c.isend_pod<std::int64_t>(request.src, 1, i);
    }
    co_return;
  }
  const std::array<std::byte, 1024> request{};
  for (int i = 0; i < rounds; ++i) {
    c.isend(0, 0, request);
    (void)co_await c.recv(0, 1);
  }
  co_return;
}

constexpr int kRanks = 64;

/// Allocation count of one full simulation (setup + run) of `rank_fn`.
template <class RankFn>
std::uint64_t allocs_for(RankFn rank_fn, int rounds, int threads) {
  const std::uint64_t before = g_news;
  {
    sim::Simulator s(kRanks);
    s.set_threads(threads);
    mpi::Machine m(s, net::Network(kRanks, net::Params{}));
    for (sim::Rank r = 0; r < kRanks; ++r) {
      s.spawn(r, rank_fn(m.comm(r), rounds));
    }
    s.run();
  }
  return g_news - before;
}

std::uint64_t allocs_for(int rounds, int threads = 1) {
  return allocs_for(ring_rank, rounds, threads);
}

TEST(SteadyAlloc, EventCountDoesNotDriveAllocations) {
  // Warm the free lists and internal vector capacities.
  (void)allocs_for(64);
  const std::uint64_t base = allocs_for(64);
  const std::uint64_t tripled = allocs_for(192);
  // 64 ranks x 128 extra rounds, one message each: one payload block per
  // message, and none per event (send, deliver, wake). A handful of extra
  // reallocations are tolerated: storage grows to a new high-water mark
  // O(log events) times (amortized-constant, not per-event).
  constexpr std::uint64_t kExtraMessages =
      static_cast<std::uint64_t>(kRanks) * (192 - 64);
  EXPECT_LE(tripled, base + kExtraMessages + 8)
      << "steady-state allocations grew faster than one payload per "
         "message - a hot-path closure outgrew the EventFn inline buffer";
}

TEST(SteadyAlloc, ShardedEventCountDoesNotDriveAllocations) {
  // The sharded engine adds per-window action logs, deferred closures and
  // the merge's bookkeeping; all of it must reuse storage too. Beyond one
  // payload block per extra message, the budget is one allocation per 64
  // extra messages: high-water growth stays far below it, one allocation
  // per message or per window does not.
  constexpr int kThreads = 4;
  (void)allocs_for(1728, kThreads);
  const std::uint64_t base = allocs_for(1728, kThreads);
  const std::uint64_t tripled = allocs_for(5184, kThreads);
  constexpr std::uint64_t kExtraMessages =
      static_cast<std::uint64_t>(kRanks) * (5184 - 1728);
  EXPECT_LE(tripled, base + kExtraMessages + kExtraMessages / 64)
      << "sharded allocations grew faster than one payload per message - "
         "a deferred closure or a merge-time buffer allocates per message "
         "or per window";
}

TEST(SteadyAlloc, OneWayCrossShardTrafficDoesNotDriveAllocations) {
  // The 1 KiB requests of the ranks on shards 1..3 are all freed on shard
  // 0, and the replies go the other way. Beyond one payload block per
  // extra request and reply, the budget is one allocation per 32 extra
  // requests.
  constexpr int kThreads = 4;
  (void)allocs_for(one_way_rank, 200, kThreads);
  const std::uint64_t base = allocs_for(one_way_rank, 200, kThreads);
  const std::uint64_t tripled = allocs_for(one_way_rank, 600, kThreads);
  constexpr std::uint64_t kExtraRequests =
      static_cast<std::uint64_t>(kRanks - 1) * (600 - 200);
  EXPECT_LE(tripled, base + 2 * kExtraRequests + kExtraRequests / 32)
      << "one-way cross-shard traffic grew allocations faster than one "
         "payload per message - a closure or buffer on the cross-shard "
         "path allocates per message";
}

// -- neighborhood collectives ------------------------------------------------

/// Allocations per rank per call that a neighborhood call may make,
/// whatever the degree: the send block and its slice ends, the received
/// views, the caller's value vectors and a coroutine frame. One block per
/// slice would add the degree, 15 or 63 here.
constexpr std::uint64_t kAllocsPerCall = 8;

/// Allocations made while every rank of a complete topology on `p` ranks
/// runs `calls` rounds of `body_round`, in a fresh world.
template <class Round>
std::uint64_t world_allocs(int p, int calls, Round body_round) {
  const std::uint64_t before = g_news;
  {
    test::World w(p);
    w.full_topology();
    w.spawn_all([&](mpi::Comm& c) { return body_round(c, calls); });
    w.run();
  }
  return g_news - before;
}

/// Allocations per rank per call: the difference between worlds that make
/// 2 * kCalls and kCalls calls, so set-up cancels.
template <class Round>
double allocs_per_call(int p, int calls_per_round, Round body_round) {
  constexpr int kCalls = 4;
  (void)world_allocs(p, kCalls, body_round);
  const std::uint64_t base = world_allocs(p, kCalls, body_round);
  const std::uint64_t doubled = world_allocs(p, 2 * kCalls, body_round);
  return static_cast<double>(doubled - base) /
         (static_cast<double>(kCalls) * calls_per_round * p);
}

TEST(SteadyAlloc, NeighborhoodCallAllocationsDoNotGrowWithDegree) {
  // A call packs its slices into one block, whatever the degree.
  for (const int p : {16, 64}) {
    const double i64 = allocs_per_call(
        p, 1, [](mpi::Comm& c, int calls) -> sim::RankTask {
          for (int i = 0; i < calls; ++i) {
            (void)co_await c.neighbor_alltoall_i64(
                std::vector<std::int64_t>(c.neighbors().size(), c.rank()));
          }
        });
    EXPECT_LE(i64, kAllocsPerCall) << "neighbor_alltoall_i64 at p=" << p;
    const double v = allocs_per_call(
        p, 1, [](mpi::Comm& c, int calls) -> sim::RankTask {
          const std::vector<std::size_t> bytes(c.neighbors().size(), 24);
          for (int i = 0; i < calls; ++i) {
            (void)co_await c.neighbor_alltoallv(mpi::PackedSlices(bytes));
          }
        });
    EXPECT_LE(v, kAllocsPerCall) << "neighbor_alltoallv at p=" << p;
  }
}

TEST(SteadyAlloc, NeighborhoodRoundAllocationsDoNotGrowWithDegree) {
  // pack() writes a round's records into one block, so each neighborhood
  // call of a round allocates the same whatever the degree; a blocking
  // round makes two calls (counts, then records).
  struct Rec {
    std::int64_t src, dst, round;
  };
  using Ncl = match::NclExchange<Rec>;
  for (const auto start : {Ncl::Start::kBlocking, Ncl::Start::kNonblocking,
                           Ncl::Start::kPersistent}) {
    for (const int p : {16, 64}) {
      std::vector<graph::LocalGraph> lgs(p);
      const auto round = [&](mpi::Comm& c, int rounds) -> sim::RankTask {
        graph::LocalGraph& lg = lgs[c.rank()];
        lg.neighbor_ranks = c.neighbors();
        Ncl ex(c, lg, start);
        match::Sink<Rec> sink{[](const Rec&) {}};
        co_await ex.setup();
        for (std::int64_t i = 0; i < rounds; ++i) {
          for (const sim::Rank nbr : c.neighbors()) {
            ex.push(nbr, Rec{c.rank(), nbr, i});
          }
          co_await ex.round(sink);
        }
      };
      const int calls = start == Ncl::Start::kBlocking ? 2 : 1;
      EXPECT_LE(allocs_per_call(p, calls, round), kAllocsPerCall)
          << "start " << static_cast<int>(start) << " p " << p;
    }
  }
}

}  // namespace
