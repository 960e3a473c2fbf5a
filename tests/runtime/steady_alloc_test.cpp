// Zero per-event steady-state allocation: with the pooled buffers, inline
// event closures and recycled queue storage, the number of heap
// allocations during a simulation run must not depend on how many events
// execute — only on the topology/rank setup. Verified with a counting
// global operator new: two runs of a workload differing only in round
// count (3x the events) must allocate the same number of times, up to a
// small budget on the sharded engine.
//
// This test lives in its own binary because it replaces the global
// allocation functions. The counter is atomic because the sharded
// engine's worker threads allocate too.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

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
  // Warm the buffer pool, free lists and internal vector capacities.
  (void)allocs_for(64);
  const std::uint64_t base = allocs_for(64);
  const std::uint64_t tripled = allocs_for(192);
  // 64 ranks x 128 extra rounds x (send + deliver + wake) events: any
  // per-event allocation would add tens of thousands here. A handful of
  // extra reallocations are tolerated: the event queue's run buffer grows
  // to a new high-water mark O(log events) times as batches occasionally
  // straddle epochs (amortized-constant, not per-event).
  EXPECT_LE(tripled, base + 8)
      << "steady-state allocations grew with event count - a hot-path "
         "closure outgrew the EventFn inline buffer or a payload fell "
         "out of the pool";
}

TEST(SteadyAlloc, ShardedEventCountDoesNotDriveAllocations) {
  // The sharded engine adds per-window action logs, deferred closures and
  // the merge's bookkeeping; all of it must reuse storage too. The budget
  // is one allocation per 64 extra messages: first touches of timing-wheel
  // slots and other high-water growth stay far below it, one allocation
  // per message or per window does not.
  constexpr int kThreads = 4;
  (void)allocs_for(1728, kThreads);
  const std::uint64_t base = allocs_for(1728, kThreads);
  const std::uint64_t tripled = allocs_for(5184, kThreads);
  constexpr std::uint64_t kExtraMessages =
      static_cast<std::uint64_t>(kRanks) * (5184 - 1728);
  EXPECT_LE(tripled, base + kExtraMessages / 64)
      << "sharded allocations grew with event count - a deferred closure "
         "or a merge-time buffer allocates per message or per window";
}

TEST(SteadyAlloc, OneWayCrossShardTrafficDoesNotDriveAllocations) {
  // Every thread caches free message blocks. Here the 1 KiB requests of
  // the ranks on shards 1..3 are all freed on shard 0, and the replies go
  // the other way, so a cache with no way back to the allocating threads
  // would call operator new for every such request. The budget is one
  // allocation per 32 extra requests.
  constexpr int kThreads = 4;
  (void)allocs_for(one_way_rank, 200, kThreads);
  const std::uint64_t base = allocs_for(one_way_rank, 200, kThreads);
  const std::uint64_t tripled = allocs_for(one_way_rank, 600, kThreads);
  constexpr std::uint64_t kExtraRequests =
      static_cast<std::uint64_t>(kRanks - 1) * (600 - 200);
  EXPECT_LE(tripled, base + kExtraRequests / 32)
      << "one-way cross-shard traffic grew allocations - blocks freed on "
         "one thread do not get back to the threads that allocate";
}

}  // namespace
