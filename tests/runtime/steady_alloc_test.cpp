// Zero per-event steady-state allocation: with the pooled buffers, inline
// event closures and recycled queue storage, the number of heap
// allocations during a simulation run must not depend on how many events
// execute — only on the topology/rank setup. Verified with a counting
// global operator new: two ring workloads differing only in round count
// (3x the events) must allocate exactly the same number of times.
//
// This test lives in its own binary because it replaces the global
// allocation functions. The counter is atomic because the sharded
// engine's worker threads allocate too.
#include <gtest/gtest.h>

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

constexpr int kRanks = 64;

/// Allocation count of one full ring simulation (setup + run).
std::uint64_t allocs_for(int rounds, int threads = 1) {
  const std::uint64_t before = g_news;
  {
    sim::Simulator s(kRanks);
    s.set_threads(threads);
    mpi::Machine m(s, net::Network(kRanks, net::Params{}));
    for (sim::Rank r = 0; r < kRanks; ++r) {
      s.spawn(r, ring_rank(m.comm(r), rounds));
    }
    s.run();
  }
  return g_news - before;
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

}  // namespace
