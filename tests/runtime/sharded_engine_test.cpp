// Sharded-engine contract tests on the raw simulator: bit-identical
// (time, sequence) traces at any thread count, exact window-boundary
// handling, and the configuration guard rails. The matching-level
// invariance suite (tests/match/thread_invariance_test.cpp) covers the
// full MPI substrate on top of this.
#include "mel/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace mel::sim {
namespace {

RankTask noop_rank() { co_return; }

/// One rank's observation log: (virtual time, step id) in execution order.
/// Each rank only ever appends to its own log, so the logs are written
/// exclusively by the owning shard and need no synchronization.
using Log = std::vector<std::pair<Time, int>>;

struct Outcome {
  std::uint64_t trace_hash = 0;
  std::uint64_t events = 0;
  Time end = 0;
  std::vector<Log> logs;
};

/// A ring cascade that exercises every scheduling shape the MPI machine
/// uses: same-rank same-time chains (provisional sequences), same-rank
/// future events, and cross-rank pushes landing *exactly* one lookahead
/// later — the window-boundary case a torn merge would break.
Outcome run_ring(int nranks, int threads, Time lookahead, int depth) {
  Simulator s(nranks);
  s.set_threads(threads);
  s.limit_lookahead(lookahead);
  auto logs = std::make_shared<std::vector<Log>>(nranks);

  // Each step at (rank, t) logs itself, spawns a same-time local follow-up,
  // and forwards the token to the next rank at t + lookahead.
  struct Hop {
    Simulator* sim;
    std::shared_ptr<std::vector<Log>> logs;
    int nranks;
    Time lookahead;
    void run(Rank rank, Time t, int step, int depth) const {
      (*logs)[rank].emplace_back(t, step);
      if (depth <= 0) return;
      Hop self = *this;
      // Same-rank, same-time follow-up: must execute this window, in
      // schedule order, exactly like the sequential engine.
      sim->schedule_for(rank, t, [self, rank, t, step] {
        (*self.logs)[rank].emplace_back(t, step + 1000000);
      });
      // Cross-rank hop landing exactly on the next window boundary.
      const Rank next = (rank + 1) % self.nranks;
      const Time land = t + self.lookahead;
      sim->schedule_for(next, land, [self, next, step, depth](Time at) {
        self.run(next, at, step + 1, depth - 1);
      });
    }
  };
  Hop hop{&s, logs, nranks, lookahead};
  for (Rank r = 0; r < nranks; ++r) {
    s.spawn(r, noop_rank());
    s.schedule_for(r, 0, [hop, r](Time at) { hop.run(r, at, r * 1000, 0); });
    s.schedule_for(r, 0, [hop, r, depth](Time at) {
      hop.run(r, at, r * 1000 + 1, depth);
    });
  }
  s.run();
  Outcome o;
  o.trace_hash = s.trace_hash();
  o.events = s.events_executed();
  o.end = s.now();
  o.logs = std::move(*logs);
  return o;
}

TEST(ShardedEngine, RingCascadeBitIdenticalAtAnyThreadCount) {
  const Outcome base = run_ring(8, 1, 1000, 24);
  for (const int threads : {2, 3, 4, 8}) {
    const Outcome o = run_ring(8, threads, 1000, 24);
    EXPECT_EQ(o.trace_hash, base.trace_hash) << "threads=" << threads;
    EXPECT_EQ(o.events, base.events) << "threads=" << threads;
    EXPECT_EQ(o.end, base.end) << "threads=" << threads;
    EXPECT_EQ(o.logs, base.logs) << "threads=" << threads;
  }
}

TEST(ShardedEngine, MoreThreadsThanRanksClampsCleanly) {
  const Outcome base = run_ring(3, 1, 500, 10);
  const Outcome o = run_ring(3, 16, 500, 10);
  EXPECT_EQ(o.trace_hash, base.trace_hash);
  EXPECT_EQ(o.logs, base.logs);
}

// Regression: a cross-shard event landing exactly on a window boundary
// (t == w_end) must merge into the destination queue before that window
// opens — an off-by-one in the merge horizon would either drop it into a
// torn window or execute it twice. The ring above crosses boundaries
// exactly by construction; this narrows it to two ranks and one hop so a
// failure points straight at the boundary comparison.
TEST(ShardedEngine, CrossShardEventOnExactWindowBoundary) {
  auto run = [](int threads) {
    Simulator s(2);
    s.set_threads(threads);
    s.limit_lookahead(100);
    // Per-rank hit logs: the two t=100 events run in the same window on
    // different shards, so a single shared log would be a host-order data
    // race. Global ordering is asserted through the trace hash instead,
    // which folds the exact (time, seq) execution order.
    auto hits = std::make_shared<std::vector<Log>>(2);
    s.spawn(0, noop_rank());
    s.spawn(1, noop_rank());
    s.schedule_for(0, 0, [&s, hits](Time t0) {
      (*hits)[0].emplace_back(t0, 0);
      // Lands at exactly w_end of the [0, 100) window.
      s.schedule_for(1, 100, [&s, hits](Time t1) {
        (*hits)[1].emplace_back(t1, 1);
        // And back again, on the next boundary.
        s.schedule_for(0, 200,
                       [hits](Time t2) { (*hits)[0].emplace_back(t2, 3); });
      });
      // A same-shard event exactly on the boundary takes the merge path too.
      s.schedule_for(0, 100,
                     [hits](Time t3) { (*hits)[0].emplace_back(t3, 2); });
    });
    s.run();
    return std::pair{*hits, std::pair{s.trace_hash(), s.events_executed()}};
  };
  const auto base = run(1);
  const auto sharded = run(2);
  EXPECT_EQ(base.first[0], (Log{{0, 0}, {100, 2}, {200, 3}}));
  EXPECT_EQ(base.first[1], (Log{{100, 1}}));
  EXPECT_EQ(sharded.first, base.first);
  // The trace hash pins the *global* order — {0,0} then {1,100} then
  // {0,100} (same-time events sequence in schedule order) then {0,200} —
  // bit-identically across engines.
  EXPECT_EQ(sharded.second, base.second);
}

// A lookahead larger than a real cross-shard delay breaks the engine's
// promise: rank 1's shard runs its t=50 event in the [0, 100) window before
// the merge hands it the t=10 push from rank 0. The merge must refuse that
// push instead of letting the run finish out of order.
TEST(ShardedEngine, CrossShardPushInsideTheWindowThrows) {
  Simulator s(2);
  s.set_threads(2);
  s.limit_lookahead(100);
  s.spawn(0, noop_rank());
  s.spawn(1, noop_rank());
  s.schedule_for(1, 50, [] {});
  s.schedule_for(0, 0, [&s] { s.schedule_for(1, 10, [] {}); });
  try {
    s.run();
    FAIL() << "an early cross-shard push ran to completion";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("t=10ns"), std::string::npos) << what;
    EXPECT_NE(what.find("t=100ns"), std::string::npos) << what;
    EXPECT_NE(what.find("lookahead of 100ns"), std::string::npos) << what;
  }
}

// A deferred body replayed at the merge is globally ordered, so it may
// schedule for any rank, but not inside the window just merged: rank 1 has
// already run its t=50 event, and an event at t=10 would run a window late.
// The merge must refuse it on either shard.
TEST(ShardedEngine, MergeTimeScheduleInsideTheWindowThrows) {
  for (const Rank target : {0, 1}) {
    Simulator s(2);
    s.set_threads(2);
    s.limit_lookahead(100);
    s.spawn(0, noop_rank());
    s.spawn(1, noop_rank());
    s.schedule_for(1, 50, [] {});
    s.schedule_for(0, 0, [&s, target] {
      s.defer([&s, target] { s.schedule_for(target, 10, [] {}); });
    });
    try {
      s.run();
      ADD_FAILURE() << "a merge-time event inside the window ran to "
                       "completion, target rank "
                    << target;
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rank " + std::to_string(target)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("t=10ns"), std::string::npos) << what;
      EXPECT_NE(what.find("t=100ns"), std::string::npos) << what;
    }
  }
}

TEST(ShardedEngine, SetThreadsValidation) {
  Simulator s(4);
  EXPECT_THROW(s.set_threads(0), std::invalid_argument);
  EXPECT_THROW(s.set_threads(-2), std::invalid_argument);
  s.set_threads(2);  // fine before anything is scheduled
  s.schedule_for(0, 10, [] {});
  EXPECT_THROW(s.set_threads(4), std::logic_error);
}

TEST(ShardedEngine, ShardedRunWithoutLookaheadIsRejected) {
  Simulator s(4);
  s.set_threads(2);
  for (Rank r = 0; r < 4; ++r) s.spawn(r, noop_rank());
  EXPECT_THROW(s.run(), std::logic_error);
}

TEST(ShardedEngine, RequireSequentialFallbackKeepsTraceIdentical) {
  auto run = [](bool downgrade) {
    Simulator s(4);
    if (downgrade) {
      s.set_threads(4);
      s.limit_lookahead(100);
      s.require_sequential("test downgrade");
      EXPECT_FALSE(s.threaded());
    }
    auto order = std::make_shared<std::vector<int>>();
    for (int i = 0; i < 8; ++i) {
      s.schedule_for(i % 4, 10 * i, [order, i] { order->push_back(i); });
    }
    for (Rank r = 0; r < 4; ++r) s.spawn(r, noop_rank());
    s.run();
    return std::pair{s.trace_hash(), *order};
  };
  EXPECT_EQ(run(false), run(true));

  // The engine is fixed once anything is scheduled, so a late downgrade
  // is a caller bug.
  Simulator late(4);
  late.set_threads(4);
  late.schedule_for(1, 10, [] {});
  EXPECT_THROW(late.require_sequential("too late"), std::logic_error);
}

// Deadlock/stuck-rank detection must survive sharding: a parked rank with
// nothing left in any shard queue is reported exactly as in sequential.
TEST(ShardedEngine, DeadlockDetectedUnderSharding) {
  struct ParkForever {
    bool await_ready() { return false; }
    void await_suspend(std::coroutine_handle<>) {}
    void await_resume() {}
  };
  struct Body {
    static RankTask stuck() {
      co_await ParkForever{};
      co_return;
    }
  };
  Simulator s(2);
  s.set_threads(2);
  s.limit_lookahead(50);
  s.spawn(0, Body::stuck());
  s.spawn(1, noop_rank());
  EXPECT_THROW(s.run(), DeadlockError);
}

// A push for another shard waits in an outbox until the next window. With
// every queue empty, that entry alone decides where the next window
// starts: rank 1's event at t=1000 must run in a window of its own, at the
// same point in the trace as on one thread.
TEST(ShardedEngine, NextWindowStartsAtAnUndrainedEvent) {
  auto run = [](int threads) {
    Simulator s(2);
    s.set_threads(threads);
    s.limit_lookahead(100);
    auto hits = std::make_shared<std::vector<Log>>(2);
    s.spawn(0, noop_rank());
    s.spawn(1, noop_rank());
    s.schedule_for(0, 0, [&s, hits](Time t0) {
      (*hits)[0].emplace_back(t0, 0);
      s.schedule_for(1, 1000, [hits](Time t1) {
        (*hits)[1].emplace_back(t1, 1);
      });
    });
    s.run();
    return std::tuple{*hits, s.trace_hash(), s.events_executed(),
                      s.windows()};
  };
  const auto [base_hits, base_hash, base_events, base_windows] = run(1);
  const auto [hits, hash, events, windows] = run(2);
  EXPECT_EQ(base_hits[1], (Log{{1000, 1}}));
  EXPECT_EQ(hits, base_hits);
  EXPECT_EQ(hash, base_hash);
  EXPECT_EQ(events, base_events);
  EXPECT_EQ(base_windows, 0u);
  // [0, 100) runs the spawns and the push; [1000, 1100) runs the event.
  EXPECT_EQ(windows, 2u);
}

// The sampling gauge and the end-of-run check both see an entry that has
// not moved into its queue yet. Rank 1 parks until an event rank 0 sends
// from another shard wakes it, 500 ns later: at the hook boundaries in
// between, that event sits in an outbox, and the run must neither count it
// out nor call rank 1 deadlocked.
TEST(ShardedEngine, PendingEventsAndStuckCheckCountUndrainedEntries) {
  struct Park {
    Simulator* sim;
    std::shared_ptr<Simulator::Parked> slot;
    bool await_ready() { return false; }
    void await_suspend(std::coroutine_handle<> h) { *slot = {1, h}; }
    void await_resume() {}
  };
  struct Body {
    static RankTask parked(Park park) {
      co_await park;
      co_return;
    }
  };
  auto run = [](int threads) {
    Simulator s(2);
    s.set_threads(threads);
    s.limit_lookahead(100);
    auto slot = std::make_shared<Simulator::Parked>();
    std::vector<std::size_t> pending;
    s.add_periodic_hook(150, [&s, &pending](Time) {
      pending.push_back(s.pending_events());
    });
    s.spawn(0, noop_rank());
    s.spawn(1, Body::parked(Park{&s, slot}));
    // Rank 0 hands rank 1's shard an event that wakes it there.
    s.schedule_for(0, 10, [&s, slot] {
      s.schedule_for(1, 510, [&s, slot](Time t) { s.wake(*slot, t); });
    });
    s.run();
    return std::pair{pending, s.trace_hash()};
  };
  const auto base = run(1);
  const auto sharded = run(2);
  // Boundaries 150, 300 and 450 pass with the wake queued; 600 is never
  // reached, since the run ends at 510.
  EXPECT_EQ(base.first, (std::vector<std::size_t>{1, 1, 1}));
  EXPECT_EQ(sharded, base);
}

// A window that throws while its pushes sit in outboxes ends the run with
// the error, and the simulator frees every closure still waiting there
// (ASan reports a leak otherwise): the count on `token` returns to one.
TEST(ShardedEngine, WindowThatThrowsWithUndrainedEntriesUnwindsCleanly) {
  auto token = std::make_shared<int>(0);
  {
    Simulator s(2);
    s.set_threads(2);
    s.limit_lookahead(100);
    s.spawn(0, noop_rank());
    s.spawn(1, noop_rank());
    s.schedule_for(0, 0, [&s, token] {
      s.schedule_for(1, 1000, [token] {});
      s.schedule_for(0, 5000, [token] {});
    });
    s.schedule_for(0, 50, [] { throw std::runtime_error("rank 0 fails"); });
    EXPECT_THROW(s.run(), std::runtime_error);
    EXPECT_EQ(s.pending_events(), 2u);
    EXPECT_GT(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace mel::sim
