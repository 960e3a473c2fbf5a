#include "mel/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace mel::sim {
namespace {

// A trivial rank body used by several tests.
RankTask noop_rank() { co_return; }

TEST(Simulator, RunsAllRanksToCompletion) {
  Simulator s(4);
  for (Rank r = 0; r < 4; ++r) s.spawn(r, noop_rank());
  s.run();
  for (Rank r = 0; r < 4; ++r) EXPECT_TRUE(s.rank_done(r));
}

TEST(Simulator, RejectsBadConstruction) {
  EXPECT_THROW(Simulator(0), std::invalid_argument);
  EXPECT_THROW(Simulator(-3), std::invalid_argument);
}

TEST(Simulator, RejectsDoubleSpawn) {
  Simulator s(1);
  s.spawn(0, noop_rank());
  EXPECT_THROW(s.spawn(0, noop_rank()), std::logic_error);
}

TEST(Simulator, RejectsOutOfRangeRank) {
  Simulator s(2);
  EXPECT_THROW(s.spawn(5, noop_rank()), std::out_of_range);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator s(1);
  std::vector<int> order;
  s.schedule_for(0, 300, [&] { order.push_back(3); });
  s.schedule_for(0, 100, [&] { order.push_back(1); });
  s.schedule_for(0, 200, [&] { order.push_back(2); });
  s.spawn(0, noop_rank());
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, EqualTimeEventsRunInScheduleOrder) {
  Simulator s(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_for(0, 50, [&, i] { order.push_back(i); });
  }
  s.spawn(0, noop_rank());
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ChargeAdvancesRankClock) {
  Simulator s(2);
  s.spawn(0, noop_rank());
  s.spawn(1, noop_rank());
  s.charge(1, 500);
  EXPECT_EQ(s.rank_now(0), 0);
  EXPECT_EQ(s.rank_now(1), 500);
  s.run();
  EXPECT_EQ(s.max_rank_time(), 500);
}

// Rank that parks itself and relies on an external wake.
struct WakeLatch {
  Simulator* sim = nullptr;
  Rank rank = 0;
  Simulator::Parked parked;
  bool resumed = false;

  auto wait() {
    struct Awaiter {
      WakeLatch* latch;
      bool await_ready() { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        latch->parked = {latch->rank, h};
      }
      void await_resume() { latch->resumed = true; }
    };
    return Awaiter{this};
  }
};

RankTask parking_rank(WakeLatch& latch) {
  co_await latch.wait();
  co_return;
}

TEST(Simulator, WakeResumesParkedRankAtRequestedTime) {
  Simulator s(1);
  WakeLatch latch{&s, 0, {}, false};
  s.spawn(0, parking_rank(latch));
  s.schedule_for(0, 10, [&] { s.wake(latch.parked, 777); });
  s.run();
  EXPECT_TRUE(latch.resumed);
  EXPECT_TRUE(s.rank_done(0));
  EXPECT_EQ(s.rank_now(0), 777);
}

TEST(Simulator, WakeInThePastClampsToRankClock) {
  Simulator s(1);
  WakeLatch latch{&s, 0, {}, false};
  s.spawn(0, parking_rank(latch));
  s.schedule_for(0, 0, [&] {
    s.charge(0, 1000);  // rank clock moved ahead while parked
    s.wake(latch.parked, 5);
  });
  s.run();
  EXPECT_EQ(s.rank_now(0), 1000);
}

TEST(Simulator, DeadlockDetected) {
  Simulator s(1);
  WakeLatch latch{&s, 0, {}, false};
  s.spawn(0, parking_rank(latch));  // nobody ever wakes it
  EXPECT_THROW(s.run(), DeadlockError);
}

TEST(Simulator, DeadlockMessageListsStuckRank) {
  Simulator s(2);
  WakeLatch latch{&s, 1, {}, false};
  latch.rank = 1;
  s.spawn(0, noop_rank());
  s.spawn(1, parking_rank(latch));
  try {
    s.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("1 rank(s) stuck"), std::string::npos);
  }
}

RankTask throwing_rank() {
  throw std::runtime_error("rank boom");
  co_return;  // unreachable; marks this function a coroutine
}

TEST(Simulator, RankExceptionPropagates) {
  Simulator s(1);
  s.spawn(0, throwing_rank());
  EXPECT_THROW(s.run(), std::runtime_error);
}

RankTask counting_rank(Simulator& s, Rank r, int& counter) {
  // Interleave with other ranks through explicit parks.
  for (int i = 0; i < 3; ++i) {
    ++counter;
    struct SelfWake {
      Simulator* sim;
      Rank rank;
      bool await_ready() { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->wake({rank, h}, sim->rank_now(rank) + 100);
      }
      void await_resume() {}
    };
    co_await SelfWake{&s, r};
  }
  co_return;
}

TEST(Simulator, ManyRanksInterleaveDeterministically) {
  Simulator s(8);
  int counter = 0;
  for (Rank r = 0; r < 8; ++r) s.spawn(r, counting_rank(s, r, counter));
  s.run();
  EXPECT_EQ(counter, 24);
  EXPECT_EQ(s.max_rank_time(), 300);
  EXPECT_GT(s.events_executed(), 0u);
}

TEST(Simulator, EventCountIsDeterministic) {
  auto run_once = [] {
    Simulator s(8);
    int counter = 0;
    for (Rank r = 0; r < 8; ++r) s.spawn(r, counting_rank(s, r, counter));
    s.run();
    return s.events_executed();
  };
  EXPECT_EQ(run_once(), run_once());
}

Task instant_step(int& steps) {
  ++steps;
  co_return;
}

Task parking_step(WakeLatch& latch, int& steps) {
  ++steps;
  co_await latch.wait();  // the wake resumes this nested frame
  ++steps;
}

RankTask nesting_rank(WakeLatch& latch, int& steps) {
  co_await instant_step(steps);  // finishes without suspending
  co_await parking_step(latch, steps);
  ++steps;
}

TEST(Task, NestedTaskSuspendsAndResumesItsAwaiter) {
  Simulator s(1);
  WakeLatch latch{&s, 0, {}, false};
  int steps = 0;
  s.spawn(0, nesting_rank(latch, steps));
  s.schedule_for(0, 10, [&] { s.wake(latch.parked, 500); });
  s.run();
  EXPECT_EQ(steps, 4);
  EXPECT_TRUE(latch.resumed);
  EXPECT_TRUE(s.rank_done(0));
  EXPECT_EQ(s.rank_now(0), 500);
}

Task throwing_step() {
  throw std::runtime_error("step boom");
  co_return;  // unreachable; marks this function a coroutine
}

RankTask rank_awaiting_throw() { co_await throwing_step(); }

TEST(Task, NestedExceptionReachesTheRank) {
  Simulator s(1);
  s.spawn(0, rank_awaiting_throw());
  EXPECT_THROW(s.run(), std::runtime_error);
}

struct Alive {
  explicit Alive(int& count) : n(count) { ++n; }
  ~Alive() { --n; }
  Alive(const Alive&) = delete;
  Alive& operator=(const Alive&) = delete;
  int& n;
};

Task guarded_park(WakeLatch& latch, int& alive) {
  const Alive guard(alive);
  co_await latch.wait();
}

RankTask guarded_rank(WakeLatch& latch, int& alive) {
  co_await guarded_park(latch, alive);
}

TEST(Task, StuckNestedFrameIsDestroyedWithItsRank) {
  int alive = 0;
  {
    Simulator s(1);
    WakeLatch latch{&s, 0, {}, false};
    s.spawn(0, guarded_rank(latch, alive));
    EXPECT_THROW(s.run(), DeadlockError);
    EXPECT_EQ(alive, 1);  // frozen inside the nested frame
  }
  EXPECT_EQ(alive, 0);
}

}  // namespace
}  // namespace mel::sim
