#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "world_fixture.hpp"

namespace mel::test {
namespace {

using mpi::Comm;
using mpi::ReduceOp;
using sim::RankTask;

TEST(Collective, AllreduceSum) {
  World w(8);
  std::vector<std::int64_t> results(8, -1);
  auto body = [&](Comm& c) -> RankTask {
    results[c.rank()] = co_await c.allreduce_sum(c.rank());
    co_return;
  };
  w.spawn_all(body);
  w.run();
  for (int r = 0; r < 8; ++r) EXPECT_EQ(results[r], 28);
}

TEST(Collective, AllreduceMax) {
  World w(5);
  std::vector<std::int64_t> results(5, -1);
  auto body = [&](Comm& c) -> RankTask {
    results[c.rank()] = co_await c.allreduce_max(c.rank() * 7 - 3);
    co_return;
  };
  w.spawn_all(body);
  w.run();
  for (int r = 0; r < 5; ++r) EXPECT_EQ(results[r], 25);
}

TEST(Collective, AllreduceVector) {
  World w(4);
  std::vector<std::int64_t> result0;
  auto body = [&](Comm& c) -> RankTask {
    std::vector<std::int64_t> mine{c.rank(), 1, -c.rank()};
    auto out = co_await c.allreduce(std::move(mine), ReduceOp::kSum);
    if (c.rank() == 0) result0 = out;
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(result0, (std::vector<std::int64_t>{6, 4, -6}));
}

TEST(Collective, AllreduceMin) {
  World w(4);
  std::int64_t result = 0;
  auto body = [&](Comm& c) -> RankTask {
    std::vector<std::int64_t> mine{c.rank() + 10};
    auto out = co_await c.allreduce(std::move(mine), ReduceOp::kMin);
    if (c.rank() == 3) result = out[0];
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(result, 10);
}

TEST(Collective, BarrierSynchronizesClocks) {
  World w(4);
  std::vector<sim::Time> after(4, 0);
  auto body = [&](Comm& c) -> RankTask {
    c.compute(c.rank() * 10 * sim::kMicrosecond);
    co_await c.barrier();
    after[c.rank()] = c.now();
    co_return;
  };
  w.spawn_all(body);
  w.run();
  // Everyone leaves the barrier at the same time, past the slowest arrival.
  for (int r = 1; r < 4; ++r) EXPECT_EQ(after[r], after[0]);
  EXPECT_GT(after[0], 30 * sim::kMicrosecond);
}

TEST(Collective, RepeatedAllreducesSequenceCorrectly) {
  World w(4);
  std::vector<std::int64_t> sums;
  auto body = [&](Comm& c) -> RankTask {
    for (int round = 0; round < 10; ++round) {
      const auto s = co_await c.allreduce_sum(round);
      if (c.rank() == 0) sums.push_back(s);
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  ASSERT_EQ(sums.size(), 10u);
  for (int round = 0; round < 10; ++round) EXPECT_EQ(sums[round], 4 * round);
}

TEST(Collective, MismatchedOpThrows) {
  // Every rank must make the same call: an allreduce with the same op and
  // length, or a barrier. A mismatch fails the run with a logic_error
  // naming the instance and both calls.
  struct Case {
    std::function<RankTask(Comm&)> body;
    std::vector<std::string> named;
  };
  const std::vector<Case> cases = {
      {[](Comm& c) -> RankTask {
         std::vector<std::int64_t> one{1};
         (void)co_await c.allreduce(
             std::move(one), c.rank() == 0 ? ReduceOp::kSum : ReduceOp::kMax);
       },
       {"allreduce(1 value(s), sum)", "allreduce(1 value(s), max)"}},
      {[](Comm& c) -> RankTask {
         if (c.rank() == 0) {
           co_await c.barrier();
         } else {
           (void)co_await c.allreduce_sum(7);
         }
       },
       {"barrier()", "allreduce(1 value(s), sum)"}},
      {[](Comm& c) -> RankTask {
         std::vector<std::int64_t> two{1, 2};
         std::vector<std::int64_t> one{5};
         (void)co_await c.allreduce(c.rank() == 0 ? std::move(two)
                                                  : std::move(one));
       },
       {"allreduce(2 value(s), sum)", "allreduce(1 value(s), sum)"}},
  };
  for (const Case& test : cases) {
    World w(2);
    w.spawn_all(test.body);
    try {
      w.run();
      ADD_FAILURE() << "no error for " << test.named[0] << " against "
                    << test.named[1];
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("global collective #0"), std::string::npos) << what;
      for (const std::string& call : test.named) {
        EXPECT_NE(what.find(call), std::string::npos) << what;
      }
    }
  }
}

TEST(Collective, MissingParticipantDeadlocks) {
  World w(3);
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() != 2) (void)co_await c.allreduce_sum(1);
    co_return;
  };
  w.spawn_all(body);
  EXPECT_THROW(w.run(), sim::DeadlockError);
}

TEST(Collective, SingleRankAllreduce) {
  World w(1);
  std::int64_t result = 0;
  auto body = [&](Comm& c) -> RankTask {
    result = co_await c.allreduce_sum(41);
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(result, 41);
}

TEST(Collective, CountersTrack) {
  World w(2);
  auto body = [&](Comm& c) -> RankTask {
    (void)co_await c.allreduce_sum(1);
    co_await c.barrier();
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(w.machine.counters(0).allreduces, 1u);
  EXPECT_EQ(w.machine.counters(0).barriers, 1u);
}

}  // namespace
}  // namespace mel::test
