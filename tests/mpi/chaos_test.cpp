// Unit tests for the deterministic fault-injection engine, plus its
// integration with the Machine: jitter may reorder messages across tags
// but never within a (src, dst, tag) channel, and timing knobs keep the
// sharded engine.
#include <gtest/gtest.h>

#include <vector>

#include "mel/chaos/chaos.hpp"
#include "world_fixture.hpp"

namespace mel::test {
namespace {

using chaos::Config;
using chaos::Engine;
using mpi::Comm;
using mpi::Message;
using sim::RankTask;

Config jittery() {
  Config c;
  c.seed = 42;
  c.latency_jitter = 0.5;
  c.stragglers = 2;
  c.straggler_slowdown = 3.0;
  c.collective_skew = 500;
  return c;
}

TEST(ChaosConfig, DefaultIsDisabled) {
  EXPECT_FALSE(Config{}.enabled());
  Config j;
  j.latency_jitter = 0.1;
  EXPECT_TRUE(j.enabled());
  Config s;
  s.stragglers = 2;  // slowdown still 1.0: a no-op
  EXPECT_FALSE(s.enabled());
  s.straggler_slowdown = 2.0;
  EXPECT_TRUE(s.enabled());
}

TEST(ChaosConfig, NegativeKnobsAreRejectedNotSilentlyIgnored) {
  // enabled() deliberately reports negative values as "on" so they reach the
  // Engine ctor and fail loudly; a typo'd --chaos-jitter -0.5 must not run
  // as an unperturbed simulation.
  Config bad;
  bad.latency_jitter = -0.5;
  EXPECT_TRUE(bad.enabled());
  EXPECT_THROW(Engine(bad, 4), std::invalid_argument);

  Config skew;
  skew.collective_skew = -1;
  EXPECT_TRUE(skew.enabled());
  EXPECT_THROW(Engine(skew, 4), std::invalid_argument);

  Config str;
  str.stragglers = -2;
  str.straggler_slowdown = 2.0;
  EXPECT_TRUE(str.enabled());
  EXPECT_THROW(Engine(str, 4), std::invalid_argument);
}

TEST(ChaosEngine, SameSeedSameDraws) {
  const Engine a(jittery(), 8);
  const Engine b(jittery(), 8);
  for (int i = 0; i < 100; ++i) {
    const auto n = static_cast<std::uint64_t>(i / 3);
    EXPECT_EQ(a.transfer_jitter(0, 1, i % 3, n, 1000),
              b.transfer_jitter(0, 1, i % 3, n, 1000));
  }
  for (sim::Rank r = 0; r < 8; ++r) {
    EXPECT_EQ(a.is_straggler(r), b.is_straggler(r));
    EXPECT_EQ(a.collective_skew(r, 0, 5), b.collective_skew(r, 0, 5));
  }
}

TEST(ChaosEngine, DifferentSeedsDiverge) {
  Config other = jittery();
  other.seed = 43;
  const Engine a(jittery(), 8);
  const Engine b(other, 8);
  bool any_diff = false;
  for (std::uint64_t n = 0; n < 64; ++n) {
    if (a.transfer_jitter(0, 1, 0, n, 100000) !=
        b.transfer_jitter(0, 1, 0, n, 100000)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(ChaosEngine, JitterStaysWithinConfiguredFraction) {
  const Engine e(jittery(), 4);
  for (std::uint64_t n = 0; n < 200; ++n) {
    const sim::Time j = e.transfer_jitter(1, 2, 0, n, 1000);
    EXPECT_GE(j, 0);
    EXPECT_LE(j, 500);  // wire * latency_jitter
  }
}

TEST(ChaosEngine, StragglerCountAndScaling) {
  const Engine e(jittery(), 8);
  int count = 0;
  for (sim::Rank r = 0; r < 8; ++r) count += e.is_straggler(r) ? 1 : 0;
  EXPECT_EQ(count, 2);
  for (sim::Rank r = 0; r < 8; ++r) {
    EXPECT_EQ(e.perturb_compute(r, 1000), e.is_straggler(r) ? 3000 : 1000);
  }
}

TEST(ChaosEngine, CollectiveSkewBounded) {
  const Engine e(jittery(), 8);
  for (sim::Rank r = 0; r < 8; ++r) {
    for (std::uint64_t s = 0; s < 32; ++s) {
      const sim::Time d = e.collective_skew(r, 1, s);
      EXPECT_GE(d, 0);
      EXPECT_LE(d, 500);
    }
  }
}

net::Params chaotic_params() {
  net::Params p = test_params();
  p.chaos.latency_jitter = 0.8;
  p.chaos.seed = 7;
  return p;
}

TEST(ChaosMachine, NonOvertakingWithinTagChannelUnderJitter) {
  // Heavy jitter may reorder across tags, but each (src, dst, tag)
  // channel must still deliver in send order.
  World w(2, chaotic_params());
  std::vector<int> got_a;
  std::vector<int> got_b;
  auto body = [&](Comm& c) -> RankTask {
    constexpr int kN = 40;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        c.isend_pod<int>(1, /*tag=*/5, i);
        c.isend_pod<int>(1, /*tag=*/6, 1000 + i);
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        const Message a = co_await c.recv(0, 5);
        got_a.push_back(mpi::from_bytes<int>(a.data));
        const Message b = co_await c.recv(0, 6);
        got_b.push_back(mpi::from_bytes<int>(b.data));
      }
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(got_a[i], i);
    EXPECT_EQ(got_b[i], 1000 + i);
  }
  EXPECT_TRUE(w.machine.audit().empty());
}

TEST(ChaosMachine, StragglerSlowsExplicitCompute) {
  net::Params p = test_params();
  p.chaos.stragglers = 1;
  p.chaos.straggler_slowdown = 4.0;
  p.chaos.seed = 11;
  World w(2, p);
  ASSERT_NE(w.machine.chaos_engine(), nullptr);
  auto body = [&](Comm& c) -> RankTask {
    c.compute(1000);
    co_return;
  };
  w.spawn_all(body);
  w.run();
  const Engine& e = *w.machine.chaos_engine();
  for (sim::Rank r = 0; r < 2; ++r) {
    EXPECT_EQ(w.sim.rank_now(r), e.is_straggler(r) ? 4000 : 1000);
  }
}

TEST(ChaosMachine, IdenticalSeedsGiveIdenticalSchedules) {
  // A chaotic run is itself deterministic: two worlds with the same chaos
  // seed finish with bit-identical clocks.
  auto run_once = [](std::uint64_t seed) {
    net::Params p = test_params();
    p.chaos.latency_jitter = 0.6;
    p.chaos.collective_skew = 300;
    p.chaos.seed = seed;
    World w(2, p);
    w.full_topology();
    auto body = [&](Comm& c) -> RankTask {
      for (int i = 0; i < 10; ++i) {
        c.isend_pod<int>(1 - c.rank(), 0, i);
        (void)co_await c.recv(1 - c.rank(), 0);
        (void)co_await c.allreduce_sum(1);
      }
      co_return;
    };
    w.spawn_all(body);
    w.run();
    return std::pair{w.sim.rank_now(0), w.sim.rank_now(1)};
  };
  EXPECT_EQ(run_once(3), run_once(3));
  EXPECT_NE(run_once(3), run_once(4));
}

TEST(ChaosMachine, TimingKnobsKeepTheShardedEngine) {
  // Jitter, stragglers and collective skew only add time, and their draws
  // are pure, so the Machine keeps the engine sharded under them; whatever
  // builds the reliable transport still runs it sequential.
  auto threaded_with = [](const net::Params& p, const ft::Params& ft) {
    sim::Simulator s(8);
    s.set_threads(4);
    const mpi::Machine m(s, net::Network(8, p), ft);
    return s.threaded();
  };
  net::Params timing = test_params();
  timing.chaos = jittery();
  EXPECT_TRUE(threaded_with(timing, {}));

  ft::Params ft_on;
  ft_on.enabled = true;
  EXPECT_FALSE(threaded_with(timing, ft_on));
  net::Params lossy = timing;
  lossy.chaos.loss = 0.1;
  EXPECT_FALSE(threaded_with(lossy, {}));
  net::Params crash = timing;
  crash.chaos.crashes.push_back({/*rank=*/1, /*at=*/10 * sim::kMicrosecond});
  EXPECT_FALSE(threaded_with(crash, {}));
}

}  // namespace
}  // namespace mel::test
