#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "world_fixture.hpp"

namespace mel::test {
namespace {

using mpi::Comm;
using mpi::Message;
using sim::RankTask;

TEST(P2P, SendRecvDeliversPayload) {
  World w(2);
  std::int64_t received = -1;
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      c.isend_pod<std::int64_t>(1, /*tag=*/7, 42);
    } else {
      Message m = co_await c.recv(0, 7);
      received = mpi::from_bytes<std::int64_t>(m.data);
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(received, 42);
}

TEST(P2P, RecvBlocksUntilArrival) {
  World w(2);
  sim::Time recv_done = 0;
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      c.compute(10 * sim::kMicrosecond);  // delay the send
      c.isend_pod<int>(1, 0, 1);
    } else {
      (void)co_await c.recv(0, 0);
      recv_done = c.now();
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_GT(recv_done, 10 * sim::kMicrosecond);
}

TEST(P2P, TagMatchingSelectsCorrectMessage) {
  World w(2);
  std::vector<int> got;
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      c.isend_pod<int>(1, /*tag=*/1, 100);
      c.isend_pod<int>(1, /*tag=*/2, 200);
    } else {
      Message m2 = co_await c.recv(0, 2);
      Message m1 = co_await c.recv(0, 1);
      got.push_back(mpi::from_bytes<int>(m2.data));
      got.push_back(mpi::from_bytes<int>(m1.data));
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(got, (std::vector<int>{200, 100}));
}

TEST(P2P, NonOvertakingSameTag) {
  // A big message sent first must not be overtaken by a small one.
  World w(2);
  std::vector<int> order;
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      std::vector<std::byte> big(1 << 20);
      big[0] = std::byte{1};
      c.isend(1, 0, big);
      c.isend_pod<int>(1, 0, 2);
    } else {
      Message a = co_await c.recv(0, 0);
      Message b = co_await c.recv(0, 0);
      order.push_back(a.data.size() > 100 ? 1 : 2);
      order.push_back(b.data.size() > 100 ? 1 : 2);
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(P2P, AnySourceAnyTag) {
  World w(3);
  int total = 0;
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() != 0) {
      c.isend_pod<int>(0, c.rank(), c.rank() * 10);
    } else {
      for (int i = 0; i < 2; ++i) {
        Message m = co_await c.recv();  // wildcards
        total += mpi::from_bytes<int>(m.data);
      }
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(total, 30);
}

TEST(P2P, IprobeSeesOnlyArrivedMessages) {
  World w(2);
  bool early_probe_empty = false;
  bool late_probe_found = false;
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      c.isend_pod<int>(1, 3, 5);
    } else {
      // Probe before anything can have arrived (clock is near zero).
      early_probe_empty = !c.iprobe().has_value();
      co_await c.wait_message();
      const auto env = c.iprobe();
      late_probe_found = env.has_value() && env->src == 0 && env->tag == 3;
      (void)co_await c.recv(0, 3);
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_TRUE(early_probe_empty);
  EXPECT_TRUE(late_probe_found);
}

TEST(P2P, WaitMessageWakesOnArrival) {
  World w(2);
  bool woke = false;
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      c.compute(5 * sim::kMicrosecond);
      c.isend_pod<int>(1, 0, 9);
    } else {
      co_await c.wait_message();
      woke = true;
      (void)co_await c.recv();
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_TRUE(woke);
}

TEST(P2P, SelfSendWorks) {
  World w(1);
  int got = 0;
  auto body = [&](Comm& c) -> RankTask {
    c.isend_pod<int>(0, 0, 77);
    Message m = co_await c.recv(0, 0);
    got = mpi::from_bytes<int>(m.data);
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(got, 77);
}

TEST(P2P, ManyMessagesAllDelivered) {
  constexpr int kMsgs = 200;
  World w(4);
  std::vector<int> recv_counts(4, 0);
  auto body = [&](Comm& c) -> RankTask {
    const int p = c.size();
    for (int i = 0; i < kMsgs; ++i) {
      c.isend_pod<int>((c.rank() + 1 + i) % p, 0, i);
    }
    for (int i = 0; i < kMsgs; ++i) {
      (void)co_await c.recv();
      ++recv_counts[c.rank()];
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  for (int r = 0; r < 4; ++r) EXPECT_EQ(recv_counts[r], kMsgs);
}

TEST(P2P, CountersTrackTraffic) {
  World w(2);
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      c.isend_pod<std::int64_t>(1, 0, 1);
      c.isend_pod<std::int64_t>(1, 0, 2);
    } else {
      (void)co_await c.recv();
      (void)co_await c.recv();
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(w.machine.counters(0).isends, 2u);
  EXPECT_EQ(w.machine.counters(0).bytes_sent, 16u);
  EXPECT_EQ(w.machine.counters(1).recvs, 2u);
  const auto matrix = w.machine.take_matrix();
  EXPECT_EQ(matrix->msgs(0, 1), 2u);
  EXPECT_EQ(matrix->msgs(1, 0), 0u);
}

TEST(P2P, CommTimeAccounted) {
  World w(2);
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      c.compute(1 * sim::kMicrosecond);
      c.isend_pod<int>(1, 0, 1);
    } else {
      (void)co_await c.recv();
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_GT(w.machine.counters(0).comm_ns, 0);
  EXPECT_EQ(w.machine.counters(0).compute_ns, 1 * sim::kMicrosecond);
  EXPECT_GT(w.machine.counters(1).comm_ns, 0);
}

TEST(P2P, UnreceivedMessagesDoNotDeadlock) {
  // A rank may exit with messages still queued for it.
  World w(2);
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) c.isend_pod<int>(1, 0, 1);
    co_return;
  };
  w.spawn_all(body);
  EXPECT_NO_THROW(w.run());
}

TEST(P2P, BadDestinationThrows) {
  World w(1);
  auto body = [&](Comm& c) -> RankTask {
    c.isend_pod<int>(5, 0, 1);
    co_return;
  };
  w.spawn_all(body);
  EXPECT_THROW(w.run(), std::invalid_argument);
}

TEST(P2P, TagOutsideTheValidRangeThrows) {
  for (const int tag : {-1, -7, mpi::kTagUb + 1}) {
    World w(2);
    auto body = [&](Comm& c) -> RankTask {
      if (c.rank() == 0) c.isend_pod<int>(1, tag, 1);
      co_return;
    };
    w.spawn_all(body);
    try {
      w.run();
      ADD_FAILURE() << "tag " << tag << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("tag " + std::to_string(tag)), std::string::npos)
          << what;
      EXPECT_NE(what.find(std::to_string(mpi::kTagUb)), std::string::npos)
          << what;
    }
  }
  // The bound itself is a valid tag.
  World w(2);
  int got = 0;
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      c.isend_pod<int>(1, mpi::kTagUb, 7);
    } else {
      got = mpi::from_bytes<int>((co_await c.recv(0, mpi::kTagUb)).data);
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(got, 7);
}

TEST(P2P, FloorKeyIsThePairWithoutJitterAndTheTagWithIt) {
  // A 1 MiB message on tag 1, then 4 B on tag 2. Without jitter the
  // non-overtaking floor is per (src, dst): the small message lands after
  // the big one. Under latency jitter it is per (src, dst, tag), so the
  // small message may overtake, and on this wire it does.
  for (const double jitter : {0.0, 0.01}) {
    net::Params params = test_params();
    params.chaos.latency_jitter = jitter;
    World w(2, params);
    sim::Time big_at = 0;
    sim::Time small_at = 0;
    auto body = [&](Comm& c) -> RankTask {
      if (c.rank() == 0) {
        c.isend(1, 1, std::vector<std::byte>(1 << 20));
        c.isend_pod<int>(1, 2, 5);
      } else {
        small_at = (co_await c.recv(0, 2)).arrived_at;
        big_at = (co_await c.recv(0, 1)).arrived_at;
      }
      co_return;
    };
    w.spawn_all(body);
    w.run();
    if (jitter == 0.0) {
      EXPECT_GT(small_at, big_at);
    } else {
      EXPECT_LT(small_at, big_at);
    }
  }
}

}  // namespace
}  // namespace mel::test
