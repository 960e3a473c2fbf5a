// The reliable transport under deterministic wire faults: lossy, noisy,
// duplicating links must still deliver every message exactly once, in
// order per (src, dst, tag) channel, with the recovery work visible in
// the counters and the substrate auditor clean. Plus the rule that builds
// the transport, and the ULFM-style fail-fast sends to dead ranks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "mel/ft/params.hpp"
#include "world_fixture.hpp"

namespace mel::test {
namespace {

using mpi::Comm;
using mpi::Message;
using sim::RankTask;

net::Params faulty_params(double loss, double dup, double corrupt,
                          std::uint64_t seed = 1) {
  net::Params p = test_params();
  p.chaos.seed = seed;
  p.chaos.loss = loss;
  p.chaos.duplication = dup;
  p.chaos.corruption = corrupt;
  return p;
}

/// Transport knobs that ask for the transport even on a fault-free wire.
ft::Params ft_on() {
  ft::Params p;
  p.enabled = true;
  return p;
}

constexpr int kMsgs = 60;

/// rank 0 streams kMsgs sequenced payloads to rank 1 on one tag.
RankTask stream_body(Comm& c, std::vector<std::int64_t>& got) {
  if (c.rank() == 0) {
    for (std::int64_t i = 0; i < kMsgs; ++i) c.isend_pod<std::int64_t>(1, 3, i);
  } else {
    for (int i = 0; i < kMsgs; ++i) {
      Message m = co_await c.recv(0, 3);
      got.push_back(mpi::from_bytes<std::int64_t>(m.data));
    }
  }
  co_return;
}

std::vector<std::int64_t> expected_stream() {
  std::vector<std::int64_t> e(kMsgs);
  for (int i = 0; i < kMsgs; ++i) e[i] = i;
  return e;
}

TEST(FtTransport, LossyChannelDeliversAllInOrder) {
  World w(2, faulty_params(0.25, 0.0, 0.0), ft_on());
  std::vector<std::int64_t> got;
  w.spawn_all([&](Comm& c) { return stream_body(c, got); });
  w.run();
  EXPECT_EQ(got, expected_stream());
  const auto t = w.machine.total_counters();
  EXPECT_GT(t.retransmits, 0u);
  EXPECT_GT(t.dropped, 0u);
  EXPECT_GE(t.acks, static_cast<std::uint64_t>(kMsgs));
  w.machine.audit_or_throw();
}

TEST(FtTransport, CorruptionIsDetectedAndRepaired) {
  World w(2, faulty_params(0.0, 0.0, 0.3), ft_on());
  std::vector<std::int64_t> got;
  w.spawn_all([&](Comm& c) { return stream_body(c, got); });
  w.run();
  // Every corrupted copy was caught by the CRC and retransmitted; the
  // payloads the application sees are intact and in order.
  EXPECT_EQ(got, expected_stream());
  const auto t = w.machine.total_counters();
  EXPECT_GT(t.corrupt_detected, 0u);
  EXPECT_GT(t.retransmits, 0u);
  w.machine.audit_or_throw();
}

TEST(FtTransport, DuplicatesAreFiltered) {
  World w(2, faulty_params(0.0, 0.5, 0.0), ft_on());
  std::vector<std::int64_t> got;
  w.spawn_all([&](Comm& c) { return stream_body(c, got); });
  w.run();
  EXPECT_EQ(got, expected_stream());  // exactly once each, despite dup copies
  EXPECT_GT(w.machine.total_counters().dup_filtered, 0u);
  w.machine.audit_or_throw();
}

TEST(FtTransport, FaultyRunsAreDeterministic) {
  auto once = [] {
    World w(2, faulty_params(0.2, 0.1, 0.1, /*seed=*/9), ft_on());
    std::vector<std::int64_t> got;
    w.spawn_all([&](Comm& c) { return stream_body(c, got); });
    w.run();
    return std::pair{w.machine.total_counters(), w.sim.now()};
  };
  const auto [ca, ta] = once();
  const auto [cb, tb] = once();
  EXPECT_EQ(ca.retransmits, cb.retransmits);
  EXPECT_EQ(ca.dropped, cb.dropped);
  EXPECT_EQ(ca.corrupt_detected, cb.corrupt_detected);
  EXPECT_EQ(ca.dup_filtered, cb.dup_filtered);
  EXPECT_EQ(ta, tb);
}

TEST(FtTransport, SequencingStaysExactNearTheSequenceNumberLimit) {
  // Channels whose sequence counters sit within a few hundred of 2^64 - 1
  // must still deliver exactly once, in order, under loss + duplication:
  // the dup filter compares raw 64-bit sequence numbers, and nothing in
  // the reorder window may assume "small" sequence values.
  World w(2, faulty_params(0.2, 0.3, 0.0, /*seed=*/5), ft_on());
  constexpr std::uint64_t kNearMax =
      std::numeric_limits<std::uint64_t>::max() - 200;
  // Both directions of the (0, 1) pair on the stream tag, so acks and data
  // both run with near-limit sequence numbers.
  w.machine.transport()->preseed_channel_for_test(0, 1, 3, kNearMax);
  w.machine.transport()->preseed_channel_for_test(1, 0, 3, kNearMax);
  std::vector<std::int64_t> got;
  w.spawn_all([&](Comm& c) { return stream_body(c, got); });
  w.run();
  EXPECT_EQ(got, expected_stream());
  EXPECT_GT(w.machine.total_counters().dup_filtered, 0u);
  w.machine.audit_or_throw();
}

TEST(FtTransport, RetransmitBackoffIsCappedUnderAStorm) {
  // The rto exponent saturates at 16: a segment stuck behind an absurd
  // loss streak backs off no further than kRtoBase * kRtoBackoff^16 * (1 +
  // kRtoJitter), so a retransmit storm cannot push timers to astronomically
  // distant virtual times.
  World w(2, test_params(), ft_on());
  auto* tr = w.machine.transport();
  using T = ft::Transport;  // 25us, backoff 2.0, jitter 0.25
  const double ceil_ns = static_cast<double>(T::kRtoBase) *
                         std::pow(T::kRtoBackoff, 16) * (1.0 + T::kRtoJitter);
  const double floor_ns =
      static_cast<double>(T::kRtoBase) * std::pow(T::kRtoBackoff, 16);
  for (int attempt = 16; attempt <= 48; ++attempt) {
    const sim::Time t = tr->rto_for_test(0, 1, 3, /*seq=*/7, attempt);
    EXPECT_GE(static_cast<double>(t), floor_ns) << "attempt " << attempt;
    EXPECT_LE(static_cast<double>(t), ceil_ns) << "attempt " << attempt;
  }
  // Below the cap the backoff actually grows (spot-check a doubling).
  EXPECT_GT(tr->rto_for_test(0, 1, 3, 7, 8),
            tr->rto_for_test(0, 1, 3, 7, 2));
}

TEST(FtTransport, RetryExhaustionWithALiveDestinationIsAnError) {
  // Past retry_max with the peer still alive, the transport surfaces a
  // named TransportError instead of hanging: that combination means a bug
  // or a loss rate the protocol was never meant to survive.
  ft::Params p = ft_on();
  p.retry_max = 3;
  World w(2, faulty_params(0.97, 0.0, 0.0, /*seed=*/3), p);
  std::vector<std::int64_t> got;
  w.spawn_all([&](Comm& c) { return stream_body(c, got); });
  EXPECT_THROW(w.run(), ft::TransportError);
}

TEST(FtTransport, AckToADeadSenderIsHarmless) {
  // The sender dies right after posting; its last message still lands at
  // the receiver, whose ack then targets a dead rank. The ack must settle
  // quietly (no throw, no stuck segment) — the ULFM surface only
  // fail-fasts *application* traffic to dead ranks, not protocol acks.
  net::Params p = test_params();
  p.chaos.crashes.push_back({/*rank=*/0, /*at=*/2 * sim::kMicrosecond});
  World w(2, p, ft_on());
  std::vector<std::int64_t> got;
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      c.isend_pod<std::int64_t>(1, 3, 42);  // posted before the crash
      co_await c.sleep(1 * sim::kSecond);   // killed long before this
    } else {
      Message m = co_await c.recv(0, 3);
      got.push_back(mpi::from_bytes<std::int64_t>(m.data));
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(got, std::vector<std::int64_t>{42});
  EXPECT_EQ(w.machine.failed_ranks(), std::vector<sim::Rank>{0});
  EXPECT_TRUE(w.machine.transport()->idle());
  EXPECT_EQ(w.machine.transport()->pending_segments(), 0u);
}

TEST(FtTransport, WireFaultsAloneBuildTheTransport) {
  // No ft knob at all: the lossy wire alone makes the Machine build the
  // reliable transport, so the stream still arrives whole and in order.
  World w(2, faulty_params(0.1, 0.0, 0.0));
  EXPECT_TRUE(w.machine.ft_enabled());
  std::vector<std::int64_t> got;
  w.spawn_all([&](Comm& c) { return stream_body(c, got); });
  w.run();
  EXPECT_EQ(got, expected_stream());
  EXPECT_GT(w.machine.total_counters().dropped, 0u);
  EXPECT_TRUE(w.machine.audit().empty());
}

TEST(FtTransport, CrashScheduleAloneBuildsTheTransport) {
  // A crash strands messages to the dead rank, so a crash schedule alone
  // builds the transport; a clean configuration builds none.
  net::Params p = test_params();
  p.chaos.crashes.push_back({/*rank=*/1, /*at=*/10 * sim::kMicrosecond});
  EXPECT_TRUE(World(2, p).machine.ft_enabled());
  EXPECT_FALSE(World(2).machine.ft_enabled());
}

/// Ten laps of a token ring: every rank sends to its successor and
/// receives from its predecessor.
RankTask ring_body(Comm& c) {
  const sim::Rank next = (c.rank() + 1) % c.size();
  const sim::Rank prev = (c.rank() + c.size() - 1) % c.size();
  for (std::int64_t lap = 0; lap < 10; ++lap) {
    c.isend_pod<std::int64_t>(next, 5, lap);
    (void)co_await c.recv(prev, 5);
  }
}

/// Trace hash of the ring on an 8-rank Machine built with the transport
/// on, asking for `threads` host threads.
std::uint64_t transport_ring_hash(int threads) {
  sim::Simulator s(8);
  s.set_threads(threads);
  mpi::Machine m(s, net::Network(8, test_params()), ft_on());
  EXPECT_FALSE(s.threaded()) << "threads=" << threads;
  for (sim::Rank r = 0; r < 8; ++r) s.spawn(r, ring_body(m.comm(r)));
  s.run();
  m.audit_or_throw();
  return s.trace_hash();
}

TEST(FtTransport, TransportRunsSequentialAtAnyThreadCount) {
  // The transport's per-channel state cannot be split across shards, so
  // the Machine runs the engine sequential and the event trace is the
  // one threads = 1 produces.
  EXPECT_EQ(transport_ring_hash(4), transport_ring_hash(1));
}

TEST(FtTransport, SendToFailedRankFailsFast) {
  net::Params p = test_params();
  p.chaos.crashes.push_back({/*rank=*/1, /*at=*/10 * sim::kMicrosecond});
  World w(2, p, ft_on());
  bool caught = false;
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      co_await c.sleep(20 * sim::kMicrosecond);
      try {
        c.isend_pod<std::int64_t>(1, 0, 7);
      } catch (const mpi::RankFailedError&) {
        caught = true;
      }
    } else {
      co_await c.sleep(1 * sim::kSecond);  // killed long before this
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(w.machine.failed_ranks(), std::vector<sim::Rank>{1});
  EXPECT_GT(w.machine.total_counters().sends_failed, 0u);
}

TEST(FtTransport, HighTagIsRejectedNotAliased) {
  // The transport's channel key keeps 21 tag bits, so a tag of 2^21 + 5
  // would ride tag 5's channel and arrive as tag 5. isend rejects it.
  World w(2, test_params(), ft_on());
  ASSERT_TRUE(w.machine.ft_enabled());
  constexpr int kHigh = (1 << 21) + 5;
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) c.isend_pod<int>(1, kHigh, 2);
    co_return;
  };
  w.spawn_all(body);
  try {
    w.run();
    FAIL() << "tag " << kHigh << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(kHigh)),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mel::test
