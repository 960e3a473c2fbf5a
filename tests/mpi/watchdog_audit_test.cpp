// The hardening layer's observable behavior: a wedged rank produces a
// per-rank diagnostic instead of an opaque hang, the virtual-time horizon
// aborts runaway runs, topology mistakes name the offending ranks, and the
// finalize auditor has teeth (catches abandoned mailboxes) without false
// positives on healthy runs.
#include <gtest/gtest.h>

#include <string>

#include "world_fixture.hpp"

namespace mel::test {
namespace {

using mpi::Comm;
using mpi::Message;
using sim::RankTask;

TEST(Watchdog, WedgedRankDiagnosticNamesRankAndPendingOp) {
  // Rank 0 blocks on a receive nobody will ever satisfy; rank 1 returns.
  World w(2);
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      (void)co_await c.recv(/*src=*/1, /*tag=*/7);
    }
    co_return;
  };
  w.spawn_all(body);
  try {
    w.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 rank(s) stuck"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0:"), std::string::npos) << what;
    EXPECT_NE(what.find("parked=recv(src=1 tag=7"), std::string::npos) << what;
    EXPECT_NE(what.find("mailbox=0msgs"), std::string::npos) << what;
  }
}

TEST(Watchdog, WedgedCollectiveReportsArrivalCount) {
  World w(3);
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() != 2) (void)co_await c.allreduce_sum(std::int64_t{1});
    co_return;  // rank 2 never joins
  };
  w.spawn_all(body);
  try {
    w.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 rank(s) stuck"), std::string::npos) << what;
    EXPECT_NE(what.find("parked=allreduce(seq=0 arrived=2/3)"),
              std::string::npos)
        << what;
  }
}

TEST(Watchdog, HorizonBreachThrowsWithReport) {
  World w(2);
  w.sim.set_horizon(1000);
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      c.compute(5000);  // pushes the delivery event past the horizon
      c.isend_pod<int>(1, 0, 1);
    } else {
      (void)co_await c.recv(0, 0);
    }
    co_return;
  };
  w.spawn_all(body);
  try {
    w.run();
    FAIL() << "expected WatchdogError";
  } catch (const sim::WatchdogError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog:"), std::string::npos) << what;
    EXPECT_NE(what.find("horizon of 1000ns"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1:"), std::string::npos) << what;
  }
}

TEST(Watchdog, HorizonOffByDefault) {
  World w(1);
  EXPECT_EQ(w.sim.horizon(), 0);
  auto body = [&](Comm& c) -> RankTask {
    c.compute(static_cast<sim::Time>(1) << 40);
    co_return;
  };
  w.spawn_all(body);
  w.run();  // no throw
}

TEST(Topology, SetTopologyErrorsNameTheOffendingValues) {
  World w(4);
  try {
    w.machine.set_topology({{}, {}, {1, 9}, {}});
    FAIL() << "expected out-of-range error";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 2"), std::string::npos) << what;
    EXPECT_NE(what.find('9'), std::string::npos) << what;
  }
  try {
    w.machine.set_topology({{}, {}, {}, {3}});
    FAIL() << "expected self-loop error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rank 3"), std::string::npos);
  }
}

TEST(Topology, AsymmetryRejectedWhenTheTopologyIsSet) {
  // Rank 0 lists rank 1 as a neighbor but not vice versa; the machine
  // must reject the topology when it is set, with both ranks named.
  World w(2);
  try {
    w.machine.set_topology({{1}, {}});
    FAIL() << "expected asymmetry error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("reverse edge"), std::string::npos) << what;
  }
}

TEST(Audit, CleanOnHealthyExchange) {
  World w(2);
  auto body = [&](Comm& c) -> RankTask {
    c.isend_pod<int>(1 - c.rank(), 0, c.rank());
    (void)co_await c.recv(1 - c.rank(), 0);
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_TRUE(w.machine.audit().empty());
  w.machine.audit_or_throw();  // no throw
}

TEST(Audit, CatchesAbandonedReadableMessage) {
  // Rank 1 receives the tag-1 message but walks away from the tag-0 one
  // that was delivered while it was parked: that is a leak, not a dead
  // letter, and the auditor must say so.
  World w(2);
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      c.isend_pod<int>(1, /*tag=*/0, 1);
      c.isend_pod<int>(1, /*tag=*/1, 2);
    } else {
      (void)co_await c.recv(0, 1);
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  const auto violations = w.machine.audit();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("rank 1 finalized abandoning"),
            std::string::npos)
      << violations[0];
  EXPECT_THROW(w.machine.audit_or_throw(), std::logic_error);
}

TEST(Audit, ToleratesTrueDeadLetters) {
  // Rank 1 returns instantly; rank 0's message is delivered afterwards.
  // Nothing could ever consume it, so the audit stays clean.
  World w(2);
  auto body = [&](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      c.compute(1000);  // rank 1 is long gone when this lands
      c.isend_pod<int>(1, 0, 7);
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_TRUE(w.machine.audit().empty());
}

TEST(Audit, ClockMonotonicityEnforcedAtChargeTime) {
  World w(1);
  auto body = [&](Comm& c) -> RankTask {
    c.compute(10);
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_THROW(w.sim.charge(0, -5), std::logic_error);
}

}  // namespace
}  // namespace mel::test
