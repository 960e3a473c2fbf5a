// The record-exchange models BFS and coloring share with the matcher: every
// record pushed in a round reaches the rank it was pushed to during that
// same round, exactly once, in push order per sender. (The matcher-only
// models are pinned end to end by the determinism tests.)
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "../mpi/world_fixture.hpp"
#include "mel/match/exchange.hpp"

namespace mel::match {
namespace {

struct Rec {
  std::int64_t src = -1;
  std::int64_t dst = -1;
  std::int64_t round = -1;
  std::int64_t seq = -1;
};

struct Delivery {
  Rec rec;
  int round = -1;  // the receiver's round when it arrived
};

using Factory = std::function<std::unique_ptr<Exchange<Rec>>(
    mpi::Comm&, const graph::LocalGraph&)>;

/// Every rank neighbors every other. In round i each rank pushes i records
/// to each neighbor, interleaved across neighbors. Returns what each rank
/// received, in delivery order.
std::vector<std::vector<Delivery>> exchange_all(const Factory& make, int p,
                                                int rounds) {
  test::World w(p);
  w.full_topology();
  std::vector<graph::LocalGraph> lgs(p);
  for (sim::Rank r = 0; r < p; ++r) {
    lgs[r].neighbor_ranks = w.machine.topology(r);
  }
  std::vector<std::vector<Delivery>> got(p);
  auto body = [&](mpi::Comm& c) -> sim::RankTask {
    const auto ex = make(c, lgs[c.rank()]);
    int round = 0;
    Sink<Rec> sink{[&](const Rec& rec) {
      got[c.rank()].push_back(Delivery{rec, round});
    }};
    co_await ex->setup();
    std::int64_t seq = 0;
    for (; round < rounds; ++round) {
      for (int i = 0; i < round; ++i) {
        for (const sim::Rank nbr : c.neighbors()) {
          ex->push(nbr, Rec{c.rank(), nbr, round, seq++});
        }
      }
      co_await ex->round(sink);
    }
  };
  w.spawn_all(body);
  w.run();
  return got;
}

void expect_all_delivered(const Factory& make, int p, int rounds) {
  const auto got = exchange_all(make, p, rounds);
  for (sim::Rank r = 0; r < p; ++r) {
    std::vector<std::int64_t> last_seq(p, -1);
    std::vector<int> count(p, 0);
    for (const Delivery& d : got[r]) {
      EXPECT_EQ(d.rec.dst, r);
      EXPECT_EQ(d.rec.round, d.round) << "delivered in another round";
      EXPECT_GT(d.rec.seq, last_seq[d.rec.src]) << "out of push order";
      last_seq[d.rec.src] = d.rec.seq;
      ++count[d.rec.src];
    }
    for (sim::Rank src = 0; src < p; ++src) {
      EXPECT_EQ(count[src], src == r ? 0 : rounds * (rounds - 1) / 2)
          << "rank " << r << " from " << src;
    }
  }
}

TEST(Exchange, NeighborhoodCollectivesDeliverEveryRecordInItsRound) {
  using Ncl = NclExchange<Rec>;
  for (const auto start : {Ncl::Start::kBlocking, Ncl::Start::kNonblocking,
                           Ncl::Start::kPersistent}) {
    for (const int p : {1, 2, 5}) {
      SCOPED_TRACE(::testing::Message() << "start " << static_cast<int>(start)
                                        << " p " << p);
      expect_all_delivered(
          [start](mpi::Comm& c, const graph::LocalGraph& lg) {
            return std::make_unique<Ncl>(c, lg, start);
          },
          p, 4);
    }
  }
}

TEST(Exchange, NeighborhoodRoundDrawsOnePooledBlockPerCall) {
  // pack() writes a round's records into one block, so each neighborhood
  // call of a round draws one pooled block per rank whatever the degree;
  // a blocking round makes two calls (counts, then records). The
  // sequential engine runs every rank on this thread, whose pool counters
  // these are.
  using Ncl = NclExchange<Rec>;
  constexpr int kRounds = 4;
  for (const auto start : {Ncl::Start::kBlocking, Ncl::Start::kNonblocking,
                           Ncl::Start::kPersistent}) {
    for (const int p : {16, 64}) {
      test::World w(p);
      w.full_topology();
      std::vector<graph::LocalGraph> lgs(p);
      for (sim::Rank r = 0; r < p; ++r) {
        lgs[r].neighbor_ranks = w.machine.topology(r);
      }
      auto body = [&](mpi::Comm& c) -> sim::RankTask {
        Ncl ex(c, lgs[c.rank()], start);
        Sink<Rec> sink{[](const Rec&) {}};
        co_await ex.setup();
        for (int round = 0; round < kRounds; ++round) {
          for (const sim::Rank nbr : c.neighbors()) {
            ex.push(nbr, Rec{c.rank(), nbr, round, 0});
          }
          co_await ex.round(sink);
        }
      };
      const std::uint64_t before = util::Buffer::pool_stats().allocs;
      w.spawn_all(body);
      w.run();
      const int calls = start == Ncl::Start::kBlocking ? 2 : 1;
      EXPECT_LE(util::Buffer::pool_stats().allocs - before,
                static_cast<std::uint64_t>(calls) * kRounds * p)
          << "start " << static_cast<int>(start) << " p " << p;
    }
  }
}

TEST(Exchange, CountedSendRecvDeliversEveryRecordInItsRound) {
  for (const bool grouped : {true, false}) {
    for (const int p : {1, 2, 5}) {
      SCOPED_TRACE(::testing::Message() << "grouped " << grouped << " p " << p);
      expect_all_delivered(
          [grouped](mpi::Comm& c, const graph::LocalGraph& lg) {
            return std::make_unique<CountedNsrExchange<Rec>>(c, lg, grouped);
          },
          p, 4);
    }
  }
}

TEST(Exchange, LevelExchangeFollowsTheModel) {
  test::World w(2);
  graph::LocalGraph lg;
  lg.neighbor_ranks = {1};
  mpi::Comm& c = w.machine.comm(0);
  const auto nsr = make_level_exchange<Rec>(Model::kNsr, c, lg, true);
  const auto ncl = make_level_exchange<Rec>(Model::kNcl, c, lg, true);
  EXPECT_NE(dynamic_cast<CountedNsrExchange<Rec>*>(nsr.get()), nullptr);
  EXPECT_NE(dynamic_cast<NclExchange<Rec>*>(ncl.get()), nullptr);
}

TEST(Exchange, PushToANonNeighborThrows) {
  test::World w(3);
  graph::LocalGraph lg;
  lg.neighbor_ranks = {1};
  NclExchange<Rec> ex(w.machine.comm(0), lg,
                      NclExchange<Rec>::Start::kBlocking);
  EXPECT_NO_THROW(ex.push(1, Rec{}));
  EXPECT_THROW(ex.push(2, Rec{}), std::logic_error);
}

}  // namespace
}  // namespace mel::match
