// The sharded engine's window bound, as mpi::Machine computes it from the
// shard map, the network and the process topology: pinned for node-aligned,
// node-splitting and topology-bound layouts, and the window count it gives
// one fixed multi-node exchange at four threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "mel/mpi/comm.hpp"
#include "mel/mpi/machine.hpp"
#include "mel/net/network.hpp"
#include "mel/sim/simulator.hpp"

namespace mel {
namespace {

using sim::Rank;
using sim::Time;

/// The bound a Machine installs on a `ranks`-rank engine at `threads`,
/// with `ranks_per_node` ranks on a node, after `topology` if given.
Time bound(int ranks, int ranks_per_node, int threads, net::Params p = {},
           std::vector<std::vector<Rank>> topology = {}) {
  sim::Simulator s(ranks);
  s.set_threads(threads);
  p.ranks_per_node = ranks_per_node;
  mpi::Machine m(s, net::Network(ranks, p));
  if (!topology.empty()) m.set_topology(std::move(topology));
  return s.lookahead();
}

/// Header-only transfers at the default prices: 600 ns within a node, and
/// 1400 ns plus 16 B at 0.1 ns/B between nodes.
constexpr Time kIntra = 600;
constexpr Time kInter = 1401;

TEST(Lookahead, NodeAlignedShardsBoundByTheInterNodeTransfer) {
  // Two or four shards of 64 ranks end on the boundaries of 16-rank nodes,
  // eight shards on those of 8-rank nodes, and any shard on 1-rank nodes.
  EXPECT_EQ(bound(64, 16, 2), kInter);
  EXPECT_EQ(bound(64, 16, 4), kInter);
  EXPECT_EQ(bound(64, 8, 8), kInter);
  EXPECT_EQ(bound(64, 1, 3), kInter);
  // The reduction time (6 stages here) binds when it is the smaller.
  net::Params cheap;
  cheap.o_reduce_hop = 150;
  EXPECT_EQ(bound(64, 16, 4, cheap), 900);
}

TEST(Lookahead, NodeSplittingShardsFallBackToTheIntraNodeTransfer) {
  // 22-rank shards split 16-rank nodes, 8-rank shards split them too, and
  // one node holds every rank of an 8-rank job.
  EXPECT_EQ(bound(64, 16, 3), kIntra);
  EXPECT_EQ(bound(64, 16, 8), kIntra);
  EXPECT_EQ(bound(8, 32, 4), kIntra);
  // When a node's own link is the slower one, the inter-node pairs bind,
  // unless every rank shares one node.
  net::Params slow_node;
  slow_node.alpha_intra = 2000;
  EXPECT_EQ(bound(64, 16, 3, slow_node), kInter);
  EXPECT_EQ(bound(8, 32, 4, slow_node), 2000);
}

TEST(Lookahead, TopologyBoundsTheNeighborhoodCompletion) {
  // A ring: every rank's two neighbors, summed. Rank 1's are both on its
  // node (2 x 600); rank 16's are not (600 + 1401).
  std::vector<std::vector<Rank>> ring(64);
  for (Rank r = 0; r < 64; ++r) ring[r] = {(r + 63) % 64, (r + 1) % 64};
  EXPECT_EQ(bound(64, 16, 4, {}, ring), 2 * kIntra);
  // Ranks without neighbors add no term.
  std::vector<std::vector<Rank>> pair(64);
  pair[20] = {40};
  pair[40] = {20};
  EXPECT_EQ(bound(64, 16, 4, {}, pair), kInter);
  // The sequential engine has no window bound.
  EXPECT_EQ(bound(64, 16, 1, {}, ring), 0);
}

/// Each rank's only neighbor is its partner on the same node: one 600 ns
/// transfer, well inside the 1401 ns a node-aligned shard map allows.
sim::RankTask partner_rank(mpi::Comm& c, int rounds,
                           std::vector<std::int64_t>* out) {
  for (int i = 0; i < rounds; ++i) {
    std::vector<std::int64_t> mine(1, c.rank() + i);
    const auto got = co_await c.neighbor_alltoall_i64(std::move(mine));
    out->push_back(got.at(0));
  }
}

// A neighborhood completion is decided at a merge and lands 600 ns after
// the later arrival: a window the width of the cross-shard bound would
// have run past it, so the topology term must narrow the window.
TEST(Lookahead, NeighborhoodCompletionsOnOneNodeKeepTheTrace) {
  auto run = [](int threads) {
    sim::Simulator s(64);
    s.set_threads(threads);
    net::Params p;
    p.ranks_per_node = 16;
    mpi::Machine m(s, net::Network(64, p));
    std::vector<std::vector<Rank>> partners(64);
    for (Rank r = 0; r < 64; ++r) partners[r] = {r ^ 1};
    m.set_topology(std::move(partners));
    std::vector<std::vector<std::int64_t>> got(64);
    for (Rank r = 0; r < 64; ++r) {
      s.spawn(r, partner_rank(m.comm(r), 5, &got[r]));
    }
    s.run();
    EXPECT_EQ(s.lookahead(), threads > 1 ? kIntra : 0);
    return std::pair{s.trace_hash(), got};
  };
  const auto base = run(1);
  const auto sharded = run(4);
  EXPECT_EQ(sharded, base);
  EXPECT_EQ(base.second[3], (std::vector<std::int64_t>{2, 3, 4, 5, 6}));
}

/// Each round, every rank sends to the same position on the three other
/// nodes, then takes the three messages addressed to it.
sim::RankTask shift_rank(mpi::Comm& c, int rounds) {
  const int p = c.size();
  for (int i = 0; i < rounds; ++i) {
    for (int k = 1; k < 4; ++k) {
      c.isend_pod<std::int64_t>((c.rank() + 16 * k) % p, 0, i);
    }
    for (int k = 0; k < 3; ++k) (void)co_await c.recv(mpi::kAnySource, 0);
    c.compute(100);
  }
}

// 64 ranks on 16-rank nodes at four threads: every message crosses a node
// and a shard, so the bound is the inter-node transfer, and the window count
// is pinned. Held to the intra-node latency, the same run takes more
// windows, with the same trace.
TEST(Lookahead, WindowCountOfAMultiNodeExchange) {
  auto run = [](int threads, Time limit) {
    sim::Simulator s(64);
    s.set_threads(threads);
    if (limit > 0) s.limit_lookahead(limit);
    net::Params p;
    p.ranks_per_node = 16;
    mpi::Machine m(s, net::Network(64, p));
    for (Rank r = 0; r < 64; ++r) s.spawn(r, shift_rank(m.comm(r), 20));
    s.run();
    return std::tuple{s.trace_hash(), s.lookahead(), s.windows()};
  };
  const auto [base_hash, base_bound, base_windows] = run(1, 0);
  EXPECT_EQ(base_windows, 0u);
  const auto [hash, computed, windows] = run(4, 0);
  EXPECT_EQ(hash, base_hash);
  EXPECT_EQ(computed, kInter);
  EXPECT_EQ(windows, 21u);
  const auto [narrow_hash, narrow, narrow_windows] = run(4, kIntra);
  EXPECT_EQ(narrow_hash, base_hash);
  EXPECT_EQ(narrow, kIntra);
  EXPECT_EQ(narrow_windows, 41u);
}

}  // namespace
}  // namespace mel
