#include "mel/graph/dist.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <type_traits>
#include <vector>

#include "mel/gen/generators.hpp"
#include "mel/graph/stats.hpp"

namespace mel::graph {
namespace {

TEST(Distribution, EvenSplit) {
  Distribution d(12, 4);
  for (Rank r = 0; r < 4; ++r) EXPECT_EQ(d.count(r), 3);
  EXPECT_EQ(d.begin(0), 0);
  EXPECT_EQ(d.end(3), 12);
}

TEST(Distribution, UnevenSplitFrontLoaded) {
  Distribution d(10, 4);  // 3,3,2,2
  EXPECT_EQ(d.count(0), 3);
  EXPECT_EQ(d.count(1), 3);
  EXPECT_EQ(d.count(2), 2);
  EXPECT_EQ(d.count(3), 2);
  EXPECT_EQ(d.end(3), 10);
}

TEST(Distribution, OwnerConsistentWithRanges) {
  Distribution d(1037, 7);
  for (VertexId v = 0; v < 1037; ++v) {
    const Rank r = d.owner(v);
    EXPECT_GE(v, d.begin(r));
    EXPECT_LT(v, d.end(r));
  }
}

TEST(Distribution, MoreRanksThanVertices) {
  Distribution d(3, 8);
  for (VertexId v = 0; v < 3; ++v) {
    const Rank r = d.owner(v);
    EXPECT_GE(v, d.begin(r));
    EXPECT_LT(v, d.end(r));
  }
  int total = 0;
  for (Rank r = 0; r < 8; ++r) total += static_cast<int>(d.count(r));
  EXPECT_EQ(total, 3);
}

Csr two_rank_graph() {
  // 6 vertices, ranks of 3 (p=2): cross edges {2,3}, {0,5}.
  const Edge edges[] = {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0},
                        {3, 4, 4.0}, {4, 5, 5.0}, {0, 5, 6.0}};
  return Csr::from_edges(6, edges);
}

TEST(DistGraph, LocalAdjacencyMatchesGlobal) {
  const Csr g = two_rank_graph();
  const DistGraph dg(g, 2);
  const LocalGraph& l0 = dg.local(0);
  EXPECT_EQ(l0.vbegin, 0);
  EXPECT_EQ(l0.vend, 3);
  EXPECT_EQ(l0.nlocal(), 3);
  // Vertex 2's neighbors: 1 (local) and 3 (ghost).
  const auto n2 = l0.neighbors(2);
  ASSERT_EQ(n2.size(), 2u);
  EXPECT_EQ(n2[0].to, 1);
  EXPECT_EQ(n2[1].to, 3);
}

TEST(DistGraph, GhostCounts) {
  const Csr g = two_rank_graph();
  const DistGraph dg(g, 2);
  const LocalGraph& l0 = dg.local(0);
  ASSERT_EQ(l0.neighbor_ranks.size(), 1u);
  EXPECT_EQ(l0.neighbor_ranks[0], 1);
  EXPECT_EQ(l0.ghost_counts[0], 2);  // edges {2,3} and {0,5}
  EXPECT_EQ(l0.total_ghost_edges, 2);
  const LocalGraph& l1 = dg.local(1);
  EXPECT_EQ(l1.total_ghost_edges, 2);
  EXPECT_EQ(l0.neighbor_index(1), 0);
  EXPECT_EQ(l0.neighbor_index(0), -1);
}

TEST(DistGraph, TopologySymmetric) {
  const auto g = gen::rmat(10, 8, 3);
  const DistGraph dg(g, 8);
  const auto topo = dg.process_topology();
  for (Rank r = 0; r < 8; ++r) {
    for (Rank n : topo[r]) {
      const auto& back = topo[n];
      EXPECT_NE(std::find(back.begin(), back.end(), r), back.end());
    }
  }
}

TEST(DistGraph, GhostCountsMatchPairwise) {
  const auto g = gen::erdos_renyi(500, 3000, 7);
  const DistGraph dg(g, 8);
  for (Rank r = 0; r < 8; ++r) {
    const auto& lr = dg.local(r);
    for (std::size_t i = 0; i < lr.neighbor_ranks.size(); ++i) {
      const Rank s = lr.neighbor_ranks[i];
      const auto& ls = dg.local(s);
      const int back = ls.neighbor_index(r);
      ASSERT_GE(back, 0);
      EXPECT_EQ(lr.ghost_counts[i], ls.ghost_counts[back])
          << "asymmetric ghost count between " << r << " and " << s;
    }
  }
}

TEST(DistGraph, AllEdgesCoveredOnce) {
  const auto g = gen::erdos_renyi(300, 2000, 11);
  const DistGraph dg(g, 5);
  EdgeId entries = 0;
  for (Rank r = 0; r < 5; ++r) {
    entries += static_cast<EdgeId>(dg.local(r).adj.size());
  }
  EXPECT_EQ(entries, g.nentries());
}

// A DistGraph views its Csr, so binding one to a temporary must not compile.
static_assert(!std::is_constructible_v<DistGraph, Csr&&, int>);
static_assert(!std::is_constructible_v<DistGraph, Csr&&, Distribution>);
static_assert(!std::is_constructible_v<DistGraph, const Csr&&, int>);
static_assert(std::is_constructible_v<DistGraph, const Csr&, int>);

TEST(DistGraph, LocalAdjacencyViewsTheGlobalCsr) {
  const auto g = gen::erdos_renyi(500, 3000, 9);
  for (const int p : {1, 3, 8}) {
    const DistGraph dg(g, p);
    for (Rank r = 0; r < p; ++r) {
      const LocalGraph& lg = dg.local(r);
      const EdgeId first = g.offsets()[lg.vbegin];
      const EdgeId entries = g.offsets()[lg.vend] - first;
      EXPECT_EQ(lg.adj.data(), g.adjacency().data() + first) << "rank " << r;
      EXPECT_EQ(static_cast<EdgeId>(lg.adj.size()), entries) << "rank " << r;
      // The memory model charges the rank for its own slice all the same.
      const std::size_t modelled =
          static_cast<std::size_t>(lg.nlocal() + 1) * sizeof(EdgeId) +
          static_cast<std::size_t>(entries) * sizeof(Adj) +
          lg.neighbor_ranks.size() * sizeof(Rank) +
          lg.ghost_counts.size() * sizeof(std::int64_t);
      EXPECT_EQ(lg.byte_size(), modelled) << "rank " << r;
    }
  }
}

/// Reference rank-local build: copy each owned vertex's row entry by entry
/// into storage of its own and count ghosts per owner in an ordered map.
struct ReferenceLocal : LocalGraph {
  std::vector<Adj> rows;  // what `adj` views
};

ReferenceLocal reference_local(const Csr& global, const Distribution& dist,
                               Rank r) {
  ReferenceLocal lg;
  lg.rank = r;
  lg.vbegin = dist.begin(r);
  lg.vend = dist.end(r);
  lg.offsets.push_back(0);
  std::map<Rank, std::int64_t> ghosts;
  for (VertexId v = lg.vbegin; v < lg.vend; ++v) {
    for (const Adj& a : global.neighbors(v)) {
      lg.rows.push_back(a);
      const Rank o = dist.owner(a.to);
      if (o != r) ++ghosts[o];
    }
    lg.offsets.push_back(static_cast<EdgeId>(lg.rows.size()));
  }
  lg.adj = lg.rows;
  for (const auto& [nbr, cnt] : ghosts) {
    lg.neighbor_ranks.push_back(nbr);
    lg.ghost_counts.push_back(cnt);
    lg.total_ghost_edges += cnt;
  }
  return lg;
}

void expect_matches_reference(const Csr& g, const DistGraph& dg,
                              const char* label) {
  EXPECT_EQ(dg.nverts(), g.nverts()) << label;
  EXPECT_EQ(dg.nedges(), g.nedges()) << label;
  for (Rank r = 0; r < dg.nranks(); ++r) {
    const ReferenceLocal want = reference_local(g, dg.dist(), r);
    const LocalGraph& got = dg.local(r);
    EXPECT_EQ(got.rank, want.rank) << label << " rank " << r;
    EXPECT_EQ(got.vbegin, want.vbegin) << label << " rank " << r;
    EXPECT_EQ(got.vend, want.vend) << label << " rank " << r;
    EXPECT_EQ(got.offsets, want.offsets) << label << " rank " << r;
    ASSERT_EQ(got.adj.size(), want.adj.size()) << label << " rank " << r;
    for (std::size_t k = 0; k < want.adj.size(); ++k) {
      EXPECT_EQ(got.adj[k].to, want.adj[k].to) << label << " rank " << r;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.adj[k].w),
                std::bit_cast<std::uint64_t>(want.adj[k].w))
          << label << " rank " << r;
    }
    EXPECT_EQ(got.neighbor_ranks, want.neighbor_ranks) << label << " rank " << r;
    EXPECT_EQ(got.ghost_counts, want.ghost_counts) << label << " rank " << r;
    EXPECT_EQ(got.total_ghost_edges, want.total_ghost_edges)
        << label << " rank " << r;
  }
}

TEST(DistGraph, MatchesReferenceUniform) {
  const auto rmat = gen::rmat(9, 8, 4);
  for (int p : {1, 3, 8, 64}) expect_matches_reference(rmat, DistGraph(rmat, p), "rmat");
  const auto rgg = gen::random_geometric(2000, gen::rgg_radius_for_degree(2000, 12.0), 3);
  expect_matches_reference(rgg, DistGraph(rgg, 16), "rgg");
  // More ranks than vertices: the trailing ranks own nothing.
  const Edge edges[] = {{0, 4, 1.0}, {1, 2, 2.0}, {3, 4, 3.0}};
  const Csr tiny = Csr::from_edges(5, edges);
  expect_matches_reference(tiny, DistGraph(tiny, 8), "tiny");
}

TEST(DistGraph, MatchesReferenceEdgeBalancedAndEmptyRanks) {
  const auto g = gen::chung_lu(3000, 20000, 2.2, 9);
  for (int p : {2, 7, 32}) {
    expect_matches_reference(g, DistGraph(g, edge_balanced_partition(g, p)),
                             "edge_balanced");
  }
  // A star whose hub has the last id: the sweep reaches the hub with half
  // the entries left and takes them all at once, so the trailing ranks
  // own nothing.
  std::vector<Edge> star;
  for (VertexId v = 0; v < 39; ++v) {
    star.push_back(Edge{39, v, 1.0 / static_cast<double>(v + 1)});
  }
  const Csr s = Csr::from_edges(40, star);
  const Distribution d = edge_balanced_partition(s, 6);
  EXPECT_EQ(d.count(4), 0);
  EXPECT_EQ(d.count(5), 0);
  expect_matches_reference(s, DistGraph(s, d), "star");
  // Empty blocks in the middle and at both ends.
  const auto er = gen::erdos_renyi(400, 2400, 5);
  expect_matches_reference(
      er, DistGraph(er, Distribution::from_offsets({0, 0, 150, 150, 151, 400, 400})),
      "explicit");
}

TEST(Distribution, FromOffsets) {
  auto d = Distribution::from_offsets({0, 3, 3, 10});
  EXPECT_EQ(d.nranks(), 3);
  EXPECT_EQ(d.nverts(), 10);
  EXPECT_EQ(d.count(0), 3);
  EXPECT_EQ(d.count(1), 0);  // empty block allowed
  EXPECT_EQ(d.count(2), 7);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(2), 0);
  EXPECT_EQ(d.owner(3), 2);
  EXPECT_EQ(d.owner(9), 2);
}

TEST(Distribution, FromOffsetsRejectsBadInput) {
  EXPECT_THROW(Distribution::from_offsets({1, 5}), std::invalid_argument);
  EXPECT_THROW(Distribution::from_offsets({0, 5, 3}), std::invalid_argument);
  EXPECT_THROW(Distribution::from_offsets({0}), std::invalid_argument);
}

TEST(Distribution, EdgeBalancedEvensOutEntries) {
  // A power-law graph is badly imbalanced under vertex blocks when hubs
  // cluster; after degree-descending relabeling the contrast is extreme.
  auto g = gen::chung_lu(4000, 40000, 2.2, 7);
  const int p = 8;
  auto entries_imbalance = [&](const Distribution& d) {
    EdgeId max_e = 0;
    EdgeId total = 0;
    for (Rank r = 0; r < p; ++r) {
      EdgeId e = 0;
      for (VertexId v = d.begin(r); v < d.end(r); ++v) e += g.degree(v);
      max_e = std::max(max_e, e);
      total += e;
    }
    return static_cast<double>(max_e) * p / static_cast<double>(total);
  };
  const Distribution naive(g.nverts(), p);
  const Distribution balanced = edge_balanced_partition(g, p);
  EXPECT_LE(entries_imbalance(balanced), entries_imbalance(naive) + 1e-9);
  EXPECT_LT(entries_imbalance(balanced), 1.6);
}

TEST(Distribution, EdgeBalancedCoversAllVertices) {
  const auto g = gen::rmat(10, 8, 5);
  const auto d = edge_balanced_partition(g, 7);
  EXPECT_EQ(d.nverts(), g.nverts());
  VertexId total = 0;
  for (Rank r = 0; r < 7; ++r) total += d.count(r);
  EXPECT_EQ(total, g.nverts());
  for (VertexId v = 0; v < g.nverts(); ++v) {
    const Rank r = d.owner(v);
    EXPECT_GE(v, d.begin(r));
    EXPECT_LT(v, d.end(r));
  }
}

TEST(DistGraph, CustomDistributionRoundTrips) {
  const auto g = gen::erdos_renyi(300, 2000, 11);
  const DistGraph dg(g, edge_balanced_partition(g, 6));
  EdgeId entries = 0;
  for (Rank r = 0; r < 6; ++r) {
    entries += static_cast<EdgeId>(dg.local(r).adj.size());
  }
  EXPECT_EQ(entries, g.nentries());
}

TEST(Stats, RggProcessGraphDegreeAtMostTwo) {
  // The paper's key RGG property: with x-sorted ids and 1D blocks, each
  // rank talks to at most its two strip neighbors.
  const auto g = gen::random_geometric(4000, gen::rgg_radius_for_degree(4000, 16.0), 5);
  const DistGraph dg(g, 16);
  const auto s = process_graph_stats(dg);
  EXPECT_LE(s.dmax, 2);
  EXPECT_GT(s.ep_edges, 0);
}

TEST(Stats, DenseGraphProcessDegreeIsPMinus1) {
  // Table III: stochastic block partition gives a complete process graph.
  const auto g = gen::stochastic_block(2048, 2048 * 24, 16, 0.6, 3);
  const DistGraph dg(g, 8);
  const auto s = process_graph_stats(dg);
  EXPECT_EQ(s.dmax, 7);
  EXPECT_DOUBLE_EQ(s.davg, 7.0);
  EXPECT_EQ(s.ep_edges, 8 * 7 / 2);
}

TEST(Stats, EdgePrimeTotalsExceedEdges) {
  const auto g = gen::erdos_renyi(400, 3000, 13);
  const DistGraph dg(g, 8);
  const auto ep = edge_prime_stats(dg);
  EXPECT_GT(ep.total, g.nedges());  // cross edges counted on both sides
  EXPECT_LE(ep.total, 2 * g.nedges());
  EXPECT_GE(ep.max, static_cast<std::int64_t>(ep.avg));
}

TEST(Stats, SingleRankEdgePrimeEqualsEdges) {
  const auto g = gen::erdos_renyi(200, 1000, 17);
  const DistGraph dg(g, 1);
  const auto ep = edge_prime_stats(dg);
  EXPECT_EQ(ep.total, g.nedges());
  EXPECT_DOUBLE_EQ(ep.sigma, 0.0);
}

TEST(Stats, DegreeStats) {
  const Edge edges[] = {{0, 1, 1}, {0, 2, 1}, {0, 3, 1}};
  const Csr star = Csr::from_edges(4, edges);
  const auto s = degree_stats(star);
  EXPECT_EQ(s.dmax, 3);
  EXPECT_DOUBLE_EQ(s.davg, 1.5);
}

TEST(Stats, SpyRenderNonEmpty) {
  const auto g = gen::banded(256, 8, 16, 3);
  const auto spy = render_spy(g, 16);
  EXPECT_FALSE(spy.empty());
  // Banded matrix: corners far from the diagonal are empty.
  EXPECT_EQ(spy[15], ' ');  // top-right cell of first row
}

TEST(Stats, HeatmapRender) {
  std::vector<std::uint64_t> m(16, 0);
  m[1] = 100;  // (0,1)
  const auto hm = render_heatmap(m, 4, 4);
  EXPECT_FALSE(hm.empty());
  EXPECT_NE(hm.find('#'), std::string::npos);
}

}  // namespace
}  // namespace mel::graph
