#include "mel/graph/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "mel/util/rng.hpp"

namespace mel::graph {
namespace {

Csr triangle() {
  const Edge edges[] = {{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 3.0}};
  return Csr::from_edges(3, edges);
}

TEST(Csr, BasicCounts) {
  const Csr g = triangle();
  EXPECT_EQ(g.nverts(), 3);
  EXPECT_EQ(g.nedges(), 3);
  EXPECT_EQ(g.nentries(), 6);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.max_degree(), 2);
}

TEST(Csr, AdjacencySortedAndSymmetric) {
  const Csr g = triangle();
  const auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0].to, 1);
  EXPECT_EQ(n0[1].to, 2);
  // Symmetric entry with same weight.
  const auto n2 = g.neighbors(2);
  ASSERT_EQ(n2.size(), 2u);
  EXPECT_EQ(n2[0].to, 0);
  EXPECT_DOUBLE_EQ(n2[0].w, 3.0);
}

TEST(Csr, SelfLoopsDropped) {
  const Edge edges[] = {{0, 0, 5.0}, {0, 1, 1.0}};
  const Csr g = Csr::from_edges(2, edges);
  EXPECT_EQ(g.nedges(), 1);
}

TEST(Csr, ParallelEdgesDedupedKeepingMaxWeight) {
  const Edge edges[] = {{0, 1, 1.0}, {1, 0, 9.0}, {0, 1, 4.0}};
  const Csr g = Csr::from_edges(2, edges);
  EXPECT_EQ(g.nedges(), 1);
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].w, 9.0);
}

TEST(Csr, OutOfRangeEndpointThrows) {
  const Edge edges[] = {{0, 7, 1.0}};
  EXPECT_THROW(Csr::from_edges(3, edges), std::out_of_range);
}

TEST(Csr, EmptyGraph) {
  const Csr g = Csr::from_edges(5, {});
  EXPECT_EQ(g.nverts(), 5);
  EXPECT_EQ(g.nedges(), 0);
  EXPECT_EQ(g.degree(4), 0);
  EXPECT_EQ(g.bandwidth(), 0);
}

TEST(Csr, Bandwidth) {
  const Edge edges[] = {{0, 9, 1.0}, {3, 4, 1.0}};
  const Csr g = Csr::from_edges(10, edges);
  EXPECT_EQ(g.bandwidth(), 9);
}

TEST(Csr, TotalWeight) {
  EXPECT_DOUBLE_EQ(triangle().total_weight(), 6.0);
}

TEST(Csr, ToEdgesRoundTrip) {
  const Csr g = triangle();
  const auto edges = g.to_edges();
  const Csr g2 = Csr::from_edges(3, edges);
  EXPECT_EQ(g2.nedges(), g.nedges());
  EXPECT_DOUBLE_EQ(g2.total_weight(), g.total_weight());
}

TEST(Csr, PermutedPreservesStructure) {
  const Csr g = triangle();
  const VertexId perm[] = {2, 0, 1};
  const Csr p = g.permuted(perm);
  EXPECT_EQ(p.nedges(), 3);
  EXPECT_DOUBLE_EQ(p.total_weight(), 6.0);
  // Edge {0,1,w=1} becomes {2,0}: check weight preserved.
  bool found = false;
  for (const Adj& a : p.neighbors(2)) {
    if (a.to == 0) {
      EXPECT_DOUBLE_EQ(a.w, 1.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Csr, PermutedSizeMismatchThrows) {
  const VertexId perm[] = {0, 1};
  EXPECT_THROW(triangle().permuted(perm), std::invalid_argument);
}

TEST(Csr, ByteSizeNonzero) { EXPECT_GT(triangle().byte_size(), 0u); }

TEST(Csr, NanWeightRejected) {
  const Edge edges[] = {{0, 1, 1.0},
                        {1, 2, std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_THROW(Csr::from_edges(3, edges), std::invalid_argument);
}

/// Reference CSR build: one global comparison sort of the canonical edges
/// by (lo, hi, weight descending), keep the first of each (lo, hi), then
/// scatter both directions and sort every row by neighbour id.
struct RefCsr {
  std::vector<EdgeId> offsets;
  std::vector<Adj> adj;
};

RefCsr reference_from_edges(VertexId n, std::span<const Edge> edges) {
  std::vector<Edge> clean;
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    clean.push_back(e.u < e.v ? e : Edge{e.v, e.u, e.w});
  }
  std::sort(clean.begin(), clean.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : (a.v != b.v ? a.v < b.v : a.w > b.w);
  });
  std::vector<Edge> uniq;
  for (const Edge& e : clean) {
    if (!uniq.empty() && uniq.back().u == e.u && uniq.back().v == e.v) continue;
    uniq.push_back(e);
  }
  RefCsr g;
  g.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : uniq) {
    ++g.offsets[e.u + 1];
    ++g.offsets[e.v + 1];
  }
  for (VertexId v = 0; v < n; ++v) g.offsets[v + 1] += g.offsets[v];
  g.adj.resize(static_cast<std::size_t>(g.offsets[n]));
  std::vector<EdgeId> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (const Edge& e : uniq) {
    g.adj[cursor[e.u]++] = Adj{e.v, e.w};
    g.adj[cursor[e.v]++] = Adj{e.u, e.w};
  }
  for (VertexId v = 0; v < n; ++v) {
    std::sort(g.adj.begin() + g.offsets[v], g.adj.begin() + g.offsets[v + 1],
              [](const Adj& a, const Adj& b) { return a.to < b.to; });
  }
  return g;
}

void expect_same(const Csr& g, const RefCsr& ref, int trial) {
  const VertexId n = static_cast<VertexId>(ref.offsets.size()) - 1;
  ASSERT_EQ(g.nverts(), n) << "trial " << trial;
  ASSERT_EQ(g.nentries(), static_cast<EdgeId>(ref.adj.size())) << "trial " << trial;
  for (VertexId v = 0; v < n; ++v) {
    const auto row = g.neighbors(v);
    ASSERT_EQ(static_cast<EdgeId>(row.size()), ref.offsets[v + 1] - ref.offsets[v])
        << "trial " << trial << " vertex " << v;
    for (std::size_t k = 0; k < row.size(); ++k) {
      const Adj& want = ref.adj[static_cast<std::size_t>(ref.offsets[v]) + k];
      EXPECT_EQ(row[k].to, want.to) << "trial " << trial << " vertex " << v;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row[k].w),
                std::bit_cast<std::uint64_t>(want.w))
          << "trial " << trial << " vertex " << v;
    }
  }
}

TEST(Csr, FromEdgesMatchesSortReferenceOnRandomInputs) {
  util::Xoshiro256 rng(20261017);
  for (int trial = 0; trial < 300; ++trial) {
    // Every fifth graph is empty of edges; endpoints come from a prefix of
    // the ids so the tail stays isolated; a small weight alphabet makes
    // duplicates with equal and with unequal weights both common.
    const auto n = static_cast<VertexId>(rng.next_below(80));
    const VertexId used = n == 0 ? 0 : 1 + static_cast<VertexId>(rng.next_below(
                                               static_cast<std::uint64_t>(n)));
    const std::uint64_t m = trial % 5 == 0 || n == 0 ? 0 : rng.next_below(6 * n);
    auto pick = [&] {
      return static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(used)));
    };
    std::vector<Edge> edges;
    for (std::uint64_t k = 0; k < m; ++k) {
      const auto u = pick();
      const auto v = pick();
      const double w = 0.25 * static_cast<double>(1 + rng.next_below(8));
      edges.push_back(Edge{u, v, w});
      // Re-insert some edges reversed with another weight.
      if (rng.next_bool(0.3)) {
        edges.push_back(Edge{v, u, 0.25 * static_cast<double>(1 + rng.next_below(8))});
      }
    }
    for (std::size_t i = edges.size(); i > 1; --i) {
      std::swap(edges[i - 1], edges[rng.next_below(i)]);
    }
    expect_same(Csr::from_edges(n, edges), reference_from_edges(n, edges), trial);
  }
}

TEST(Csr, PermutedAndInducedMatchSortReference) {
  util::Xoshiro256 rng(7);
  std::vector<Edge> edges;
  for (int k = 0; k < 2000; ++k) {
    edges.push_back(Edge{static_cast<VertexId>(rng.next_below(300)),
                         static_cast<VertexId>(rng.next_below(300)),
                         1.0 - rng.next_double()});
  }
  const Csr g = Csr::from_edges(300, edges);
  std::vector<VertexId> perm(300);
  for (VertexId v = 0; v < 300; ++v) perm[v] = (v * 7 + 11) % 300;
  std::vector<Edge> relabeled = g.to_edges();
  for (Edge& e : relabeled) {
    e.u = perm[e.u];
    e.v = perm[e.v];
  }
  expect_same(g.permuted(perm), reference_from_edges(300, relabeled), 0);

  std::vector<char> keep(300);
  for (VertexId v = 0; v < 300; ++v) keep[v] = rng.next_bool(0.6) ? 1 : 0;
  std::vector<VertexId> new_id(300, -1);
  VertexId n2 = 0;
  for (VertexId v = 0; v < 300; ++v) {
    if (keep[v] != 0) new_id[v] = n2++;
  }
  std::vector<Edge> kept;
  for (const Edge& e : g.to_edges()) {
    if (keep[e.u] != 0 && keep[e.v] != 0) {
      kept.push_back(Edge{new_id[e.u], new_id[e.v], e.w});
    }
  }
  expect_same(g.induced_subgraph(keep), reference_from_edges(n2, kept), 1);
}

}  // namespace
}  // namespace mel::graph
