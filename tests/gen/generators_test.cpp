#include "mel/gen/generators.hpp"

#include <gtest/gtest.h>

#include <set>

#include "mel/gen/registry.hpp"
#include "mel/graph/stats.hpp"

namespace mel::gen {
namespace {

TEST(Gen, RggDeterministic) {
  const auto a = random_geometric(500, 0.05, 42);
  const auto b = random_geometric(500, 0.05, 42);
  EXPECT_EQ(a.nedges(), b.nedges());
  EXPECT_DOUBLE_EQ(a.total_weight(), b.total_weight());
}

TEST(Gen, RggSeedsDiffer) {
  const auto a = random_geometric(500, 0.05, 1);
  const auto b = random_geometric(500, 0.05, 2);
  EXPECT_NE(a.total_weight(), b.total_weight());
}

TEST(Gen, RggDegreeNearTarget) {
  const VertexId n = 20000;
  const auto g = random_geometric(n, rgg_radius_for_degree(n, 20.0), 9);
  const auto s = graph::degree_stats(g);
  EXPECT_NEAR(s.davg, 20.0, 3.0);
}

TEST(Gen, RggEdgesRespectRadiusLocality) {
  // Ids are x-sorted; an edge can only span a limited id range in a graph
  // with ~uniform density. Sanity: bandwidth << n for small radius.
  const VertexId n = 5000;
  const auto g = random_geometric(n, rgg_radius_for_degree(n, 12.0), 4);
  EXPECT_LT(g.bandwidth(), n / 4);
}

TEST(Gen, RggRejectsBadArgs) {
  EXPECT_THROW(random_geometric(0, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(random_geometric(10, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(random_geometric(10, 1.5, 1), std::invalid_argument);
}

TEST(Gen, RmatSizeAndSkew) {
  const auto g = rmat(12, 8, 7);
  EXPECT_EQ(g.nverts(), 4096);
  EXPECT_GT(g.nedges(), 4096 * 4);  // dedup loses some of the 8x
  const auto s = graph::degree_stats(g);
  // R-MAT is skewed: max degree far above average.
  EXPECT_GT(static_cast<double>(s.dmax), 5.0 * s.davg);
}

TEST(Gen, RmatDeterministic) {
  const auto a = rmat(10, 8, 3);
  const auto b = rmat(10, 8, 3);
  EXPECT_EQ(a.nedges(), b.nedges());
  EXPECT_DOUBLE_EQ(a.total_weight(), b.total_weight());
}

TEST(Gen, RmatBadScaleThrows) {
  EXPECT_THROW(rmat(0, 8, 1), std::invalid_argument);
  EXPECT_THROW(rmat(31, 8, 1), std::invalid_argument);
}

TEST(Gen, StochasticBlockDense) {
  const auto g = stochastic_block(1000, 24000, 10, 0.6, 5);
  EXPECT_GT(g.nedges(), 15000);
  const auto s = graph::degree_stats(g);
  EXPECT_GT(s.davg, 20.0);
  // 32 blocks rounded up to 4 (n = 100) or 7 (n = 200) vertices each
  // leave trailing blocks empty; intra-block draws must skip them.
  for (const VertexId n : {100, 200}) {
    const auto small = stochastic_block(n, n * 24, 32, 0.6, 5);
    EXPECT_EQ(small.nverts(), n);
    EXPECT_GT(small.nedges(), n * 4);
  }
  EXPECT_THROW(stochastic_block(1000, -3, 10, 0.6, 5), std::invalid_argument);
}

TEST(Gen, ChungLuPowerLawSkew) {
  const auto g = chung_lu(10000, 100000, 2.3, 11);
  const auto s = graph::degree_stats(g);
  EXPECT_GT(static_cast<double>(s.dmax), 10.0 * s.davg);
  EXPECT_GT(g.nedges(), 50000);
  EXPECT_THROW(chung_lu(10000, -3, 2.3, 11), std::invalid_argument);
}

TEST(Gen, GridOfGridsStructure) {
  const auto g = grid_of_grids(2000, 4, 12, 3);
  EXPECT_EQ(g.nverts(), 2000);
  EXPECT_GT(g.nedges(), 1000);
  // Grid vertices have degree <= 4.
  EXPECT_LE(g.max_degree(), 4);
}

TEST(Gen, BandedRespectsBand) {
  const auto g = banded(1000, 10, 25, 7);
  EXPECT_LE(g.bandwidth(), 25);
  EXPECT_GT(g.nedges(), 1000);
}

TEST(Gen, Stencil3dDegreeBound) {
  const auto g = stencil3d(8, 8, 8, 1.0, 1);
  EXPECT_EQ(g.nverts(), 512);
  EXPECT_LE(g.max_degree(), 26);
  // Interior vertices have all 26 neighbors at keep=1.
  EXPECT_EQ(g.max_degree(), 26);
}

TEST(Gen, Stencil3dKeepReducesEdges) {
  const auto full = stencil3d(10, 10, 10, 1.0, 2);
  const auto sparse = stencil3d(10, 10, 10, 0.5, 2);
  EXPECT_LT(sparse.nedges(), full.nedges());
  EXPECT_GT(sparse.nedges(), full.nedges() / 3);
}

TEST(Gen, ErdosRenyiApproxEdgeCount) {
  const auto g = erdos_renyi(5000, 30000, 13);
  EXPECT_NEAR(static_cast<double>(g.nedges()), 30000.0, 1500.0);
  EXPECT_THROW(erdos_renyi(5000, -3, 13), std::invalid_argument);
}

TEST(Gen, PathStructure) {
  const auto g = path(10);
  EXPECT_EQ(g.nedges(), 9);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(5), 2);
  // All weights equal (pathological case).
  EXPECT_DOUBLE_EQ(g.total_weight(), 9.0);
}

TEST(Gen, Grid2dStructure) {
  const auto g = grid2d(4, 5);
  EXPECT_EQ(g.nverts(), 20);
  EXPECT_EQ(g.nedges(), 4 * 4 + 3 * 5);  // (ny-1)*nx + (nx-1)*ny
  EXPECT_LE(g.max_degree(), 4);
}

TEST(Gen, BarabasiAlbertPowerLaw) {
  const auto g = barabasi_albert(5000, 4, 7);
  EXPECT_EQ(g.nverts(), 5000);
  const auto s = graph::degree_stats(g);
  EXPECT_GT(static_cast<double>(s.dmax), 8.0 * s.davg);  // heavy tail
  EXPECT_NEAR(s.davg, 8.0, 2.0);  // ~2m
}

TEST(Gen, BarabasiAlbertConnected) {
  // Preferential attachment always attaches new vertices: one component.
  const auto g = barabasi_albert(500, 2, 3);
  std::int64_t reachable = 0;
  {
    std::vector<char> seen(500, 0);
    std::vector<graph::VertexId> stack{0};
    seen[0] = 1;
    while (!stack.empty()) {
      const auto v = stack.back();
      stack.pop_back();
      ++reachable;
      for (const auto& a : g.neighbors(v)) {
        if (!seen[a.to]) {
          seen[a.to] = 1;
          stack.push_back(a.to);
        }
      }
    }
  }
  EXPECT_EQ(reachable, 500);
}

TEST(Gen, BarabasiAlbertRejectsBadArgs) {
  EXPECT_THROW(barabasi_albert(10, 0, 1), std::invalid_argument);
  EXPECT_THROW(barabasi_albert(3, 5, 1), std::invalid_argument);
}

TEST(Gen, WattsStrogatzLatticeAtBetaZero) {
  const auto g = watts_strogatz(100, 4, 0.0, 1);
  EXPECT_EQ(g.nedges(), 200);
  EXPECT_EQ(g.max_degree(), 4);
  // Pure ring lattice: bandwidth 2 except the wrap-around edges.
  for (graph::VertexId v = 10; v < 90; ++v) EXPECT_EQ(g.degree(v), 4);
}

TEST(Gen, WattsStrogatzRewiringAddsShortcuts) {
  // Count edges longer than k in ring distance (the wrap-around edges of
  // the pure lattice are short in ring distance, so it has none).
  const auto ring_long_edges = [](const graph::Csr& g, graph::VertexId n,
                                  graph::VertexId k) {
    graph::EdgeId count = 0;
    for (const auto& e : g.to_edges()) {
      const graph::VertexId d = std::min(e.v - e.u, n - (e.v - e.u));
      if (d > k) ++count;
    }
    return count;
  };
  const auto lattice = watts_strogatz(1000, 6, 0.0, 2);
  const auto rewired = watts_strogatz(1000, 6, 0.3, 2);
  EXPECT_EQ(ring_long_edges(lattice, 1000, 3), 0);
  EXPECT_GT(ring_long_edges(rewired, 1000, 3), 200);
}

TEST(Gen, WattsStrogatzRejectsBadArgs) {
  EXPECT_THROW(watts_strogatz(10, 3, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(watts_strogatz(4, 6, 0.1, 1), std::invalid_argument);
}

TEST(Gen, WeightsAreDistinct) {
  // The uniqueness invariant the cross-backend matching tests rely on.
  const auto g = rmat(10, 8, 19);
  std::set<double> weights;
  std::size_t count = 0;
  for (const auto& e : g.to_edges()) {
    weights.insert(e.w);
    ++count;
  }
  EXPECT_EQ(weights.size(), count);
}

TEST(Registry, Table2HasAllFamilies) {
  const auto datasets = table2_datasets(-4);
  std::set<std::string> categories;
  for (const auto& d : datasets) categories.insert(d.category);
  EXPECT_EQ(datasets.size(), 18u);  // 3 RGG + 4 RMAT + 3 HILO + 4 kmer + 1 DNA + 1 CFD + 2 social
  EXPECT_TRUE(categories.count("Graph500 R-MAT"));
  EXPECT_TRUE(categories.count("Social networks"));
  EXPECT_TRUE(categories.count("Protein K-mer"));
}

TEST(Registry, DatasetsBuild) {
  for (const auto& d : table2_datasets(-6)) {
    const auto g = d.build();
    EXPECT_GT(g.nverts(), 0) << d.id;
    EXPECT_GT(g.nedges(), 0) << d.id;
  }
}

TEST(Registry, FindDataset) {
  const auto d = find_dataset("Orkut-like", -6);
  EXPECT_EQ(d.category, "Social networks");
  EXPECT_THROW(find_dataset("nope"), std::out_of_range);
}

}  // namespace
}  // namespace mel::gen
