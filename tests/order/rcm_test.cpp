#include "mel/order/rcm.hpp"

#include <gtest/gtest.h>

#include "mel/gen/generators.hpp"
#include "mel/graph/dist.hpp"
#include "mel/graph/stats.hpp"

namespace mel::order {
namespace {

TEST(Rcm, ProducesValidPermutation) {
  const auto g = gen::erdos_renyi(500, 2000, 3);
  const auto perm = rcm(g);
  EXPECT_TRUE(is_permutation(perm));
}

TEST(Rcm, ReducesBandwidthOfShuffledBandedGraph) {
  // A banded graph whose ids were shuffled has terrible bandwidth; RCM
  // should recover something close to the underlying band.
  const auto g0 = gen::banded(2000, 8, 20, 5);
  const auto shuffled = g0.permuted(random_order(2000, 99));
  ASSERT_GT(shuffled.bandwidth(), 500);
  const auto g1 = shuffled.permuted(rcm(shuffled));
  EXPECT_LT(g1.bandwidth(), shuffled.bandwidth() / 4);
}

TEST(Rcm, PreservesGraphInvariants) {
  const auto g = gen::rmat(10, 8, 7);
  const auto r = g.permuted(rcm(g));
  EXPECT_EQ(r.nverts(), g.nverts());
  EXPECT_EQ(r.nedges(), g.nedges());
  EXPECT_NEAR(r.total_weight(), g.total_weight(), 1e-9);
}

TEST(Rcm, HandlesDisconnectedComponents) {
  const auto g = gen::grid_of_grids(3000, 4, 10, 7);
  const auto perm = rcm(g);
  EXPECT_TRUE(is_permutation(perm));
  const auto r = g.permuted(perm);
  EXPECT_EQ(r.nedges(), g.nedges());
}

TEST(Rcm, EmptyAndTrivialGraphs) {
  const auto empty = graph::Csr::from_edges(0, {});
  EXPECT_TRUE(rcm(empty).empty());
  const auto isolated = graph::Csr::from_edges(5, {});
  const auto perm = rcm(isolated);
  EXPECT_TRUE(is_permutation(perm));
}

TEST(Rcm, PathAlreadyOptimal) {
  const auto g = gen::path(100);
  const auto r = g.permuted(rcm(g));
  EXPECT_EQ(r.bandwidth(), 1);
}

TEST(Rcm, IncreasesProcessNeighborhoodOnBalancedGraphs) {
  // Table VI: reordering a structured graph tends to *increase* the
  // process-graph average degree under 1D partitioning (the paper's
  // counter-intuitive finding). We only check RCM changes the topology.
  const auto g = gen::banded(4000, 12, 100, 3);
  const auto permuted = g.permuted(rcm(g));
  const graph::DistGraph orig(g, 16);
  const graph::DistGraph reord(permuted, 16);
  const auto s0 = graph::process_graph_stats(orig);
  const auto s1 = graph::process_graph_stats(reord);
  EXPECT_GT(s0.ep_edges, 0);
  EXPECT_GT(s1.ep_edges, 0);
}

TEST(Order, PartialShuffleIsPermutation) {
  const auto perm = partial_shuffle(1000, 0.1, 7);
  EXPECT_TRUE(is_permutation(perm));
}

TEST(Order, PartialShuffleDisplacesRoughlyFrac) {
  const graph::VertexId n = 10000;
  const auto perm = partial_shuffle(n, 0.1, 7);
  graph::VertexId displaced = 0;
  for (graph::VertexId v = 0; v < n; ++v) displaced += (perm[v] != v);
  // ~frac*n vertices move (swaps can collide, so allow a band).
  EXPECT_GT(displaced, n / 20);
  EXPECT_LT(displaced, n / 5);
}

TEST(Order, PartialShuffleZeroFracIsIdentity) {
  EXPECT_EQ(partial_shuffle(100, 0.0, 3), identity(100));
}

TEST(Order, RandomOrderIsPermutation) {
  const auto perm = random_order(1000, 5);
  EXPECT_TRUE(is_permutation(perm));
  EXPECT_NE(perm, identity(1000));
}

TEST(Order, IdentityIsPermutation) {
  EXPECT_TRUE(is_permutation(identity(10)));
}

TEST(Order, IsPermutationRejectsBadInput) {
  const graph::VertexId dup[] = {0, 0, 2};
  EXPECT_FALSE(is_permutation(dup));
  const graph::VertexId oob[] = {0, 5, 1};
  EXPECT_FALSE(is_permutation(oob));
}

}  // namespace
}  // namespace mel::order
