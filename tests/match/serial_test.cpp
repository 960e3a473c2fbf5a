#include "mel/match/serial.hpp"

#include <gtest/gtest.h>

#include "mel/gen/generators.hpp"
#include "mel/match/verify.hpp"
#include "mel/util/rng.hpp"

namespace mel::match {
namespace {

using gen::erdos_renyi;
using graph::Csr;
using graph::Edge;

TEST(EdgeOrder, StrictTotalOrder) {
  const auto k1 = edge_key(0, 1, 5.0);
  const auto k2 = edge_key(1, 0, 5.0);
  EXPECT_TRUE(k1 == k2);  // symmetric
  const auto k3 = edge_key(0, 2, 5.0);
  EXPECT_TRUE(k1 < k3 || k3 < k1);  // equal weights still ordered
  EXPECT_FALSE(k1 < k1);
  EXPECT_TRUE(edge_key(0, 1, 1.0) < edge_key(0, 2, 2.0));
}

TEST(Serial, SingleEdge) {
  const Edge edges[] = {{0, 1, 3.0}};
  const auto m = serial_half_approx(Csr::from_edges(2, edges));
  EXPECT_EQ(m.mate[0], 1);
  EXPECT_EQ(m.mate[1], 0);
  EXPECT_DOUBLE_EQ(m.weight, 3.0);
  EXPECT_EQ(m.cardinality, 1);
}

TEST(Serial, TriangleTakesHeaviest) {
  const Edge edges[] = {{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 3.0}};
  const auto m = serial_half_approx(Csr::from_edges(3, edges));
  EXPECT_EQ(m.mate[0], 2);
  EXPECT_EQ(m.mate[2], 0);
  EXPECT_EQ(m.mate[1], kNullVertex);
  EXPECT_DOUBLE_EQ(m.weight, 3.0);
}

TEST(Serial, PathAlternates) {
  // Path with increasing weights 1,2,3: picks {2,3} then {0,1}... weight 3
  // edge dominates; then edge {0,1} remains matchable.
  const Edge edges[] = {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}};
  const auto m = serial_half_approx(Csr::from_edges(4, edges));
  EXPECT_EQ(m.mate[2], 3);
  EXPECT_EQ(m.mate[0], 1);
  EXPECT_DOUBLE_EQ(m.weight, 4.0);
}

TEST(Serial, EmptyGraph) {
  const auto m = serial_half_approx(Csr::from_edges(4, {}));
  EXPECT_EQ(m.cardinality, 0);
  EXPECT_DOUBLE_EQ(m.weight, 0.0);
  for (auto v : m.mate) EXPECT_EQ(v, kNullVertex);
}

TEST(Serial, NonPositiveEdgesNeverMatched) {
  const Edge edges[] = {{0, 1, -1.0}, {1, 2, 0.0}, {2, 3, 2.0}};
  const auto m = serial_half_approx(Csr::from_edges(4, edges));
  EXPECT_EQ(m.mate[0], kNullVertex);
  EXPECT_EQ(m.mate[2], 3);
  EXPECT_EQ(m.cardinality, 1);
}

TEST(Serial, EqualsGreedyOnRandomGraphs) {
  // With a strict total edge order, locally-dominant == greedy, exactly.
  // The second graph per seed reweights the first from a few values:
  // equal weights, both signed zeros and a negative weight.
  constexpr double kFew[] = {2.0, 2.0, 1.0, 0.0, -0.0, -1.0};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto g = erdos_renyi(200, 800, seed);
    auto edges = g.to_edges();
    util::Xoshiro256 rng(seed);
    for (Edge& e : edges) e.w = kFew[rng.next_below(std::size(kFew))];
    const Csr few = Csr::from_edges(g.nverts(), edges);
    for (const Csr* input : {&g, &few}) {
      const auto a = serial_half_approx(*input);
      const auto b = greedy_matching(*input);
      EXPECT_EQ(a.mate, b.mate) << "seed " << seed;
      EXPECT_DOUBLE_EQ(a.weight, b.weight);
    }
  }
}

TEST(Serial, EqualsGreedyOnEqualWeightGrid) {
  const auto g = gen::grid2d(12, 13);
  const auto a = serial_half_approx(g);
  const auto b = greedy_matching(g);
  EXPECT_EQ(a.mate, b.mate);
}

TEST(Serial, ValidAndMaximalAcrossFamilies) {
  const Csr graphs[] = {
      erdos_renyi(300, 1500, 2), gen::rmat(9, 8, 3),
      gen::path(100),            gen::grid2d(10, 10),
      gen::chung_lu(300, 2000, 2.3, 4),
  };
  for (const auto& g : graphs) {
    const auto m = serial_half_approx(g);
    EXPECT_TRUE(is_valid_matching(g, m.mate));
    EXPECT_TRUE(is_maximal_matching(g, m.mate));
    EXPECT_NEAR(m.weight, matching_weight(g, m.mate), 1e-9);
    EXPECT_EQ(m.cardinality, matching_cardinality(m.mate));
  }
}

TEST(Serial, PathologicalPathTieBreaking) {
  // All-equal weights on a path: the naive id-ordered algorithm serializes;
  // hashing must still produce a valid maximal matching.
  const auto g = gen::path(1001);
  const auto m = serial_half_approx(g);
  EXPECT_TRUE(is_valid_matching(g, m.mate));
  EXPECT_TRUE(is_maximal_matching(g, m.mate));
  // A maximal matching on a path of n edges has >= n/2 / 2 edges... at
  // least one third of vertices matched is a safe lower bound.
  EXPECT_GE(m.cardinality * 3, 1000 / 3);
}

class HalfApproxBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HalfApproxBound, AtLeastHalfOfOptimum) {
  // Random small graphs where the brute-force optimum is computable.
  util::Xoshiro256 rng(GetParam());
  const graph::VertexId n = 4 + static_cast<graph::VertexId>(rng.next_below(5));
  std::vector<Edge> edges;
  for (graph::VertexId u = 0; u < n; ++u) {
    for (graph::VertexId v = u + 1; v < n; ++v) {
      if (rng.next_bool(0.45)) {
        edges.push_back(Edge{u, v, rng.next_double() + 0.01});
      }
      if (edges.size() >= 12) break;
    }
    if (edges.size() >= 12) break;
  }
  const auto g = Csr::from_edges(n, edges);
  const auto approx = serial_half_approx(g);
  const auto optimum = brute_force_optimum(g);
  EXPECT_TRUE(is_valid_matching(g, approx.mate));
  EXPECT_GE(approx.weight, 0.5 * optimum.weight - 1e-12)
      << "half-approximation bound violated";
  EXPECT_LE(approx.weight, optimum.weight + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HalfApproxBound,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(BruteForce, RejectsHugeInputs) {
  const auto g = erdos_renyi(100, 500, 1);
  EXPECT_THROW(brute_force_optimum(g), std::invalid_argument);
}

TEST(Verify, DetectsAsymmetricMate) {
  const Edge edges[] = {{0, 1, 1.0}};
  const auto g = Csr::from_edges(3, edges);
  std::vector<graph::VertexId> mate{1, kNullVertex, kNullVertex};
  EXPECT_FALSE(is_valid_matching(g, mate));
}

TEST(Verify, DetectsNonAdjacentMate) {
  const Edge edges[] = {{0, 1, 1.0}};
  const auto g = Csr::from_edges(3, edges);
  std::vector<graph::VertexId> mate{2, kNullVertex, 0};
  EXPECT_FALSE(is_valid_matching(g, mate));
}

TEST(Verify, DetectsNonMaximal) {
  const Edge edges[] = {{0, 1, 1.0}};
  const auto g = Csr::from_edges(2, edges);
  std::vector<graph::VertexId> mate{kNullVertex, kNullVertex};
  EXPECT_TRUE(is_valid_matching(g, mate));
  EXPECT_FALSE(is_maximal_matching(g, mate));
}

}  // namespace
}  // namespace mel::match
