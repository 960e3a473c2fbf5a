// Remaining edge cases across the matching stack.
#include <gtest/gtest.h>

#include "mel/gen/generators.hpp"
#include "mel/match/driver.hpp"
#include "mel/match/verify.hpp"

namespace mel::match {
namespace {

TEST(EdgeCases, AllNegativeWeightsMatchNothing) {
  auto edges = gen::erdos_renyi(100, 400, 3).to_edges();
  for (auto& e : edges) e.w = -std::abs(e.w) - 0.1;
  const auto g = graph::Csr::from_edges(100, edges);
  const auto serial = serial_half_approx(g);
  EXPECT_EQ(serial.cardinality, 0);
  for (Model m : {Model::kNsr, Model::kRma, Model::kNcl, Model::kMbp,
                  Model::kNsrAgg, Model::kRmaFence, Model::kNclNb,
                  Model::kNsrHier, Model::kNclPersist, Model::kRmaPart}) {
    const auto run = run_match(g, 5, m);
    EXPECT_EQ(run.matching.cardinality, 0) << model_name(m);
  }
}

TEST(EdgeCases, SingleVertexGraph) {
  const auto g = graph::Csr::from_edges(1, {});
  const auto run = run_match(g, 4, Model::kNcl);
  EXPECT_EQ(run.matching.mate[0], kNullVertex);
}

TEST(EdgeCases, TwoVerticesAcrossRankBoundary) {
  // Minimal cross-edge case: one edge whose endpoints live on different
  // ranks; the whole protocol reduces to a single REQUEST pair.
  const graph::Edge edges[] = {{0, 1, 2.5}};
  const auto g = graph::Csr::from_edges(2, edges);
  for (Model m : {Model::kNsr, Model::kRma, Model::kNcl, Model::kMbp,
                  Model::kNsrAgg, Model::kRmaFence, Model::kNclNb,
                  Model::kNsrHier, Model::kNclPersist, Model::kRmaPart}) {
    const auto run = run_match(g, 2, m);
    EXPECT_EQ(run.matching.mate[0], 1) << model_name(m);
    EXPECT_EQ(run.matching.mate[1], 0) << model_name(m);
  }
}

TEST(EdgeCases, CompleteBipartiteHeaviestPairing) {
  // K_{3,3} with weights w(i,j) = 10*(i+1) + (j+1): greedy pairs by
  // descending weight deterministically.
  std::vector<graph::Edge> edges;
  for (graph::VertexId i = 0; i < 3; ++i) {
    for (graph::VertexId j = 3; j < 6; ++j) {
      edges.push_back({i, j, 10.0 * (i + 1) + (j - 2)});
    }
  }
  const auto g = graph::Csr::from_edges(6, edges);
  const auto serial = serial_half_approx(g);
  EXPECT_EQ(serial.cardinality, 3);
  EXPECT_EQ(serial.mate[2], 5);  // heaviest edge (2,5) = 33
  EXPECT_EQ(serial.mate[1], 4);  // then (1,4) = 22
  EXPECT_EQ(serial.mate[0], 3);  // then (0,3) = 11
  const auto run = run_match(g, 3, Model::kRma);
  EXPECT_EQ(run.matching.mate, serial.mate);
}

TEST(EdgeCases, DuplicatedRunsShareNoState) {
  // Back-to-back runs on the same DistGraph must be independent.
  const auto g = gen::rmat(8, 8, 3);
  const graph::DistGraph dg(g, 8);
  const auto a = run_match(dg, Model::kNcl);
  const auto b = run_match(dg, Model::kNcl);
  EXPECT_EQ(a.matching.mate, b.matching.mate);
  EXPECT_EQ(a.time, b.time);
}

TEST(EdgeCases, StateBytesReported) {
  const auto g = gen::erdos_renyi(200, 1200, 3);
  const auto run = run_match(g, 4, Model::kNcl);
  for (int r = 0; r < 4; ++r) {
    EXPECT_GT(run.state_bytes[r], 0u);
  }
}

TEST(EdgeCases, WeightsAtNumericExtremes) {
  const graph::Edge edges[] = {{0, 1, 1e-300}, {1, 2, 1e300}, {2, 3, 1.0}};
  const auto g = graph::Csr::from_edges(4, edges);
  const auto serial = serial_half_approx(g);
  EXPECT_EQ(serial.mate[1], 2);  // 1e300 dominates
  EXPECT_EQ(serial.mate[0], kNullVertex);
  EXPECT_EQ(serial.mate[3], kNullVertex);
  const auto run = run_match(g, 4, Model::kNsr);
  EXPECT_EQ(run.matching.mate, serial.mate);
}

TEST(EdgeCases, IprobeCountersAdvance) {
  const auto g = gen::erdos_renyi(200, 1200, 3);
  const auto run = run_match(g, 4, Model::kNsr);
  EXPECT_GT(run.totals.iprobes, 0u);
  // NCL variants never probe.
  const auto ncl = run_match(g, 4, Model::kNcl);
  EXPECT_EQ(ncl.totals.iprobes, 0u);
}

TEST(EdgeCases, ExtensionBackendsReportDistinctPrimitives) {
  const auto g = gen::erdos_renyi(300, 2000, 3);
  const auto agg = run_match(g, 8, Model::kNsrAgg);
  EXPECT_GT(agg.totals.isends, 0u);
  EXPECT_LT(agg.totals.isends, run_match(g, 8, Model::kNsr).totals.isends);

  const auto fence = run_match(g, 8, Model::kRmaFence);
  EXPECT_GT(fence.totals.fences, 0u);
  EXPECT_GT(fence.totals.puts, 0u);
  EXPECT_EQ(fence.totals.flushes, 0u);

  const auto nb = run_match(g, 8, Model::kNclNb);
  EXPECT_GT(nb.totals.neighbor_colls, 0u);
  // One collective per round (no separate count exchange) vs NCL's two.
  const auto ncl = run_match(g, 8, Model::kNcl);
  EXPECT_LT(nb.totals.neighbor_colls, ncl.totals.neighbor_colls);
}

// The persistent neighborhood variant re-arms a prebuilt schedule instead
// of paying the full per-call collective entry: the matching must be
// bit-identical to NCL-NB's (same round structure, same record order) with
// a strictly smaller completion time.
TEST(EdgeCases, PersistentCollectiveMatchesNclNbFaster) {
  const auto g = gen::erdos_renyi(300, 2000, 3);
  const auto nb = run_match(g, 8, Model::kNclNb);
  const auto persist = run_match(g, 8, Model::kNclPersist);
  EXPECT_EQ(persist.matching.mate, nb.matching.mate);
  EXPECT_EQ(persist.matching.weight, nb.matching.weight);
  EXPECT_GT(persist.totals.neighbor_colls, 0u);
  EXPECT_LT(persist.time, nb.time);
}

// Partitioned puts publish progress through ordered count puts, not
// per-round collectives or flushes: only the three setup exchanges remain.
TEST(EdgeCases, PartitionedRmaAvoidsRoundCollectives) {
  const auto g = gen::erdos_renyi(300, 2000, 3);
  const auto part = run_match(g, 8, Model::kRmaPart);
  EXPECT_GT(part.totals.puts, 0u);
  EXPECT_EQ(part.totals.flushes, 0u);
  EXPECT_EQ(part.totals.fences, 0u);
  const auto rma = run_match(g, 8, Model::kRma);
  EXPECT_LT(part.totals.neighbor_colls, rma.totals.neighbor_colls);
  EXPECT_EQ(part.matching.weight, rma.matching.weight);
}

}  // namespace
}  // namespace mel::match
