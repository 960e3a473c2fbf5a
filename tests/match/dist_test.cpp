// Distributed matching correctness: every communication backend must
// reproduce the serial locally-dominant matching exactly (the edge order
// is strict, so the matching is unique).
#include <gtest/gtest.h>

#include <tuple>

#include "mel/gen/generators.hpp"
#include "mel/match/driver.hpp"
#include "mel/match/verify.hpp"
#include "mel/order/rcm.hpp"

namespace mel::match {
namespace {

using gen::erdos_renyi;
using graph::Csr;

void expect_matches_serial(const Csr& g, int p, Model model) {
  const auto serial = serial_half_approx(g);
  const auto run = run_match(g, p, model);
  EXPECT_TRUE(is_valid_matching(g, run.matching.mate))
      << model_name(model) << " p=" << p;
  EXPECT_EQ(run.matching.mate, serial.mate)
      << model_name(model) << " p=" << p << ": distributed matching differs";
  EXPECT_NEAR(run.matching.weight, serial.weight, 1e-9);
  EXPECT_EQ(run.matching.cardinality, serial.cardinality);
  EXPECT_GT(run.time, 0);
}

// ---------------------------------------------------------------------------
// Parameterized sweep: (model, nranks) over several graph families.
// ---------------------------------------------------------------------------

class BackendSweep
    : public ::testing::TestWithParam<std::tuple<Model, int>> {};

TEST_P(BackendSweep, ErdosRenyiMatchesSerial) {
  const auto [model, p] = GetParam();
  expect_matches_serial(erdos_renyi(240, 1400, 5), p, model);
}

TEST_P(BackendSweep, RmatMatchesSerial) {
  const auto [model, p] = GetParam();
  expect_matches_serial(gen::rmat(8, 8, 11), p, model);
}

TEST_P(BackendSweep, RggMatchesSerial) {
  const auto [model, p] = GetParam();
  expect_matches_serial(
      gen::random_geometric(400, gen::rgg_radius_for_degree(400, 10.0), 3), p,
      model);
}

TEST_P(BackendSweep, PowerLawMatchesSerial) {
  const auto [model, p] = GetParam();
  expect_matches_serial(gen::chung_lu(300, 1800, 2.3, 7), p, model);
}

TEST_P(BackendSweep, EqualWeightGridMatchesSerial) {
  const auto [model, p] = GetParam();
  expect_matches_serial(gen::grid2d(15, 16), p, model);
}

TEST_P(BackendSweep, EqualWeightPathMatchesSerial) {
  const auto [model, p] = GetParam();
  expect_matches_serial(gen::path(257), p, model);
}

TEST_P(BackendSweep, DisconnectedComponentsMatchSerial) {
  const auto [model, p] = GetParam();
  expect_matches_serial(gen::grid_of_grids(400, 3, 9, 13), p, model);
}

TEST_P(BackendSweep, NegativeWeightsExerciseInvalid) {
  const auto [model, p] = GetParam();
  // Mix of positive and non-positive weights: non-positive edges must
  // never match, and the INVALID context must clean them up.
  auto edges = erdos_renyi(200, 900, 17).to_edges();
  util::Xoshiro256 rng(23);
  for (auto& e : edges) {
    if (rng.next_bool(0.4)) e.w = -e.w;
  }
  const auto g = Csr::from_edges(200, edges);
  expect_matches_serial(g, p, model);
}

TEST_P(BackendSweep, SignedZeroAndEqualWeightsMatchSerial) {
  const auto [model, p] = GetParam();
  // +0.0 and -0.0 compare equal and so do repeated weights: EdgeKey breaks
  // both ties by the endpoint hash, and every backend's per-row order must
  // tie them exactly the same way, not by the weights' bit patterns.
  const double kWeights[] = {0.0, -0.0, 1.0, 1.0, 2.0};
  auto edges = erdos_renyi(240, 1400, 31).to_edges();
  util::Xoshiro256 rng(37);
  for (auto& e : edges) e.w = kWeights[rng.next_below(5)];
  expect_matches_serial(Csr::from_edges(240, edges), p, model);
}

TEST_P(BackendSweep, BarabasiAlbertMatchesSerial) {
  const auto [model, p] = GetParam();
  expect_matches_serial(gen::barabasi_albert(300, 4, 19), p, model);
}

TEST_P(BackendSweep, WattsStrogatzMatchesSerial) {
  const auto [model, p] = GetParam();
  expect_matches_serial(gen::watts_strogatz(300, 6, 0.1, 23), p, model);
}

TEST_P(BackendSweep, EdgeBalancedPartitionMatchesSerial) {
  const auto [model, p] = GetParam();
  const auto g = gen::chung_lu(300, 2400, 2.2, 29);
  const graph::DistGraph dg(g, graph::edge_balanced_partition(g, p));
  const auto serial = serial_half_approx(g);
  auto run = run_match(dg, model);
  EXPECT_EQ(run.matching.mate, serial.mate)
      << model_name(model) << " p=" << p;
}

TEST_P(BackendSweep, EmptyEdgeGraph) {
  const auto [model, p] = GetParam();
  const auto g = Csr::from_edges(64, {});
  const auto run = run_match(g, p, model);
  EXPECT_EQ(run.matching.cardinality, 0);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsByRanks, BackendSweep,
    ::testing::Combine(::testing::Values(Model::kNsr, Model::kRma,
                                         Model::kNcl, Model::kMbp,
                                         Model::kNsrAgg, Model::kRmaFence,
                                         Model::kNclNb, Model::kNsrHier,
                                         Model::kNclPersist, Model::kRmaPart),
                       ::testing::Values(1, 2, 3, 7, 16)),
    [](const ::testing::TestParamInfo<std::tuple<Model, int>>& info) {
      std::string name = model_name(std::get<0>(info.param));
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_p" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Targeted behaviours
// ---------------------------------------------------------------------------

TEST(DistMatch, DeterministicAcrossRuns) {
  const auto g = gen::rmat(9, 8, 3);
  const auto a = run_match(g, 8, Model::kNcl);
  const auto b = run_match(g, 8, Model::kNcl);
  EXPECT_EQ(a.matching.mate, b.matching.mate);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST(DistMatch, ReorderedGraphStillMatchesItsSerial) {
  const auto g = gen::banded(600, 10, 40, 5);
  const auto r = g.permuted(order::rcm(g));
  for (Model m : {Model::kNsr, Model::kRma, Model::kNcl}) {
    expect_matches_serial(r, 8, m);
  }
}

TEST(DistMatch, CountersPopulated) {
  const auto g = erdos_renyi(300, 2000, 9);
  const auto nsr = run_match(g, 8, Model::kNsr);
  EXPECT_GT(nsr.totals.isends, 0u);
  EXPECT_EQ(nsr.totals.puts, 0u);
  EXPECT_EQ(nsr.totals.neighbor_colls, 0u);

  const auto rma = run_match(g, 8, Model::kRma);
  EXPECT_GT(rma.totals.puts, 0u);
  EXPECT_EQ(rma.totals.isends, 0u);
  EXPECT_GT(rma.totals.flushes, 0u);
  EXPECT_GT(rma.totals.neighbor_colls, 0u);  // count exchange
  EXPECT_GT(rma.totals.allreduces, 0u);      // global exit criterion

  const auto ncl = run_match(g, 8, Model::kNcl);
  EXPECT_EQ(ncl.totals.puts, 0u);
  EXPECT_EQ(ncl.totals.isends, 0u);
  EXPECT_GT(ncl.totals.neighbor_colls, 0u);
  EXPECT_GT(ncl.totals.allreduces, 0u);
}

TEST(DistMatch, NsrNeedsNoGlobalReduction) {
  // The paper: a local summation suffices for Send-Recv exit.
  const auto g = erdos_renyi(300, 2000, 9);
  const auto nsr = run_match(g, 8, Model::kNsr);
  EXPECT_EQ(nsr.totals.allreduces, 0u);
  EXPECT_EQ(nsr.totals.barriers, 0u);
}

TEST(DistMatch, MessageBoundTwicePerGhostEdge) {
  // Paper §IV-B: per side, at most 2 messages per ghost edge; our protocol
  // sends at most 1 per directed edge. Check against the distribution.
  const auto g = erdos_renyi(400, 2600, 21);
  const graph::DistGraph dg(g, 8);
  std::int64_t total_ghosts = 0;
  for (int r = 0; r < 8; ++r) total_ghosts += dg.local(r).total_ghost_edges;
  const auto nsr = run_match(g, 8, Model::kNsr);
  EXPECT_LE(nsr.totals.isends, static_cast<std::uint64_t>(2 * total_ghosts));
  EXPECT_GT(nsr.totals.isends, 0u);
}

TEST(DistMatch, SingleRankNeedsNoMessages) {
  const auto g = erdos_renyi(200, 1000, 2);
  const auto run = run_match(g, 1, Model::kNsr);
  EXPECT_EQ(run.totals.isends, 0u);
  const auto serial = serial_half_approx(g);
  EXPECT_EQ(run.matching.mate, serial.mate);
}

TEST(DistMatch, MatrixCollectedOnDemand) {
  const auto g = erdos_renyi(300, 2000, 9);
  RunConfig cfg;
  cfg.collect_matrix = true;
  const auto run = run_match(g, 4, Model::kNsr, cfg);
  ASSERT_NE(run.matrix, nullptr);
  EXPECT_GT(run.matrix->total_msgs(), 0u);
  // Diagonal should be empty: no self messages in matching.
  for (int r = 0; r < 4; ++r) EXPECT_EQ(run.matrix->msgs(r, r), 0u);
}

TEST(DistMatch, NoMatrixUnlessRequested) {
  const auto g = erdos_renyi(300, 2000, 9);
  const auto run = run_match(g, 4, Model::kNsr);
  EXPECT_EQ(run.matrix, nullptr);
  EXPECT_GT(run.totals.isends, 0u);
}

TEST(DistMatch, RmaWindowSizedByGhosts) {
  const auto g = erdos_renyi(300, 2000, 9);
  const graph::DistGraph dg(g, 4);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(rma_window_bytes(dg.local(r)),
              static_cast<std::size_t>(2 * dg.local(r).total_ghost_edges) *
                  sizeof(WireMsg));
  }
}

TEST(DistMatch, IterationsReported) {
  const auto g = erdos_renyi(300, 2000, 9);
  const auto ncl = run_match(g, 8, Model::kNcl);
  EXPECT_GT(ncl.iterations, 0u);
  EXPECT_LT(ncl.iterations, 1000u);
}

TEST(DistMatch, MbpSlowerThanNsr) {
  // The surcharge model must actually cost something.
  const auto g = gen::chung_lu(2000, 16000, 2.3, 3);
  const auto nsr = run_match(g, 8, Model::kNsr);
  const auto mbp = run_match(g, 8, Model::kMbp);
  EXPECT_EQ(nsr.matching.mate, mbp.matching.mate);
  EXPECT_GT(mbp.time, nsr.time);
}

TEST(DistMatch, MoreRanksThanVertices) {
  const auto g = erdos_renyi(10, 30, 4);
  for (Model m : {Model::kNsr, Model::kRma, Model::kNcl}) {
    expect_matches_serial(g, 16, m);
  }
}

}  // namespace
}  // namespace mel::match
