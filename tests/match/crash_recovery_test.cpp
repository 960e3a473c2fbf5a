// Rank-crash recovery (ISSUE acceptance): a fail-stop crash mid-run either
// shrink-and-continues ULFM-style (survivors keep their live state, no
// rollback) or rolls back to the last checkpoint, invalidates matches
// incident to the dead rank, re-matches the surviving subgraph, and the
// final matching is valid and maximal on the subgraph induced by surviving
// ranks' vertices.
#include <gtest/gtest.h>

#include <vector>

#include "mel/gen/generators.hpp"
#include "mel/match/driver.hpp"
#include "mel/match/verify.hpp"

namespace mel::match {
namespace {

constexpr int kRanks = 6;

/// Matching validity restricted to survivors: no vertex owned by a failed
/// rank is matched, and no edge between two surviving unmatched endpoints
/// with positive weight remains (maximality on the surviving subgraph).
void expect_valid_on_survivors(const graph::Csr& g,
                               const graph::Distribution& dist,
                               const std::vector<VertexId>& mate,
                               const std::vector<Rank>& failed) {
  std::vector<char> dead_rank(static_cast<std::size_t>(kRanks), 0);
  for (const Rank r : failed) dead_rank[static_cast<std::size_t>(r)] = 1;
  auto dead = [&](VertexId v) {
    return dead_rank[static_cast<std::size_t>(dist.owner(v))] != 0;
  };
  ASSERT_TRUE(is_valid_matching(g, mate));
  for (VertexId v = 0; v < g.nverts(); ++v) {
    if (dead(v)) {
      EXPECT_EQ(mate[v], kNullVertex) << "dead-rank vertex " << v << " matched";
    }
  }
  for (VertexId v = 0; v < g.nverts(); ++v) {
    if (dead(v) || mate[v] != kNullVertex) continue;
    for (const auto& a : g.neighbors(v)) {
      if (a.w <= 0 || dead(a.to)) continue;
      EXPECT_NE(mate[a.to], kNullVertex)
          << "edge (" << v << "," << a.to << ") joins two unmatched survivors";
    }
  }
}

TEST(CrashRecovery, MidRunCrashRollsBackAndRematches) {
  const auto g = gen::erdos_renyi(600, 3600, 17);
  const graph::DistGraph dg(g, kRanks);
  for (const Model m : {Model::kNsr, Model::kNcl}) {
    const auto clean = run_match(g, kRanks, m);
    RunConfig cfg;
    cfg.net.chaos.crashes.push_back({/*rank=*/2, /*at=*/clean.time / 2});
    cfg.ft.checkpoint_ns = clean.time / 10;
    const auto run = run_match(g, kRanks, m, cfg);
    EXPECT_EQ(run.failed_ranks, std::vector<Rank>{2}) << model_name(m);
    EXPECT_EQ(run.recoveries, 1) << model_name(m);
    expect_valid_on_survivors(g, dg.dist(), run.matching.mate,
                              run.failed_ranks);
    // The recovered matching can only lose weight relative to fault-free
    // (a whole rank's vertices left the graph), never gain.
    EXPECT_LE(run.matching.weight, clean.matching.weight) << model_name(m);
    EXPECT_GT(run.matching.cardinality, 0) << model_name(m);
  }
}

TEST(CrashRecovery, CrashRunsAreReproducible) {
  const auto g = gen::erdos_renyi(600, 3600, 17);
  const auto clean = run_match(g, kRanks, Model::kNsr);
  RunConfig cfg;
  cfg.net.chaos.crashes.push_back({2, clean.time / 2});
  cfg.ft.checkpoint_ns = clean.time / 10;
  const auto a = run_match(g, kRanks, Model::kNsr, cfg);
  const auto b = run_match(g, kRanks, Model::kNsr, cfg);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.matching.mate, b.matching.mate);
  EXPECT_EQ(a.matching.weight, b.matching.weight);
}

TEST(CrashRecovery, TwoRankCrashShrinksAndContinuesWithoutRollback) {
  // The headline ULFM path: two ranks die mid-run, survivors agree on the
  // failed set, keep their live (mutually-recorded) pairs, and resume on
  // the induced surviving subgraph — recoveries == shrinks means no
  // attempt fell back to checkpoint rollback.
  const auto g = gen::erdos_renyi(600, 3600, 17);
  const graph::DistGraph dg(g, kRanks);
  for (const Model m : {Model::kNsr, Model::kRma, Model::kNcl}) {
    const auto clean = run_match(g, kRanks, m);
    RunConfig cfg;
    cfg.net.chaos.crashes.push_back({/*rank=*/1, /*at=*/clean.time / 3});
    cfg.net.chaos.crashes.push_back({/*rank=*/4, /*at=*/clean.time / 3 + 500});
    const auto run = run_match(g, kRanks, m, cfg);
    EXPECT_EQ(run.failed_ranks, (std::vector<Rank>{1, 4})) << model_name(m);
    EXPECT_GE(run.recoveries, 1) << model_name(m);
    EXPECT_EQ(run.shrinks, run.recoveries)
        << model_name(m) << ": some recovery fell back to rollback";
    expect_valid_on_survivors(g, dg.dist(), run.matching.mate,
                              run.failed_ranks);
    EXPECT_LE(run.matching.weight, clean.matching.weight) << model_name(m);
    EXPECT_GT(run.matching.cardinality, 0) << model_name(m);
  }
}

TEST(CrashRecovery, ShrinkRunsAreDeterministic) {
  const auto g = gen::erdos_renyi(600, 3600, 17);
  const auto clean = run_match(g, kRanks, Model::kNsr);
  RunConfig cfg;
  cfg.net.chaos.crashes.push_back({1, clean.time / 3});
  cfg.net.chaos.crashes.push_back({4, clean.time / 3 + 500});
  const auto a = run_match(g, kRanks, Model::kNsr, cfg);
  const auto b = run_match(g, kRanks, Model::kNsr, cfg);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.matching.mate, b.matching.mate);
  EXPECT_EQ(a.shrinks, b.shrinks);
}

TEST(CrashRecovery, CrashBeforeFirstCheckpointStillRecovers) {
  // Regression: a crash that lands before the first periodic checkpoint
  // fires must not strand recovery. Shrink works off live survivor state;
  // rollback finds no checkpoint and re-matches the surviving subgraph
  // from scratch. Both must produce a valid, maximal matching.
  const auto g = gen::erdos_renyi(600, 3600, 17);
  const graph::DistGraph dg(g, kRanks);
  const auto clean = run_match(g, kRanks, Model::kNsr);
  for (const ft::Recovery rec : {ft::Recovery::kShrink,
                                 ft::Recovery::kRollback}) {
    RunConfig cfg;
    // Checkpoint interval longer than the crash time: zero checkpoints
    // have been taken when rank 2 dies.
    cfg.ft.checkpoint_ns = clean.time;
    cfg.ft.recovery = rec;
    cfg.net.chaos.crashes.push_back({2, clean.time / 4});
    const auto run = run_match(g, kRanks, Model::kNsr, cfg);
    EXPECT_EQ(run.failed_ranks, std::vector<Rank>{2});
    EXPECT_EQ(run.recoveries, 1);
    EXPECT_EQ(run.shrinks, rec == ft::Recovery::kShrink ? 1 : 0);
    expect_valid_on_survivors(g, dg.dist(), run.matching.mate,
                              run.failed_ranks);
  }
}

TEST(CrashRecovery, RollbackRecoveryStillSelectable) {
  // The PR 2 checkpoint path stays reachable behind --ft-recovery
  // rollback and reports shrinks == 0.
  const auto g = gen::erdos_renyi(600, 3600, 17);
  const graph::DistGraph dg(g, kRanks);
  const auto clean = run_match(g, kRanks, Model::kNsr);
  RunConfig cfg;
  cfg.ft.recovery = ft::Recovery::kRollback;
  cfg.ft.checkpoint_ns = clean.time / 10;
  cfg.net.chaos.crashes.push_back({2, clean.time / 2});
  const auto run = run_match(g, kRanks, Model::kNsr, cfg);
  EXPECT_EQ(run.failed_ranks, std::vector<Rank>{2});
  EXPECT_EQ(run.recoveries, 1);
  EXPECT_EQ(run.shrinks, 0);
  expect_valid_on_survivors(g, dg.dist(), run.matching.mate, run.failed_ranks);
}

TEST(CrashRecovery, CrashScheduledPastCompletionIsANoop) {
  const auto g = gen::erdos_renyi(600, 3600, 17);
  const auto clean = run_match(g, kRanks, Model::kNsr);
  RunConfig cfg;
  cfg.net.chaos.crashes.push_back({2, clean.time * 4});
  cfg.ft.checkpoint_ns = clean.time / 10;
  const auto run = run_match(g, kRanks, Model::kNsr, cfg);
  EXPECT_TRUE(run.failed_ranks.empty());
  EXPECT_EQ(run.recoveries, 0);
  EXPECT_DOUBLE_EQ(run.matching.weight, clean.matching.weight);
}

TEST(CrashRecovery, RecoveryWorksWithoutAnyCheckpoint) {
  // checkpoint_ns = 0: nothing durable, so recovery re-matches the whole
  // surviving subgraph from scratch — slower, still correct.
  const auto g = gen::erdos_renyi(600, 3600, 17);
  const graph::DistGraph dg(g, kRanks);
  const auto clean = run_match(g, kRanks, Model::kNsr);
  RunConfig cfg;
  cfg.net.chaos.crashes.push_back({2, clean.time / 2});
  const auto run = run_match(g, kRanks, Model::kNsr, cfg);
  EXPECT_EQ(run.failed_ranks, std::vector<Rank>{2});
  EXPECT_EQ(run.recoveries, 1);
  expect_valid_on_survivors(g, dg.dist(), run.matching.mate, run.failed_ranks);
}

TEST(CrashRecovery, CrashesUnderWireFaultsStillRecover) {
  const auto g = gen::erdos_renyi(600, 3600, 17);
  const graph::DistGraph dg(g, kRanks);
  const auto clean = run_match(g, kRanks, Model::kNsr);
  RunConfig cfg;
  cfg.net.chaos.seed = 31;
  cfg.net.chaos.loss = 0.05;
  cfg.net.chaos.duplication = 0.02;
  cfg.net.chaos.crashes.push_back({2, clean.time / 2});
  cfg.ft.checkpoint_ns = clean.time / 10;
  const auto run = run_match(g, kRanks, Model::kNsr, cfg);
  EXPECT_EQ(run.failed_ranks, std::vector<Rank>{2});
  expect_valid_on_survivors(g, dg.dist(), run.matching.mate, run.failed_ranks);
}

TEST(CrashRecovery, DistGraphOverloadRejectsScheduledCrashes) {
  // Recovery needs the global graph to rebuild the surviving subgraph;
  // the prebuilt-distribution overload refuses with a named error.
  const auto g = gen::erdos_renyi(200, 1200, 3);
  const graph::DistGraph dg(g, 4);
  RunConfig cfg;
  cfg.net.chaos.crashes.push_back({1, 1000});
  EXPECT_THROW(run_match(dg, Model::kNsr, cfg), std::invalid_argument);
}

TEST(CrashRecovery, FtParamsAreValidated) {
  const auto g = gen::erdos_renyi(100, 500, 3);
  auto expect_rejected = [&](auto mutate) {
    RunConfig cfg;
    mutate(cfg.ft);
    EXPECT_THROW(run_match(g, 4, Model::kNsr, cfg), std::invalid_argument);
  };
  expect_rejected([](ft::Params& p) { p.retry_max = -1; });
  expect_rejected([](ft::Params& p) { p.retry_max = 65; });
  expect_rejected([](ft::Params& p) { p.checkpoint_ns = -1; });
}

}  // namespace
}  // namespace mel::match
