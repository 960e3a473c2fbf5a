#include "mel/bfs/bfs.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "mel/gen/generators.hpp"
#include "mel/obs/recorder.hpp"

namespace mel::bfs {
namespace {

using match::Model;

TEST(SerialBfs, PathDistances) {
  const auto g = gen::path(6);
  const auto d = serial_bfs(g, 0);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
}

TEST(SerialBfs, UnreachableIsMinusOne) {
  const auto g = gen::grid_of_grids(200, 4, 8, 3);
  const auto d = serial_bfs(g, 0);
  bool any_unreachable = false;
  for (auto x : d) any_unreachable |= (x < 0);
  EXPECT_TRUE(any_unreachable);  // multiple components
}

TEST(SerialBfs, BadRootGivesAllUnreachable) {
  const auto g = gen::path(4);
  const auto d = serial_bfs(g, 99);
  for (auto x : d) EXPECT_EQ(x, -1);
}

class BfsSweep : public ::testing::TestWithParam<std::tuple<Model, int>> {};

TEST_P(BfsSweep, MatchesSerialOnRmat) {
  const auto [model, p] = GetParam();
  const auto g = gen::rmat(9, 8, 5);
  const auto serial = serial_bfs(g, 0);
  const auto run = run_bfs(g, p, 0, model);
  EXPECT_EQ(run.dist, serial);
  EXPECT_GT(run.levels, 0);
}

TEST_P(BfsSweep, MatchesSerialOnGrid) {
  const auto [model, p] = GetParam();
  const auto g = gen::grid2d(17, 19);
  const auto serial = serial_bfs(g, 5);
  const auto run = run_bfs(g, p, 5, model);
  EXPECT_EQ(run.dist, serial);
}

TEST_P(BfsSweep, MatchesSerialOnDisconnected) {
  const auto [model, p] = GetParam();
  const auto g = gen::grid_of_grids(300, 3, 9, 7);
  const auto serial = serial_bfs(g, 1);
  const auto run = run_bfs(g, p, 1, model);
  EXPECT_EQ(run.dist, serial);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsByRanks, BfsSweep,
    ::testing::Combine(::testing::Values(Model::kNsr, Model::kNcl),
                       ::testing::Values(1, 2, 5, 8)),
    [](const ::testing::TestParamInfo<std::tuple<Model, int>>& info) {
      return std::string(match::model_name(std::get<0>(info.param))) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

// More ranks than vertices: most ranks own none, so their slice of the
// output is empty, yet they still take part in every exchange round and
// every reduction.
TEST(Bfs, RanksWithoutVerticesMatchSerial) {
  const auto g = gen::grid2d(2, 3);
  const auto serial = serial_bfs(g, 0);
  for (const Model model : {Model::kNsr, Model::kNcl}) {
    for (const int p : {8, 16}) {
      for (const int threads : {1, 4}) {
        match::RunConfig cfg;
        cfg.threads = threads;
        const auto run = run_bfs(g, p, 0, model, cfg);
        EXPECT_EQ(run.dist, serial)
            << match::model_name(model) << " p=" << p << " T=" << threads;
        EXPECT_EQ(run.levels, 4);  // eccentricity 3, plus the empty level
      }
    }
  }
}

TEST(Bfs, RejectsUnsupportedModel) {
  const auto g = gen::path(10);
  EXPECT_THROW(run_bfs(g, 2, 0, Model::kRma), std::invalid_argument);
}

TEST(Bfs, RejectsCrashSchedules) {
  match::RunConfig cfg;
  cfg.net.chaos.crashes.push_back({1, 1000});
  EXPECT_THROW(run_bfs(gen::path(10), 2, 0, Model::kNsr, cfg),
               std::invalid_argument);
}

TEST(Bfs, LossyWireRunsOnTheReliableTransport) {
  const auto g = gen::rmat(9, 8, 4);
  match::RunConfig cfg;
  cfg.net.chaos.loss = 0.05;
  cfg.net.chaos.duplication = 0.02;
  for (const Model m : {Model::kNsr, Model::kNcl}) {
    const auto run = run_bfs(g, 8, 0, m, cfg);
    EXPECT_EQ(run.dist, serial_bfs(g, 0)) << match::model_name(m);
    EXPECT_GT(run.totals.retransmits, 0u) << match::model_name(m);
  }
}

TEST(Bfs, TracingRecordsTheRunWithoutChangingIt) {
  const auto g = gen::rmat(8, 8, 1);
  obs::Recorder rec;
  match::RunConfig cfg;
  cfg.tracer = &rec;
  const auto traced = run_bfs(g, 8, 0, Model::kNsr, cfg);
  const auto plain = run_bfs(g, 8, 0, Model::kNsr);
  EXPECT_EQ(traced.trace_hash, plain.trace_hash);
  EXPECT_EQ(traced.time, plain.time);
  EXPECT_FALSE(rec.flows().empty());
  // One iteration record per rank per level.
  EXPECT_EQ(rec.iterations().size(), static_cast<std::size_t>(8 * traced.levels));
}

TEST(Bfs, CommPatternDiffersFromMatching) {
  // Fig 2/11 rationale: BFS communicates in level-synchronized bursts; its
  // message count is far below matching's on the same graph (matching
  // negotiates per edge).
  const auto g = gen::rmat(10, 8, 7);
  match::RunConfig cfg;
  cfg.collect_matrix = true;
  const auto bfs_run = run_bfs(g, 8, 0, Model::kNsr, cfg);
  const auto match_run = match::run_match(g, 8, Model::kNsr, cfg);
  ASSERT_NE(bfs_run.matrix, nullptr);
  ASSERT_NE(match_run.matrix, nullptr);
  EXPECT_GT(bfs_run.matrix->total_msgs(), 0u);
  EXPECT_GT(match_run.matrix->total_msgs(), 0u);
}

// Determinism pin, same discipline as the matching table in
// tests/match/determinism_pin_test.cpp: the simulator (time, sequence)
// event-trace hash for both BFS backends x 3 seeds on rmat(8, 8), 8
// ranks, root 0. Captured from the pre-mellint tree (std::unordered_set
// frontier dedup); the ordered-set replacement required by mellint R1 is
// membership-only and must be bit-identical. Re-capture with
// MEL_PIN_PRINT=1 only for an *intended* virtual-time change.
TEST(BfsDeterminismPin, TraceHashPerModelAndSeed) {
  struct Pin {
    Model model;
    std::uint64_t seed;
    std::uint64_t trace_hash;
    sim::Time time;
    std::int64_t levels;
  };
  const Pin kPins[] = {
      {Model::kNsr, 1, 0x4c6bc918212bf62fULL, 220858, 5},
      {Model::kNsr, 2, 0x14ce7a8ea5a7f89dULL, 209158, 5},
      {Model::kNsr, 3, 0x40c6064d5a4e2f71ULL, 216477, 5},
      {Model::kNcl, 1, 0xe9a4048fc994bfa5ULL, 121064, 5},
      {Model::kNcl, 2, 0xdc67722d29151353ULL, 117168, 5},
      {Model::kNcl, 3, 0xc1b791ecfca6eaa4ULL, 121555, 5},
  };
  const bool print = std::getenv("MEL_PIN_PRINT") != nullptr;
  for (const Pin& pin : kPins) {
    const auto g = gen::rmat(8, 8, pin.seed);
    const auto r = run_bfs(g, 8, 0, pin.model, {});
    if (print) {
      std::printf("      {Model::%s, %llu, 0x%016llxULL, %lld, %lld},\n",
                  pin.model == Model::kNsr ? "kNsr" : "kNcl",
                  static_cast<unsigned long long>(pin.seed),
                  static_cast<unsigned long long>(r.trace_hash),
                  static_cast<long long>(r.time),
                  static_cast<long long>(r.levels));
      continue;
    }
    EXPECT_EQ(r.trace_hash, pin.trace_hash)
        << "model " << static_cast<int>(pin.model) << " seed " << pin.seed;
    EXPECT_EQ(r.time, pin.time) << "seed " << pin.seed;
    EXPECT_EQ(r.levels, pin.levels) << "seed " << pin.seed;
    // BFS runs on the matcher's machine set-up, so the sharded engine must
    // reproduce the pin too.
    match::RunConfig sharded;
    sharded.threads = 4;
    const auto t4 = run_bfs(g, 8, 0, pin.model, sharded);
    EXPECT_EQ(t4.trace_hash, pin.trace_hash) << "threads 4, seed " << pin.seed;
    EXPECT_EQ(t4.time, pin.time) << "threads 4, seed " << pin.seed;
  }
}

}  // namespace
}  // namespace mel::bfs
