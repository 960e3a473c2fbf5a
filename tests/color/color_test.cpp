#include "mel/color/color.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "mel/gen/generators.hpp"

namespace mel::color {
namespace {

using match::Model;

TEST(SerialColoring, ProperOnFamilies) {
  const Csr graphs[] = {
      gen::erdos_renyi(300, 1800, 2), gen::rmat(9, 8, 3),
      gen::path(100),                 gen::grid2d(10, 10),
      gen::chung_lu(300, 2000, 2.3, 4),
  };
  for (const auto& g : graphs) {
    const auto colors = serial_jp_coloring(g);
    EXPECT_TRUE(is_proper_coloring(g, colors));
    // Greedy bound: colors <= max degree + 1.
    EXPECT_LE(color_count(colors), g.max_degree() + 1);
  }
}

TEST(SerialColoring, PathIsNearlyTwoColorable) {
  const auto colors = serial_jp_coloring(gen::path(500));
  EXPECT_TRUE(is_proper_coloring(gen::path(500), colors));
  EXPECT_LE(color_count(colors), 3);  // random order can need 3 on a path
}

TEST(SerialColoring, CompleteGraphNeedsNColors) {
  std::vector<graph::Edge> edges;
  for (graph::VertexId u = 0; u < 8; ++u) {
    for (graph::VertexId v = u + 1; v < 8; ++v) edges.push_back({u, v, 1.0});
  }
  const auto g = graph::Csr::from_edges(8, edges);
  const auto colors = serial_jp_coloring(g);
  EXPECT_TRUE(is_proper_coloring(g, colors));
  EXPECT_EQ(color_count(colors), 8);
}

TEST(SerialColoring, EmptyGraphOneColor) {
  const auto g = graph::Csr::from_edges(5, {});
  const auto colors = serial_jp_coloring(g);
  EXPECT_TRUE(is_proper_coloring(g, colors));
  EXPECT_EQ(color_count(colors), 1);
}

TEST(Verify, DetectsImproperColoring) {
  const graph::Edge edges[] = {{0, 1, 1.0}};
  const auto g = graph::Csr::from_edges(2, edges);
  EXPECT_FALSE(is_proper_coloring(g, {0, 0}));
  EXPECT_FALSE(is_proper_coloring(g, {0, -1}));
  EXPECT_TRUE(is_proper_coloring(g, {0, 1}));
}

class ColorSweep : public ::testing::TestWithParam<std::tuple<Model, int>> {};

TEST_P(ColorSweep, MatchesSerialExactly) {
  const auto [model, p] = GetParam();
  for (const auto& g : {gen::erdos_renyi(240, 1400, 5), gen::rmat(8, 8, 11),
                        gen::grid2d(15, 16)}) {
    const auto serial = serial_jp_coloring(g);
    const auto run = run_coloring(g, p, model);
    EXPECT_EQ(run.colors, serial);
    EXPECT_TRUE(is_proper_coloring(g, run.colors));
    EXPECT_GT(run.rounds, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsByRanks, ColorSweep,
    ::testing::Combine(::testing::Values(Model::kNsr, Model::kNcl),
                       ::testing::Values(1, 3, 8, 16)),
    [](const ::testing::TestParamInfo<std::tuple<Model, int>>& info) {
      return std::string(match::model_name(std::get<0>(info.param))) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

// More ranks than vertices: most ranks own none, so their slice of the
// output is empty, yet they still take part in every exchange round and
// every reduction.
TEST(DistColoring, RanksWithoutVerticesMatchSerial) {
  const auto g = gen::grid2d(2, 3);
  const auto serial = serial_jp_coloring(g);
  for (const Model model : {Model::kNsr, Model::kNcl}) {
    for (const int p : {8, 16}) {
      for (const int threads : {1, 4}) {
        match::RunConfig cfg;
        cfg.threads = threads;
        const auto run = run_coloring(g, p, model, cfg);
        EXPECT_EQ(run.colors, serial)
            << match::model_name(model) << " p=" << p << " T=" << threads;
      }
    }
  }
}

TEST(DistColoring, RejectsUnsupportedModel) {
  EXPECT_THROW(run_coloring(gen::path(10), 2, Model::kRma),
               std::invalid_argument);
}

TEST(DistColoring, RejectsCrashSchedules) {
  match::RunConfig cfg;
  cfg.net.chaos.crashes.push_back({1, 1000});
  EXPECT_THROW(run_coloring(gen::path(10), 2, Model::kNsr, cfg),
               std::invalid_argument);
}

TEST(DistColoring, LossyWireRunsOnTheReliableTransport) {
  const auto g = gen::rmat(9, 8, 4);
  match::RunConfig cfg;
  cfg.net.chaos.loss = 0.05;
  cfg.net.chaos.corruption = 0.02;
  for (const Model m : {Model::kNsr, Model::kNcl}) {
    const auto run = run_coloring(g, 8, m, cfg);
    EXPECT_EQ(run.colors, serial_jp_coloring(g)) << match::model_name(m);
    EXPECT_GT(run.totals.retransmits, 0u) << match::model_name(m);
  }
}

TEST(DistColoring, RoundsGrowWithConflictChains) {
  // More ranks cut more cross edges, requiring more ghost-update rounds
  // than the single-rank case (which colors everything in one sweep).
  const auto g = gen::erdos_renyi(500, 4000, 9);
  const auto one = run_coloring(g, 1, Model::kNcl);
  const auto many = run_coloring(g, 16, Model::kNcl);
  EXPECT_EQ(one.colors, many.colors);
  EXPECT_LE(one.rounds, 2);
  EXPECT_GT(many.rounds, one.rounds);
}

// Determinism pin, same discipline as the matching table in
// tests/match/determinism_pin_test.cpp: the simulator (time, sequence)
// event-trace hash for both Jones-Plassmann backends x 3 seeds on
// rmat(8, 8), 8 ranks. Captured from the pre-mellint tree
// (std::unordered_map ghost table); the ordered map mellint R1 required,
// and the flat slot-indexed table and resumable sweep after it, change only
// host-side lookups and must be bit-identical. Re-capture with
// MEL_PIN_PRINT=1 only for an *intended* virtual-time change.
TEST(ColorDeterminismPin, TraceHashPerModelAndSeed) {
  struct Pin {
    Model model;
    std::uint64_t seed;
    std::uint64_t trace_hash;
    sim::Time time;
    std::int64_t rounds;
  };
  const Pin kPins[] = {
      {Model::kNsr, 1, 0x9e6d4030a4c15687ULL, 957627, 32},
      {Model::kNsr, 2, 0xdbcb8d42b7c5328dULL, 914845, 32},
      {Model::kNsr, 3, 0xf24c2822db2e0232ULL, 1075965, 35},
      {Model::kNcl, 1, 0x6fa37661d0eba729ULL, 1156085, 32},
      {Model::kNcl, 2, 0xb6196d983c9c06d5ULL, 1102808, 32},
      {Model::kNcl, 3, 0x1cb91b0ca7f723acULL, 1313671, 35},
  };
  const bool print = std::getenv("MEL_PIN_PRINT") != nullptr;
  for (const Pin& pin : kPins) {
    const auto g = gen::rmat(8, 8, pin.seed);
    const auto r = run_coloring(g, 8, pin.model, {});
    if (print) {
      std::printf("      {Model::%s, %llu, 0x%016llxULL, %lld, %lld},\n",
                  pin.model == Model::kNsr ? "kNsr" : "kNcl",
                  static_cast<unsigned long long>(pin.seed),
                  static_cast<unsigned long long>(r.trace_hash),
                  static_cast<long long>(r.time),
                  static_cast<long long>(r.rounds));
      continue;
    }
    EXPECT_EQ(r.trace_hash, pin.trace_hash)
        << "model " << static_cast<int>(pin.model) << " seed " << pin.seed;
    EXPECT_EQ(r.time, pin.time) << "seed " << pin.seed;
    EXPECT_EQ(r.rounds, pin.rounds) << "seed " << pin.seed;
    // Coloring runs on the matcher's machine set-up, so the sharded engine
    // must reproduce the pin too.
    match::RunConfig sharded;
    sharded.threads = 4;
    const auto t4 = run_coloring(g, 8, pin.model, sharded);
    EXPECT_EQ(t4.trace_hash, pin.trace_hash) << "threads 4, seed " << pin.seed;
    EXPECT_EQ(t4.time, pin.time) << "threads 4, seed " << pin.seed;
  }
}

// Two runs that expose how the sweep charges its work. rmat(12, 8, 2) at
// 16 ranks has hubs that stay uncolored, and are rescanned, for over a
// hundred rounds. With stragglers, perturb_compute rounds every compute()
// call on its own, so virtual time depends on the exact number and size of
// the calls, and the summed compute_ns pins both. Re-capture with
// MEL_PIN_PRINT=1 only for an *intended* virtual-time change.
TEST(ColorDeterminismPin, DeepRescansAndStragglers) {
  struct Pin {
    const char* label;
    Model model;
    int scale;
    int ranks;
    int stragglers;
    std::uint64_t trace_hash;
    sim::Time time;
    std::int64_t rounds;
    sim::Time compute_ns;
  };
  const Pin kPins[] = {
      {"hubs", Model::kNsr, 12, 16, 0, 0xe6d1aa8d836cd219ULL, 21142896, 112,
       167142780},
      {"stragglers", Model::kNcl, 9, 8, 2, 0x2ae13dc2c3b4679cULL, 2706117, 41,
       7398972},
  };
  const bool print = std::getenv("MEL_PIN_PRINT") != nullptr;
  for (const Pin& pin : kPins) {
    const auto g = gen::rmat(pin.scale, 8, 2);
    match::RunConfig cfg;
    cfg.net.chaos.stragglers = pin.stragglers;
    cfg.net.chaos.straggler_slowdown = 1.7;
    const auto r = run_coloring(g, pin.ranks, pin.model, cfg);
    EXPECT_EQ(r.colors, serial_jp_coloring(g)) << pin.label;
    if (print) {
      std::printf("      {\"%s\", Model::%s, %d, %d, %d, 0x%016llxULL, %lld, "
                  "%lld, %lld},\n",
                  pin.label, pin.model == Model::kNsr ? "kNsr" : "kNcl",
                  pin.scale, pin.ranks, pin.stragglers,
                  static_cast<unsigned long long>(r.trace_hash),
                  static_cast<long long>(r.time),
                  static_cast<long long>(r.rounds),
                  static_cast<long long>(r.totals.compute_ns));
      continue;
    }
    EXPECT_EQ(r.trace_hash, pin.trace_hash) << pin.label;
    EXPECT_EQ(r.time, pin.time) << pin.label;
    EXPECT_EQ(r.rounds, pin.rounds) << pin.label;
    EXPECT_EQ(r.totals.compute_ns, pin.compute_ns) << pin.label;
    cfg.threads = 4;
    const auto t4 = run_coloring(g, pin.ranks, pin.model, cfg);
    EXPECT_EQ(t4.trace_hash, pin.trace_hash) << "threads 4, " << pin.label;
    EXPECT_EQ(t4.time, pin.time) << "threads 4, " << pin.label;
    EXPECT_EQ(t4.totals.compute_ns, pin.compute_ns)
        << "threads 4, " << pin.label;
  }
}

}  // namespace
}  // namespace mel::color
