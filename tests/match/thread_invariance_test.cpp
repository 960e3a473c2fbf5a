// Thread-count invariance: the sharded discrete-event engine must produce
// byte-identical results to the sequential engine for every backend —
// same (time, sequence) trace hash, same matched weight, same virtual
// time, same event count, and byte-identical metrics/trace artifacts.
// This is the end-to-end guarantee the determinism pins rely on when CI
// re-runs them with MEL_THREADS=4.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mel/bfs/bfs.hpp"
#include "mel/chaos/chaos.hpp"
#include "mel/color/color.hpp"
#include "mel/gen/generators.hpp"
#include "mel/match/driver.hpp"
#include "mel/obs/recorder.hpp"

namespace {

using namespace mel;

constexpr int kScale = 8;  // 256 vertices
constexpr int kEdgeFactor = 8;
constexpr int kRanks = 8;

constexpr match::Model kModels[] = {
    match::Model::kNsr,       match::Model::kRma,
    match::Model::kNcl,       match::Model::kMbp,
    match::Model::kNsrAgg,    match::Model::kRmaFence,
    match::Model::kNclNb,     match::Model::kNsrHier,
    match::Model::kNclPersist, match::Model::kRmaPart,
};

match::RunResult run_one(match::Model model, std::uint64_t seed, int threads,
                         const chaos::Config& chaos = {}) {
  const auto g = gen::rmat(kScale, kEdgeFactor, seed);
  match::RunConfig cfg;
  cfg.threads = threads;
  cfg.net.chaos = chaos;
  return match::run_match(g, kRanks, model, cfg);
}

/// Every backend on seeds 1-3 at T in {2, 3, 4, 8} against T=1: same
/// trace hash, weight, virtual time, event count and communication time.
void expect_every_backend_bit_identical(const chaos::Config& chaos) {
  for (const match::Model model : kModels) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      chaos::Config c = chaos;
      c.seed = seed;
      const auto base = run_one(model, seed, 1, c);
      // T=3 gives uneven shards over the 8 ranks.
      for (const int threads : {2, 3, 4, 8}) {
        const auto r = run_one(model, seed, threads, c);
        const auto where = ::testing::Message()
                           << match::model_name(model) << " seed " << seed
                           << " threads " << threads;
        EXPECT_EQ(r.trace_hash, base.trace_hash) << where;
        EXPECT_EQ(r.matching.weight, base.matching.weight) << where;
        EXPECT_EQ(r.time, base.time) << where;
        EXPECT_EQ(r.sim_events, base.sim_events) << where;
        EXPECT_EQ(r.totals.comm_ns, base.totals.comm_ns) << where;
      }
    }
  }
}

TEST(ThreadInvariance, EveryBackendEverySeedBitIdentical) {
  expect_every_backend_bit_identical({});
}

// Chaos timing knobs keep the sharded engine (only the reliable transport
// forces one thread): the jitter draws count per channel in the sending
// rank's own floor row, and stragglers and collective skew are pure.
TEST(ThreadInvariance, ChaosTimingRunsShardBitIdentical) {
  chaos::Config timing;
  timing.latency_jitter = 0.3;
  timing.stragglers = 2;
  timing.straggler_slowdown = 2.5;
  timing.collective_skew = 3000;
  expect_every_backend_bit_identical(timing);
}

// The observability artifacts must be byte-identical too: tracer calls are
// re-ordered into exact global event order at window merges, and the
// periodic sampling hook fires at window-global barriers — any slippage
// shows up as a diff in these strings.
TEST(ThreadInvariance, TraceAndMetricsArtifactsByteIdentical) {
  auto artifacts = [](match::Model model, int threads) {
    const auto g = gen::rmat(kScale, kEdgeFactor, /*seed=*/1);
    obs::Recorder rec;
    match::RunConfig cfg;
    cfg.threads = threads;
    cfg.tracer = &rec;
    cfg.sample_interval_ns = 50'000;
    const auto r = match::run_match(g, kRanks, model, cfg);
    rec.set_run_info("match", match::model_name(model), kRanks, 1);
    rec.set_run_result(r.time, r.trace_hash, r.sim_events);
    return std::pair{rec.to_chrome_json(), rec.metrics_jsonl()};
  };
  for (const match::Model model :
       {match::Model::kNsr, match::Model::kRmaFence, match::Model::kNclNb}) {
    const auto base = artifacts(model, 1);
    const auto sharded = artifacts(model, 4);
    EXPECT_EQ(sharded.first, base.first)
        << match::model_name(model) << ": chrome trace diverged";
    EXPECT_EQ(sharded.second, base.second)
        << match::model_name(model) << ": metrics JSONL diverged";
  }
}

// -- Multi-node layouts ------------------------------------------------------
//
// The cases above run 8 ranks on one node, where the machine's window bound
// is always the intra-node latency. Here 64 ranks sit on nodes of 1, 8 or
// 16 ranks, so the bound the machine computes from the shard map moves: the
// inter-node latency where every shard boundary is a node boundary, the
// intra-node one where a boundary splits a node (T=3 always does; T=8 does
// on 16-rank nodes), the smallest neighborhood sum where the process
// topology is tighter. A bound one nanosecond too wide throws (a message
// lands inside a window it was not in) or diverges; these runs catch both.

constexpr int kNodeRanks = 64;

/// One program on one input: the values it computed, and its run stats.
struct Outcome {
  match::RunStats stats;
  std::vector<std::int64_t> values;  // matched weight, distances or colors
  std::string trace;
  std::string metrics;
};

using Program = std::function<Outcome(const match::RunConfig&)>;

/// The ten matchers, then BFS and coloring on NSR and NCL, on one small
/// RGG: its process topology joins each rank to ranks nearby, across node
/// and shard boundaries alike.
std::vector<std::pair<std::string, Program>> node_programs(
    const graph::Csr& g) {
  std::vector<std::pair<std::string, Program>> out;
  for (const match::Model model : kModels) {
    out.emplace_back(match::model_name(model),
                     [&g, model](const match::RunConfig& cfg) {
                       auto r = match::run_match(g, kNodeRanks, model, cfg);
                       Outcome o;
                       o.values.assign(r.matching.mate.begin(),
                                       r.matching.mate.end());
                       o.stats = std::move(r);
                       return o;
                     });
  }
  for (const match::Model model : {match::Model::kNsr, match::Model::kNcl}) {
    out.emplace_back(std::string("bfs ") + match::model_name(model),
                     [&g, model](const match::RunConfig& cfg) {
                       auto r = bfs::run_bfs(g, kNodeRanks, 0, model, cfg);
                       Outcome o;
                       o.values = std::move(r.dist);
                       o.stats = std::move(r);
                       return o;
                     });
    out.emplace_back(std::string("color ") + match::model_name(model),
                     [&g, model](const match::RunConfig& cfg) {
                       auto r = color::run_coloring(g, kNodeRanks, model, cfg);
                       Outcome o;
                       o.values = std::move(r.colors);
                       o.stats = std::move(r);
                       return o;
                     });
  }
  return out;
}

Outcome run_traced(const Program& program, match::RunConfig cfg) {
  obs::Recorder rec;
  cfg.tracer = &rec;
  cfg.sample_interval_ns = 20'000;
  Outcome o = program(cfg);
  rec.set_run_info("multi-node", "", kNodeRanks, 1);
  rec.set_run_result(o.stats.time, o.stats.trace_hash, o.stats.sim_events);
  o.trace = rec.to_chrome_json();
  o.metrics = rec.metrics_jsonl();
  return o;
}

TEST(ThreadInvariance, MultiNodeLayoutsBitIdentical) {
  const auto g = gen::random_geometric(
      1024, gen::rgg_radius_for_degree(1024, 8.0), /*seed=*/5);
  const auto programs = node_programs(g);
  constexpr int kNodeSizes[] = {1, 8, 16};
  for (std::size_t i = 0; i < programs.size(); ++i) {
    for (std::size_t j = 0; j < std::size(kNodeSizes); ++j) {
      // Each program meets every node size, both orders of the two
      // latencies and both clean and chaos-timed runs.
      const bool intra_above = (i + j) % 2 == 1;
      const bool chaotic = (i / 2 + j) % 2 == 1;
      match::RunConfig cfg;
      cfg.net.ranks_per_node = kNodeSizes[j];
      if (intra_above) cfg.net.alpha_intra = 2000;
      if (chaotic) {
        cfg.net.chaos.seed = 7;
        cfg.net.chaos.latency_jitter = 0.3;
        cfg.net.chaos.stragglers = 2;
        cfg.net.chaos.straggler_slowdown = 2.5;
        cfg.net.chaos.collective_skew = 3000;
      }
      const Program& program = programs[i].second;
      const Outcome base = run_traced(program, cfg);
      for (const int threads : {2, 3, 4, 8}) {
        cfg.threads = threads;
        const Outcome o = run_traced(program, cfg);
        const auto where = ::testing::Message()
                           << programs[i].first << " ranks/node "
                           << kNodeSizes[j] << (intra_above ? " intra>inter" : "")
                           << (chaotic ? " chaos" : "") << " threads "
                           << threads;
        EXPECT_EQ(o.stats.trace_hash, base.stats.trace_hash) << where;
        EXPECT_EQ(o.stats.time, base.stats.time) << where;
        EXPECT_EQ(o.stats.sim_events, base.stats.sim_events) << where;
        EXPECT_EQ(o.values, base.values) << where;
        EXPECT_TRUE(o.trace == base.trace) << where << ": trace diverged";
        EXPECT_TRUE(o.metrics == base.metrics) << where << ": metrics diverged";
      }
    }
  }
}

}  // namespace
