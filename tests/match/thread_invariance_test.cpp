// Thread-count invariance: the sharded discrete-event engine must produce
// byte-identical results to the sequential engine for every backend —
// same (time, sequence) trace hash, same matched weight, same virtual
// time, same event count, and byte-identical metrics/trace artifacts.
// This is the end-to-end guarantee the determinism pins rely on when CI
// re-runs them with MEL_THREADS=4.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "mel/chaos/chaos.hpp"
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

}  // namespace
