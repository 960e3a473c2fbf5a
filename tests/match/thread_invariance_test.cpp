// Thread-count invariance: the sharded discrete-event engine must produce
// byte-identical results to the sequential engine for every backend —
// same (time, sequence) trace hash, same matched weight, same virtual
// time, same event count, and byte-identical metrics/trace artifacts.
// This is the end-to-end guarantee the determinism pins rely on when CI
// re-runs them with MEL_THREADS=4.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

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

match::RunResult run_one(match::Model model, std::uint64_t seed, int threads) {
  const auto g = gen::rmat(kScale, kEdgeFactor, seed);
  match::RunConfig cfg;
  cfg.threads = threads;
  return match::run_match(g, kRanks, model, cfg);
}

TEST(ThreadInvariance, EveryBackendEverySeedBitIdentical) {
  for (const match::Model model : kModels) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      const auto base = run_one(model, seed, 1);
      // T=3 gives uneven shards over the 8 ranks.
      for (const int threads : {2, 3, 4, 8}) {
        const auto r = run_one(model, seed, threads);
        EXPECT_EQ(r.trace_hash, base.trace_hash)
            << match::model_name(model) << " seed " << seed << " threads "
            << threads;
        EXPECT_EQ(r.matching.weight, base.matching.weight)
            << match::model_name(model) << " seed " << seed << " threads "
            << threads;
        EXPECT_EQ(r.time, base.time)
            << match::model_name(model) << " seed " << seed << " threads "
            << threads;
        EXPECT_EQ(r.sim_events, base.sim_events)
            << match::model_name(model) << " seed " << seed << " threads "
            << threads;
        EXPECT_EQ(r.totals.comm_ns, base.totals.comm_ns)
            << match::model_name(model) << " seed " << seed << " threads "
            << threads;
      }
    }
  }
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
