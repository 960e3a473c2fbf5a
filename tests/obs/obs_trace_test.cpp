#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "mel/gen/generators.hpp"
#include "mel/match/driver.hpp"
#include "mel/net/network.hpp"
#include "mel/obs/analysis.hpp"
#include "mel/obs/emit.hpp"
#include "mel/obs/recorder.hpp"

namespace mel::obs {
namespace {

constexpr match::Model kAllModels[] = {
    match::Model::kNsr,     match::Model::kMbp,
    match::Model::kNsrAgg,  match::Model::kNsrHier,
    match::Model::kRma,     match::Model::kRmaFence,
    match::Model::kRmaPart, match::Model::kNcl,
    match::Model::kNclNb,   match::Model::kNclPersist,
};

graph::Csr small_graph() { return gen::erdos_renyi(300, 2100, 11); }

struct Traced {
  Recorder recorder;
  match::RunResult run;
};

Traced traced_run(match::Model model, const graph::Csr& g, int ranks = 8,
                  bool collect_matrix = false, sim::Time sample_ns = 0) {
  Traced t;
  match::RunConfig cfg;
  cfg.tracer = &t.recorder;
  cfg.collect_matrix = collect_matrix;
  cfg.sample_interval_ns = sample_ns;
  t.recorder.set_run_info("match", match::model_name(model), ranks, 11);
  t.run = match::run_match(g, ranks, model, cfg);
  t.recorder.set_run_result(t.run.time, t.run.trace_hash, t.run.sim_events);
  return t;
}

TEST(ObsTrace, EveryBackendProducesAValidFlowGraph) {
  const auto g = small_graph();
  for (const auto model : kAllModels) {
    Recorder rec;
    match::RunConfig cfg;
    cfg.tracer = &rec;
    rec.set_run_info("match", match::model_name(model), 8, 11);
    const auto run = match::run_match(g, 8, model, cfg);
    rec.set_run_result(run.time, run.trace_hash, run.sim_events);

    const TraceStats stats = analyze_trace_text(rec.to_chrome_json());
    EXPECT_TRUE(stats.errors.empty())
        << match::model_name(model) << ": "
        << (stats.errors.empty() ? "" : stats.errors.front());
    EXPECT_EQ(stats.dangling_flows, 0u) << match::model_name(model);
    EXPECT_GT(stats.events, 0u);
    EXPECT_EQ(stats.nranks, 8);
    EXPECT_FALSE(stats.flows_by_class.empty()) << match::model_name(model);
    // Iteration records from Comm::obs_iteration reach the trace.
    ASSERT_FALSE(rec.iterations().empty()) << match::model_name(model);
  }
}

TEST(ObsTrace, FlowTableHoldsOneEntryPerBegunFlow) {
  // Flow ids stride by rank (counter * nranks + rank + 1), so the largest
  // id exceeds the flow count; the table still holds only begun flows.
  const auto g = small_graph();
  const Traced t = traced_run(match::Model::kNsr, g);
  const std::string text = t.recorder.to_chrome_json();
  std::size_t begins = 0;
  for (std::size_t at = 0;
       (at = text.find("\"ph\":\"s\"", at)) != std::string::npos; ++at) {
    ++begins;
  }
  FlowId largest = 0;
  for (const Recorder::Flow& f : t.recorder.flows()) {
    largest = std::max(largest, f.id);
  }
  EXPECT_GT(largest, t.recorder.flows().size());
  EXPECT_EQ(t.recorder.flows().size(), begins);
}

TEST(ObsTrace, ChannelClassesMatchTheBackend) {
  const auto g = small_graph();
  auto classes = [&](match::Model model) {
    Recorder rec;
    match::RunConfig cfg;
    cfg.tracer = &rec;
    (void)match::run_match(g, 8, model, cfg);
    return analyze_trace_text(rec.to_chrome_json()).flows_by_class;
  };
  const auto nsr = classes(match::Model::kNsr);
  EXPECT_TRUE(nsr.count("p2p"));
  EXPECT_FALSE(nsr.count("rma"));
  const auto rma = classes(match::Model::kRma);
  EXPECT_TRUE(rma.count("rma"));
  EXPECT_TRUE(rma.count("neighbor"));  // count exchanges per round
  const auto ncl = classes(match::Model::kNcl);
  EXPECT_TRUE(ncl.count("neighbor"));
  EXPECT_FALSE(ncl.count("p2p"));
}

TEST(ObsTrace, NclRunRecordsOperationSpans) {
  // The per-rank operation timeline of an NCL run: compute,
  // neighborhood-collective and allreduce spans, every one well formed.
  const Traced t = traced_run(match::Model::kNcl, gen::erdos_renyi(200, 1200, 3), 4);
  const TraceStats stats = analyze_trace_text(t.recorder.to_chrome_json());
  EXPECT_TRUE(stats.errors.empty())
      << (stats.errors.empty() ? "" : stats.errors.front());
  EXPECT_EQ(stats.nranks, 4);
  for (const char* category : {"compute", "ncoll", "allreduce"}) {
    ASSERT_TRUE(stats.spans_by_category.count(category)) << category;
    EXPECT_GT(stats.spans_by_category.at(category).count, 0u) << category;
  }
  for (const auto& [rank, roll] : stats.spans_by_rank) {
    EXPECT_GE(rank, 0);
    EXPECT_LT(rank, 4);
  }
}

TEST(ObsTrace, FtRunTracesFtChannelAndRetransmits) {
  const auto g = small_graph();
  Recorder rec;
  match::RunConfig cfg;
  cfg.tracer = &rec;
  cfg.net.chaos.loss = 0.15;
  cfg.net.chaos.seed = 5;
  const auto run = match::run_match(g, 8, match::Model::kNsr, cfg);
  ASSERT_GT(run.totals.retransmits, 0u);

  const TraceStats stats = analyze_trace_text(rec.to_chrome_json());
  EXPECT_TRUE(stats.errors.empty())
      << (stats.errors.empty() ? "" : stats.errors.front());
  EXPECT_TRUE(stats.flows_by_class.count("ft"));
  ASSERT_TRUE(stats.instants_by_name.count("ft-retransmit"));
  EXPECT_EQ(stats.instants_by_name.at("ft-retransmit"),
            run.totals.retransmits);
  EXPECT_TRUE(stats.instants_by_name.count("ft-ack"));
}

TEST(ObsTrace, WireMatrixReconstructionIsByteExact) {
  const auto g = small_graph();
  for (const auto model :
       {match::Model::kNsr, match::Model::kRma, match::Model::kNcl}) {
    const Traced t = traced_run(model, g, 8, /*collect_matrix=*/true);
    ASSERT_NE(t.run.matrix, nullptr);
    const TraceStats stats =
        analyze_trace_text(t.recorder.to_chrome_json());
    std::string text;
    Emitter out(text);
    write_matrix_json(out, stats);
    out.flush();
    EXPECT_EQ(text, matrix_json(*t.run.matrix)) << match::model_name(model);
  }
}

TEST(ObsTrace, TelemetryIsBitIdenticalAcrossRuns) {
  const auto g = small_graph();
  const Traced a =
      traced_run(match::Model::kNcl, g, 8, false, /*sample_ns=*/200000);
  const Traced b =
      traced_run(match::Model::kNcl, g, 8, false, /*sample_ns=*/200000);
  EXPECT_EQ(a.run.trace_hash, b.run.trace_hash);
  EXPECT_EQ(a.recorder.metrics_jsonl(), b.recorder.metrics_jsonl());
  EXPECT_EQ(a.recorder.to_chrome_json(), b.recorder.to_chrome_json());
}

TEST(ObsTrace, TracingDoesNotPerturbTheRun) {
  // The observability layer must be purely observational: same trace hash
  // and matching with the recorder installed, without it, and with
  // periodic sampling on (the sampling hook schedules no events).
  const auto g = small_graph();
  match::RunConfig plain;
  const auto base = match::run_match(g, 8, match::Model::kNsr, plain);
  const Traced t = traced_run(match::Model::kNsr, g, 8, false,
                              /*sample_ns=*/100000);
  EXPECT_EQ(base.trace_hash, t.run.trace_hash);
  EXPECT_EQ(base.time, t.run.time);
  EXPECT_EQ(base.matching.weight, t.run.matching.weight);
  EXPECT_EQ(base.matching.cardinality, t.run.matching.cardinality);
}

TEST(ObsTrace, SamplingProducesCounterTracks) {
  const auto g = small_graph();
  const Traced t = traced_run(match::Model::kNsr, g, 8, false,
                              /*sample_ns=*/100000);
  ASSERT_FALSE(t.recorder.samples().empty());
  const TraceStats stats = analyze_trace_text(t.recorder.to_chrome_json());
  EXPECT_TRUE(stats.errors.empty());
  EXPECT_TRUE(stats.counter_samples.count("sim/event_queue"));
  EXPECT_TRUE(stats.counter_samples.count("r0/mailbox_msgs"));
  EXPECT_TRUE(stats.counter_samples.count("r0/inflight_bytes"));
}

TEST(ObsTrace, MetricsJsonlValidatesCleanAndCarriesIterations) {
  const auto g = small_graph();
  const Traced t = traced_run(match::Model::kNclNb, g, 8, false,
                              /*sample_ns=*/200000);
  const std::string jsonl = t.recorder.metrics_jsonl();
  const auto errors = validate_metrics_text(jsonl);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());

  // Per-iteration deltas must account for real traffic.
  std::uint64_t coll = 0;
  for (const auto& it : t.recorder.iterations()) coll += it.d_bytes_coll;
  EXPECT_EQ(coll, t.run.totals.bytes_coll);
}

TEST(ObsTrace, CheckpointsAndCrashesAppearAsInstants) {
  const auto g = small_graph();
  const auto clean = match::run_match(g, 8, match::Model::kNsr, {});
  Recorder rec;
  match::RunConfig cfg;
  cfg.tracer = &rec;
  cfg.ft.enabled = true;
  cfg.ft.checkpoint_ns = clean.time / 8;
  cfg.net.chaos.crashes.push_back({/*rank=*/2, /*at=*/clean.time / 2});
  const auto run = match::run_match(g, 8, match::Model::kNsr, cfg);
  ASSERT_FALSE(run.failed_ranks.empty());

  const TraceStats stats = analyze_trace_text(rec.to_chrome_json());
  EXPECT_TRUE(stats.instants_by_name.count("checkpoint"));
  EXPECT_TRUE(stats.instants_by_name.count("rank-crash"));
}

TEST(ObsValidate, CatchesCorruptTraces) {
  // Dangling flow: started, never finished.
  const std::string dangling =
      R"({"traceEvents":[{"name":"p2p","ph":"s","ts":1.0,"pid":0,"tid":0,"id":5}]})";
  EXPECT_FALSE(analyze_trace_text(dangling).errors.empty());

  // Finish before start.
  const std::string backwards =
      R"({"traceEvents":[)"
      R"({"name":"p2p","ph":"s","ts":9.0,"pid":0,"tid":0,"id":1},)"
      R"({"name":"p2p","ph":"f","bp":"e","ts":2.0,"pid":0,"tid":1,"id":1}]})";
  EXPECT_FALSE(analyze_trace_text(backwards).errors.empty());

  // Missing required field (no ts).
  const std::string no_ts =
      R"({"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":0,"dur":1.0}]})";
  EXPECT_FALSE(analyze_trace_text(no_ts).errors.empty());

  // Instant referencing a flow id that never started.
  const std::string bad_ref =
      R"({"traceEvents":[{"name":"ft-ack","cat":"instant","ph":"i","s":"t",)"
      R"("ts":1.0,"pid":0,"tid":0,"args":{"flow":99}}]})";
  EXPECT_FALSE(analyze_trace_text(bad_ref).errors.empty());

  // Not JSON at all.
  EXPECT_FALSE(analyze_trace_text("not json").errors.empty());
  // Valid JSON, wrong shape.
  EXPECT_FALSE(analyze_trace_text("[1,2,3]").errors.empty());
}

TEST(ObsValidate, CatchesCorruptMetrics) {
  EXPECT_FALSE(validate_metrics_text("").empty());
  EXPECT_FALSE(validate_metrics_text("{\"type\":\"sample\"}\n").empty());
  const std::string bad_schema =
      "{\"type\":\"header\",\"schema\":\"mel.metrics/999\",\"ranks\":4}\n";
  EXPECT_FALSE(validate_metrics_text(bad_schema).empty());
  const std::string ok_header =
      "{\"type\":\"header\",\"schema\":\"mel.metrics/1\",\"ranks\":4}\n";
  EXPECT_TRUE(validate_metrics_text(ok_header).empty());
  EXPECT_FALSE(
      validate_metrics_text(ok_header + "{\"type\":\"nonsense\"}\n").empty());
  // Rank outside [-1, ranks).
  EXPECT_FALSE(validate_metrics_text(
                   ok_header +
                   "{\"type\":\"sample\",\"t\":1,\"rank\":4,\"name\":\"x\","
                   "\"value\":0}\n")
                   .empty());
  EXPECT_TRUE(validate_metrics_text(
                  ok_header +
                  "{\"type\":\"sample\",\"t\":1,\"rank\":-1,\"name\":\"x\","
                  "\"value\":0}\n")
                  .empty());
}

// The point of the node-aware Send-Recv backend, quantified: on a
// multi-node placement it must move wire bytes off the expensive
// inter-node links relative to flat per-rank aggregation, while producing
// the same matching. 128 ranks at 32 ranks/node = 4 nodes; the RGG's
// strip distribution gives boundary ranks several process neighbors on the
// adjacent node, which is exactly what leader combining collapses.
TEST(ObsAnalysis, NodeAwareBackendShrinksInterNodeBytes) {
  const auto g =
      gen::random_geometric(4096, gen::rgg_radius_for_degree(4096, 24.0), 1);
  constexpr int kRanks = 128;
  const Traced agg =
      traced_run(match::Model::kNsrAgg, g, kRanks, /*collect_matrix=*/true);
  const Traced hier =
      traced_run(match::Model::kNsrHier, g, kRanks, /*collect_matrix=*/true);
  EXPECT_EQ(hier.run.matching.weight, agg.run.matching.weight);
  EXPECT_EQ(hier.run.matching.cardinality, agg.run.matching.cardinality);

  auto node_split = [&](const mpi::CommMatrix& m) {
    const int rpn = net::Params{}.ranks_per_node;  // default placement: 32
    std::pair<std::uint64_t, std::uint64_t> split{0, 0};  // {inter, intra}
    for (int s = 0; s < m.nranks(); ++s) {
      for (int d = 0; d < m.nranks(); ++d) {
        (s / rpn == d / rpn ? split.second : split.first) += m.bytes(s, d);
      }
    }
    return split;
  };
  ASSERT_NE(agg.run.matrix, nullptr);
  ASSERT_NE(hier.run.matrix, nullptr);
  const auto [agg_inter, agg_intra] = node_split(*agg.run.matrix);
  const auto [hier_inter, hier_intra] = node_split(*hier.run.matrix);
  EXPECT_GT(agg_inter, 0u);
  EXPECT_LT(hier_inter, agg_inter)
      << "leader combining must strictly shrink inter-node wire bytes";

  // The trace-level view agrees with the matrix, and the two runs diff
  // cleanly (the meltrace workflow for quantifying a backend change).
  const TraceStats sa = analyze_trace_text(agg.recorder.to_chrome_json());
  const TraceStats sh = analyze_trace_text(hier.recorder.to_chrome_json());
  EXPECT_TRUE(sa.errors.empty());
  EXPECT_TRUE(sh.errors.empty());
  const std::string d = diff(sa, sh, "NSR-AGG", "NSR-HIER");
  EXPECT_NE(d.find("NSR-HIER"), std::string::npos);
}

TEST(ObsAnalysis, SummarizeAndDiffAreReadable) {
  const auto g = small_graph();
  const Traced a = traced_run(match::Model::kNsr, g);
  const Traced b = traced_run(match::Model::kNcl, g);
  const TraceStats sa = analyze_trace_text(a.recorder.to_chrome_json());
  const TraceStats sb = analyze_trace_text(b.recorder.to_chrome_json());
  const std::string sum = summarize(sa);
  EXPECT_NE(sum.find("validation: clean"), std::string::npos);
  EXPECT_NE(sum.find("p2p"), std::string::npos);
  const std::string d = diff(sa, sb, "NSR", "NCL");
  EXPECT_NE(d.find("NSR"), std::string::npos);
  EXPECT_NE(d.find("flows"), std::string::npos);
}

}  // namespace
}  // namespace mel::obs
