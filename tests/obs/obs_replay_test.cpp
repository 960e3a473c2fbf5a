// Tests for trace-driven what-if replay (mel/obs/replay.hpp) and
// critical-path attribution (mel/obs/critical.hpp).
//
// The fidelity pins are the load-bearing part: replaying a recorded
// trace under its own embedded parameters must reproduce the recorded
// per-flow completion times and total virtual time bit-exactly, for
// every backend, including fault-repaired and multi-threaded runs. The
// miniature hand-built traces check the critical-path classifier
// against intervals whose decomposition is known in closed form.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "mel/gen/generators.hpp"
#include "mel/match/driver.hpp"
#include "mel/net/network.hpp"
#include "mel/net/params_io.hpp"
#include "mel/obs/analysis.hpp"
#include "mel/obs/critical.hpp"
#include "mel/obs/recorder.hpp"
#include "mel/obs/replay.hpp"

namespace mel::obs {
namespace {

constexpr match::Model kAllModels[] = {
    match::Model::kNsr,     match::Model::kMbp,
    match::Model::kNsrAgg,  match::Model::kNsrHier,
    match::Model::kRma,     match::Model::kRmaFence,
    match::Model::kRmaPart, match::Model::kNcl,
    match::Model::kNclNb,   match::Model::kNclPersist,
};

/// A complete self-contained (mel.trace/2) trace of one matching run,
/// exactly as `melsim --trace` records it.
std::string traced_trace(match::Model model, std::uint64_t seed, int ranks = 8,
                         int threads = 1, double loss = 0.0) {
  Recorder rec;
  match::RunConfig cfg;
  cfg.tracer = &rec;
  cfg.threads = threads;
  if (loss > 0.0) {
    cfg.net.chaos.loss = loss;
    cfg.net.chaos.seed = 5;
  }
  rec.set_run_info("match", match::model_name(model), ranks, seed);
  rec.set_net_params(cfg.net);
  const auto g = gen::erdos_renyi(300, 2100, seed);
  const auto run = match::run_match(g, ranks, model, cfg);
  rec.set_run_result(run.time, run.trace_hash, run.sim_events);
  return rec.to_chrome_json();
}

std::string us(Time ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

std::string flow_s(int id, const char* ch, Rank src, Rank dst,
                   std::uint64_t bytes, Time at) {
  return std::string("{\"name\":\"") + ch +
         "\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":" + std::to_string(id) +
         ",\"pid\":0,\"tid\":" + std::to_string(src) + ",\"ts\":" + us(at) +
         ",\"args\":{\"src\":" + std::to_string(src) +
         ",\"dst\":" + std::to_string(dst) +
         ",\"tag\":0,\"bytes\":" + std::to_string(bytes) + "}}";
}

std::string flow_t(int id, const char* ch, Rank dst, Time at) {
  return std::string("{\"name\":\"") + ch +
         "\",\"cat\":\"flow\",\"ph\":\"t\",\"id\":" + std::to_string(id) +
         ",\"pid\":0,\"tid\":" + std::to_string(dst) + ",\"ts\":" + us(at) +
         "}";
}

std::string flow_f(int id, const char* ch, Rank end_rank, Time at) {
  return std::string("{\"name\":\"") + ch +
         "\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":" +
         std::to_string(id) + ",\"pid\":0,\"tid\":" + std::to_string(end_rank) +
         ",\"ts\":" + us(at) + "}";
}

std::string op_span(const char* name, Rank rank, Time at, Time dur) {
  return std::string("{\"name\":\"") + name +
         "\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":0,\"tid\":" +
         std::to_string(rank) + ",\"ts\":" + us(at) + ",\"dur\":" + us(dur) +
         "}";
}

std::string instant(const char* name, Rank rank, Time at, int flow) {
  return std::string("{\"name\":\"") + name +
         "\",\"cat\":\"instant\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" +
         std::to_string(rank) + ",\"ts\":" + us(at) +
         ",\"args\":{\"flow\":" + std::to_string(flow) + "}}";
}

/// Wrap hand-built events in a minimal mel.trace/2 document with the
/// default network parameters embedded.
std::string mini_trace(const std::string& events, Time total_ns, int nranks) {
  return "{\"traceEvents\":[" + events +
         "],\"otherData\":{\"schema\":\"mel.trace/2\",\"algo\":\"mini\","
         "\"model\":\"NSR\",\"ranks\":" +
         std::to_string(nranks) +
         ",\"seed\":1,\"net\":" + net::params_to_json(net::Params{}) +
         ",\"config_digest\":\"0xdead\",\"run\":{\"time_ns\":" +
         std::to_string(total_ns) +
         ",\"trace_hash\":\"0x0\",\"events\":0}}}";
}

Time class_sum(const CriticalPath& cp) {
  Time sum = 0;
  for (const Time v : cp.by_class) sum += v;
  return sum;
}

// -- fidelity pins ----------------------------------------------------------

TEST(ObsReplay, FidelityIsBitExactForEveryBackendAndSeed) {
  for (const auto model : kAllModels) {
    for (const std::uint64_t seed : {11ull, 42ull}) {
      const Replayer rp(load_replay_trace_text(traced_trace(model, seed)));
      const auto errors = rp.fidelity_errors();
      EXPECT_TRUE(errors.empty())
          << match::model_name(model) << " seed " << seed << ": "
          << (errors.empty() ? "" : errors.front());
      const ReplayResult r = rp.replay();
      EXPECT_EQ(r.total_ns, rp.trace().run_time_ns)
          << match::model_name(model) << " seed " << seed;
      EXPECT_FALSE(r.flow_end.empty());
    }
  }
}

TEST(ObsReplay, ReplayIsDeterministic) {
  const std::string text = traced_trace(match::Model::kNcl, 11);
  const Replayer a(load_replay_trace_text(text));
  const Replayer b(load_replay_trace_text(text));
  const ReplayResult ra1 = a.replay();
  const ReplayResult ra2 = a.replay();
  const ReplayResult rb = b.replay();
  EXPECT_EQ(ra1.digest, ra2.digest);
  EXPECT_EQ(ra1.digest, rb.digest);
  EXPECT_EQ(ra1.flow_end, rb.flow_end);
  EXPECT_EQ(ra1.total_ns, rb.total_ns);
}

TEST(ObsReplay, ThreadedRunTracesAndReplaysIdentically) {
  // The sharded engine is bit-identical at any thread count, so the
  // trace bytes and the replay verdict must match the sequential run.
  const std::string seq = traced_trace(match::Model::kNcl, 11, 8, 1);
  const std::string par = traced_trace(match::Model::kNcl, 11, 8, 4);
  EXPECT_EQ(seq, par);
  const Replayer rp(load_replay_trace_text(par));
  const auto errors = rp.fidelity_errors();
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

TEST(ObsReplay, FtRepairedRunReplaysExactly) {
  // Retransmits, drops, and acks all land in the trace as residuals on
  // the repaired flows; identity replay must still be exact.
  const Replayer rp(
      load_replay_trace_text(traced_trace(match::Model::kNsr, 11, 8, 1,
                                          /*loss=*/0.15)));
  bool any_repaired = false;
  for (const ReplayFlow& f : rp.trace().flows) any_repaired |= f.repaired;
  EXPECT_TRUE(any_repaired);
  const auto errors = rp.fidelity_errors();
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

TEST(ObsReplay, WhatIfPerturbationMovesTheTotal) {
  const Replayer rp(load_replay_trace_text(traced_trace(match::Model::kNsr, 11)));
  net::Params slower = rp.trace().net;
  slower.alpha_intra *= 3;  // 8 ranks on one node: alpha_intra is on the wire
  const ReplayResult base = rp.replay();
  const ReplayResult hit = rp.replay(slower);
  EXPECT_EQ(base.total_ns, rp.trace().run_time_ns);
  EXPECT_GT(hit.total_ns, base.total_ns);
  EXPECT_NE(hit.digest, base.digest);

  net::Params faster = rp.trace().net;
  faster.o_send_intra /= 2;
  faster.o_recv_intra /= 2;
  EXPECT_LT(rp.replay(faster).total_ns, base.total_ns);
}

TEST(ObsReplay, FidelityChecksThePassItIsGiven) {
  // meltrace replay checks the very pass it prints: the recorded-parameter
  // pass is exact, a what-if pass is not, and another trace's pass is
  // refused rather than compared flow by flow.
  const Replayer rp(load_replay_trace_text(traced_trace(match::Model::kNsr, 11)));
  EXPECT_TRUE(rp.fidelity_errors(rp.replay()).empty());
  net::Params slower = rp.trace().net;
  slower.alpha_intra *= 3;
  EXPECT_FALSE(rp.fidelity_errors(rp.replay(slower)).empty());
  const Replayer other(
      load_replay_trace_text(traced_trace(match::Model::kNcl, 11)));
  EXPECT_THROW(rp.fidelity_errors(other.replay()), std::invalid_argument);
}

TEST(ObsReplay, SpansSortByRankWhateverTheRanks) {
  // Out of time order within a rank, rank -1 (the only rank below 0 a
  // trace may name) and ranks from the rank count on, and more ranks than
  // spans: the order is (rank, start, end) always.
  const std::vector<std::pair<Rank, Time>> spans = {
      {3, 900}, {-1, 50}, {0, 700}, {1, 10}, {0, 200}, {7, 5}, {-1, 30}};
  for (const int nranks : {2, 1000}) {
    std::string events;
    for (const auto& [rank, at] : spans) {
      if (!events.empty()) events += ",";
      events += op_span("compute", rank, at, 10);
    }
    const ReplayTrace t =
        load_replay_trace_text(mini_trace(events, 2000, nranks));
    std::string order;
    for (const auto& sp : t.spans) {
      order += std::to_string(sp.rank) + "@" + std::to_string(sp.start) + " ";
    }
    EXPECT_EQ(order, "-1@30 -1@50 0@200 0@700 1@10 3@900 7@5 ") << nranks;
  }
}

TEST(ObsReplay, LoaderRejectsTracesWithoutMetadata) {
  EXPECT_THROW(load_replay_trace_text("{\"traceEvents\":[]}"),
               std::runtime_error);
  EXPECT_THROW(
      load_replay_trace_text(
          "{\"traceEvents\":[],\"otherData\":{\"schema\":\"mel.trace/1\"}}"),
      std::runtime_error);
  EXPECT_THROW(load_replay_trace_text("[1,2]"), std::runtime_error);
}

/// mini_trace's document with the header's `key` spelled `value`.
std::string with_header(const std::string& key, const std::string& value) {
  std::string doc = mini_trace("", 0, 2);
  const std::string at = "\"" + key + "\":";
  const std::size_t from = doc.find(at) + at.size();
  return doc.replace(from, doc.find_first_of(",}", from) - from, value);
}

TEST(ObsReplay, HeaderNumbersAreReadWholeOrRejected) {
  // `melsim --seed -1` records the seed as 2^64 - 1.
  EXPECT_EQ(load_replay_trace_text(with_header("seed", "18446744073709551615"))
                .seed,
            18446744073709551615ull);
  EXPECT_EQ(load_replay_trace_text(with_header("events", "9223372036854775808"))
                .run_events,
            9223372036854775808ull);
  const struct {
    const char* key;
    const char* value;
    const char* error;
  } bad[] = {
      {"seed", "-1", "metadata header seed is not a uint64"},
      {"seed", "1e400", "metadata header seed is not a uint64"},
      {"events", "18446744073709551616", "run result events is not a uint64"},
      {"time_ns", "9223372036854775808", "run result time_ns is not an int64"},
  };
  for (const auto& b : bad) {
    try {
      load_replay_trace_text(with_header(b.key, b.value));
      ADD_FAILURE() << b.key << " " << b.value << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), std::string("replay: ") + b.error);
    }
  }
}

// -- miniature critical-path traces ----------------------------------------

// One p2p flow 0->1 (116 wire bytes) on the default intra-node params:
// o_send 400, o_recv 350, alpha 600, floor(116 * 0.05) = 5 bandwidth.
// A 500 ns compute span sits inside rank 0's pre-send window.
TEST(ObsCritical, SingleChainDecomposesExactly) {
  const std::string events = flow_s(1, "p2p", 0, 1, 116, 1000) + "," +
                             flow_t(1, "p2p", 1, 1605) + "," +
                             flow_f(1, "p2p", 1, 1955) + "," +
                             op_span("compute", 0, 200, 500);
  const Replayer rp(load_replay_trace_text(mini_trace(events, 2000, 2)));
  ASSERT_TRUE(rp.fidelity_errors().empty());

  const CriticalPath cp = critical_path(rp);
  EXPECT_EQ(cp.total_ns, 2000);
  EXPECT_EQ(class_sum(cp), cp.total_ns);
  EXPECT_EQ(cp.by_class[CriticalPath::kCompute], 500);
  EXPECT_EQ(cp.by_class[CriticalPath::kOSend], 400);
  EXPECT_EQ(cp.by_class[CriticalPath::kORecv], 350);
  EXPECT_EQ(cp.by_class[CriticalPath::kLatency], 600);
  EXPECT_EQ(cp.by_class[CriticalPath::kBandwidth], 5);
  EXPECT_EQ(cp.by_class[CriticalPath::kAckWait], 0);
  // 100 ns of unexplained rank-0 time + the 45 ns recorded tail.
  EXPECT_EQ(cp.by_class[CriticalPath::kOther], 145);
}

// Fork-join: ranks 0 and 1 both send to rank 2; the rank-1 message
// starts 2000 ns later and gates the join, so the path must follow it
// and cross exactly one wire.
TEST(ObsCritical, ForkJoinFollowsTheGatingBranch) {
  const std::string events =
      flow_s(1, "p2p", 0, 2, 116, 1000) + "," + flow_t(1, "p2p", 2, 1605) +
      "," + flow_f(1, "p2p", 2, 1955) + "," + flow_s(2, "p2p", 1, 2, 116, 3000) +
      "," + flow_t(2, "p2p", 2, 3605) + "," + flow_f(2, "p2p", 2, 3955);
  const Replayer rp(load_replay_trace_text(mini_trace(events, 4000, 3)));
  ASSERT_TRUE(rp.fidelity_errors().empty());

  const CriticalPath cp = critical_path(rp);
  EXPECT_EQ(cp.total_ns, 4000);
  EXPECT_EQ(class_sum(cp), cp.total_ns);
  // Exactly one wire crossed: the late branch's.
  EXPECT_EQ(cp.by_class[CriticalPath::kLatency], 600);
  EXPECT_EQ(cp.by_class[CriticalPath::kBandwidth], 5);
  EXPECT_EQ(cp.by_class[CriticalPath::kOSend], 400);
  // The path never touches the early sender, rank 0.
  EXPECT_EQ(cp.by_rank.count(0), 0u);
  EXPECT_EQ(cp.by_rank.count(1), 1u);
  bool names_late_branch = false;
  for (const auto& seg : cp.segments) {
    EXPECT_EQ(seg.what.find("0->2"), std::string::npos) << seg.what;
    names_late_branch |= seg.what.find("1->2") != std::string::npos;
  }
  EXPECT_TRUE(names_late_branch);
}

// A repaired flow's wire residual (retransmit delay beyond the clean
// model) must be classed ack-wait, not other.
TEST(ObsCritical, RetransmitResidualIsAckWait) {
  const std::string events = flow_s(1, "p2p", 0, 1, 116, 1000) + "," +
                             flow_t(1, "p2p", 1, 3605) + "," +
                             flow_f(1, "p2p", 1, 3955) + "," +
                             instant("ft-retransmit", 0, 1400, 1);
  const Replayer rp(load_replay_trace_text(mini_trace(events, 4000, 2)));
  ASSERT_TRUE(rp.fidelity_errors().empty());

  const CriticalPath cp = critical_path(rp);
  EXPECT_EQ(class_sum(cp), cp.total_ns);
  // Wire interval 2605 = 600 alpha + 5 beta + 2000 retransmit residual.
  EXPECT_EQ(cp.by_class[CriticalPath::kAckWait], 2000);
  EXPECT_EQ(cp.by_class[CriticalPath::kLatency], 600);

  // The same trace without the ft instant books the residual as other.
  const std::string clean = flow_s(1, "p2p", 0, 1, 116, 1000) + "," +
                            flow_t(1, "p2p", 1, 3605) + "," +
                            flow_f(1, "p2p", 1, 3955);
  const CriticalPath cp2 =
      critical_path(Replayer(load_replay_trace_text(mini_trace(clean, 4000, 2))));
  EXPECT_EQ(cp2.by_class[CriticalPath::kAckWait], 0);
}

// -- JSON emitters ----------------------------------------------------------

TEST(ObsReplay, SummarizeJsonIsDeterministicAndParses) {
  const std::string t1 = traced_trace(match::Model::kNsr, 11);
  const std::string t2 = traced_trace(match::Model::kNsr, 11);
  const std::string j1 = summarize_json(analyze_trace_text(t1));
  const std::string j2 = summarize_json(analyze_trace_text(t2));
  EXPECT_EQ(j1, j2);

  const json::Value root = json::parse(j1);
  ASSERT_TRUE(root.is_object());
  const json::Value* schema = root.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "mel.summary/1");
  const json::Value* events = root.find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->is_integer);
  EXPECT_GT(events->as_int(), 0);
  const json::Value* flows = root.find("flows_by_class");
  ASSERT_NE(flows, nullptr);
  EXPECT_NE(flows->find("p2p"), nullptr);
}

TEST(ObsCritical, JsonIsDeterministicAndTelescopes) {
  const std::string text = traced_trace(match::Model::kNcl, 11);
  const Replayer rp(load_replay_trace_text(text));
  const CriticalPath cp = critical_path(rp);
  EXPECT_EQ(cp.total_ns, rp.trace().run_time_ns);
  EXPECT_EQ(class_sum(cp), cp.total_ns);
  // Per-rank rows telescope too.
  Time rank_sum = 0;
  for (const auto& [rank, row] : cp.by_rank) {
    for (const Time v : row) rank_sum += v;
  }
  EXPECT_EQ(rank_sum, cp.total_ns);

  const std::string j1 = critical_json(cp, rp.trace(), 5);
  const std::string j2 =
      critical_json(critical_path(Replayer(load_replay_trace_text(text))),
                    rp.trace(), 5);
  EXPECT_EQ(j1, j2);
  const json::Value root = json::parse(j1);
  ASSERT_TRUE(root.is_object());
  const json::Value* schema = root.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "mel.critical/1");
  const json::Value* total = root.find("total_ns");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->as_int(), cp.total_ns);

  const std::string text_report = critical_text(cp, rp.trace(), 5);
  EXPECT_NE(text_report.find("class breakdown"), std::string::npos);
  EXPECT_NE(text_report.find("segment(s) by duration"), std::string::npos);
}

}  // namespace
}  // namespace mel::obs
