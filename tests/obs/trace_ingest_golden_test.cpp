// Golden pins for trace ingest (meltrace validate/summarize/matrix/diff and
// the replay loader). The recorded-run pins were captured from the
// whole-document parser, so the streaming scanner must reproduce its
// output byte for byte: summaries, reconstructed comm matrices, the error
// list (text, order, event indices, cap), and replay digests. The edge
// cases pin the parser's strictness on malformed documents, duplicate
// keys, escaped strings, and integers beyond 2^53.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mel/gen/generators.hpp"
#include "mel/match/driver.hpp"
#include "mel/net/params_io.hpp"
#include "mel/obs/analysis.hpp"
#include "mel/obs/emit.hpp"
#include "mel/obs/recorder.hpp"
#include "mel/obs/replay.hpp"
#include "trace_scan.hpp"

namespace mel::obs {
namespace {

std::string fnv_hex(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string joined(const std::vector<std::string>& errors) {
  std::string out;
  for (const auto& e : errors) out += e + "\n";
  return out;
}

/// What `meltrace matrix` prints for `s`, without the newline.
std::string matrix_text(const TraceStats& s) {
  std::string text;
  Emitter out(text);
  write_matrix_json(out, s);
  out.flush();
  return text;
}

enum class Scenario { kClean, kLossy, kShrink };

/// A self-contained trace of one 8-rank matching run, as `melsim --trace`
/// records it.
std::string record(match::Model model, Scenario scenario) {
  const auto g = gen::erdos_renyi(600, 3600, 17);
  Recorder rec;
  match::RunConfig cfg;
  cfg.tracer = &rec;
  if (scenario == Scenario::kLossy) {
    cfg.net.chaos.loss = 0.1;
    cfg.net.chaos.seed = 5;
  } else if (scenario == Scenario::kShrink) {
    const auto clean = match::run_match(g, 8, model);
    cfg.net.chaos.crashes.push_back({1, clean.time / 3});
    cfg.net.chaos.crashes.push_back({4, clean.time / 3 + 500});
  }
  rec.set_run_info("match", match::model_name(model), 8, 17);
  rec.set_net_params(cfg.net);
  const auto run = match::run_match(g, 8, model, cfg);
  rec.set_run_result(run.time, run.trace_hash, run.sim_events);
  return rec.to_chrome_json();
}

struct Pin {
  const char* label;
  match::Model model;
  Scenario scenario;
  const char* summary;  // fnv of summarize_json
  const char* matrix;   // fnv of matrix_text
  const char* errors;   // fnv of the newline-joined error list
  std::size_t nerrors;
  const char* digest;   // replay digest under the recorded parameters
};

constexpr const char* kNoErrors = "14650fb0739d0383";  // fnv of ""

constexpr Pin kPins[] = {
    {"NSR", match::Model::kNsr, Scenario::kClean, "4173532112fe8fca",
     "27b966cb8a571f98", kNoErrors, 0, "dbdfbaf316d49d50"},
    {"RMA", match::Model::kRma, Scenario::kClean, "e385bba4e5323e58",
     "db4df1692a2d26e6", kNoErrors, 0, "22f071111d61824b"},
    {"NCL", match::Model::kNcl, Scenario::kClean, "bfa48e976d3403b0",
     "836bac581271690a", kNoErrors, 0, "fdf319b1100949d8"},
    {"NSR-HIER", match::Model::kNsrHier, Scenario::kClean, "bcc8ab1eb7819844",
     "3faebc010154e86f", kNoErrors, 0, "4828265d81d7cf9b"},
    {"NSR lossy", match::Model::kNsr, Scenario::kLossy, "cadb1963aeb320b3",
     "56ec338df395e517", kNoErrors, 0, "3e803ba14d644a39"},
    {"NSR shrink", match::Model::kNsr, Scenario::kShrink, "0a50b3e832628c73",
     "4146386ec356299a", "04b7d07226151e39", 64, "7f60e7cc5b9b5254"},
};

TEST(TraceIngestGolden, RecordedRunsMatchTheirPins) {
  for (const Pin& pin : kPins) {
    const std::string text = record(pin.model, pin.scenario);
    const TraceStats stats = analyze_trace_text(text);
    const Replayer rp(load_replay_trace_text(text));
    char digest[24];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(rp.replay().digest));
    EXPECT_EQ(fnv_hex(summarize_json(stats)), pin.summary) << pin.label;
    EXPECT_EQ(fnv_hex(matrix_text(stats)), pin.matrix) << pin.label;
    EXPECT_EQ(fnv_hex(joined(stats.errors)), pin.errors)
        << pin.label << ":\n" << joined(stats.errors);
    EXPECT_EQ(stats.errors.size(), pin.nerrors) << pin.label;
    EXPECT_EQ(std::string(digest), pin.digest) << pin.label;
  }
}

// -- hand-built documents ---------------------------------------------------

/// The summary a malformed document must produce: one error, nothing else.
std::string only_error(const std::string& what) {
  TraceStats s;
  s.errors.push_back(what);
  return summarize_json(s);
}

TEST(TraceIngestGolden, MalformedDocumentsYieldExactlyOneError) {
  const std::string ev =
      R"({"name":"x","ph":"X","ts":1.0,"pid":0,"tid":0,"dur":1.0})";
  const std::pair<std::string, std::string> cases[] = {
      {R"({"traceEvents":[)" + ev + ",",
       "JSON parse error at byte 73: unexpected end of input"},
      {R"({"traceEvents":[)" + ev + "]} x",
       "JSON parse error at byte 75: trailing garbage after JSON document"},
      {R"({"traceEvents":[)" + ev + ",]}",
       "JSON parse error at byte 73: expected a value"},
      {R"({"traceEvents":[)" + ev + R"(],"x":tru})",
       "JSON parse error at byte 78: bad literal"},
      {R"({"traceEvents":[)" + ev + R"(],"otherData":{"ranks":4,}})",
       "JSON parse error at byte 97: expected '\"'"},
      {R"({"traceEvents":[{"name":"a\q"}]})",
       "JSON parse error at byte 28: unknown escape"},
      {R"({"traceEvents":[{"name":"a\u00zz"}]})",
       "JSON parse error at byte 31: bad hex digit in \\u escape"},
      {"", "JSON parse error at byte 0: unexpected end of input"},
  };
  for (const auto& [doc, want] : cases) {
    const TraceStats stats = analyze_trace_text(doc);
    ASSERT_EQ(stats.errors.size(), 1u) << doc;
    EXPECT_EQ(stats.errors.front(), want) << doc;
    EXPECT_EQ(summarize_json(stats), only_error(want)) << doc;
  }
}

TEST(TraceIngestGolden, WrongShapesAreReportedOnce) {
  EXPECT_EQ(summarize_json(analyze_trace_text("[1,2,3]")),
            only_error("root is not a JSON object"));
  // A non-array traceEvents discards the otherData rank count too.
  EXPECT_EQ(summarize_json(analyze_trace_text(
                R"({"otherData":{"ranks":4},"traceEvents":5})")),
            only_error("missing or non-array traceEvents"));
  EXPECT_EQ(summarize_json(analyze_trace_text(R"({"otherData":{}})")),
            only_error("missing or non-array traceEvents"));
}

TEST(TraceIngestGolden, FirstDuplicateKeyWinsAtEveryLevel) {
  const std::string doc =
      R"({"traceEvents":[)"
      R"({"name":"a","name":"b","ph":"X","ph":"i","cat":"op","ts":1.0,)"
      R"("ts":9.0,"pid":0,"tid":2,"tid":5,"dur":2.0,"dur":-1},)"
      R"({"name":"w","cat":"wire","ph":"i","ts":2.0,"pid":0,"tid":1,)"
      R"("args":{"src":1,"src":3,"dst":0,"bytes":10,"bytes":99}},)"
      R"({"name":"c","ph":"C","ts":3.0,"pid":0,"tid":0,)"
      R"("args":{"v":1,"v":"x"}}],)"
      R"("traceEvents":[{"name":"z","ph":"X"}],)"
      R"("otherData":{"ranks":4,"ranks":7},"otherData":{"ranks":9}})";
  const TraceStats s = analyze_trace_text(doc);
  EXPECT_EQ(summarize_json(s),
            R"({"schema":"mel.summary/1","events":3,"nranks":4,"max_rank":2,)"
            R"("ts_min_ns":1000,"ts_max_ns":3000,"violations":[],)"
            R"("dangling_flows":0,"spans_by_category":{"a":{"count":1,)"
            R"("total_ns":2000,"max_ns":2000}},"spans_by_rank":{"2":)"
            R"({"count":1,"total_ns":2000,"max_ns":2000}},)"
            R"("flows_by_class":{},"top_spans":[{"category":"a","rank":2,)"
            R"("start_ns":1000,"dur_ns":2000}],"instants":{},)"
            R"("counter_tracks":{"c":1},"wire":{"pairs":1,"msgs":1,)"
            R"("bytes":10}})");
  EXPECT_EQ(matrix_text(s),
            R"({"nranks":4,"total_msgs":1,"total_bytes":10,)"
            R"("msgs":[[0,0,0,0],[1,0,0,0],[0,0,0,0],[0,0,0,0]],)"
            R"("bytes":[[0,0,0,0],[10,0,0,0],[0,0,0,0],[0,0,0,0]]})");
}

TEST(TraceIngestGolden, EscapedStringsAreDecodedBeforeUse) {
  const std::string doc =
      R"({"traceEvents":[)"
      R"({"n\u0061me":"comp\u0075te","ph":"X","ts":1.0,"pid":0,"tid":0,)"
      R"("dur":3.0},)"
      R"({"name":"a\"b\\c\/d\te","ph":"X","ts":2.0,"pid":0,"tid":1,)"
      R"("dur":1.0},)"
      R"({"name":"w","cat":"w\u0069re","ph":"\u0069","ts":2.0,"pid":0,)"
      R"("tid":1,"args":{"src":1,"d\u0073t":0,"bytes":10}},)"
      R"({"name":"\u00e9t\u20acl","cat":"instant","ph":"i","ts":4.0,)"
      R"("pid":0,"tid":0}]})";
  EXPECT_EQ(summarize_json(analyze_trace_text(doc)),
            R"({"schema":"mel.summary/1","events":4,"nranks":0,"max_rank":1,)"
            R"("ts_min_ns":1000,"ts_max_ns":4000,"violations":[],)"
            R"("dangling_flows":0,"spans_by_category":{"a\"b\\c/d\te":)"
            R"({"count":1,"total_ns":1000,"max_ns":1000},"compute":)"
            R"({"count":1,"total_ns":3000,"max_ns":3000}},"spans_by_rank":)"
            R"({"0":{"count":1,"total_ns":3000,"max_ns":3000},"1":)"
            R"({"count":1,"total_ns":1000,"max_ns":1000}},)"
            R"("flows_by_class":{},"top_spans":[{"category":"compute",)"
            R"("rank":0,"start_ns":1000,"dur_ns":3000},)"
            R"({"category":"a\"b\\c/d\te","rank":1,"start_ns":2000,)"
            R"("dur_ns":1000}],)"
            "\"instants\":{\"\xC3\xA9t\xE2\x82\xACl\":1},"
            R"("counter_tracks":{},"wire":{"pairs":1,"msgs":1,"bytes":10}})");
}

TEST(TraceIngestGolden, ErrorListKeepsOrderIndicesAndCap) {
  std::string doc = R"({"traceEvents":[)";
  for (int i = 0; i < 40; ++i) {
    doc += R"(7,{"name":"x","ph":"X","pid":0,"tid":0},)";
  }
  doc += R"({"name":"p2p","ph":"s","ts":1.0,"pid":0,"tid":0,"id":5}]})";
  const TraceStats s = analyze_trace_text(doc);
  ASSERT_EQ(s.errors.size(), 64u);
  EXPECT_EQ(fnv_hex(joined(s.errors)), "609272dc535f503d") << joined(s.errors);
  EXPECT_EQ(s.errors[0], "traceEvents entry is not an object (event 0)");
  EXPECT_EQ(s.errors[63], "event missing numeric ts/pid/tid (event 63)");
}

std::string span(const char* name, int rank, int ts_us, int dur_us) {
  return std::string(R"({"name":")") + name +
         R"(","cat":"op","ph":"X","pid":0,"tid":)" + std::to_string(rank) +
         R"(,"ts":)" + std::to_string(ts_us) + R"(.000,"dur":)" +
         std::to_string(dur_us) + ".000}";
}

TEST(TraceIngestGolden, TopSpansBreakTiesInStreamOrder) {
  // Durations 5, 7, 5, 5, 9, 7: with K = 3 the boundary falls inside the
  // run of 7s; with K = 4 it falls inside the run of 5s.
  const std::string doc = R"({"traceEvents":[)" + span("a", 0, 1, 5) + "," +
                          span("b", 1, 2, 7) + "," + span("c", 2, 3, 5) + "," +
                          span("d", 3, 4, 5) + "," + span("e", 4, 5, 9) + "," +
                          span("f", 5, 6, 7) + "]}";
  auto names = [&doc](int k) {
    std::string out;
    for (const auto& t : analyze_trace_text(doc, k).top_spans) {
      out += t.category;
    }
    return out;
  };
  EXPECT_EQ(names(1), "e");
  EXPECT_EQ(names(2), "eb");
  EXPECT_EQ(names(3), "ebf");
  EXPECT_EQ(names(4), "ebfa");
  EXPECT_EQ(names(5), "ebfac");
  EXPECT_EQ(names(6), "ebfacd");
  EXPECT_EQ(names(10), "ebfacd");
  EXPECT_EQ(names(0), "");
}

/// A minimal mel.trace/2 document around hand-built events.
std::string mini_trace(const std::string& events, int nranks) {
  return "{\"traceEvents\":[" + events +
         "],\"otherData\":{\"schema\":\"mel.trace/2\",\"algo\":\"mini\","
         "\"model\":\"NSR\",\"ranks\":" +
         std::to_string(nranks) + ",\"seed\":1,\"net\":" +
         net::params_to_json(net::Params{}) +
         ",\"config_digest\":\"0x0\",\"run\":{\"time_ns\":9000,"
         "\"trace_hash\":\"0x0\",\"events\":0}}}";
}

TEST(TraceIngestGolden, FlowIdsAbove2To53StayDistinct) {
  std::string events;
  for (const char* id : {"9007199254740992", "9007199254740993"}) {
    events += std::string(R"({"name":"p2p","cat":"flow","ph":"s","id":)") +
              id + R"(,"pid":0,"tid":0,"ts":1.000,)" +
              R"("args":{"src":0,"dst":1,"tag":0,"bytes":116}},)" +
              R"({"name":"p2p","cat":"flow","ph":"f","bp":"e","id":)" + id +
              R"(,"pid":0,"tid":1,"ts":2.000},)";
  }
  events.pop_back();
  const std::string doc = mini_trace(events, 2);
  const TraceStats s = analyze_trace_text(doc);
  EXPECT_TRUE(s.errors.empty()) << joined(s.errors);
  ASSERT_TRUE(s.flows_by_class.count("p2p"));
  EXPECT_EQ(s.flows_by_class.at("p2p").count, 2u);
  EXPECT_EQ(load_replay_trace_text(doc).flows.size(), 2u);
}

// -- numbers outside the ranges the trace's fields take --------------------

/// One wire event in the writer's spelling.
std::string wire(const std::string& src, const std::string& dst) {
  return R"({"name":"wire","cat":"wire","ph":"i","ts":1.000,"pid":0,)"
         R"("tid":0,"s":"t","args":{"src":)" +
         src + R"(,"dst":)" + dst + R"(,"bytes":8}})";
}

/// The error write_matrix_json throws for `s`, or "" when it writes.
std::string matrix_refusal(const TraceStats& s) {
  try {
    matrix_text(s);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TraceIngestGolden, WireRanksOutsideTheRunAreViolations) {
  const std::pair<std::string, std::string> cases[] = {
      {R"({"traceEvents":[)" + wire("-1", "0") + "]}",
       "wire src -1 outside [0, 2147483648) (event 0)"},
      {R"({"traceEvents":[)" + wire("-5000000", "0") + "]}",
       "wire src -5000000 outside [0, 2147483648) (event 0)"},
      {R"({"traceEvents":[)" + wire("3000000000", "0") + "]}",
       "wire src 3000000000 outside [0, 2147483648) (event 0)"},
      {R"({"traceEvents":[)" + wire("1", "0") + "," + wire("2", "4") + "," +
           wire("2", "4") + R"(],"otherData":{"ranks":4}})",
       "wire dst 4 outside [0, 4) (event 1)"},
  };
  for (const auto& [doc, want] : cases) {
    const TraceStats s = analyze_trace_text(doc);
    ASSERT_EQ(s.errors.size(), 1u) << doc << "\n" << joined(s.errors);
    EXPECT_EQ(s.errors.front(), want);
    EXPECT_EQ(s.wire_error, want);
    EXPECT_EQ(matrix_refusal(s), "no comm matrix: " + want);
  }
  // The in-range cell stays in the matrix.
  const TraceStats s = analyze_trace_text(R"({"traceEvents":[)" +
                                          wire("1", "0") + "," +
                                          wire("2", "4") +
                                          R"(],"otherData":{"ranks":4}})");
  ASSERT_EQ(s.wire_matrix.size(), 1u);
  const auto& [pair, cell] = *s.wire_matrix.begin();
  EXPECT_EQ(pair, std::make_pair(1, 0));
  EXPECT_EQ(cell.msgs, 1u);
  EXPECT_EQ(cell.bytes, 8u);
}

TEST(TraceIngestGolden, NumbersNoInt64HoldsAreViolations) {
  const std::pair<std::string, std::string> cases[] = {
      {R"({"traceEvents":[{"name":"x","ph":"X","ts":1.0,"pid":0,)"
       R"("tid":1e400,"dur":1.0}]})",
       "tid outside the int64 range (event 0)"},
      {R"({"traceEvents":[{"name":"p2p","cat":"flow","ph":"s","ts":1.0,)"
       R"("pid":0,"tid":0,"id":9223372036854775808}]})",
       "id outside the int64 range (event 0)"},
      {R"({"traceEvents":[{"name":"w","cat":"wire","ph":"i","ts":1.0,)"
       R"("pid":-1e300,"tid":0,"args":{"src":0,"dst":0,"bytes":8}}]})",
       "pid outside the int64 range (event 0)"},
  };
  for (const auto& [doc, want] : cases) {
    const TraceStats s = analyze_trace_text(doc);
    ASSERT_EQ(s.errors.size(), 1u) << doc << "\n" << joined(s.errors);
    EXPECT_EQ(s.errors.front(), want);
  }
  // A wire event dropped for its number keeps the matrix from printing.
  const TraceStats bad_bytes = analyze_trace_text(
      R"({"traceEvents":[)" + wire("1", "0") + "," +
      R"({"name":"wire","cat":"wire","ph":"i","ts":1.0,"pid":0,"tid":0,)"
      R"("args":{"src":0,"dst":1,"bytes":-1e19}}]})");
  ASSERT_EQ(bad_bytes.errors.size(), 1u) << joined(bad_bytes.errors);
  EXPECT_EQ(bad_bytes.errors.front(),
            "args.bytes outside the int64 range (event 1)");
  EXPECT_EQ(matrix_refusal(bad_bytes),
            "no comm matrix: args.bytes outside the int64 range (event 1)");
  // Fractions in range still truncate toward zero.
  const TraceStats fraction = analyze_trace_text(
      R"({"traceEvents":[{"name":"x","ph":"X","ts":1.0,"pid":0,)"
      R"("tid":2.7,"dur":1.0}]})");
  EXPECT_TRUE(fraction.errors.empty()) << joined(fraction.errors);
  EXPECT_EQ(fraction.max_rank, 2);

  // The replay loader skips such an event: here the begin, so the finish
  // has nothing to attach to.
  const std::string begin =
      R"({"name":"p2p","cat":"flow","ph":"s","ts":1.000,"pid":0,"tid":0,)"
      R"("id":5,"args":{"src":0,"dst":1,"tag":TAG,"bytes":116}},)"
      R"({"name":"p2p","cat":"flow","ph":"f","ts":2.000,"pid":0,"tid":1,)"
      R"("bp":"e","id":5})";
  const auto flows_with_tag = [&begin](const std::string& tag) {
    std::string events = begin;
    events.replace(events.find("TAG"), 3, tag);
    return load_replay_trace_text(mini_trace(events, 2)).flows.size();
  };
  EXPECT_EQ(flows_with_tag("7"), 1u);
  EXPECT_EQ(flows_with_tag("1e400"), 0u);
}

// -- chunked file ingest ----------------------------------------------------

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

TEST(TraceIngestGolden, FileAndTextIngestAgreeAcrossChunkBoundaries) {
  // A real trace several buffers long: events, escapes and numbers land
  // on every possible offset relative to a chunk boundary.
  const auto g = gen::erdos_renyi(2500, 16000, 3);
  Recorder rec;
  match::RunConfig cfg;
  cfg.tracer = &rec;
  rec.set_run_info("match", "NSR", 16, 3);
  rec.set_net_params(cfg.net);
  const auto run = match::run_match(g, 16, match::Model::kNsr, cfg);
  rec.set_run_result(run.time, run.trace_hash, run.sim_events);
  const std::string text = rec.to_chrome_json();
  ASSERT_GT(text.size(), 2u << 20);
  const std::string path = write_temp("golden_big.trace.json", text);

  const TraceStats from_text = analyze_trace_text(text, 25);
  const TraceStats from_file = analyze_trace_file(path, 25);
  EXPECT_TRUE(from_file.errors.empty()) << joined(from_file.errors);
  EXPECT_EQ(summarize_json(from_file), summarize_json(from_text));
  EXPECT_EQ(summarize(from_file), summarize(from_text));
  EXPECT_EQ(matrix_text(from_file), matrix_text(from_text));

  const Replayer a(load_replay_trace_text(text));
  const Replayer b(load_replay_trace_file(path));
  EXPECT_TRUE(b.fidelity_errors().empty());
  EXPECT_EQ(a.replay().digest, b.replay().digest);
  EXPECT_EQ(a.trace().flows.size(), b.trace().flows.size());
  EXPECT_EQ(a.trace().spans.size(), b.trace().spans.size());
  std::remove(path.c_str());
}

TEST(TraceIngestGolden, EveryTokenSurvivesAChunkBoundary) {
  // Over 2 MiB of one repeated pair of events: one in the writer's own
  // spelling, which the fast path takes, and one holding every token kind,
  // which the generic reader takes. So the refill at the first buffer
  // boundary overwrites the whole buffer. Leading whitespace shifts the
  // document by 0..pair-length bytes, so that boundary lands at each byte
  // offset of both events in turn.
  const std::string event =
      R"({"name":"wire","cat":"wire","ph":"i","ts":12.500,"pid":0,"tid":3,)"
      R"("s":"t","args":{"src":31,"dst":1,"bytes":1024}},)"
      R"({"name":"wire","cat":"wire","ph":"i","ts":12.5e0,"pid":0,)"
      R"("tid":3,"args":{"src":31,"dst":1,"bytes":1024,"t":true,)"
      R"("f":false,"n":null,"s":"a\"b"}})";
  std::string events;
  while (events.size() < (2u << 20) + 4 * event.size()) {
    events += event + ",";
  }
  events += event;
  const std::string doc = R"({"traceEvents":[)" + events + "]}";
  const std::string want = summarize_json(analyze_trace_text(doc));
  EXPECT_NE(want.find(R"("bytes":)"), std::string::npos);
  json::Reader in(doc);
  std::size_t scanned = 0;
  const TraceDoc d =
      scan_trace(in, [&scanned](const TraceEvent&) { ++scanned; });
  EXPECT_EQ(2 * d.fast_events, scanned);  // both paths, event for event
  for (std::size_t pad = 0; pad <= event.size(); ++pad) {
    const std::string path =
        write_temp("golden_shift.trace.json", std::string(pad, ' ') + doc);
    ASSERT_EQ(summarize_json(analyze_trace_file(path)), want) << pad;
    std::remove(path.c_str());
  }
}

TEST(TraceIngestGolden, ValuesLongerThanOneChunkStream) {
  // A 3 MiB string (with escapes scattered through it) inside a skipped
  // args member, then an escaped span name and a malformed tail.
  std::string pad;
  for (int i = 0; i < (3 << 20) / 16; ++i) pad += "0123456789ab\\\"\\n";
  const std::string doc =
      R"({"traceEvents":[{"name":"x","ph":"X","ts":1.5,"pid":0,"tid":0,)"
      R"("dur":2.25,"args":{"note":")" +
      pad + R"("}},{"name":"y\u0041","ph":"X","ts":3,"pid":0,"tid":1,)"
            R"("dur":1}]})";
  const std::string path = write_temp("golden_long.trace.json", doc);
  EXPECT_EQ(summarize_json(analyze_trace_file(path)),
            summarize_json(analyze_trace_text(doc)));
  EXPECT_EQ(summarize_json(analyze_trace_text(doc)),
            R"({"schema":"mel.summary/1","events":2,"nranks":0,"max_rank":1,)"
            R"("ts_min_ns":1500,"ts_max_ns":3000,"violations":[],)"
            R"("dangling_flows":0,"spans_by_category":{"x":{"count":1,)"
            R"("total_ns":2250,"max_ns":2250},"yA":{"count":1,)"
            R"("total_ns":1000,"max_ns":1000}},"spans_by_rank":{"0":)"
            R"({"count":1,"total_ns":2250,"max_ns":2250},"1":{"count":1,)"
            R"("total_ns":1000,"max_ns":1000}},"flows_by_class":{},)"
            R"("top_spans":[{"category":"x","rank":0,"start_ns":1500,)"
            R"("dur_ns":2250},{"category":"yA","rank":1,"start_ns":3000,)"
            R"("dur_ns":1000}],"instants":{},"counter_tracks":{},)"
            R"("wire":{"pairs":0,"msgs":0,"bytes":0}})");

  const std::string bad = doc.substr(0, doc.size() - 1) + ",";
  const std::string bad_path = write_temp("golden_bad.trace.json", bad);
  const TraceStats s = analyze_trace_file(bad_path);
  ASSERT_EQ(s.errors.size(), 1u);
  EXPECT_EQ(s.errors.front(), analyze_trace_text(bad).errors.front());
  EXPECT_EQ(s.errors.front(),
            "JSON parse error at byte 3145881: unexpected end of input");
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

}  // namespace
}  // namespace mel::obs
