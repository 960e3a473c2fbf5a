// The trace scanner's fast path for obs::Recorder's own spelling must be
// invisible: it takes every event the writer prints (all but the metadata
// record), and an event spelled any other way, which the generic reader
// takes, gives the same summary, matrix, replay digest and critical path.
// The stamp reading W * 1000 + FFF is checked against ts_to_ns of the
// parsed double on both sides of the bound where they agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "mel/gen/generators.hpp"
#include "mel/match/driver.hpp"
#include "mel/net/params_io.hpp"
#include "mel/obs/analysis.hpp"
#include "mel/obs/critical.hpp"
#include "mel/obs/emit.hpp"
#include "mel/obs/recorder.hpp"
#include "mel/obs/replay.hpp"
#include "mel/util/rng.hpp"
#include "trace_scan.hpp"

namespace mel::obs {
namespace {

/// A self-contained trace of one 8-rank matching run, as `melsim --trace`
/// records it.
std::string record(match::Model model, double loss = 0.0) {
  const auto g = gen::erdos_renyi(400, 2400, 5);
  Recorder rec;
  match::RunConfig cfg;
  cfg.tracer = &rec;
  cfg.net.chaos.loss = loss;
  cfg.net.chaos.seed = 3;
  rec.set_run_info("match", match::model_name(model), 8, 5);
  rec.set_net_params(cfg.net);
  const auto run = match::run_match(g, 8, model, cfg);
  rec.set_run_result(run.time, run.trace_hash, run.sim_events);
  return rec.to_chrome_json();
}

struct Scan {
  std::size_t events = 0;
  std::size_t fast = 0;
};

Scan scan(const std::string& text) {
  json::Reader in(text);
  Scan s;
  s.fast = scan_trace(in, [&s](const TraceEvent&) { ++s.events; }).fast_events;
  return s;
}

/// Everything meltrace prints about a trace, in one string.
std::string outputs(const std::string& text) {
  const TraceStats stats = analyze_trace_text(text);
  const Replayer rp(load_replay_trace_text(text));
  std::string out = summarize_json(stats) + "\n";
  Emitter matrix(out);
  write_matrix_json(matrix, stats);
  matrix.flush();
  return out + "\n" + std::to_string(rp.replay().digest) + "\n" +
         critical_json(critical_path(rp), rp.trace(), 10);
}

/// The trace with every element of traceEvents rewritten by `respell`.
/// The writer puts each event on its own line, after ",\n".
std::string respelled(const std::string& trace,
                      const std::function<std::string(std::string)>& respell) {
  const std::size_t begin = trace.find('[') + 1;
  const std::size_t end = trace.find("],\"displayTimeUnit\"");
  std::string out = trace.substr(0, begin);
  for (std::size_t at = begin; at < end;) {
    std::size_t next = trace.find(",\n", at);
    if (next == std::string::npos || next > end) next = end;
    out += respell(trace.substr(at, next - at));
    if (next < end) out += ",\n";
    at = next == end ? end : next + 2;
  }
  return out + trace.substr(end);
}

/// `text` with `to` in place of the first `from`, if any.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// The event's top-level members, split at the commas outside strings and
/// nested values.
std::vector<std::string> members(const std::string& event) {
  std::vector<std::string> out(1);
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 1; i + 1 < event.size(); ++i) {
    const char c = event[i];
    if (in_string) {
      if (c == '\\') {
        out.back() += event.substr(i++, 2);
        continue;
      }
      if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (c == ',' && depth == 0) {
      out.emplace_back();
      continue;
    }
    out.back() += c;
  }
  return out;
}

std::string joined(const std::vector<std::string>& parts) {
  std::string out = "{";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    out += (i > 0 ? "," : "") + parts[i];
  }
  return out + "}";
}

/// ts spelled as an exponent: W.FFF as WFFFe-3, the same decimal number.
std::string exponent_stamp(std::string event) {
  const std::size_t at = event.find("\"ts\":");
  if (at == std::string::npos) return event;
  const std::size_t dot = event.find('.', at);
  if (dot == std::string::npos || event.compare(at + 5, 1, "-") == 0) {
    return event;
  }
  event.erase(dot, 1);
  event.insert(dot + 3, "e-3");
  return event;
}

struct Respelling {
  const char* label;
  std::function<std::string(std::string)> respell;
};

const std::vector<Respelling>& respellings() {
  static const std::vector<Respelling> kAll = {
      {"whitespace after separators",
       [](std::string e) {
         std::string out;
         bool in_string = false;
         for (std::size_t i = 0; i < e.size(); ++i) {
           const char c = e[i];
           out += c;
           if (in_string) {
             if (c == '\\') out += e[++i];
             else if (c == '"') in_string = false;
           } else if (c == '"') {
             in_string = true;
           } else if (c == ',' || c == ':') {
             out += ' ';
           }
         }
         return out;
       }},
      {"a reordered key",
       [](std::string e) {
         auto parts = members(e);
         std::rotate(parts.begin(), parts.begin() + 1, parts.end());
         return joined(parts);
       }},
      {"a \\u escape",
       [](std::string e) {
         // The name's first byte as \u00XX: the same name, escaped.
         const std::size_t at = e.find("{\"name\":\"") + 9;
         char hex[8];
         const auto byte = static_cast<unsigned char>(e[at]);
         std::snprintf(hex, sizeof hex, "\\u%04x", static_cast<unsigned>(byte));
         return e.replace(at, 1, hex);
       }},
      {"exponent stamps", exponent_stamp},
      {"-0",
       [](std::string e) { return replaced(e, "\"pid\":0", "\"pid\":-0"); }},
      {"19-digit ids",
       [](std::string e) {
         const std::size_t at = e.find("\"id\":");
         if (at == std::string::npos) return e;
         std::size_t digits = at + 5;
         while (e[digits] >= '0' && e[digits] <= '9') ++digits;
         e.insert(at + 5, std::string(19 - (digits - at - 5), '0'));
         return e;
       }},
  };
  return kAll;
}

TEST(TraceFastPath, TakesEveryRecordedEventButTheMetadata) {
  for (const auto& [label, text] :
       {std::pair{"NSR", record(match::Model::kNsr)},
        std::pair{"RMA", record(match::Model::kRma)},
        std::pair{"NCL", record(match::Model::kNcl)},
        std::pair{"lossy NSR", record(match::Model::kNsr, 0.1)}}) {
    const Scan s = scan(text);
    EXPECT_GT(s.events, 1000u) << label;
    EXPECT_EQ(s.fast, s.events - 1) << label;
  }
}

TEST(TraceFastPath, RespelledEventsReadTheSame) {
  for (const auto& [label, text] :
       {std::pair{"NSR", record(match::Model::kNsr)},
        std::pair{"RMA", record(match::Model::kRma)},
        std::pair{"NCL", record(match::Model::kNcl)},
        std::pair{"lossy NSR", record(match::Model::kNsr, 0.1)}}) {
    const std::string want = outputs(text);
    for (const Respelling& r : respellings()) {
      const std::string other = respelled(text, r.respell);
      ASSERT_NE(other, text) << label << ", " << r.label;
      EXPECT_EQ(outputs(other), want) << label << ", " << r.label;
    }
  }
}

TEST(TraceFastPath, RespellingsTakeTheGenericReader) {
  const std::string text = record(match::Model::kNsr);
  std::size_t flow_events = 0;
  for (std::size_t at = 0; (at = text.find("\"cat\":\"flow\"", at)) !=
                           std::string::npos;
       ++at) {
    ++flow_events;
  }
  const std::size_t events = scan(text).events;
  ASSERT_GT(flow_events, 100u);
  // What the fast path still takes: "-0" is an exact int64 as it is, and
  // padded ids are only on flow events.
  const std::size_t fast[] = {0, 0, 0, 0, events - 1,
                              events - 1 - flow_events};
  ASSERT_EQ(std::size(fast), respellings().size());
  for (std::size_t i = 0; i < std::size(fast); ++i) {
    const Scan s = scan(respelled(text, respellings()[i].respell));
    EXPECT_EQ(s.events, events) << respellings()[i].label;
    EXPECT_EQ(s.fast, fast[i]) << respellings()[i].label;
  }
}

/// A one-span trace at `ts_us`, spelled W.FFF, with a metadata header.
std::string span_at(const std::string& ts_us, const std::string& sep) {
  return "{\"traceEvents\":[{\"name\":\"compute\"," + sep + "\"cat\":\"op\"," +
         sep + "\"ph\":\"X\",\"ts\":" + ts_us +
         ",\"pid\":0,\"tid\":1,\"dur\":2.500}],\"otherData\":{\"ranks\":2}}";
}

std::string micros(sim::Time ns) {
  char buf[kMicrosChars];
  return std::string(buf, format_micros(buf, ns));
}

TEST(TraceFastPath, LargeStampsReadAsTheGenericReaderReadsThem) {
  constexpr sim::Time kBound = kFastStampMicros * 1000;
  const sim::Time stamps[] = {
      kBound - 1000 - 1, kBound - 1,   kBound,
      kBound + 1000 + 7, 2 * kBound,   2 * kBound + 123,
      3 * kBound + 999,  4 * kBound - 1};
  for (const sim::Time ns : stamps) {
    const std::string fast = span_at(micros(ns), "");
    const std::string generic = span_at(micros(ns), " ");
    EXPECT_EQ(scan(fast).fast, ns < kBound ? 1u : 0u) << ns;
    EXPECT_EQ(scan(generic).fast, 0u) << ns;
    EXPECT_EQ(summarize_json(analyze_trace_text(fast)),
              summarize_json(analyze_trace_text(generic)))
        << ns;
  }
}

/// ts_to_ns of the double the generic reader parses from `text`.
sim::Time generic_ns(const std::string& text) {
  double us = 0;
  std::from_chars(text.data(), text.data() + text.size(), us);
  return ts_to_ns(us);
}

/// The fast reading of `text`, or -1 when it refuses the text.
sim::Time fast_ns(const std::string& text) {
  sim::Time ns = 0;
  const char* end = text.data() + text.size();
  return read_stamp(text.data(), end, ns) == end ? ns : -1;
}

TEST(TraceFastPath, StampsReadAsTsToNsDoes) {
  for (sim::Time ns = 0; ns < 2'000'000; ++ns) {
    const std::string text = micros(ns);
    ASSERT_EQ(fast_ns(text), ns) << text;
    ASSERT_EQ(generic_ns(text), ns) << text;
  }
  constexpr sim::Time kBound = kFastStampMicros * 1000;
  util::Xoshiro256 rng(41);
  for (int i = 0; i < 1'000'000; ++i) {
    const auto ns = static_cast<sim::Time>(rng.next_below(kBound));
    const std::string text = micros(ns);
    ASSERT_EQ(fast_ns(text), generic_ns(text)) << text;
    ASSERT_EQ(fast_ns(text), ns) << text;
  }
  // Both sides of the bound: below it the two readings agree, from it on
  // the fast path refuses the stamp.
  for (sim::Time ns = kBound - 5000; ns < kBound + 5000; ++ns) {
    const std::string text = micros(ns);
    if (ns < kBound) {
      ASSERT_EQ(fast_ns(text), generic_ns(text)) << text;
    } else {
      ASSERT_EQ(fast_ns(text), -1) << text;
    }
  }
  for (const char* text : {"", "1", "1.", "1.00", "-1.000", "1e3", ".500",
                           "12345678901234.000", "2199023255552.000"}) {
    EXPECT_EQ(fast_ns(text), -1) << text;
  }
  EXPECT_EQ(fast_ns("2199023255551.999"), kBound - 1);
}

TEST(TraceFastPath, FlowIdTwoToThe62SizesNothing) {
  // The writer's spelling around ids 3 and 2^62: an array sized by an id
  // value would throw or exhaust memory here.
  const std::string big = "4611686018427387904";
  std::string events;
  for (const auto& [id, src, dst, at] :
       {std::tuple{std::string("3"), 1, 0, 1500},
        std::tuple{big, 0, 1, 1000}}) {
    const std::string s = std::to_string(src);
    const std::string d = std::to_string(dst);
    events += "{\"name\":\"p2p\",\"cat\":\"flow\",\"ph\":\"s\",\"ts\":" +
              micros(at) + ",\"pid\":0,\"tid\":" + s + ",\"id\":" + id +
              ",\"args\":{\"src\":" + s + ",\"dst\":" + d +
              ",\"tag\":0,\"bytes\":116}},\n"
              "{\"name\":\"p2p\",\"cat\":\"flow\",\"ph\":\"f\",\"ts\":" +
              micros(at + 1000) + ",\"pid\":0,\"tid\":" + d +
              ",\"bp\":\"e\",\"id\":" + id + "},\n";
  }
  events += "{\"name\":\"ft-retransmit\",\"cat\":\"instant\",\"ph\":\"i\","
            "\"ts\":1.800,\"pid\":0,\"tid\":1,\"s\":\"t\",\"args\":{\"flow\":" +
            big + "}}";
  const std::string text =
      "{\"traceEvents\":[" + events +
      "],\"otherData\":{\"schema\":\"mel.trace/2\",\"ranks\":2,\"net\":" +
      net::params_to_json(net::Params{}) +
      ",\"run\":{\"time_ns\":4000,\"trace_hash\":\"0x0\",\"events\":0}}}";
  // 2^62 has 19 digits: its three events take the generic reader.
  EXPECT_EQ(scan(text).fast, 2u);

  const TraceStats stats = analyze_trace_text(text);
  EXPECT_TRUE(stats.errors.empty());
  EXPECT_EQ(stats.flows_by_class.at("p2p").count, 2u);
  const ReplayTrace trace = load_replay_trace_text(text);
  ASSERT_EQ(trace.flows.size(), 2u);
  EXPECT_EQ(trace.flows[0].id, 3u);
  EXPECT_EQ(trace.flows[1].id, std::uint64_t{1} << 62);
  EXPECT_TRUE(trace.flows[1].repaired);
  EXPECT_TRUE(Replayer(trace).fidelity_errors().empty());
}

TEST(TraceFastPath, RecorderHoldsOnlyTheFlowsItBegan) {
  // The largest FlowId: a table sized by the id would take 2^32 slots.
  constexpr FlowId kLast = 0xffffffffu;
  Recorder rec;
  rec.flow_begin(kLast, Channel::kP2P, 0, 1, 0, 116, 1000);
  rec.flow_step(kLast, 1, 2000);
  rec.flow_end(kLast, 1, 3000);
  rec.flow_begin(3, Channel::kRma, 1, 0, 0, 64, 1500);
  rec.flow_end(7, 0, 2500);  // never begun: ignored
  ASSERT_EQ(rec.flows().size(), 2u);
  const std::string text = rec.to_chrome_json();
  // Written in ascending id order, whatever the order they began in.
  const std::size_t low = text.find("\"id\":3,");
  const std::size_t high = text.find("\"id\":4294967295,");
  ASSERT_NE(low, std::string::npos);
  ASSERT_NE(high, std::string::npos);
  EXPECT_LT(low, high);
  EXPECT_EQ(text.find("\"id\":7"), std::string::npos);
}

}  // namespace
}  // namespace mel::obs
