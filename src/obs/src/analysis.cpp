#include "mel/obs/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "trace_scan.hpp"

namespace mel::obs {

using sim::Time;

std::string matrix_json(const mpi::CommMatrix& m) {
  std::string out = "{\"nranks\":" + std::to_string(m.nranks()) +
                    ",\"total_msgs\":" + std::to_string(m.total_msgs()) +
                    ",\"total_bytes\":" + std::to_string(m.total_bytes()) +
                    ",\"msgs\":[";
  for (int s = 0; s < m.nranks(); ++s) {
    if (s > 0) out += ",";
    out += "[";
    for (int d = 0; d < m.nranks(); ++d) {
      if (d > 0) out += ",";
      out += std::to_string(m.msgs(s, d));
    }
    out += "]";
  }
  out += "],\"bytes\":[";
  for (int s = 0; s < m.nranks(); ++s) {
    if (s > 0) out += ",";
    out += "[";
    for (int d = 0; d < m.nranks(); ++d) {
      if (d > 0) out += ",";
      out += std::to_string(m.bytes(s, d));
    }
    out += "]";
  }
  out += "]}";
  return out;
}

mpi::CommMatrix TraceStats::to_comm_matrix() const {
  int n = nranks;
  for (const auto& [pair, cell] : wire_matrix) {
    n = std::max(n, std::max(pair.first, pair.second) + 1);
  }
  mpi::CommMatrix m(std::max(n, 1));
  for (const auto& [pair, cell] : wire_matrix) {
    // record() adds one message at a time; rebuild counts exactly.
    for (std::uint64_t i = 1; i < cell.msgs; ++i) {
      m.record(pair.first, pair.second, 0);
    }
    if (cell.msgs > 0) m.record(pair.first, pair.second, cell.bytes);
  }
  return m;
}

namespace {

Time ts_to_ns(double ts_us) {
  return static_cast<Time>(std::llround(ts_us * 1000.0));
}

/// Per-flow-id aggregation while walking the event array.
struct FlowAgg {
  std::uint64_t s_count = 0;
  std::uint64_t f_count = 0;
  Time s_ts = 0;
  Time f_ts = 0;
  std::uint64_t bytes = 0;
  std::string cls;
};

TraceStats only_error(std::string what) {
  TraceStats out;
  out.errors.push_back(std::move(what));
  return out;
}

/// Validate and roll up one trace as the scanner streams it. Memory is
/// bounded by the rollups, the per-flow table and top_k spans.
TraceStats analyze(json::Reader& in, int top_k) {
  TraceStats out;
  auto err = [&out](std::string text) {
    if (out.errors.size() < 64) out.errors.push_back(std::move(text));
  };

  std::map<std::uint64_t, FlowAgg> flows;
  std::vector<std::pair<std::uint64_t, Time>> flow_refs;  // instants -> flows
  bool first_ts = true;

  // Bounded top-k: a heap whose front is the span to drop next (shortest,
  // then latest in stream order), so the kept spans and their final order
  // equal a stable sort by duration cut to top_k.
  struct Ranked {
    std::uint64_t seq = 0;
    TraceStats::TopSpan span;
  };
  const auto ranks_before = [](const Ranked& a, const Ranked& b) {
    return a.span.dur_ns != b.span.dur_ns ? a.span.dur_ns > b.span.dur_ns
                                          : a.seq < b.seq;
  };
  const std::size_t keep = top_k > 0 ? static_cast<std::size_t>(top_k) : 0;
  std::vector<Ranked> top;
  std::uint64_t spans_seen = 0;

  static const std::string kKnown = "XistfCM";
  const auto on_event = [&](const TraceEvent& e) {
    auto where = [&e] { return " (event " + std::to_string(e.index) + ")"; };
    if (!e.is_object) {
      err("traceEvents entry is not an object" + where());
      return;
    }
    if (!e.name.is_string() || !e.ph.is_string() || e.ph.string.size() != 1) {
      err("event without a string name/ph" + where());
      return;
    }
    const std::string& name = e.name.string;
    const char p = e.ph.string[0];
    if (kKnown.find(p) == std::string::npos) {
      err("unknown phase '" + e.ph.string + "'" + where());
      return;
    }
    out.events += 1;
    if (p == 'M') return;  // metadata: no timestamp requirements

    if (!e.ts.is_number() || !e.pid.is_number() || !e.tid.is_number()) {
      err("event missing numeric ts/pid/tid" + where());
      return;
    }
    const Time t = ts_to_ns(e.ts.number);
    const int rank = static_cast<int>(e.tid.as_int());
    out.max_rank = std::max(out.max_rank, rank);
    if (first_ts || t < out.ts_min_ns) out.ts_min_ns = t;
    if (first_ts || t > out.ts_max_ns) out.ts_max_ns = t;
    first_ts = false;

    const std::string empty;
    const std::string& category = e.cat.is_string() ? e.cat.string : empty;

    if (p == 'X' || (p == 'i' && category == "op")) {
      Time dur = 0;
      if (p == 'X') {
        if (!e.dur.is_number() || e.dur.number < 0) {
          err("X event without a non-negative dur" + where());
          return;
        }
        dur = ts_to_ns(e.dur.number);
      }
      auto& roll = out.spans_by_category[name];
      roll.count += 1;
      roll.total_ns += dur;
      roll.max_ns = std::max(roll.max_ns, dur);
      auto& rroll = out.spans_by_rank[rank];
      rroll.count += 1;
      rroll.total_ns += dur;
      rroll.max_ns = std::max(rroll.max_ns, dur);
      const std::uint64_t seq = spans_seen++;
      if (top.size() == keep) {
        if (keep == 0 || dur <= top.front().span.dur_ns) return;
        std::pop_heap(top.begin(), top.end(), ranks_before);
        top.pop_back();
      }
      top.push_back({seq, {name, rank, t, dur}});
      std::push_heap(top.begin(), top.end(), ranks_before);
      return;
    }

    if (p == 's' || p == 't' || p == 'f') {
      if (!e.id.is_number()) {
        err("flow event without an id" + where());
        return;
      }
      auto& agg = flows[static_cast<std::uint64_t>(e.id.as_int())];
      if (p == 's') {
        agg.s_count += 1;
        agg.s_ts = t;
        agg.cls = name;
        if (e.bytes.is_number()) {
          agg.bytes = static_cast<std::uint64_t>(e.bytes.as_int());
        }
      } else if (p == 'f') {
        agg.f_count += 1;
        agg.f_ts = t;
      }
      return;
    }

    if (p == 'C') {
      if (!e.args.is_object() || !e.args_first_is_number) {
        err("C event without a numeric args value" + where());
        return;
      }
      out.counter_samples[name] += 1;
      return;
    }

    // Instants (non-"op"): faults, crashes, checkpoints, wire transfers.
    if (category == "wire") {
      if (!e.src.is_number() || !e.dst.is_number() || !e.bytes.is_number()) {
        err("wire event without numeric args src/dst/bytes" + where());
        return;
      }
      auto& cell = out.wire_matrix[{static_cast<int>(e.src.as_int()),
                                    static_cast<int>(e.dst.as_int())}];
      cell.msgs += 1;
      cell.bytes += static_cast<std::uint64_t>(e.bytes.as_int());
      return;
    }
    out.instants_by_name[name] += 1;
    if (e.flow.is_number()) {
      flow_refs.emplace_back(static_cast<std::uint64_t>(e.flow.as_int()), t);
    }
  };

  TraceDoc doc;
  try {
    doc = scan_trace(in, on_event);
  } catch (const json::ParseError& e) {
    return only_error(e.what());
  }
  if (!doc.is_object) return only_error("root is not a JSON object");
  if (!doc.has_events) return only_error("missing or non-array traceEvents");
  if (doc.other_data) {
    if (const json::Value* ranks = doc.other_data->find("ranks")) {
      if (ranks->is_number()) out.nranks = static_cast<int>(ranks->as_int());
    }
  }

  // Flow-graph validation + per-class rollup.
  for (const auto& [id, agg] : flows) {
    if (agg.s_count == 0) {
      err("flow " + std::to_string(id) + " has steps/finish but no start");
      continue;
    }
    if (agg.s_count > 1) {
      err("flow " + std::to_string(id) + " has " +
          std::to_string(agg.s_count) + " start events");
    }
    if (agg.f_count > 1) {
      err("flow " + std::to_string(id) + " has " +
          std::to_string(agg.f_count) + " finish events");
    }
    auto& roll = out.flows_by_class[agg.cls];
    roll.count += 1;
    roll.bytes += agg.bytes;
    if (agg.f_count >= 1) {
      if (agg.f_ts < agg.s_ts) {
        err("flow " + std::to_string(id) + " finishes at " +
            std::to_string(agg.f_ts) + "ns before its start at " +
            std::to_string(agg.s_ts) + "ns");
      }
      roll.ended += 1;
      roll.total_latency_ns += agg.f_ts - agg.s_ts;
    } else {
      out.dangling_flows += 1;
    }
  }
  if (out.dangling_flows > 0) {
    err(std::to_string(out.dangling_flows) +
        " dangling flow id(s): started but never finished");
  }
  for (const auto& [id, t] : flow_refs) {
    auto it = flows.find(id);
    if (id == 0 || it == flows.end() || it->second.s_count == 0) {
      err("instant references unknown flow id " + std::to_string(id));
    }
  }

  std::sort_heap(top.begin(), top.end(), ranks_before);
  for (Ranked& r : top) out.top_spans.push_back(std::move(r.span));
  return out;
}

/// Validate a metrics JSONL stream line by line.
std::vector<std::string> validate_metrics(std::istream& in) {
  std::vector<std::string> errors;
  auto err = [&errors](std::string e) {
    if (errors.size() < 64) errors.push_back(std::move(e));
  };
  std::string line;
  std::size_t lineno = 0;
  bool saw_header = false;
  std::int64_t ranks = 0;
  auto need_int = [&err](const json::Value& v, const char* key,
                         std::size_t lineno) -> bool {
    const json::Value* f = v.find(key);
    if (f == nullptr || !f->is_number()) {
      err("line " + std::to_string(lineno) + ": missing numeric '" +
          std::string(key) + "'");
      return false;
    }
    return true;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    json::Value v;
    try {
      v = json::parse(line);
    } catch (const json::ParseError& e) {
      err("line " + std::to_string(lineno) + ": " + e.what());
      continue;
    }
    const json::Value* type = v.find("type");
    if (!v.is_object() || type == nullptr || !type->is_string()) {
      err("line " + std::to_string(lineno) + ": record without a type");
      continue;
    }
    const std::string& ty = type->string;
    if (ty == "header") {
      if (lineno != 1) {
        err("line " + std::to_string(lineno) +
            ": header must be the first record");
      }
      saw_header = true;
      const json::Value* schema = v.find("schema");
      if (schema == nullptr || !schema->is_string() ||
          schema->string != "mel.metrics/1") {
        err("line " + std::to_string(lineno) +
            ": unknown or missing schema (want mel.metrics/1)");
      }
      if (need_int(v, "ranks", lineno)) ranks = v.find("ranks")->as_int();
      continue;
    }
    if (!saw_header) {
      err("line " + std::to_string(lineno) + ": record before the header");
      saw_header = true;  // report once
    }
    const bool known = ty == "sample" || ty == "iteration" ||
                       ty == "instant" || ty == "run";
    if (!known) {
      err("line " + std::to_string(lineno) + ": unknown record type '" + ty +
          "'");
      continue;
    }
    if (ty == "run") {
      need_int(v, "time_ns", lineno);
      need_int(v, "events", lineno);
      continue;
    }
    if (!need_int(v, "t", lineno) || !need_int(v, "rank", lineno)) continue;
    const std::int64_t t = v.find("t")->as_int();
    const std::int64_t rank = v.find("rank")->as_int();
    if (t < 0) err("line " + std::to_string(lineno) + ": negative t");
    if (rank < -1 || (ranks > 0 && rank >= ranks)) {
      err("line " + std::to_string(lineno) + ": rank " + std::to_string(rank) +
          " outside [-1, " + std::to_string(ranks) + ")");
    }
    if (ty == "sample") {
      need_int(v, "value", lineno);
      const json::Value* n = v.find("name");
      if (n == nullptr || !n->is_string()) {
        err("line " + std::to_string(lineno) + ": sample without a name");
      }
    } else if (ty == "iteration") {
      need_int(v, "iter", lineno);
      need_int(v, "active", lineno);
      need_int(v, "dt", lineno);
      need_int(v, "d_bytes_p2p", lineno);
      need_int(v, "d_bytes_rma", lineno);
      need_int(v, "d_bytes_coll", lineno);
    } else if (ty == "instant") {
      const json::Value* n = v.find("name");
      if (n == nullptr || !n->is_string()) {
        err("line " + std::to_string(lineno) + ": instant without a name");
      }
    }
  }
  if (!saw_header && lineno > 0) err("no header record");
  if (lineno == 0) err("empty metrics stream");
  return errors;
}

std::ifstream open_or_throw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open: " + path);
  return in;
}

}  // namespace

TraceStats analyze_trace_text(const std::string& text, int top_k) {
  json::Reader in(text);
  return analyze(in, top_k);
}

TraceStats analyze_trace_file(const std::string& path, int top_k) {
  std::ifstream file = open_or_throw(path);
  json::Reader in(file);
  return analyze(in, top_k);
}

std::vector<std::string> validate_metrics_text(const std::string& text) {
  std::istringstream in(text);
  return validate_metrics(in);
}

std::vector<std::string> validate_metrics_file(const std::string& path) {
  std::ifstream in = open_or_throw(path);
  return validate_metrics(in);
}

namespace {
std::string ms(Time ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}
}  // namespace

std::string summarize(const TraceStats& s) {
  std::ostringstream os;
  os << "events: " << s.events << "  ranks: 0.." << s.max_rank
     << "  span: [" << ms(s.ts_min_ns) << ", " << ms(s.ts_max_ns) << "] ms\n";
  if (!s.errors.empty()) {
    os << "validation: " << s.errors.size() << " violation(s)\n";
    for (const auto& e : s.errors) os << "  ! " << e << "\n";
  } else {
    os << "validation: clean\n";
  }
  if (!s.spans_by_category.empty()) {
    os << "operations (category, count, total ms, max ms):\n";
    for (const auto& [cat, roll] : s.spans_by_category) {
      os << "  " << cat << "  " << roll.count << "  " << ms(roll.total_ns)
         << "  " << ms(roll.max_ns) << "\n";
    }
  }
  if (!s.flows_by_class.empty()) {
    os << "flows (class, count, ended, bytes, mean latency us):\n";
    for (const auto& [cls, roll] : s.flows_by_class) {
      const double mean_us =
          roll.ended > 0 ? static_cast<double>(roll.total_latency_ns) /
                               (1e3 * static_cast<double>(roll.ended))
                         : 0.0;
      char mean[32];
      std::snprintf(mean, sizeof mean, "%.2f", mean_us);
      os << "  " << cls << "  " << roll.count << "  " << roll.ended << "  "
         << roll.bytes << "  " << mean << "\n";
    }
    if (s.dangling_flows > 0) {
      os << "  dangling flows: " << s.dangling_flows << "\n";
    }
  }
  if (!s.top_spans.empty()) {
    os << "longest operations:\n";
    for (const auto& t : s.top_spans) {
      os << "  " << t.category << " rank " << t.rank << " @" << ms(t.start_ns)
         << "ms for " << ms(t.dur_ns) << "ms\n";
    }
  }
  if (!s.wire_matrix.empty()) {
    std::uint64_t msgs = 0, bytes = 0;
    for (const auto& [pair, cell] : s.wire_matrix) {
      msgs += cell.msgs;
      bytes += cell.bytes;
    }
    os << "comm matrix (from wire events): " << s.wire_matrix.size()
       << " pair(s), " << msgs << " msg(s), " << bytes << " byte(s)\n";
  }
  if (!s.instants_by_name.empty()) {
    os << "instants:\n";
    for (const auto& [name, count] : s.instants_by_name) {
      os << "  " << name << "  " << count << "\n";
    }
  }
  if (!s.counter_samples.empty()) {
    std::uint64_t total = 0;
    for (const auto& [track, n] : s.counter_samples) total += n;
    os << "counter tracks: " << s.counter_samples.size() << " (" << total
       << " samples)\n";
  }
  return os.str();
}

std::string summarize_json(const TraceStats& s) {
  std::ostringstream os;
  os << "{\"schema\":\"mel.summary/1\"";
  os << ",\"events\":" << s.events;
  os << ",\"nranks\":" << s.nranks;
  os << ",\"max_rank\":" << s.max_rank;
  os << ",\"ts_min_ns\":" << s.ts_min_ns;
  os << ",\"ts_max_ns\":" << s.ts_max_ns;
  os << ",\"violations\":[";
  for (std::size_t i = 0; i < s.errors.size(); ++i) {
    if (i) os << ",";
    os << "\"" << json_escape(s.errors[i]) << "\"";
  }
  os << "],\"dangling_flows\":" << s.dangling_flows;
  os << ",\"spans_by_category\":{";
  bool first = true;
  for (const auto& [cat, roll] : s.spans_by_category) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(cat) << "\":{\"count\":" << roll.count
       << ",\"total_ns\":" << roll.total_ns << ",\"max_ns\":" << roll.max_ns
       << "}";
  }
  os << "},\"spans_by_rank\":{";
  first = true;
  for (const auto& [rank, roll] : s.spans_by_rank) {
    if (!first) os << ",";
    first = false;
    os << "\"" << rank << "\":{\"count\":" << roll.count
       << ",\"total_ns\":" << roll.total_ns << ",\"max_ns\":" << roll.max_ns
       << "}";
  }
  os << "},\"flows_by_class\":{";
  first = true;
  for (const auto& [cls, roll] : s.flows_by_class) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(cls) << "\":{\"count\":" << roll.count
       << ",\"ended\":" << roll.ended << ",\"bytes\":" << roll.bytes
       << ",\"total_latency_ns\":" << roll.total_latency_ns << "}";
  }
  os << "},\"top_spans\":[";
  for (std::size_t i = 0; i < s.top_spans.size(); ++i) {
    const auto& t = s.top_spans[i];
    if (i) os << ",";
    os << "{\"category\":\"" << json_escape(t.category)
       << "\",\"rank\":" << t.rank << ",\"start_ns\":" << t.start_ns
       << ",\"dur_ns\":" << t.dur_ns << "}";
  }
  os << "],\"instants\":{";
  first = true;
  for (const auto& [name, count] : s.instants_by_name) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << count;
  }
  os << "},\"counter_tracks\":{";
  first = true;
  for (const auto& [track, n] : s.counter_samples) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(track) << "\":" << n;
  }
  std::uint64_t msgs = 0, bytes = 0;
  for (const auto& [pair, cell] : s.wire_matrix) {
    msgs += cell.msgs;
    bytes += cell.bytes;
  }
  os << "},\"wire\":{\"pairs\":" << s.wire_matrix.size()
     << ",\"msgs\":" << msgs << ",\"bytes\":" << bytes << "}";
  os << "}";
  return os.str();
}

namespace {
std::string delta(std::uint64_t a, std::uint64_t b) {
  std::ostringstream os;
  os << a << " -> " << b;
  if (b >= a) {
    os << " (+" << (b - a) << ")";
  } else {
    os << " (-" << (a - b) << ")";
  }
  return os.str();
}
}  // namespace

std::string diff(const TraceStats& a, const TraceStats& b,
                 const std::string& label_a, const std::string& label_b) {
  std::ostringstream os;
  os << "diff: " << label_a << " vs " << label_b << "\n";
  os << "events: " << delta(a.events, b.events) << "\n";
  os << "virtual span: " << ms(a.ts_max_ns - a.ts_min_ns) << "ms vs "
     << ms(b.ts_max_ns - b.ts_min_ns) << "ms\n";

  std::map<std::string, std::pair<TraceStats::CategoryRoll,
                                  TraceStats::CategoryRoll>> cats;
  for (const auto& [cat, roll] : a.spans_by_category) cats[cat].first = roll;
  for (const auto& [cat, roll] : b.spans_by_category) cats[cat].second = roll;
  if (!cats.empty()) {
    os << "operations (category: count A -> B, total ms A -> B):\n";
    for (const auto& [cat, rolls] : cats) {
      os << "  " << cat << ": " << delta(rolls.first.count, rolls.second.count)
         << ", " << ms(rolls.first.total_ns) << " -> "
         << ms(rolls.second.total_ns) << "\n";
    }
  }

  std::map<std::string,
           std::pair<TraceStats::FlowRoll, TraceStats::FlowRoll>> classes;
  for (const auto& [cls, roll] : a.flows_by_class) classes[cls].first = roll;
  for (const auto& [cls, roll] : b.flows_by_class) classes[cls].second = roll;
  if (!classes.empty()) {
    os << "flows (class: count A -> B, bytes A -> B):\n";
    for (const auto& [cls, rolls] : classes) {
      os << "  " << cls << ": "
         << delta(rolls.first.count, rolls.second.count) << ", "
         << delta(rolls.first.bytes, rolls.second.bytes) << "\n";
    }
  }

  std::uint64_t amsgs = 0, abytes = 0, bmsgs = 0, bbytes = 0;
  for (const auto& [pair, cell] : a.wire_matrix) {
    amsgs += cell.msgs;
    abytes += cell.bytes;
  }
  for (const auto& [pair, cell] : b.wire_matrix) {
    bmsgs += cell.msgs;
    bbytes += cell.bytes;
  }
  os << "wire matrix: pairs " << delta(a.wire_matrix.size(),
                                       b.wire_matrix.size())
     << ", msgs " << delta(amsgs, bmsgs) << ", bytes "
     << delta(abytes, bbytes) << "\n";
  os << "dangling flows: " << delta(a.dangling_flows, b.dangling_flows)
     << "\n";
  os << "validation: " << a.errors.size() << " vs " << b.errors.size()
     << " violation(s)\n";
  return os.str();
}

}  // namespace mel::obs
