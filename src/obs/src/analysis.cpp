#include "mel/obs/analysis.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "mel/obs/emit.hpp"
#include "mel/obs/key_index.hpp"
#include "trace_scan.hpp"

namespace mel::obs {

using sim::Time;

namespace {

/// Virtual ns as milliseconds, three decimals.
std::string ms(Time ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

/// A JSON object key: names escaped, ranks as they print.
std::string json_key(const std::string& name) { return json_escape(name); }
std::string json_key(int rank) { return std::to_string(rank); }

/// "a -> b (+d)", or "(-d)" when b is smaller.
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

/// Messages and bytes over every wire cell.
TraceStats::Cell wire_totals(const TraceStats& s) {
  TraceStats::Cell sum;
  for (const auto& [pair, cell] : s.wire_matrix) {
    sum.msgs += cell.msgs;
    sum.bytes += cell.bytes;
  }
  return sum;
}

/// Rows of T keyed through a KeyIndex: row i belongs to key i.
template <class Key, class T>
struct Table {
  KeyIndex<Key> keys;
  std::vector<T> rows;

  template <class K>
  T& operator[](const K& key) {
    const std::uint32_t i = keys.find_or_add(key);
    if (i == rows.size()) rows.emplace_back();
    return rows[i];
  }
};

/// Per-flow-id aggregation while walking the event array.
struct FlowAgg {
  std::uint64_t s_count = 0;
  std::uint64_t f_count = 0;
  Time s_ts = 0;
  Time f_ts = 0;
  std::uint64_t bytes = 0;
  std::uint32_t cls = 0;  // interned name of the latest s
};

/// Messages and bytes of one (src, dst) pair of wire events.
struct WireCell {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::size_t first_event = 0;
};

TraceStats only_error(std::string what) {
  TraceStats out;
  out.errors.push_back(std::move(what));
  return out;
}

/// Validate and roll up one trace as the scanner streams it. The rollups
/// are flat tables over interned names, ranks, flow ids and rank pairs,
/// so memory is bounded by the events and top_k spans; TraceStats' maps
/// are filled from them once at the end.
TraceStats analyze(json::Reader& in, int top_k) {
  using Field = TraceEvent::Field;
  TraceStats out;
  auto err = [&out](std::string text) {
    if (out.errors.size() < 64) out.errors.push_back(std::move(text));
  };

  KeyIndex<std::string> names;  // span categories and flow classes
  std::vector<TraceStats::CategoryRoll> by_category;  // by name id
  Table<std::uint64_t, TraceStats::CategoryRoll> by_rank;
  Table<std::uint64_t, FlowAgg> flows;
  Table<std::string, std::uint64_t> instants;
  Table<std::string, std::uint64_t> counters;
  Table<std::pair<std::uint64_t, std::uint64_t>, WireCell> wires;
  std::vector<std::uint64_t> flow_refs;  // flow ids instants name
  // Wire events kept out of the matrix: (event index, violation).
  std::vector<std::pair<std::size_t, std::string>> bad_wires;
  bool first_ts = true;

  // Bounded top-k: a heap whose front is the span to drop next (shortest,
  // then latest in stream order), so the kept spans and their final order
  // equal a stable sort by duration cut to top_k.
  struct Ranked {
    std::uint64_t seq = 0;
    std::uint32_t name = 0;
    int rank = -1;
    Time start_ns = 0;
    Time dur_ns = 0;
  };
  const auto ranks_before = [](const Ranked& a, const Ranked& b) {
    return a.dur_ns != b.dur_ns ? a.dur_ns > b.dur_ns : a.seq < b.seq;
  };
  const std::size_t keep = top_k > 0 ? static_cast<std::size_t>(top_k) : 0;
  std::vector<Ranked> top;
  std::uint64_t spans_seen = 0;

  const auto on_event = [&](const TraceEvent& e) {
    std::string what;
    const Refusal r = gate(e, &what);
    const std::string_view category =
        e.is_string(Field::kCat) ? e.cat : std::string_view();
    if (r != Refusal::kNone) {
      const bool wire_kept_out = r == Refusal::kNotInt64 ||
                                 r == Refusal::kTidOutside ||
                                 r == Refusal::kNegativeWireBytes;
      if (wire_kept_out && e.ph == "i" && category == "wire") {
        bad_wires.emplace_back(e.index, what);
      }
      err(std::move(what));
    }
    if (r < Refusal::kNoTsPidTid) return;
    out.events += 1;
    if (r < Refusal::kNoDur || e.ph == "M") return;

    const std::string_view name = e.name;
    const char p = e.ph[0];
    const Time t = e.ts;
    const int rank = static_cast<int>(e.tid);
    out.max_rank = std::max(out.max_rank, rank);
    if (first_ts || t < out.ts_min_ns) out.ts_min_ns = t;
    if (first_ts || t > out.ts_max_ns) out.ts_max_ns = t;
    first_ts = false;
    // A flow begin refused for its args still starts its flow, without
    // bytes; any other refused event ends here.
    const bool begins_flow =
        r == Refusal::kNegativeFlowBytes || r == Refusal::kWideDstTag;
    if (r != Refusal::kNone && !begins_flow) return;

    if (p == 'X' || (p == 'i' && category == "op")) {
      const Time dur = p == 'X' ? e.dur : 0;
      const std::uint32_t name_id = names.find_or_add(name);
      if (name_id >= by_category.size()) by_category.resize(name_id + 1);
      for (auto* roll : {&by_category[name_id],
                         &by_rank[static_cast<std::uint64_t>(rank)]}) {
        roll->count += 1;
        roll->total_ns += dur;
        roll->max_ns = std::max(roll->max_ns, dur);
      }
      const std::uint64_t seq = spans_seen++;
      if (top.size() == keep) {
        if (keep == 0 || dur <= top.front().dur_ns) return;
        std::pop_heap(top.begin(), top.end(), ranks_before);
        top.pop_back();
      }
      top.push_back({seq, name_id, rank, t, dur});
      std::push_heap(top.begin(), top.end(), ranks_before);
      return;
    }

    if (p == 's' || p == 't' || p == 'f') {
      FlowAgg& agg = flows[static_cast<std::uint64_t>(e.id)];
      if (p == 's') {
        agg.s_count += 1;
        agg.s_ts = t;
        agg.cls = names.find_or_add(name);
        if (!begins_flow && e.is_number(Field::kBytes)) {
          agg.bytes = static_cast<std::uint64_t>(e.bytes);
        }
      } else if (p == 'f') {
        agg.f_count += 1;
        agg.f_ts = t;
      }
      return;
    }

    if (p == 'C') {
      counters[name] += 1;
      return;
    }

    // Instants (non-"op"): faults, crashes, checkpoints, wire transfers.
    if (category == "wire") {
      WireCell& cell = wires[std::make_pair(static_cast<std::uint64_t>(e.src),
                                            static_cast<std::uint64_t>(e.dst))];
      if (cell.msgs == 0) cell.first_event = e.index;
      cell.msgs += 1;
      cell.bytes += static_cast<std::uint64_t>(e.bytes);
      return;
    }
    instants[name] += 1;
    if (e.is_number(Field::kFlow)) {
      flow_refs.push_back(static_cast<std::uint64_t>(e.flow));
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
  // A count outside its range is reported and then read as absent.
  const TraceHeader header =
      read_header(doc.other_data ? &*doc.other_data : nullptr);
  if (header.ranks.got == TraceHeader::Got::kOutside) {
    err(std::string(kRanksOutside));
  }
  out.nranks = static_cast<int>(header.ranks.value);

  // Wire cells: a rank outside the run's range keeps the cell out of the
  // matrix, reported at the pair's first event.
  const std::int64_t rank_bound = out.nranks > 0 ? out.nranks : kMaxRanks;
  std::vector<std::pair<std::size_t, std::string>> bad_ranks;
  for (std::uint32_t i = 0; i < wires.rows.size(); ++i) {
    const auto src = static_cast<std::int64_t>(wires.keys.key(i).first);
    const auto dst = static_cast<std::int64_t>(wires.keys.key(i).second);
    const WireCell& cell = wires.rows[i];
    const bool src_ok = src >= 0 && src < rank_bound;
    if (src_ok && dst >= 0 && dst < rank_bound) {
      out.wire_matrix[{static_cast<int>(src), static_cast<int>(dst)}] = {
          cell.msgs, cell.bytes};
      continue;
    }
    bad_ranks.emplace_back(
        cell.first_event,
        std::string("wire ") + (src_ok ? "dst " : "src ") +
            std::to_string(src_ok ? dst : src) + " outside [0, " +
            std::to_string(rank_bound) + ") (event " +
            std::to_string(cell.first_event) + ")");
  }
  std::sort(bad_ranks.begin(), bad_ranks.end());
  for (auto& bad : bad_ranks) {
    err(bad.second);
    bad_wires.push_back(std::move(bad));
  }
  if (!bad_wires.empty()) {
    out.wire_error =
        std::min_element(bad_wires.begin(), bad_wires.end())->second;
  }

  // Flow-graph validation + per-class rollup, in ascending id order.
  std::vector<std::uint32_t> by_id(flows.rows.size());
  for (std::uint32_t i = 0; i < by_id.size(); ++i) by_id[i] = i;
  std::sort(by_id.begin(), by_id.end(), [&](std::uint32_t a, std::uint32_t b) {
    return flows.keys.key(a) < flows.keys.key(b);
  });
  std::vector<TraceStats::FlowRoll> by_class(names.size());
  std::vector<bool> has_class(names.size(), false);
  for (const std::uint32_t i : by_id) {
    const std::uint64_t id = flows.keys.key(i);
    const FlowAgg& agg = flows.rows[i];
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
    has_class[agg.cls] = true;
    TraceStats::FlowRoll& roll = by_class[agg.cls];
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
  for (const std::uint64_t id : flow_refs) {
    // Flow id 0 never starts a flow: the gate refuses it.
    const std::uint32_t i = flows.keys.find(id);
    if (i == KeyIndex<std::uint64_t>::kNone || flows.rows[i].s_count == 0) {
      err("instant references unknown flow id " + std::to_string(id));
    }
  }

  for (std::uint32_t i = 0; i < by_category.size(); ++i) {
    if (by_category[i].count > 0) {
      out.spans_by_category.emplace(names.key(i), by_category[i]);
    }
  }
  for (std::uint32_t i = 0; i < by_rank.rows.size(); ++i) {
    out.spans_by_rank.emplace(static_cast<int>(by_rank.keys.key(i)),
                              by_rank.rows[i]);
  }
  for (std::uint32_t c = 0; c < names.size(); ++c) {
    if (has_class[c]) out.flows_by_class.emplace(names.key(c), by_class[c]);
  }
  for (std::uint32_t i = 0; i < instants.rows.size(); ++i) {
    out.instants_by_name.emplace(instants.keys.key(i), instants.rows[i]);
  }
  for (std::uint32_t i = 0; i < counters.rows.size(); ++i) {
    out.counter_samples.emplace(counters.keys.key(i), counters.rows[i]);
  }
  std::sort_heap(top.begin(), top.end(), ranks_before);
  for (const Ranked& r : top) {
    out.top_spans.push_back({names.key(r.name), r.rank, r.start_ns, r.dur_ns});
  }
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
    std::int64_t value = 0;
    if (!f->to_int64(value)) {
      err("line " + std::to_string(lineno) + ": '" + std::string(key) +
          "' outside the int64 range");
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

std::string matrix_json(const mpi::CommMatrix& m) {
  TraceStats s;
  s.nranks = m.nranks();
  for (int src = 0; src < m.nranks(); ++src) {
    for (int dst = 0; dst < m.nranks(); ++dst) {
      if (m.msgs(src, dst) > 0) {
        s.wire_matrix[{src, dst}] = {m.msgs(src, dst), m.bytes(src, dst)};
      }
    }
  }
  std::string text;
  Emitter out(text);
  write_matrix_json(out, s);
  out.flush();
  return text;
}

void write_matrix_json(Emitter& out, const TraceStats& s) {
  if (!s.wire_error.empty()) {
    throw std::runtime_error("no comm matrix: " + s.wire_error);
  }
  // 64-bit: a cell at rank 2^31 - 1 makes the dimension 2^31.
  std::int64_t n = std::max(s.nranks, 1);
  for (const auto& [pair, cell] : s.wire_matrix) {
    n = std::max<std::int64_t>(n, std::max(pair.first, pair.second) + 1);
  }
  const TraceStats::Cell total = wire_totals(s);
  // Row by row from the sorted cells: a zero wherever no cell is.
  const auto rows = [&](std::uint64_t TraceStats::Cell::*field) {
    auto it = s.wire_matrix.begin();
    for (std::int64_t src = 0; src < n; ++src) {
      out << (src > 0 ? ",[" : "[");
      for (std::int64_t dst = 0; dst < n; ++dst) {
        if (dst > 0) out << ',';
        if (it != s.wire_matrix.end() && it->first.first == src &&
            it->first.second == dst) {
          out << it->second.*field;
          ++it;
        } else {
          out << '0';
        }
      }
      out << ']';
    }
  };
  out << "{\"nranks\":" << n << ",\"total_msgs\":" << total.msgs
      << ",\"total_bytes\":" << total.bytes << ",\"msgs\":[";
  rows(&TraceStats::Cell::msgs);
  out << "],\"bytes\":[";
  rows(&TraceStats::Cell::bytes);
  out << "]}";
}

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
    const TraceStats::Cell total = wire_totals(s);
    os << "comm matrix (from wire events): " << s.wire_matrix.size()
       << " pair(s), " << total.msgs << " msg(s), " << total.bytes
       << " byte(s)\n";
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
  // The members of one map, each key's value written by `value`.
  const auto members = [&os](const auto& map, const auto& value) {
    const char* sep = "";
    for (const auto& [key, v] : map) {
      os << sep << "\"" << json_key(key) << "\":";
      value(v);
      sep = ",";
    }
  };
  const auto span_roll = [&os](const TraceStats::CategoryRoll& roll) {
    os << "{\"count\":" << roll.count << ",\"total_ns\":" << roll.total_ns
       << ",\"max_ns\":" << roll.max_ns << "}";
  };
  const auto count = [&os](std::uint64_t n) { os << n; };
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
  members(s.spans_by_category, span_roll);
  os << "},\"spans_by_rank\":{";
  members(s.spans_by_rank, span_roll);
  os << "},\"flows_by_class\":{";
  members(s.flows_by_class, [&os](const TraceStats::FlowRoll& roll) {
    os << "{\"count\":" << roll.count << ",\"ended\":" << roll.ended
       << ",\"bytes\":" << roll.bytes
       << ",\"total_latency_ns\":" << roll.total_latency_ns << "}";
  });
  os << "},\"top_spans\":[";
  for (std::size_t i = 0; i < s.top_spans.size(); ++i) {
    const auto& t = s.top_spans[i];
    if (i) os << ",";
    os << "{\"category\":\"" << json_escape(t.category)
       << "\",\"rank\":" << t.rank << ",\"start_ns\":" << t.start_ns
       << ",\"dur_ns\":" << t.dur_ns << "}";
  }
  os << "],\"instants\":{";
  members(s.instants_by_name, count);
  os << "},\"counter_tracks\":{";
  members(s.counter_samples, count);
  const TraceStats::Cell total = wire_totals(s);
  os << "},\"wire\":{\"pairs\":" << s.wire_matrix.size()
     << ",\"msgs\":" << total.msgs << ",\"bytes\":" << total.bytes << "}";
  os << "}";
  return os.str();
}

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

  const TraceStats::Cell wa = wire_totals(a);
  const TraceStats::Cell wb = wire_totals(b);
  os << "wire matrix: pairs " << delta(a.wire_matrix.size(),
                                       b.wire_matrix.size())
     << ", msgs " << delta(wa.msgs, wb.msgs) << ", bytes "
     << delta(wa.bytes, wb.bytes) << "\n";
  os << "dangling flows: " << delta(a.dangling_flows, b.dangling_flows)
     << "\n";
  os << "validation: " << a.errors.size() << " vs " << b.errors.size()
     << " violation(s)\n";
  return os.str();
}

}  // namespace mel::obs
