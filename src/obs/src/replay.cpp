#include "mel/obs/replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "mel/mpi/message.hpp"
#include "mel/net/params_io.hpp"
#include "trace_scan.hpp"

namespace mel::obs {

namespace {

/// Chrome trace timestamps are microsecond floats printed with three
/// decimals from integer nanoseconds, so this round trip is exact (the
/// same conversion obs::analyze_trace_text uses).
Time ts_to_ns(double ts_us) {
  return static_cast<Time>(std::llround(ts_us * 1000.0));
}

bool parse_channel(std::string_view name, Channel& out) {
  if (name == "p2p") out = Channel::kP2P;
  else if (name == "rma") out = Channel::kRma;
  else if (name == "neighbor") out = Channel::kNeighbor;
  else if (name == "ft") out = Channel::kFt;
  else return false;
  return true;
}

bool is_p2p_like(Channel ch) {
  return ch == Channel::kP2P || ch == Channel::kFt;
}

/// Whether an anchor lives on its rank's execution chain. Mailbox
/// deliveries and one-sided put landings are network events — they occur
/// regardless of the rank's local progress, so they get wire/order edges
/// only.
bool in_chain(Replayer::Anchor::Kind kind, Channel ch) {
  if (kind == Replayer::Anchor::Kind::kDeliver) return false;
  if (kind == Replayer::Anchor::Kind::kEnd && ch == Channel::kRma) {
    return false;
  }
  return true;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("replay: " + what);
}

std::uint64_t parse_hex_u64(const std::string& s) {
  return std::stoull(s, nullptr, 16);
}

/// Span names that classify as barrier-family waits (same set the
/// critical-path analyzer reduces to kBarrier).
bool is_barrier_span(std::string_view n) {
  return n == "barrier" || n == "allreduce" || n == "fence" || n == "flush";
}

bool is_ft_repair_instant(std::string_view n) {
  return n == "ft-retransmit" || n == "ft-drop" || n == "ft-corrupt" ||
         n == "ft-dup";
}

/// Accumulates raw trace events in stream order and applies the
/// consolidation rules in finish(): first s/t/f wins per flow id (id
/// reuse across crash recovery), step/finish events attach only to a
/// begin seen earlier in the stream, structurally inconsistent flows are
/// dropped, repaired flows marked, spans ordered.
struct EventSink {
  struct Start {
    std::int64_t id = 0;
    std::uint64_t seq = 0;
    ReplayFlow f;
  };
  struct Phase {  // a "t" (deliver) or "f" (finish) flow event
    std::int64_t id = 0;
    std::uint64_t seq = 0;
    Time at = 0;
    Rank rank = -1;
  };
  std::vector<Start> starts;
  std::vector<Phase> steps;
  std::vector<Phase> finishes;
  std::vector<ReplayTrace::Span> spans;
  std::vector<std::int64_t> repaired_ids;
  std::uint64_t seq = 0;

  void flow_start(std::int64_t id, Channel ch, Rank src, Time at, Rank dst,
                  int tag, std::uint64_t bytes) {
    Start s;
    s.id = id;
    s.seq = seq++;
    s.f.id = static_cast<FlowId>(id);
    s.f.channel = ch;
    s.f.begin = at;
    s.f.src = src;
    s.f.dst = dst;
    s.f.tag = tag;
    s.f.bytes = bytes;
    starts.push_back(s);
  }
  void flow_step(std::int64_t id, Time at) {
    steps.push_back(Phase{id, seq++, at, -1});
  }
  void flow_finish(std::int64_t id, Rank rank, Time at) {
    finishes.push_back(Phase{id, seq++, at, rank});
  }
  void span(Rank rank, Time at, Time dur, ReplayTrace::SpanClass cls) {
    ++seq;
    spans.push_back(ReplayTrace::Span{rank, at, at + dur, cls});
  }
  void repaired(std::int64_t flow) {
    ++seq;
    repaired_ids.push_back(flow);
  }

  void finish(ReplayTrace& t) {
    const auto by_id = [](const auto& a, const auto& b) { return a.id < b.id; };
    // stable_sort keeps stream order within one id, so "first event wins"
    // falls out of taking the first entry of each id run.
    std::stable_sort(starts.begin(), starts.end(), by_id);
    std::stable_sort(steps.begin(), steps.end(), by_id);
    std::stable_sort(finishes.begin(), finishes.end(), by_id);
    std::sort(repaired_ids.begin(), repaired_ids.end());

    t.flows.reserve(starts.size());
    std::size_t si = 0;
    std::size_t fi = 0;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      if (i > 0 && starts[i].id == starts[i - 1].id) continue;  // first s wins
      const std::int64_t id = starts[i].id;
      ReplayFlow f = starts[i].f;
      while (si < steps.size() && steps[si].id < id) ++si;
      for (std::size_t k = si; k < steps.size() && steps[k].id == id; ++k) {
        if (steps[k].seq < starts[i].seq) continue;  // "t" before its begin
        f.has_step = true;
        f.step = steps[k].at;
        break;
      }
      while (fi < finishes.size() && finishes[fi].id < id) ++fi;
      for (std::size_t k = fi; k < finishes.size() && finishes[k].id == id;
           ++k) {
        if (finishes[k].seq < starts[i].seq) continue;
        f.ended = true;
        f.end = finishes[k].at;
        f.end_rank = finishes[k].rank;
        break;
      }
      // Drop structurally inconsistent flows (crash-recovery id reuse can
      // pair a later begin with an earlier end); pinned fidelity covers
      // fault-free runs, where none of these fire.
      if (f.has_step && f.step < f.begin) continue;
      if (f.ended && f.end < f.begin) continue;
      if (f.ended && f.has_step && f.end < f.step) continue;
      if (f.src < 0 || f.src >= t.nranks || f.dst < 0 || f.dst >= t.nranks) {
        continue;
      }
      if (f.ended && (f.end_rank < 0 || f.end_rank >= t.nranks)) continue;
      f.repaired =
          std::binary_search(repaired_ids.begin(), repaired_ids.end(), id);
      t.flows.push_back(f);
    }
    t.spans = std::move(spans);
    std::sort(t.spans.begin(), t.spans.end(),
              [](const ReplayTrace::Span& a, const ReplayTrace::Span& b) {
                return std::tie(a.rank, a.start, a.end) <
                       std::tie(b.rank, b.start, b.end);
              });
  }
};

/// Validate and extract the otherData metadata header (pass nullptr when
/// the trace has none to get the standard diagnostic).
void parse_header(const json::Value* od, ReplayTrace& t) {
  if (od == nullptr || !od->is_object()) {
    fail("trace has no otherData metadata header (re-record with melsim "
         "--trace; replay needs schema " +
         std::string(Recorder::kTraceSchema) + ")");
  }
  const json::Value* schema = od->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != Recorder::kTraceSchema) {
    fail("unsupported trace schema (want " +
         std::string(Recorder::kTraceSchema) +
         "; older traces lack the embedded net params and run result)");
  }

  if (const json::Value* v = od->find("algo"); v && v->is_string()) {
    t.algo = v->string;
  }
  if (const json::Value* v = od->find("model"); v && v->is_string()) {
    t.model = v->string;
  }
  if (const json::Value* v = od->find("ranks"); v && v->is_number()) {
    t.nranks = static_cast<int>(v->as_int());
  }
  if (const json::Value* v = od->find("seed"); v && v->is_number()) {
    t.seed = static_cast<std::uint64_t>(v->as_int());
  }
  if (const json::Value* v = od->find("config_digest"); v && v->is_string()) {
    t.config_digest = v->string;
  }
  if (t.nranks <= 0) fail("metadata header has no positive rank count");

  const json::Value* net = od->find("net");
  if (net == nullptr || !net->is_object()) {
    fail("metadata header has no embedded net params");
  }
  for (const net::ParamField& f : net::param_fields()) {
    const json::Value* v = net->find(f.name);
    if (v == nullptr) fail(std::string("net params missing field ") + f.name);
    if (!v->is_number()) {
      fail(std::string("net params field ") + f.name + " is not a number");
    }
    net::set_param(t.net, f.name,
                   v->is_integer ? static_cast<double>(v->integer) : v->number);
  }

  const json::Value* run = od->find("run");
  if (run == nullptr || !run->is_object()) {
    fail("metadata header has no run result (trace recorded without a "
         "completed run)");
  }
  if (const json::Value* v = run->find("time_ns"); v && v->is_number()) {
    t.run_time_ns = v->as_int();
  } else {
    fail("run result has no time_ns");
  }
  if (const json::Value* v = run->find("trace_hash"); v && v->is_string()) {
    t.trace_hash = parse_hex_u64(v->string);
  }
  if (const json::Value* v = run->find("events"); v && v->is_number()) {
    t.run_events = static_cast<std::uint64_t>(v->as_int());
  }
}

/// One traceEvents element into the sink. Malformed or foreign events
/// are skipped rather than rejected: validation is meltrace validate's job.
void add_event(const TraceEvent& ev, EventSink& sink) {
  if (!ev.is_object || !ev.ph.is_string() || !ev.cat.is_string()) {
    return;  // metadata records ("M") and friends
  }
  if (!ev.ts.is_number()) return;
  const Time at = ts_to_ns(ev.ts.number);
  const Rank rank =
      ev.tid.is_number() ? static_cast<Rank>(ev.tid.as_int()) : -1;
  const std::string& ph = ev.ph.string;
  const std::string& cat = ev.cat.string;
  if (cat == "flow") {
    if (!ev.id.is_number()) return;
    const std::int64_t id = ev.id.as_int();
    if (id <= 0) return;
    if (ph == "s") {
      Channel ch;
      if (!ev.name.is_string() || !parse_channel(ev.name.string, ch)) return;
      const Rank dst =
          ev.dst.is_number() ? static_cast<Rank>(ev.dst.as_int()) : -1;
      const int tag = ev.tag.is_number() ? static_cast<int>(ev.tag.as_int()) : 0;
      const std::uint64_t bytes =
          ev.bytes.is_number() ? static_cast<std::uint64_t>(ev.bytes.as_int())
                               : 0;
      sink.flow_start(id, ch, rank, at, dst, tag, bytes);
    } else if (ph == "t") {
      sink.flow_step(id, at);
    } else if (ph == "f") {
      sink.flow_finish(id, rank, at);
    }
  } else if (cat == "op") {
    if (ph != "X" || !ev.name.is_string() || !ev.dur.is_number()) return;
    ReplayTrace::SpanClass cls;
    if (ev.name.string == "compute") {
      cls = ReplayTrace::SpanClass::kCompute;
    } else if (is_barrier_span(ev.name.string)) {
      cls = ReplayTrace::SpanClass::kBarrier;
    } else {
      return;
    }
    sink.span(rank, at, ts_to_ns(ev.dur.number), cls);
  } else if (cat == "instant") {
    if (ev.name.is_string() && is_ft_repair_instant(ev.name.string) &&
        ev.flow.is_number()) {
      sink.repaired(ev.flow.as_int());
    }
  }
}

ReplayTrace load(json::Reader& in) {
  EventSink sink;
  const TraceDoc doc =
      scan_trace(in, [&sink](const TraceEvent& ev) { add_event(ev, sink); });
  if (!doc.is_object) fail("trace root is not a JSON object");
  if (!doc.has_events) fail("trace has no traceEvents array");
  ReplayTrace t;
  parse_header(doc.other_data ? &*doc.other_data : nullptr, t);
  sink.finish(t);
  return t;
}

}  // namespace

ReplayTrace load_replay_trace_text(const std::string& text) {
  json::Reader in(text);
  return load(in);
}

ReplayTrace load_replay_trace_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) fail("cannot open trace file: " + path);
  json::Reader in(file);
  return load(in);
}

Replayer::Replayer(ReplayTrace trace) : trace_(std::move(trace)) {
  using Kind = Anchor::Kind;
  const auto& flows = trace_.flows;
  const auto nflows = static_cast<std::uint32_t>(flows.size());
  anchors_.reserve(flows.size() * 3);
  for (std::uint32_t i = 0; i < nflows; ++i) {
    const ReplayFlow& f = flows[i];
    anchors_.push_back(Anchor{Kind::kBegin, i, f.src, f.begin});
    if (f.has_step) anchors_.push_back(Anchor{Kind::kDeliver, i, f.dst, f.step});
    if (f.ended) anchors_.push_back(Anchor{Kind::kEnd, i, f.end_rank, f.end});
  }
  // Topological order: every edge points strictly forward in recorded
  // time except same-time chain neighbors, whose relative order this very
  // sort defines — so processing anchors in sorted order is valid.
  std::sort(anchors_.begin(), anchors_.end(),
            [&flows](const Anchor& a, const Anchor& b) {
              return std::tie(a.t, a.rank, flows[a.flow].id, a.kind) <
                     std::tie(b.t, b.rank, flows[b.flow].id, b.kind);
            });

  b_idx_.assign(flows.size(), -1);
  d_idx_.assign(flows.size(), -1);
  e_idx_.assign(flows.size(), -1);
  for (std::size_t i = 0; i < anchors_.size(); ++i) {
    const Anchor& a = anchors_[i];
    auto& slot = a.kind == Kind::kBegin  ? b_idx_
                 : a.kind == Kind::kDeliver ? d_idx_
                                            : e_idx_;
    slot[a.flow] = static_cast<std::int32_t>(i);
  }

  last_anchor_of_rank_.assign(static_cast<std::size_t>(trace_.nranks), -1);
  std::vector<std::int32_t> chain_last(
      static_cast<std::size_t>(trace_.nranks), -1);
  // Non-overtaking deliveries: per (channel, src, dst, tag) for two-sided
  // mailbox arrivals (strict +1 floors in the machine), per (src, dst)
  // completion order for one-sided puts (ordered-put floors allow ties).
  std::map<std::tuple<int, Rank, Rank, int>, std::int32_t> last_deliver;
  std::map<std::pair<Rank, Rank>, std::int32_t> last_put_end;
  // Neighbor groups: completions keyed by (rank, time) — one collective
  // call's consumed slices all end at the same instant — and begins keyed
  // the same way to find the call head (collective entry) and tail
  // (send-side staging copy).
  std::map<std::pair<Rank, Time>, std::int32_t> end_group;
  struct BeginGroup {
    std::int32_t head = -1;
    std::int32_t tail = -1;
    std::int32_t count = 0;
    std::uint64_t payload = 0;
  };
  std::map<std::pair<Rank, Time>, BeginGroup> begin_group;

  for (std::size_t i = 0; i < anchors_.size(); ++i) {
    Anchor& a = anchors_[i];
    const ReplayFlow& f = flows[a.flow];
    const auto idx = static_cast<std::int32_t>(i);
    last_anchor_of_rank_[static_cast<std::size_t>(a.rank)] = idx;
    if (in_chain(a.kind, f.channel)) {
      a.chain_prev = chain_last[static_cast<std::size_t>(a.rank)];
      chain_last[static_cast<std::size_t>(a.rank)] = idx;
    }
    switch (a.kind) {
      case Kind::kBegin:
        if (f.channel == Channel::kNeighbor) {
          BeginGroup& g = begin_group[{a.rank, a.t}];
          if (g.head < 0) {
            g.head = idx;
            anchors_[static_cast<std::size_t>(g.head)].begin_head = true;
          }
          g.tail = idx;
          g.count += 1;
          g.payload +=
              f.bytes > mpi::kHeaderBytes ? f.bytes - mpi::kHeaderBytes : 0;
        }
        break;
      case Kind::kDeliver: {
        a.wire_from = b_idx_[a.flow];
        if (is_p2p_like(f.channel)) {
          auto key = std::make_tuple(static_cast<int>(f.channel), f.src, f.dst,
                                     f.tag);
          auto it = last_deliver.find(key);
          if (it != last_deliver.end()) a.order_prev = it->second;
          last_deliver[key] = idx;
        }
        break;
      }
      case Kind::kEnd: {
        a.wire_from = f.has_step ? d_idx_[a.flow] : b_idx_[a.flow];
        if (f.channel == Channel::kRma) {
          auto key = std::make_pair(f.src, f.dst);
          auto it = last_put_end.find(key);
          if (it != last_put_end.end()) a.order_prev = it->second;
          last_put_end[key] = idx;
        } else if (f.channel == Channel::kNeighbor) {
          auto it = end_group.find({a.rank, a.t});
          if (it == end_group.end()) {
            it = end_group.emplace(std::make_pair(a.rank, a.t),
                                   static_cast<std::int32_t>(groups_.size()))
                     .first;
            groups_.emplace_back();
          }
          a.group = it->second;
          groups_[static_cast<std::size_t>(it->second)].push_back(a.flow);
        }
        break;
      }
    }
  }
  for (const auto& [key, g] : begin_group) {
    anchors_[static_cast<std::size_t>(g.tail)].send_copy_bytes = g.payload;
    anchors_[static_cast<std::size_t>(g.head)].begin_peers = g.count;
  }
}

Time Replayer::evaluate(const net::Params& params,
                        std::vector<Time>& out) const {
  using Kind = Anchor::Kind;
  const auto& flows = trace_.flows;
  const net::Network net_old(trace_.nranks, trace_.net);
  const net::Network net_new(trace_.nranks, params);
  const bool persistent = trace_.model == "NCL-PERSIST";

  // Per-group re-pricing delta: the completion formula sums every
  // consumed slice's wire plus one staging copy of the received payload,
  // so the group moves by the sum of the members' model deltas.
  std::vector<Time> group_delta(groups_.size(), 0);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    Time delta = 0;
    std::uint64_t payload = 0;
    for (const std::uint32_t fi : groups_[g]) {
      const ReplayFlow& f = flows[fi];
      delta += net_new.transfer_time(f.src, f.end_rank, f.bytes) -
               net_old.transfer_time(f.src, f.end_rank, f.bytes);
      payload += f.bytes > mpi::kHeaderBytes ? f.bytes - mpi::kHeaderBytes : 0;
    }
    delta += net_new.copy_time(payload) - net_old.copy_time(payload);
    group_delta[g] = delta;
  }

  // recorded = effective-model + residual; replayed = residual + new
  // model. When the recorded interval is smaller than the old model term
  // (clamped schedules), the interval is carried verbatim — never made
  // negative — which keeps the identity replay exact unconditionally.
  const auto reprice = [](Time raw, Time model_old, Time model_new) {
    const Time eff = model_old < raw ? model_old : raw;
    return raw - eff + (eff == model_old ? model_new : eff);
  };

  out.assign(anchors_.size(), 0);

  for (std::size_t i = 0; i < anchors_.size(); ++i) {
    const Anchor& a = anchors_[i];
    const ReplayFlow& f = flows[a.flow];
    Time best = std::numeric_limits<Time>::min();

    if (in_chain(a.kind, f.channel)) {
      Time prev_rec = 0;
      Time prev_new = 0;
      Time model_old = 0;
      Time model_new = 0;
      if (a.chain_prev >= 0) {
        const Anchor& p = anchors_[static_cast<std::size_t>(a.chain_prev)];
        prev_rec = p.t;
        prev_new = out[static_cast<std::size_t>(a.chain_prev)];
        if (p.send_copy_bytes > 0) {
          model_old += net_old.copy_time(p.send_copy_bytes);
          model_new += net_new.copy_time(p.send_copy_bytes);
        }
      }
      if (a.kind == Kind::kBegin) {
        if (is_p2p_like(f.channel)) {
          model_old += net_old.send_overhead(f.src, f.dst);
          model_new += net_new.send_overhead(f.src, f.dst);
        } else if (f.channel == Channel::kRma) {
          model_old += trace_.net.o_put;
          model_new += params.o_put;
        } else if (f.channel == Channel::kNeighbor && a.begin_head) {
          model_old += persistent ? trace_.net.o_coll_persistent_start
                                  : net_old.collective_entry(a.begin_peers);
          model_new += persistent ? params.o_coll_persistent_start
                                  : net_new.collective_entry(a.begin_peers);
        }
      } else if (is_p2p_like(f.channel)) {  // kEnd: receive completion
        model_old += net_old.recv_overhead(f.src, f.dst);
        model_new += net_new.recv_overhead(f.src, f.dst);
      }
      best = prev_new + reprice(a.t - prev_rec, model_old, model_new);
    }

    if (a.order_prev >= 0) {
      // Two-sided mailbox floors are strict (+1); put completion order
      // admits ties (0).
      const Time gap = a.kind == Kind::kDeliver ? 1 : 0;
      best = std::max(best, out[static_cast<std::size_t>(a.order_prev)] + gap);
    }

    if (a.wire_from >= 0) {
      if (a.group >= 0) {
        // Every consumed slice gates the exchange: the completion must
        // trail each member's (re-timed) begin by that member's recorded
        // interval, shifted by the group's joint re-pricing delta.
        const Time delta = group_delta[static_cast<std::size_t>(a.group)];
        for (const std::uint32_t fi :
             groups_[static_cast<std::size_t>(a.group)]) {
          const std::int32_t bi = b_idx_[fi];  // every flow has a begin
          const Time moved = (a.t - anchors_[static_cast<std::size_t>(bi)].t) +
                             delta;
          best = std::max(best, out[static_cast<std::size_t>(bi)] +
                                    (moved > 0 ? moved : 0));
        }
      } else {
        const Anchor& w = anchors_[static_cast<std::size_t>(a.wire_from)];
        Time model_old = 0;
        Time model_new = 0;
        if (a.kind == Kind::kDeliver || f.channel == Channel::kRma) {
          model_old = net_old.transfer_time(f.src, f.dst, f.bytes);
          model_new = net_new.transfer_time(f.src, f.dst, f.bytes);
        } else if (f.has_step) {  // delivery -> receive completion
          model_old = net_old.recv_overhead(f.src, f.dst);
          model_new = net_new.recv_overhead(f.src, f.dst);
        } else {  // parked-waiter receive: wire + recv overhead in one hop
          model_old = net_old.transfer_time(f.src, f.dst, f.bytes) +
                      net_old.recv_overhead(f.src, f.dst);
          model_new = net_new.transfer_time(f.src, f.dst, f.bytes) +
                      net_new.recv_overhead(f.src, f.dst);
        }
        best = std::max(best, out[static_cast<std::size_t>(a.wire_from)] +
                                  reprice(a.t - w.t, model_old, model_new));
      }
    }

    out[i] = best == std::numeric_limits<Time>::min() ? a.t : best;
  }

  // Run end: each rank finishes its recorded tail (final barrier rounds,
  // teardown — not re-priced) after its last anchor.
  Time total = anchors_.empty() ? trace_.run_time_ns : 0;
  for (Rank r = 0; r < trace_.nranks; ++r) {
    const std::int32_t last = last_anchor_of_rank_[static_cast<std::size_t>(r)];
    if (last < 0) continue;
    const Anchor& a = anchors_[static_cast<std::size_t>(last)];
    total = std::max(total, out[static_cast<std::size_t>(last)] +
                                (trace_.run_time_ns - a.t));
  }
  return total;
}

ReplayResult Replayer::replay(const net::Params& params) const {
  ReplayResult res;
  std::vector<Time> at;
  res.total_ns = evaluate(params, at);

  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(res.total_ns));

  res.flow_end.reserve(trace_.flows.size());
  for (std::size_t i = 0; i < trace_.flows.size(); ++i) {
    const ReplayFlow& f = trace_.flows[i];
    auto& roll = res.by_class[channel_name(f.channel)];
    roll.count += 1;
    roll.bytes += f.bytes;
    if (!f.ended) continue;
    const Time end = at[static_cast<std::size_t>(e_idx_[i])];
    const Time begin = at[static_cast<std::size_t>(b_idx_[i])];
    roll.rec_latency_ns += f.end - f.begin;
    roll.new_latency_ns += end - begin;
    res.flow_end.emplace_back(f.id, end);
    mix(f.id);
    mix(static_cast<std::uint64_t>(end));
  }
  res.digest = h;
  return res;
}

std::vector<std::string> Replayer::fidelity_errors() const {
  constexpr std::size_t kMaxReports = 16;
  std::vector<std::string> errors;
  std::vector<Time> at;
  const Time total = evaluate(trace_.net, at);
  if (total != trace_.run_time_ns) {
    std::ostringstream os;
    os << "total virtual time: recorded " << trace_.run_time_ns
       << " ns, replayed " << total << " ns";
    errors.push_back(os.str());
  }
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < trace_.flows.size(); ++i) {
    const ReplayFlow& f = trace_.flows[i];
    if (!f.ended) continue;
    const Time end = at[static_cast<std::size_t>(e_idx_[i])];
    if (end == f.end) continue;
    if (++mismatched <= kMaxReports) {
      std::ostringstream os;
      os << "flow " << f.id << " (" << channel_name(f.channel) << " " << f.src
         << "->" << f.dst << ", " << f.bytes << " B): recorded end " << f.end
         << " ns, replayed " << end << " ns";
      errors.push_back(os.str());
    }
  }
  if (mismatched > kMaxReports) {
    std::ostringstream os;
    os << "... and " << (mismatched - kMaxReports) << " more flow mismatches";
    errors.push_back(os.str());
  }
  return errors;
}

}  // namespace mel::obs
