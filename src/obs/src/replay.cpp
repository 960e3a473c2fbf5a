#include "mel/obs/replay.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "mel/mpi/message.hpp"
#include "mel/net/params_io.hpp"
#include "mel/obs/key_index.hpp"
#include "trace_scan.hpp"

namespace mel::obs {

namespace {

bool parse_channel(std::string_view name, Channel& out) {
  if (name == "p2p") out = Channel::kP2P;
  else if (name == "rma") out = Channel::kRma;
  else if (name == "neighbor") out = Channel::kNeighbor;
  else if (name == "ft") out = Channel::kFt;
  else return false;
  return true;
}

/// The event categories the loader reads.
enum class Category { kOther, kFlow, kOp, kInstant };

Category category_of(std::string_view cat) {
  if (cat == "flow") return Category::kFlow;
  if (cat == "op") return Category::kOp;
  if (cat == "instant") return Category::kInstant;
  return Category::kOther;
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

/// Takes trace events in stream order. The first s per flow id wins (id
/// reuse across crash recovery), and the first t and f after it attach
/// to it; finish() drops structurally inconsistent flows, marks repaired
/// ones and orders flows and spans.
struct EventSink {
  KeyIndex<std::uint64_t> ids;  // flow id -> index into flows
  std::vector<ReplayFlow> flows;  // first-begin order
  std::vector<ReplayTrace::Span> spans;
  std::vector<std::uint64_t> repaired_ids;

  void flow_start(std::uint64_t id, Channel ch, Rank src, Time at, Rank dst,
                  int tag, std::uint64_t bytes) {
    if (ids.find_or_add(id) < flows.size()) return;  // first s wins
    ReplayFlow& f = flows.emplace_back();
    f.id = id;
    f.channel = ch;
    f.begin = at;
    f.src = src;
    f.dst = dst;
    f.tag = tag;
    f.bytes = bytes;
  }
  /// The flow a t or f event attaches to: begun earlier in the stream.
  ReplayFlow* begun(std::uint64_t id) {
    const std::uint32_t i = ids.find(id);
    return i == KeyIndex<std::uint64_t>::kNone ? nullptr : &flows[i];
  }
  void flow_step(std::uint64_t id, Time at) {
    ReplayFlow* f = begun(id);
    if (f == nullptr || f->has_step) return;
    f->has_step = true;
    f->step = at;
  }
  void flow_finish(std::uint64_t id, Rank rank, Time at) {
    ReplayFlow* f = begun(id);
    if (f == nullptr || f->ended) return;
    f->ended = true;
    f->end = at;
    f->end_rank = rank;
  }

  void finish(ReplayTrace& t) {
    ids = {};
    std::sort(repaired_ids.begin(), repaired_ids.end());
    std::sort(flows.begin(), flows.end(),
              [](const ReplayFlow& a, const ReplayFlow& b) {
                return a.id < b.id;
              });
    // Drop structurally inconsistent flows (crash-recovery id reuse can
    // pair a later begin with an earlier end) and flows no Network can
    // price (a negative byte count reads as above the bound); pinned
    // fidelity covers fault-free runs, where none of these fire.
    const auto inconsistent = [&t](const ReplayFlow& f) {
      return f.bytes > net::kMaxTransferBytes ||
             (f.has_step && f.step < f.begin) ||
             (f.ended && f.end < f.begin) ||
             (f.ended && f.has_step && f.end < f.step) || f.src < 0 ||
             f.src >= t.nranks || f.dst < 0 || f.dst >= t.nranks ||
             (f.ended && (f.end_rank < 0 || f.end_rank >= t.nranks));
    };
    flows.erase(std::remove_if(flows.begin(), flows.end(), inconsistent),
                flows.end());
    flows.shrink_to_fit();  // the Replayer keeps them for its lifetime
    for (ReplayFlow& f : flows) {
      f.repaired =
          std::binary_search(repaired_ids.begin(), repaired_ids.end(), f.id);
    }
    t.flows = std::move(flows);
    t.spans = by_rank(spans, t.nranks);
  }

  /// `spans` in (rank, start, end) order, exactly sized: a counting sort
  /// by rank, then a sort of each rank's run only where the trace did not
  /// already list that rank's spans in time order. Ranks below 0 share a
  /// run, and so do ranks from min(nranks, spans) on, so the runs are
  /// never more than the spans.
  static std::vector<ReplayTrace::Span> by_rank(
      const std::vector<ReplayTrace::Span>& spans, int nranks) {
    const auto runs = static_cast<Rank>(
        std::min(static_cast<std::size_t>(nranks), spans.size()));
    const auto run_of = [runs](Rank r) -> std::size_t {
      return r < 0 ? 0 : r < runs ? static_cast<std::size_t>(r) + 1
                                  : static_cast<std::size_t>(runs) + 1;
    };
    std::vector<std::size_t> next(static_cast<std::size_t>(runs) + 3, 0);
    for (const ReplayTrace::Span& sp : spans) ++next[run_of(sp.rank) + 1];
    std::partial_sum(next.begin(), next.end(), next.begin());
    const std::vector<std::size_t> first = next;
    std::vector<ReplayTrace::Span> out(spans.size());
    for (const ReplayTrace::Span& sp : spans) out[next[run_of(sp.rank)]++] = sp;
    const auto before = [](const ReplayTrace::Span& a,
                           const ReplayTrace::Span& b) {
      return std::tie(a.rank, a.start, a.end) <
             std::tie(b.rank, b.start, b.end);
    };
    for (std::size_t r = 0; r + 1 < first.size(); ++r) {
      const auto lo = out.begin() + static_cast<std::ptrdiff_t>(first[r]);
      const auto hi = out.begin() + static_cast<std::ptrdiff_t>(first[r + 1]);
      if (!std::is_sorted(lo, hi, before)) std::sort(lo, hi, before);
    }
    return out;
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
    const std::int64_t n = v->as_int();
    t.nranks = n <= std::numeric_limits<int>::max() ? static_cast<int>(n) : 0;
  }
  if (const json::Value* v = od->find("seed"); v && v->is_number()) {
    if (!v->to_uint64(t.seed)) fail("metadata header seed is not a uint64");
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
    if (!v->to_int64(t.run_time_ns)) fail("run result time_ns is not an int64");
  } else {
    fail("run result has no time_ns");
  }
  if (const json::Value* v = run->find("trace_hash"); v && v->is_string()) {
    t.trace_hash = parse_hex_u64(v->string);
  }
  if (const json::Value* v = run->find("events"); v && v->is_number()) {
    if (!v->to_uint64(t.run_events)) fail("run result events is not a uint64");
  }
}

/// One traceEvents element into the sink. Malformed or foreign events
/// are skipped rather than rejected: validation is meltrace validate's job.
void add_event(const TraceEvent& ev, EventSink& sink) {
  using Field = TraceEvent::Field;
  if (!ev.is_object || !ev.is_string(Field::kPh) ||
      !ev.is_string(Field::kCat)) {
    return;  // metadata records ("M") and friends
  }
  if (!ev.is_number(Field::kTs) || ev.not_int64 != 0) return;
  const Time at = ev.ts;
  const Rank rank = ev.is_number(Field::kTid) ? static_cast<Rank>(ev.tid) : -1;
  const char ph = ev.ph.size() == 1 ? ev.ph[0] : '\0';
  const Category cat = category_of(ev.cat);
  if (cat == Category::kFlow) {
    if (!ev.is_number(Field::kId) || ev.id <= 0) return;
    const auto id = static_cast<std::uint64_t>(ev.id);
    if (ph == 's') {
      Channel ch;
      if (!ev.is_string(Field::kName) || !parse_channel(ev.name, ch)) return;
      const Rank dst =
          ev.is_number(Field::kDst) ? static_cast<Rank>(ev.dst) : -1;
      const int tag = ev.is_number(Field::kTag) ? static_cast<int>(ev.tag) : 0;
      const std::uint64_t bytes =
          ev.is_number(Field::kBytes) ? static_cast<std::uint64_t>(ev.bytes)
                                      : 0;
      sink.flow_start(id, ch, rank, at, dst, tag, bytes);
    } else if (ph == 't') {
      sink.flow_step(id, at);
    } else if (ph == 'f') {
      sink.flow_finish(id, rank, at);
    }
  } else if (cat == Category::kOp) {
    if (ph != 'X' || !ev.is_string(Field::kName) ||
        !ev.is_number(Field::kDur)) {
      return;
    }
    ReplayTrace::SpanClass cls;
    if (ev.name == "compute") {
      cls = ReplayTrace::SpanClass::kCompute;
    } else if (is_barrier_span(ev.name)) {
      cls = ReplayTrace::SpanClass::kBarrier;
    } else {
      return;
    }
    sink.spans.push_back({.start = at, .end = at + ev.dur, .rank = rank,
                          .cls = cls});
  } else if (cat == Category::kInstant) {
    if (ev.is_string(Field::kName) && is_ft_repair_instant(ev.name) &&
        ev.is_number(Field::kFlow)) {
      sink.repaired_ids.push_back(static_cast<std::uint64_t>(ev.flow));
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
  // Flow indexes order the anchors as flow ids do.
  assert(std::adjacent_find(flows.begin(), flows.end(),
                            [](const ReplayFlow& a, const ReplayFlow& b) {
                              return a.id >= b.id;
                            }) == flows.end());
  anchors_.reserve(flows.size() * 3);
  for (std::uint32_t i = 0; i < nflows; ++i) {
    const ReplayFlow& f = flows[i];
    anchors_.push_back({.t = f.begin, .flow = i, .rank = f.src,
                        .kind = Kind::kBegin, .channel = f.channel});
    if (f.has_step) {
      anchors_.push_back({.t = f.step, .flow = i, .rank = f.dst,
                          .kind = Kind::kDeliver, .channel = f.channel});
    }
    if (f.ended) {
      anchors_.push_back({.t = f.end, .flow = i, .rank = f.end_rank,
                          .kind = Kind::kEnd, .channel = f.channel});
    }
  }
  // Topological order: every edge points strictly forward in recorded
  // time except same-time chain neighbors, whose relative order this very
  // sort defines — so processing anchors in sorted order is valid.
  std::sort(anchors_.begin(), anchors_.end(),
            [](const Anchor& a, const Anchor& b) {
              return std::tie(a.t, a.rank, a.flow, a.kind) <
                     std::tie(b.t, b.rank, b.flow, b.kind);
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
  // Flows have src, dst and end rank in [0, nranks), so a rank pair packs
  // into one 64-bit key.
  const auto pair_key = [](Rank a, Rank b) {
    return static_cast<std::uint64_t>(a) << 32 | static_cast<std::uint32_t>(b);
  };
  // Non-overtaking deliveries: per (channel, src, dst, tag) for two-sided
  // mailbox arrivals (strict +1 floors in the machine), per (src, dst)
  // completion order for one-sided puts (ordered-put floors allow ties).
  KeyIndex<std::pair<std::uint64_t, std::uint64_t>> deliver_keys;
  KeyIndex<std::uint64_t> put_keys;
  std::vector<std::int32_t> last_deliver;
  std::vector<std::int32_t> last_put_end;
  // Neighbor groups: completions keyed by (rank, time) — one collective
  // call's consumed slices all end at the same instant — and begins keyed
  // the same way to find the call head (collective entry) and tail
  // (send-side staging copy).
  using RankTime = std::pair<std::uint64_t, std::uint64_t>;
  const auto rank_time = [](const Anchor& a) {
    return RankTime(static_cast<std::uint64_t>(a.rank),
                    static_cast<std::uint64_t>(a.t));
  };
  KeyIndex<RankTime> end_group;  // index = group id
  struct BeginGroup {
    std::int32_t head = -1;
    std::int32_t tail = -1;
    std::int32_t count = 0;
    std::uint64_t payload = 0;
  };
  KeyIndex<RankTime> begin_keys;
  std::vector<BeginGroup> begin_group;

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
          const std::uint32_t k = begin_keys.find_or_add(rank_time(a));
          if (k == begin_group.size()) begin_group.emplace_back();
          BeginGroup& g = begin_group[k];
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
          const std::uint32_t k = deliver_keys.find_or_add(RankTime(
              pair_key(f.src, f.dst),
              static_cast<std::uint64_t>(static_cast<std::uint32_t>(f.tag))
                      << 8 |
                  static_cast<std::uint64_t>(f.channel)));
          if (k == last_deliver.size()) last_deliver.push_back(-1);
          a.order_prev = last_deliver[k];
          last_deliver[k] = idx;
        }
        break;
      }
      case Kind::kEnd: {
        a.wire_from = f.has_step ? d_idx_[a.flow] : b_idx_[a.flow];
        if (f.channel == Channel::kRma) {
          const std::uint32_t k = put_keys.find_or_add(pair_key(f.src, f.dst));
          if (k == last_put_end.size()) last_put_end.push_back(-1);
          a.order_prev = last_put_end[k];
          last_put_end[k] = idx;
        } else if (f.channel == Channel::kNeighbor) {
          const std::uint32_t g = end_group.find_or_add(rank_time(a));
          if (g == groups_.size()) groups_.emplace_back();
          a.group = static_cast<std::int32_t>(g);
          groups_[g].push_back(a.flow);
        }
        break;
      }
    }
  }
  for (const BeginGroup& g : begin_group) {
    anchors_[static_cast<std::size_t>(g.head)].begin_peers = g.count;
    if (g.payload == 0) continue;
    anchors_[static_cast<std::size_t>(g.tail)].copy_after = true;
    send_copies_.emplace_back(g.tail, g.payload);
  }
  std::sort(send_copies_.begin(), send_copies_.end());
  terms_old_ = flow_terms(net::Network(trace_.nranks, trace_.net));
}

std::uint64_t Replayer::send_copy_bytes(std::int32_t i) const {
  const auto it = std::lower_bound(
      send_copies_.begin(), send_copies_.end(), i,
      [](const std::pair<std::int32_t, std::uint64_t>& c, std::int32_t at) {
        return c.first < at;
      });
  return it != send_copies_.end() && it->first == i ? it->second : 0;
}

std::vector<Replayer::FlowTerms> Replayer::flow_terms(
    const net::Network& net) const {
  std::vector<FlowTerms> terms(trace_.flows.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const ReplayFlow& f = trace_.flows[i];
    terms[i] = {net.transfer_time(f.src, f.dst, f.bytes),
                net.send_overhead(f.src, f.dst),
                net.recv_overhead(f.src, f.dst)};
  }
  return terms;
}

Time Replayer::evaluate(const net::Params& params,
                        const std::vector<FlowTerms>& terms,
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
    const FlowTerms& old_t = terms_old_[a.flow];
    const FlowTerms& new_t = terms[a.flow];
    Time best = std::numeric_limits<Time>::min();

    if (in_chain(a.kind, a.channel)) {
      Time prev_rec = 0;
      Time prev_new = 0;
      Time model_old = 0;
      Time model_new = 0;
      if (a.chain_prev >= 0) {
        const Anchor& p = anchors_[static_cast<std::size_t>(a.chain_prev)];
        prev_rec = p.t;
        prev_new = out[static_cast<std::size_t>(a.chain_prev)];
        if (p.copy_after) {
          const std::uint64_t bytes = send_copy_bytes(a.chain_prev);
          model_old += net_old.copy_time(bytes);
          model_new += net_new.copy_time(bytes);
        }
      }
      if (a.kind == Kind::kBegin) {
        if (is_p2p_like(a.channel)) {
          model_old += old_t.send;
          model_new += new_t.send;
        } else if (a.channel == Channel::kRma) {
          model_old += trace_.net.o_put;
          model_new += params.o_put;
        } else if (a.channel == Channel::kNeighbor && a.begin_head) {
          model_old += persistent ? trace_.net.o_coll_persistent_start
                                  : net_old.collective_entry(a.begin_peers);
          model_new += persistent ? params.o_coll_persistent_start
                                  : net_new.collective_entry(a.begin_peers);
        }
      } else if (is_p2p_like(a.channel)) {  // kEnd: receive completion
        model_old += old_t.recv;
        model_new += new_t.recv;
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
        if (a.kind == Kind::kDeliver || a.channel == Channel::kRma) {
          model_old = old_t.transfer;
          model_new = new_t.transfer;
        } else if (w.kind == Kind::kDeliver) {  // delivery -> completion
          model_old = old_t.recv;
          model_new = new_t.recv;
        } else {  // parked-waiter receive: wire + recv overhead in one hop
          model_old = old_t.transfer + old_t.recv;
          model_new = new_t.transfer + new_t.recv;
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
  // The pass's terms are freed before the roll-up allocates.
  res.total_ns = evaluate(
      params, flow_terms(net::Network(trace_.nranks, params)), at);

  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(res.total_ns));

  constexpr Channel kChannels[] = {Channel::kP2P, Channel::kRma,
                                   Channel::kNeighbor, Channel::kFt};
  ReplayResult::ClassRoll by_channel[std::size(kChannels)];
  res.flow_end.reserve(trace_.flows.size());
  for (std::size_t i = 0; i < trace_.flows.size(); ++i) {
    const ReplayFlow& f = trace_.flows[i];
    auto& roll = by_channel[static_cast<std::size_t>(f.channel)];
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
  for (const Channel ch : kChannels) {
    const auto& roll = by_channel[static_cast<std::size_t>(ch)];
    if (roll.count > 0) res.by_class.emplace(channel_name(ch), roll);
  }
  res.digest = h;
  return res;
}

std::vector<std::string> Replayer::fidelity_errors() const {
  constexpr std::size_t kMaxReports = 16;
  std::vector<std::string> errors;
  std::vector<Time> at;
  const Time total = evaluate(trace_.net, terms_old_, at);
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
