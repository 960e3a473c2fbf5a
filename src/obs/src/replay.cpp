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
#include <utility>

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

bool is_p2p_like(Channel ch) {
  return ch == Channel::kP2P || ch == Channel::kFt;
}

/// Whether an anchor lives on its rank's execution chain. Mailbox
/// deliveries and one-sided put landings are network events — they occur
/// regardless of the rank's local progress, so they get wire/order edges
/// only.
bool in_chain(Replayer::Anchor::Kind kind, Channel ch) {
  using Kind = Replayer::Anchor::Kind;
  return kind == Kind::kBegin || (kind == Kind::kEnd && ch != Channel::kRma);
}

/// The payload of a message of `bytes` wire bytes.
std::uint64_t payload_bytes(std::uint64_t bytes) {
  return bytes > mpi::kHeaderBytes ? bytes - mpi::kHeaderBytes : 0;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("replay: " + what);
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

  void flow_start(const ReplayFlow& f) {
    if (ids.find_or_add(f.id) < flows.size()) return;  // first s wins
    flows.push_back(f);
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
    // Drop structurally inconsistent flows and flows no Network can price.
    // A crash run ends the flows it abandons at the crash instant, which
    // can precede a begin the sender's clock had already run past; pinned
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
  /// already list that rank's spans in time order. Rank -1 has a run, and
  /// ranks from min(nranks, spans) on share one, so the runs are never
  /// more than the spans.
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

/// Take the otherData header into `t`, failing on anything replay cannot
/// use.
void take_header(const TraceHeader& h, ReplayTrace& t) {
  using Got = TraceHeader::Got;
  if (!h.is_object) {
    fail("trace has no otherData metadata header (re-record with melsim "
         "--trace; replay needs schema " +
         std::string(Recorder::kTraceSchema) + ")");
  }
  if (h.schema != Recorder::kTraceSchema) {
    fail("unsupported trace schema (want " +
         std::string(Recorder::kTraceSchema) +
         "; older traces lack the embedded net params and run result)");
  }
  if (h.seed.got == Got::kOutside) fail("metadata header seed is not a uint64");
  if (h.ranks.got == Got::kOutside) fail(std::string(kRanksOutside));
  if (h.ranks.got == Got::kAbsent) {
    fail("metadata header has no positive rank count");
  }
  t.algo = h.algo;
  t.model = h.model;
  t.nranks = static_cast<int>(h.ranks.value);
  t.seed = h.seed.value;
  t.config_digest = h.config_digest;

  if (h.net == nullptr) fail("metadata header has no embedded net params");
  for (const net::ParamField& f : net::param_fields()) {
    const json::Value* v = h.net->find(f.name);
    if (v == nullptr) fail(std::string("net params missing field ") + f.name);
    if (!v->is_number()) {
      fail(std::string("net params field ") + f.name + " is not a number");
    }
    net::set_param(t.net, f.name,
                   v->is_integer ? static_cast<double>(v->integer) : v->number);
  }

  if (h.run == nullptr) {
    fail("metadata header has no run result (trace recorded without a "
         "completed run)");
  }
  if (h.time_ns.got == Got::kAbsent) fail("run result has no time_ns");
  if (h.time_ns.got == Got::kOutside) {
    fail("run result time_ns is not an int64");
  }
  t.run_time_ns = h.time_ns.value;
  if (h.events.got == Got::kOutside) fail("run result events is not a uint64");
  t.run_events = h.events.value;
}

/// One traceEvents element into the sink. An event the gate refuses is
/// skipped, as are the ones replay has no use for.
void add_event(const TraceEvent& ev, EventSink& sink) {
  using Field = TraceEvent::Field;
  if (gate(ev) != Refusal::kNone) return;
  const Time at = ev.ts;
  const auto rank = static_cast<Rank>(ev.tid);
  const char ph = ev.ph[0];
  if (ev.cat == "flow") {
    const auto id = static_cast<std::uint64_t>(ev.id);
    if (ph == 's') {
      // A tag or byte count the event lacks reads as 0.
      ReplayFlow f{.id = id,
                   .src = rank,
                   .dst = ev.is_number(Field::kDst) ? static_cast<Rank>(ev.dst)
                                                    : -1,
                   .tag = static_cast<int>(ev.tag),
                   .bytes = static_cast<std::uint64_t>(ev.bytes),
                   .begin = at};
      if (parse_channel(ev.name, f.channel)) sink.flow_start(f);
    } else if (ph == 't') {
      sink.flow_step(id, at);
    } else if (ph == 'f') {
      sink.flow_finish(id, rank, at);
    }
  } else if (ev.cat == "op") {
    if (ph != 'X') return;
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
  } else if (ev.cat == "instant" && ph == 'i') {
    if (is_ft_repair_instant(ev.name) && ev.is_number(Field::kFlow)) {
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
  take_header(read_header(doc.other_data ? &*doc.other_data : nullptr), t);
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

Replayer::Replayer(ReplayTrace trace)
    : trace_(std::move(trace)),
      persistent_(trace_.model == "NCL-PERSIST"),
      recorded_(prices(trace_.net)) {
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
          g.payload += payload_bytes(f.bytes);
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
}

std::uint64_t Replayer::send_copy_bytes(std::int32_t i) const {
  const auto it = std::lower_bound(
      send_copies_.begin(), send_copies_.end(), i,
      [](const std::pair<std::int32_t, std::uint64_t>& c, std::int32_t at) {
        return c.first < at;
      });
  return it != send_copies_.end() && it->first == i ? it->second : 0;
}

Replayer::Prices Replayer::prices(const net::Params& params) const {
  Prices p{net::Network(trace_.nranks, params),
           std::vector<FlowTerms>(trace_.flows.size())};
  for (std::size_t i = 0; i < p.flows.size(); ++i) {
    const ReplayFlow& f = trace_.flows[i];
    p.flows[i] = {p.net.transfer_time(f.src, f.dst, f.bytes),
                  p.net.send_overhead(f.src, f.dst),
                  p.net.recv_overhead(f.src, f.dst)};
  }
  return p;
}

inline std::pair<Replayer::EdgeTerms, Replayer::EdgeTerms>
Replayer::edge_terms(std::size_t i, const Prices& now) const {
  using Kind = Anchor::Kind;
  const Anchor& a = anchors_[i];
  const FlowTerms& f_was = recorded_.flows[a.flow];
  const FlowTerms& f_is = now.flows[a.flow];
  std::pair<EdgeTerms, EdgeTerms> t;
  auto& [was, is] = t;
  // The chain gap: the anchor's own overhead, then the staging copy
  // charged after its chain predecessor.
  if (is_p2p_like(a.channel) && a.kind != Kind::kDeliver) {
    const bool begin = a.kind == Kind::kBegin;  // o_send, else o_recv
    was.chain.overhead = begin ? f_was.send : f_was.recv;
    is.chain.overhead = begin ? f_is.send : f_is.recv;
  } else if (a.kind == Kind::kBegin && a.channel == Channel::kRma) {
    was.chain.overhead = recorded_.net.params().o_put;
    is.chain.overhead = now.net.params().o_put;
  } else if (a.kind == Kind::kBegin && a.channel == Channel::kNeighbor &&
             a.begin_head) {
    const auto entry = [&](const Prices& p) {
      return persistent_ ? p.net.params().o_coll_persistent_start
                         : p.net.collective_entry(a.begin_peers);
    };
    was.chain.overhead = entry(recorded_);
    is.chain.overhead = entry(now);
  }
  if (a.chain_prev >= 0 &&
      anchors_[static_cast<std::size_t>(a.chain_prev)].copy_after) {
    const std::uint64_t bytes = send_copy_bytes(a.chain_prev);
    was.chain.copy = recorded_.net.copy_time(bytes);
    is.chain.copy = now.net.copy_time(bytes);
  }
  // The wire edge: the wire alone into a delivery or a put landing, the
  // receive overhead from a delivery to its completion, both in one hop
  // for a parked-waiter receive.
  if (a.kind == Kind::kDeliver || a.channel == Channel::kRma) {
    was.hop = {f_was.transfer, 0};
    is.hop = {f_is.transfer, 0};
  } else if (a.wire_from >= 0 &&
             anchors_[static_cast<std::size_t>(a.wire_from)].kind ==
                 Kind::kDeliver) {
    was.hop = {0, f_was.recv};
    is.hop = {0, f_is.recv};
  } else {
    was.hop = {f_was.transfer, f_was.recv};
    is.hop = {f_is.transfer, f_is.recv};
  }
  return t;
}

std::pair<Replayer::GroupTerms, Replayer::GroupTerms> Replayer::group_terms(
    std::size_t g, const Prices& now) const {
  std::pair<GroupTerms, GroupTerms> t;
  std::uint64_t payload = 0;
  for (const std::uint32_t fi : groups_[g]) {
    const ReplayFlow& f = trace_.flows[fi];
    t.first.wire += recorded_.net.transfer_time(f.src, f.end_rank, f.bytes);
    t.second.wire += now.net.transfer_time(f.src, f.end_rank, f.bytes);
    payload += payload_bytes(f.bytes);
  }
  t.first.copy = recorded_.net.copy_time(payload);
  t.second.copy = now.net.copy_time(payload);
  return t;
}

Replayer::ChainTerms Replayer::chain_terms(std::size_t i) const {
  return edge_terms(i, recorded_).first.chain;
}

Replayer::HopTerms Replayer::hop_terms(std::size_t i) const {
  return edge_terms(i, recorded_).first.hop;
}

Replayer::GroupTerms Replayer::group_terms(std::size_t g) const {
  return group_terms(g, recorded_).first;
}

Time Replayer::evaluate(const Prices& now, std::vector<Time>& out) const {
  using Kind = Anchor::Kind;
  // Per-group re-pricing delta: the completion formula sums every
  // consumed slice's wire plus one staging copy of the received payload,
  // so the group moves by the change of that sum.
  std::vector<Time> group_delta(groups_.size(), 0);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const auto [was, is] = group_terms(g, now);
    group_delta[g] = (is.wire + is.copy) - (was.wire + was.copy);
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
    const auto [was, is] = edge_terms(i, now);
    Time best = std::numeric_limits<Time>::min();

    if (in_chain(a.kind, a.channel)) {
      Time prev_rec = 0;
      Time prev_new = 0;
      if (a.chain_prev >= 0) {
        prev_rec = anchors_[static_cast<std::size_t>(a.chain_prev)].t;
        prev_new = out[static_cast<std::size_t>(a.chain_prev)];
      }
      best = prev_new + reprice(a.t - prev_rec,
                                was.chain.overhead + was.chain.copy,
                                is.chain.overhead + is.chain.copy);
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
        const auto w = static_cast<std::size_t>(a.wire_from);
        best = std::max(best, out[w] + reprice(a.t - anchors_[w].t,
                                               was.hop.wire + was.hop.recv,
                                               is.hop.wire + is.hop.recv));
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
  res.total_ns = evaluate(prices(params), at);

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
  const Time total = evaluate(recorded_, at);
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
