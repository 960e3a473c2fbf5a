#include "mel/obs/critical.hpp"

#include <algorithm>
#include <sstream>

#include "mel/mpi/message.hpp"

namespace mel::obs {

namespace {

using Kind = Replayer::Anchor::Kind;

/// Per-rank span windows for overlap queries. Spans of one rank are
/// sequential (the machine records one op at a time per rank), so each
/// per-class list is sorted and non-overlapping.
struct SpanIndex {
  std::vector<std::vector<std::pair<Time, Time>>> compute;
  std::vector<std::vector<std::pair<Time, Time>>> barrier;

  explicit SpanIndex(const ReplayTrace& t)
      : compute(static_cast<std::size_t>(t.nranks)),
        barrier(static_cast<std::size_t>(t.nranks)) {
    for (const ReplayTrace::Span& s : t.spans) {
      if (s.rank < 0 || s.rank >= t.nranks || s.end <= s.start) continue;
      auto& dst = s.cls == ReplayTrace::SpanClass::kCompute
                      ? compute[static_cast<std::size_t>(s.rank)]
                      : barrier[static_cast<std::size_t>(s.rank)];
      dst.emplace_back(s.start, s.end);
    }
  }

  static Time overlap(const std::vector<std::pair<Time, Time>>& v, Time s,
                      Time e) {
    if (e <= s || v.empty()) return 0;
    auto it = std::lower_bound(
        v.begin(), v.end(), s,
        [](const std::pair<Time, Time>& sp, Time at) { return sp.first < at; });
    if (it != v.begin()) --it;  // the span straddling `s`, if any
    Time sum = 0;
    for (; it != v.end() && it->first < e; ++it) {
      const Time lo = std::max(it->first, s);
      const Time hi = std::min(it->second, e);
      if (hi > lo) sum += hi - lo;
    }
    return sum;
  }
};

/// Consume up to `want` from `rem` into part `cls`.
void take(CriticalPath::Segment& seg, Time& rem, Time want, int cls) {
  const Time got = std::min(want, rem);
  if (got > 0) {
    seg.parts[static_cast<std::size_t>(cls)] += got;
    rem -= got;
  }
}

}  // namespace

const char* CriticalPath::class_name(int c) {
  switch (c) {
    case kCompute: return "compute";
    case kOSend: return "o-send";
    case kORecv: return "o-recv";
    case kLatency: return "latency";
    case kBandwidth: return "bandwidth";
    case kCopy: return "copy";
    case kAckWait: return "ack-wait";
    case kBarrierWait: return "barrier-wait";
    case kOther: return "other";
  }
  return "?";
}

int CriticalPath::Segment::dominant() const {
  int best = kOther;
  Time best_v = -1;
  for (int c = 0; c < kClassCount; ++c) {
    if (parts[static_cast<std::size_t>(c)] > best_v) {
      best_v = parts[static_cast<std::size_t>(c)];
      best = c;
    }
  }
  return best;
}

CriticalPath critical_path(const Replayer& rp) {
  const ReplayTrace& tr = rp.trace();
  const auto& anchors = rp.anchors();
  const auto& flows = tr.flows;
  const net::Network net(tr.nranks, tr.net);
  const SpanIndex spans(tr);
  const bool persistent = tr.model == "NCL-PERSIST";

  CriticalPath cp;
  cp.total_ns = tr.run_time_ns;

  const auto add = [&cp](CriticalPath::Segment&& seg) {
    auto& rank_row = cp.by_rank[seg.rank];
    for (int c = 0; c < CriticalPath::kClassCount; ++c) {
      cp.by_class[static_cast<std::size_t>(c)] +=
          seg.parts[static_cast<std::size_t>(c)];
      rank_row[static_cast<std::size_t>(c)] +=
          seg.parts[static_cast<std::size_t>(c)];
    }
    cp.segments.push_back(std::move(seg));
  };

  /// Owned (modeled) software overhead carried by the chain gap ending at
  /// anchor `i`, plus any staging copy charged right after its chain
  /// predecessor.
  const auto chain_models = [&](std::size_t i, Time& owned, int& owned_cls,
                                Time& copy) {
    const Replayer::Anchor& a = anchors[i];
    const ReplayFlow& f = flows[a.flow];
    owned = 0;
    owned_cls = CriticalPath::kOSend;
    copy = 0;
    if (a.kind == Kind::kBegin) {
      if (f.channel == Channel::kP2P || f.channel == Channel::kFt) {
        owned = net.send_overhead(f.src, f.dst);
      } else if (f.channel == Channel::kRma) {
        owned = tr.net.o_put;
      } else if (f.channel == Channel::kNeighbor && a.begin_head) {
        owned = persistent ? tr.net.o_coll_persistent_start
                           : net.collective_entry(a.begin_peers);
      }
    } else if (a.kind == Kind::kEnd &&
               (f.channel == Channel::kP2P || f.channel == Channel::kFt)) {
      owned = net.recv_overhead(f.src, f.dst);
      owned_cls = CriticalPath::kORecv;
    }
    if (a.chain_prev >= 0) {
      const auto& p = anchors[static_cast<std::size_t>(a.chain_prev)];
      if (p.copy_after) copy = net.copy_time(rp.send_copy_bytes(a.chain_prev));
    }
  };

  const auto local_segment = [&](Rank rank, Time s, Time e, Time owned,
                                 int owned_cls, Time copy, std::string what) {
    CriticalPath::Segment seg;
    seg.rank = rank;
    seg.start = s;
    seg.end = e;
    seg.what = std::move(what);
    Time rem = e - s;
    take(seg, rem, owned, owned_cls);
    take(seg, rem, copy, CriticalPath::kCopy);
    take(seg, rem,
         SpanIndex::overlap(spans.compute[static_cast<std::size_t>(rank)], s, e),
         CriticalPath::kCompute);
    take(seg, rem,
         SpanIndex::overlap(spans.barrier[static_cast<std::size_t>(rank)], s, e),
         CriticalPath::kBarrierWait);
    take(seg, rem, rem, CriticalPath::kOther);
    add(std::move(seg));
  };

  // Start at the rank whose activity reaches furthest into the run; the
  // remainder of the run (final barrier rounds, teardown) is its tail.
  std::int32_t cur = -1;
  for (Rank r = 0; r < tr.nranks; ++r) {
    const std::int32_t last =
        rp.last_anchor_of_rank()[static_cast<std::size_t>(r)];
    if (last < 0) continue;
    if (cur < 0 || anchors[static_cast<std::size_t>(last)].t >
                       anchors[static_cast<std::size_t>(cur)].t) {
      cur = last;
    }
  }
  if (cur < 0) {
    // No flows at all (e.g. a one-rank run): the whole run is local.
    if (tr.nranks > 0 && tr.run_time_ns > 0) {
      local_segment(0, 0, tr.run_time_ns, 0, CriticalPath::kOther, 0, "local");
    }
    return cp;
  }
  if (tr.run_time_ns > anchors[static_cast<std::size_t>(cur)].t) {
    local_segment(anchors[static_cast<std::size_t>(cur)].rank,
                  anchors[static_cast<std::size_t>(cur)].t, tr.run_time_ns, 0,
                  CriticalPath::kOther, 0, "tail");
  }

  while (cur >= 0) {
    const Replayer::Anchor& a = anchors[static_cast<std::size_t>(cur)];
    const ReplayFlow& f = flows[a.flow];
    const char* ch = channel_name(f.channel);
    const std::string peer =
        std::string(ch) + " " + std::to_string(f.src) + "->" +
        std::to_string(f.dst);

    if (a.kind == Kind::kDeliver) {
      // A delivery is gated by the wire, or by the in-order floor when
      // the recorded arrival sits right on it with slack over the wire.
      const Replayer::Anchor& b = anchors[static_cast<std::size_t>(a.wire_from)];
      const Time raw = a.t - b.t;
      const Time model = net.transfer_time(f.src, f.dst, f.bytes);
      if (a.order_prev >= 0 &&
          anchors[static_cast<std::size_t>(a.order_prev)].t + 1 == a.t &&
          raw > model) {
        CriticalPath::Segment seg;
        seg.rank = a.rank;
        seg.start = anchors[static_cast<std::size_t>(a.order_prev)].t;
        seg.end = a.t;
        seg.what = "in-order floor " + peer;
        Time rem = seg.duration();
        take(seg, rem, rem, CriticalPath::kOther);
        add(std::move(seg));
        cur = a.order_prev;
      } else {
        CriticalPath::Segment seg;
        seg.rank = a.rank;
        seg.start = b.t;
        seg.end = a.t;
        seg.what = "wire " + peer + " " + std::to_string(f.bytes) + " B";
        Time rem = raw;
        const Time alpha = net.transfer_time(f.src, f.dst, 0);
        take(seg, rem, alpha, CriticalPath::kLatency);
        take(seg, rem, model - alpha, CriticalPath::kBandwidth);
        take(seg, rem, rem,
             f.repaired ? CriticalPath::kAckWait : CriticalPath::kOther);
        add(std::move(seg));
        cur = a.wire_from;
      }
      continue;
    }

    // Begins always bind locally. Ends bind remotely when the message
    // (not the rank's own progress) gated the completion:
    //   * put landings are pure network events — always remote;
    //   * delivered-then-received messages were consumed on arrival iff
    //     the delivery-to-end interval is exactly the receive overhead
    //     (otherwise the message sat in the mailbox while the rank
    //     worked — local);
    //   * parked receives and collective completions are remote when the
    //     chain gap holds idle time the rank's own recorded activity
    //     cannot explain.
    Time owned = 0;
    int owned_cls = CriticalPath::kOSend;
    Time copy = 0;
    chain_models(static_cast<std::size_t>(cur), owned, owned_cls, copy);
    const Time chain_start =
        a.chain_prev >= 0 ? anchors[static_cast<std::size_t>(a.chain_prev)].t
                          : 0;
    bool remote = false;
    if (a.kind == Kind::kEnd && a.wire_from >= 0) {
      if (f.channel == Channel::kRma) {
        remote = true;
      } else if (f.has_step && f.channel != Channel::kNeighbor) {
        remote = a.t - anchors[static_cast<std::size_t>(a.wire_from)].t ==
                 net.recv_overhead(f.src, f.dst);
      } else {
        const Time gap = a.t - chain_start;
        const Time busy =
            owned + copy +
            SpanIndex::overlap(spans.compute[static_cast<std::size_t>(a.rank)],
                               chain_start, a.t) +
            SpanIndex::overlap(spans.barrier[static_cast<std::size_t>(a.rank)],
                               chain_start, a.t);
        remote = gap > busy;
      }
    }

    if (!remote) {
      const char* role = a.kind == Kind::kBegin ? "send-side " : "recv-side ";
      local_segment(a.rank, chain_start, a.t, owned, owned_cls, copy,
                    a.kind == Kind::kEnd && f.channel == Channel::kNeighbor
                        ? "local before ncoll " + peer
                        : role + peer);
      cur = a.chain_prev;
      continue;
    }

    std::int32_t from = a.wire_from;
    if (a.group >= 0) {
      // The exchange starts once the slowest consumed slice was sent:
      // walk toward the member with the latest begin.
      for (const std::uint32_t fi :
           rp.groups()[static_cast<std::size_t>(a.group)]) {
        const std::int32_t bi = rp.begin_anchor()[fi];
        if (anchors[static_cast<std::size_t>(bi)].t >
            anchors[static_cast<std::size_t>(from)].t) {
          from = bi;
        }
      }
    }
    const Replayer::Anchor& w = anchors[static_cast<std::size_t>(from)];
    CriticalPath::Segment seg;
    seg.rank = a.rank;
    seg.start = w.t;
    seg.end = a.t;
    Time rem = a.t - w.t;
    if (a.group >= 0) {
      // Neighbor collective completion: the pairwise-exchange sum over
      // every consumed slice plus the receive staging copy.
      Time alpha_sum = 0;
      Time gsum = 0;
      std::uint64_t payload = 0;
      for (const std::uint32_t fi :
           rp.groups()[static_cast<std::size_t>(a.group)]) {
        const ReplayFlow& m = flows[fi];
        const Time al = net.transfer_time(m.src, m.end_rank, 0);
        alpha_sum += al;
        gsum += net.transfer_time(m.src, m.end_rank, m.bytes) - al;
        payload +=
            m.bytes > mpi::kHeaderBytes ? m.bytes - mpi::kHeaderBytes : 0;
      }
      seg.what =
          "ncoll exchange ->r" + std::to_string(a.rank) + " (k=" +
          std::to_string(rp.groups()[static_cast<std::size_t>(a.group)].size()) +
          ")";
      take(seg, rem, alpha_sum, CriticalPath::kLatency);
      take(seg, rem, gsum, CriticalPath::kBandwidth);
      take(seg, rem, net.copy_time(payload), CriticalPath::kCopy);
      take(seg, rem, rem, CriticalPath::kOther);
    } else if (f.has_step) {
      // Delivery -> receive completion.
      seg.what = "deliver->recv " + peer;
      take(seg, rem, net.recv_overhead(f.src, f.dst), CriticalPath::kORecv);
      take(seg, rem, rem, CriticalPath::kOther);
    } else {
      // Parked-waiter receive (p2p/ft) or put landing (rma): wire plus,
      // for two-sided, the receive overhead — one hop from the begin.
      seg.what = "wire " + peer + " " + std::to_string(f.bytes) + " B";
      const Time alpha = net.transfer_time(f.src, f.dst, 0);
      const Time model = net.transfer_time(f.src, f.dst, f.bytes);
      take(seg, rem, alpha, CriticalPath::kLatency);
      take(seg, rem, model - alpha, CriticalPath::kBandwidth);
      if (f.channel != Channel::kRma) {
        take(seg, rem, net.recv_overhead(f.src, f.dst), CriticalPath::kORecv);
      }
      take(seg, rem, rem,
           f.repaired ? CriticalPath::kAckWait : CriticalPath::kOther);
    }
    add(std::move(seg));
    cur = from;
  }

  return cp;
}

namespace {

/// "12.3%" from integers, deterministically (one decimal, half-up).
std::string pct(Time part, Time total) {
  if (total <= 0) return "0.0%";
  const long long permille =
      (static_cast<long long>(part) * 1000 + total / 2) / total;
  return std::to_string(permille / 10) + "." + std::to_string(permille % 10) +
         "%";
}

std::vector<std::size_t> top_segments(const CriticalPath& cp, int top_k) {
  std::vector<std::size_t> order(cp.segments.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&cp](std::size_t a, std::size_t b) {
                     return cp.segments[a].duration() >
                            cp.segments[b].duration();
                   });
  if (top_k >= 0 && order.size() > static_cast<std::size_t>(top_k)) {
    order.resize(static_cast<std::size_t>(top_k));
  }
  return order;
}

}  // namespace

std::string critical_text(const CriticalPath& cp, const ReplayTrace& trace,
                          int top_k) {
  std::ostringstream os;
  os << "critical path: " << trace.algo << " " << trace.model << ", "
     << trace.nranks << " ranks, seed " << trace.seed << "\n";
  os << "recorded total: " << cp.total_ns << " ns across "
     << cp.segments.size() << " path segment(s)\n";
  os << "class breakdown:\n";
  for (int c = 0; c < CriticalPath::kClassCount; ++c) {
    const Time v = cp.by_class[static_cast<std::size_t>(c)];
    if (v == 0) continue;
    os << "  " << CriticalPath::class_name(c);
    for (std::size_t pad = std::string(CriticalPath::class_name(c)).size();
         pad < 14; ++pad) {
      os << ' ';
    }
    os << v << " ns  " << pct(v, cp.total_ns) << "\n";
  }
  // Ranks carrying the most path time.
  std::vector<std::pair<Time, Rank>> ranks;
  for (const auto& [rank, row] : cp.by_rank) {
    Time sum = 0;
    for (const Time v : row) sum += v;
    ranks.emplace_back(sum, rank);
  }
  std::stable_sort(ranks.begin(), ranks.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  os << "ranks on path:";
  for (std::size_t i = 0; i < ranks.size() && i < 5; ++i) {
    os << " r" << ranks[i].second << " (" << pct(ranks[i].first, cp.total_ns)
       << ")";
  }
  os << "\n";
  const auto order = top_segments(cp, top_k);
  os << "top " << order.size() << " segment(s) by duration:\n";
  for (const std::size_t i : order) {
    const CriticalPath::Segment& s = cp.segments[i];
    os << "  [" << s.start << ".." << s.end << "] r" << s.rank << "  "
       << s.duration() << " ns  "
       << CriticalPath::class_name(s.dominant()) << "  " << s.what << "\n";
  }
  return os.str();
}

std::string critical_json(const CriticalPath& cp, const ReplayTrace& trace,
                          int top_k) {
  std::ostringstream os;
  const auto classes = [&os](const std::array<Time, CriticalPath::kClassCount>&
                                 row) {
    os << "{";
    bool first = true;
    for (int c = 0; c < CriticalPath::kClassCount; ++c) {
      const Time v = row[static_cast<std::size_t>(c)];
      if (v == 0) continue;
      if (!first) os << ",";
      first = false;
      os << "\"" << CriticalPath::class_name(c) << "\":" << v;
    }
    os << "}";
  };
  os << "{\"schema\":\"mel.critical/1\",\"algo\":\"" << json_escape(trace.algo)
     << "\",\"model\":\"" << json_escape(trace.model)
     << "\",\"ranks\":" << trace.nranks << ",\"seed\":" << trace.seed
     << ",\"total_ns\":" << cp.total_ns
     << ",\"segments\":" << cp.segments.size() << ",\"classes\":";
  classes(cp.by_class);
  os << ",\"ranks_on_path\":[";
  bool first = true;
  for (const auto& [rank, row] : cp.by_rank) {
    if (!first) os << ",";
    first = false;
    os << "{\"rank\":" << rank << ",\"classes\":";
    classes(row);
    os << "}";
  }
  os << "],\"top_segments\":[";
  first = true;
  for (const std::size_t i : top_segments(cp, top_k)) {
    const CriticalPath::Segment& s = cp.segments[i];
    if (!first) os << ",";
    first = false;
    os << "{\"rank\":" << s.rank << ",\"start_ns\":" << s.start
       << ",\"end_ns\":" << s.end << ",\"dominant\":\""
       << CriticalPath::class_name(s.dominant()) << "\",\"what\":\""
       << json_escape(s.what) << "\",\"parts\":";
    classes(s.parts);
    os << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace mel::obs
