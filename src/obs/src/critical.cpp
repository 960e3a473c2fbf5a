#include "mel/obs/critical.hpp"

#include <algorithm>
#include <sstream>

namespace mel::obs {

namespace {

using Kind = Replayer::Anchor::Kind;

/// Time in [s, e) that rank `r`'s spans of class `cls` cover, read from
/// the loader's (rank, start, end) order. A rank's spans of one class do
/// not overlap (the machine records one op at a time per rank), so only
/// the last of them to start before `s` can reach past it.
Time overlap(const ReplayTrace& t, Rank r, ReplayTrace::SpanClass cls, Time s,
             Time e) {
  if (e <= s) return 0;
  using Span = ReplayTrace::Span;
  const auto first = std::partition_point(
      t.spans.begin(), t.spans.end(),
      [r](const Span& sp) { return sp.rank < r; });
  const auto last = std::partition_point(
      first, t.spans.end(), [r](const Span& sp) { return sp.rank == r; });
  const auto in_class = [cls](const Span& sp) {
    return sp.cls == cls && sp.end > sp.start;
  };
  auto it = std::partition_point(first, last,
                                 [s](const Span& sp) { return sp.start < s; });
  for (auto back = it; back != first;) {
    if (in_class(*--back)) {
      it = back;  // the span straddling `s`, if any
      break;
    }
  }
  Time sum = 0;
  for (; it != last && it->start < e; ++it) {
    if (!in_class(*it)) continue;
    const Time lo = std::max(it->start, s);
    const Time hi = std::min(it->end, e);
    if (hi > lo) sum += hi - lo;
  }
  return sum;
}

/// One path segment being split into cost classes: take() books up to
/// `want` of what is left of its duration into class `cls`.
struct Split {
  CriticalPath::Segment seg;
  Time rem;

  Split(Rank rank, Time start, Time end, std::string what)
      : seg{.rank = rank, .start = start, .end = end, .what = std::move(what)},
        rem(end - start) {}
  Split& take(Time want, int cls) {
    const Time got = std::min(want, rem);
    if (got > 0) {
      seg.parts[static_cast<std::size_t>(cls)] += got;
      rem -= got;
    }
    return *this;
  }
  /// Book whatever is left into `cls`.
  void rest(int cls) { take(rem, cls); }
};

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
  using SpanClass = ReplayTrace::SpanClass;
  using C = CriticalPath;
  const ReplayTrace& tr = rp.trace();
  const auto& anchors = rp.anchors();
  const auto at = [&anchors](std::int32_t i) -> const Replayer::Anchor& {
    return anchors[static_cast<std::size_t>(i)];
  };
  const auto& flows = tr.flows;
  const net::Network& net = rp.network();

  CriticalPath cp;
  cp.total_ns = tr.run_time_ns;

  const auto add = [&cp](Split&& split) {
    auto& rank_row = cp.by_rank[split.seg.rank];
    for (std::size_t c = 0; c < C::kClassCount; ++c) {
      cp.by_class[c] += split.seg.parts[c];
      rank_row[c] += split.seg.parts[c];
    }
    cp.segments.push_back(std::move(split.seg));
  };
  const auto local_segment = [&](Rank rank, Time s, Time e, Time owned,
                                 int owned_cls, Time copy, std::string what) {
    Split split(rank, s, e, std::move(what));
    split.take(owned, owned_cls)
        .take(copy, C::kCopy)
        .take(overlap(tr, rank, SpanClass::kCompute, s, e), C::kCompute)
        .take(overlap(tr, rank, SpanClass::kBarrier, s, e), C::kBarrierWait)
        .rest(C::kOther);
    add(std::move(split));
  };
  // A wire hop into `a`: its alpha is latency and the rest of its wire
  // time bandwidth, then the receive overhead; what the model leaves is
  // ack-wait on a repaired flow.
  const auto wire_segment = [&](const Replayer::Anchor& a, Time from,
                                const std::string& peer,
                                Replayer::HopTerms hop) {
    const ReplayFlow& f = flows[a.flow];
    const Time alpha = net.transfer_time(f.src, f.dst, 0);
    Split split(a.rank, from, a.t,
                "wire " + peer + " " + std::to_string(f.bytes) + " B");
    split.take(alpha, C::kLatency)
        .take(hop.wire - alpha, C::kBandwidth)
        .take(hop.recv, C::kORecv)
        .rest(f.repaired ? C::kAckWait : C::kOther);
    add(std::move(split));
  };

  // Start at the rank whose activity reaches furthest into the run; the
  // remainder of the run (final barrier rounds, teardown) is its tail.
  std::int32_t cur = -1;
  for (const std::int32_t last : rp.last_anchor_of_rank()) {
    if (last >= 0 && (cur < 0 || at(last).t > at(cur).t)) cur = last;
  }
  if (cur < 0) {
    // No flows at all (e.g. a one-rank run): the whole run is local.
    if (tr.nranks > 0 && tr.run_time_ns > 0) {
      local_segment(0, 0, tr.run_time_ns, 0, C::kOther, 0, "local");
    }
    return cp;
  }
  if (tr.run_time_ns > at(cur).t) {
    local_segment(at(cur).rank, at(cur).t, tr.run_time_ns, 0, C::kOther, 0,
                  "tail");
  }

  while (cur >= 0) {
    const auto i = static_cast<std::size_t>(cur);
    const Replayer::Anchor& a = anchors[i];
    const ReplayFlow& f = flows[a.flow];
    const std::string peer = std::string(channel_name(f.channel)) + " " +
                             std::to_string(f.src) + "->" +
                             std::to_string(f.dst);

    if (a.kind == Kind::kDeliver) {
      // A delivery is gated by the wire, or by the in-order floor when
      // the recorded arrival sits right on it with slack over the wire.
      const Replayer::HopTerms hop = rp.hop_terms(i);
      const Time from = at(a.wire_from).t;
      if (a.order_prev >= 0 && at(a.order_prev).t + 1 == a.t &&
          a.t - from > hop.wire) {
        Split floor(a.rank, at(a.order_prev).t, a.t, "in-order floor " + peer);
        floor.rest(C::kOther);
        add(std::move(floor));
        cur = a.order_prev;
      } else {
        wire_segment(a, from, peer, hop);
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
    const Replayer::ChainTerms chain = rp.chain_terms(i);
    const Time chain_start = a.chain_prev >= 0 ? at(a.chain_prev).t : 0;
    bool remote = false;
    if (a.kind == Kind::kEnd && a.wire_from >= 0) {
      if (f.channel == Channel::kRma) {
        remote = true;
      } else if (f.has_step && f.channel != Channel::kNeighbor) {
        remote = a.t - at(a.wire_from).t == rp.hop_terms(i).recv;
      } else {
        const auto busy = [&](SpanClass cls) {
          return overlap(tr, a.rank, cls, chain_start, a.t);
        };
        remote = a.t - chain_start > chain.overhead + chain.copy +
                                         busy(SpanClass::kCompute) +
                                         busy(SpanClass::kBarrier);
      }
    }

    if (!remote) {
      const bool end = a.kind == Kind::kEnd;
      const char* what = !end ? "send-side "
                         : f.channel == Channel::kNeighbor
                             ? "local before ncoll "
                             : "recv-side ";
      local_segment(a.rank, chain_start, a.t, chain.overhead,
                    end ? C::kORecv : C::kOSend, chain.copy, what + peer);
      cur = a.chain_prev;
      continue;
    }

    if (a.group >= 0) {
      // Neighbor collective completion: the pairwise-exchange sum over
      // every consumed slice plus the receive staging copy. The exchange
      // starts once the slowest consumed slice was sent: walk toward the
      // member with the latest begin.
      const auto& members = rp.groups()[static_cast<std::size_t>(a.group)];
      std::int32_t from = a.wire_from;
      Time alpha_sum = 0;
      for (const std::uint32_t fi : members) {
        const std::int32_t bi = rp.begin_anchor()[fi];
        if (at(bi).t > at(from).t) from = bi;
        alpha_sum += net.transfer_time(flows[fi].src, flows[fi].end_rank, 0);
      }
      const Replayer::GroupTerms group =
          rp.group_terms(static_cast<std::size_t>(a.group));
      Split split(a.rank, at(from).t, a.t,
                  "ncoll exchange ->r" + std::to_string(a.rank) +
                      " (k=" + std::to_string(members.size()) + ")");
      split.take(alpha_sum, C::kLatency)
          .take(group.wire - alpha_sum, C::kBandwidth)
          .take(group.copy, C::kCopy)
          .rest(C::kOther);
      add(std::move(split));
      cur = from;
    } else if (f.has_step) {
      // Delivery -> receive completion.
      Split split(a.rank, at(a.wire_from).t, a.t, "deliver->recv " + peer);
      split.take(rp.hop_terms(i).recv, C::kORecv).rest(C::kOther);
      add(std::move(split));
      cur = a.wire_from;
    } else {
      // Parked-waiter receive (p2p/ft) or put landing (rma): wire plus,
      // for two-sided, the receive overhead — one hop from the begin.
      wire_segment(a, at(a.wire_from).t, peer, rp.hop_terms(i));
      cur = a.wire_from;
    }
  }

  return cp;
}

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
    const std::string name = CriticalPath::class_name(c);
    const std::size_t pad = 14 - std::min<std::size_t>(14, name.size());
    os << "  " << name << std::string(pad, ' ') << v << " ns  "
       << pct(v, cp.total_ns) << "\n";
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
