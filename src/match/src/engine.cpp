#include "mel/match/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace mel::match {

LocalMatcher::LocalMatcher(mpi::Comm& comm, const graph::LocalGraph& lg,
                           const graph::Distribution& dist, Push push,
                           const LocalMatcher** live)
    : comm_(comm),
      lg_(lg),
      dist_(dist),
      order_(rows_by_edge_key(lg.vbegin, lg.offsets, lg.adj,
                              "LocalMatcher: rank " + std::to_string(lg.rank))),
      push_(std::move(push)),
      live_(live) {
  const VertexId n = lg.nlocal();
  // Rows are sorted by `to` and visited in ascending x, so the reverse
  // entries a row y is asked for come in ascending order too: one pointer
  // per row, advancing only, finds them all.
  mirror_.assign(lg.adj.size(), 0);
  std::vector<EdgeId> next(lg.offsets.begin(), lg.offsets.end() - 1);
  for (VertexId lx = 0; lx < n; ++lx) {
    const VertexId x = lg.vbegin + lx;
    for (EdgeId i = lg.offsets[lx]; i < lg.offsets[lx + 1]; ++i) {
      const VertexId y = lg.adj[i].to;
      if (!owned(y)) continue;
      const EdgeId end = lg.offsets[local_index(y) + 1];
      EdgeId& j = next[local_index(y)];
      while (j < end && lg.adj[j].to < x) ++j;
      if (j == end || lg.adj[j].to != x) {
        throw std::logic_error("LocalMatcher: owned edge without its reverse");
      }
      mirror_[i] = static_cast<std::uint32_t>(j);
    }
  }
  cursor_.assign(lg.offsets.begin(), lg.offsets.end() - 1);
  dead_.assign(lg.adj.size(), 0);
  incoming_req_.assign(lg.adj.size(), 0);
  mate_.assign(static_cast<std::size_t>(n), kNullVertex);
  cand_.assign(static_cast<std::size_t>(n), kNullVertex);
  active_cross_ = lg.total_ghost_edges;
  *live_ = this;
}

LocalMatcher::~LocalMatcher() { *live_ = nullptr; }

EdgeId LocalMatcher::entry_index(VertexId x, VertexId y) const {
  const VertexId lx = local_index(x);
  const graph::Adj* begin = lg_.adj.data() + lg_.offsets[lx];
  const graph::Adj* end = lg_.adj.data() + lg_.offsets[lx + 1];
  const graph::Adj* it = std::lower_bound(
      begin, end, y,
      [](const graph::Adj& a, VertexId target) { return a.to < target; });
  if (it == end || it->to != y) {
    throw std::logic_error("LocalMatcher: message for a nonexistent edge");
  }
  return static_cast<EdgeId>(it - lg_.adj.data());
}

bool LocalMatcher::deactivate(EdgeId orig_index) {
  if (dead_[orig_index]) return false;
  dead_[orig_index] = 1;
  if (!owned(lg_.adj[orig_index].to)) --active_cross_;
  return true;
}

void LocalMatcher::push(Ctx ctx, VertexId target, VertexId source) {
  push_(dist_.owner(target),
        WireMsg{target, source, static_cast<std::int32_t>(ctx), 0});
}

void LocalMatcher::match_pair_local(VertexId x, VertexId y, EdgeId xy) {
  mate_[local_index(x)] = y;
  mate_[local_index(y)] = x;
  // Deactivate the matched edge in both directions.
  deactivate(xy);
  deactivate(mirror_[xy]);
  matched_queue_.push_back(x);
  matched_queue_.push_back(y);
}

void LocalMatcher::find_mate(VertexId x) {
  const VertexId lx = local_index(x);
  if (mate_[lx] != kNullVertex) return;
  comm_.compute_vertices(1);

  EdgeId& c = cursor_[lx];
  const EdgeId row_end = lg_.offsets[lx + 1];
  const EdgeId scan_start = c;
  VertexId candidate = kNullVertex;
  EdgeId cand_entry = 0;
  while (c < row_end) {
    const EdgeId i = order_[c];
    const graph::Adj& e = lg_.adj[i];
    if (e.w <= 0) break;  // sorted descending: nothing matchable remains
    if (dead_[i]) {
      ++c;
      continue;
    }
    if (owned(e.to) && mate_[local_index(e.to)] != kNullVertex) {
      ++c;  // permanently unavailable
      continue;
    }
    candidate = e.to;
    cand_entry = i;
    break;
  }
  // Charge exactly the adjacency entries the scan inspected: every slot
  // skipped over plus the one it stopped at (none if the row was empty or
  // the cursor had already drained it).
  const EdgeId inspected = (c - scan_start) + (c < row_end ? 1 : 0);
  if (inspected > 0) comm_.compute_edges(inspected);
  cand_[lx] = candidate;

  if (candidate == kNullVertex) {
    // No matchable edge left: eagerly invalidate every still-active edge
    // (all have weight <= 0 or are cross edges already doomed) so peers
    // stop considering x (paper Fig 3 case 5).
    for (EdgeId i = lg_.offsets[lx]; i < lg_.offsets[lx + 1]; ++i) {
      if (dead_[i]) continue;
      const VertexId z = lg_.adj[i].to;
      if (owned(z)) {
        deactivate(i);
        deactivate(mirror_[i]);
        if (mate_[local_index(z)] == kNullVertex &&
            cand_[local_index(z)] == x) {
          refind_queue_.push_back(z);
        }
      } else {
        deactivate(i);
        push(Ctx::kInvalid, z, x);
      }
    }
    return;
  }

  if (owned(candidate)) {
    if (cand_[local_index(candidate)] == x) {
      match_pair_local(x, candidate, cand_entry);
    }
  } else {
    // Cross edge: initiate a matching request; the edge stays active on
    // this side until the outcome (mutual REQUEST or REJECT/INVALID)
    // arrives. If the ghost already requested us (deferred REQUEST), this
    // is the mutual case: match now; the peer matches when our REQUEST
    // lands.
    push(Ctx::kRequest, candidate, x);
    if (incoming_req_[cand_entry]) {
      mate_[lx] = candidate;
      deactivate(cand_entry);
      matched_queue_.push_back(x);
    }
  }
}

void LocalMatcher::process_neighbors(VertexId v) {
  const VertexId lv = local_index(v);
  const VertexId m = mate_[lv];
  comm_.compute_edges(lg_.offsets[lv + 1] - lg_.offsets[lv]);
  for (EdgeId i = lg_.offsets[lv]; i < lg_.offsets[lv + 1]; ++i) {
    if (dead_[i]) continue;
    const VertexId x = lg_.adj[i].to;
    if (x == m) continue;  // the matched edge itself (already dead anyway)
    if (owned(x)) {
      deactivate(i);
      deactivate(mirror_[i]);
      if (mate_[local_index(x)] == kNullVertex &&
          cand_[local_index(x)] == v) {
        refind_queue_.push_back(x);
      }
    } else {
      deactivate(i);
      push(Ctx::kReject, x, v);
    }
  }
}

void LocalMatcher::handle(const WireMsg& msg) {
  const VertexId x = msg.target;  // ours
  const VertexId y = msg.source;  // theirs
  if (!owned(x)) throw std::logic_error("LocalMatcher: misrouted message");
  // The pad field is transport scratch space: the node-aware backend
  // carries a record's final rank in it across the leader hop. By the time
  // a record reaches the engine that routing metadata must be stripped —
  // a nonzero pad here means a backend delivered a still-in-relay record.
  if (msg.pad != 0) throw std::logic_error("LocalMatcher: unstripped relay pad");
  comm_.compute_vertices(1);
  const EdgeId idx = entry_index(x, y);
  const VertexId lx = local_index(x);

  switch (static_cast<Ctx>(msg.ctx)) {
    case Ctx::kRequest: {
      if (dead_[idx]) return;  // our answer (REJECT) is already in flight
      if (mate_[lx] == kNullVertex && cand_[lx] == y) {
        // Mutual cross-edge match: the peer matched (or will match) when
        // our own REQUEST reaches it.
        mate_[lx] = y;
        deactivate(idx);
        matched_queue_.push_back(x);
      } else if (mate_[lx] == kNullVertex) {
        // x currently prefers a heavier edge. Defer: if that choice falls
        // through, x may still pick y (Manne-Bisseling semantics; eager
        // rejection would change the matching away from the locally-
        // dominant fixed point).
        incoming_req_[idx] = 1;
      } else {
        // Matched vertices have already rejected all live cross edges, so
        // this is unreachable; answer defensively rather than wedge a peer.
        deactivate(idx);
        push(Ctx::kReject, y, x);
      }
      break;
    }
    case Ctx::kReject:
    case Ctx::kInvalid: {
      if (!deactivate(idx)) return;
      if (mate_[lx] == kNullVertex && cand_[lx] == y) {
        refind_queue_.push_back(x);
      }
      break;
    }
    default:
      throw std::logic_error("LocalMatcher: unknown message context");
  }
}

void LocalMatcher::drain_local() {
  while (!matched_queue_.empty() || !refind_queue_.empty()) {
    if (!matched_queue_.empty()) {
      const VertexId v = matched_queue_.back();
      matched_queue_.pop_back();
      process_neighbors(v);
    } else {
      const VertexId x = refind_queue_.back();
      refind_queue_.pop_back();
      find_mate(x);
    }
  }
}

void LocalMatcher::start() {
  for (VertexId v = lg_.vbegin; v < lg_.vend; ++v) find_mate(v);
  drain_local();
}

}  // namespace mel::match
