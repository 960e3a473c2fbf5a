// The communication-model-agnostic core of distributed half-approximate
// matching (paper §IV, Algorithms 3-6).
//
// LocalMatcher holds one rank's algorithm state and implements FINDMATE,
// PROCESSNEIGHBORS and PROCESSINCOMINGDATA. It never communicates: it
// hands each wire record to a push callback, the Push step of the record
// exchange (exchange.hpp — Send-Recv, RMA, or neighborhood collectives, per
// the paper's Table I), which moves it with its own Evoke/Process mapping.
//
// Two deliberate deviations from the paper's pseudocode (both documented
// in DESIGN.md):
//
//  1. A REQUEST that cannot be satisfied immediately is *deferred* (the
//     Manne-Bisseling semantics), not eagerly rejected: the requester is
//     already suspended waiting, and rejecting eagerly would discard an
//     edge that can still become locally dominant. With deferral the
//     computed matching is exactly the unique greedy-by-edge-order
//     matching, so every backend must agree with the serial algorithm
//     bit-for-bit — the cross-backend test invariant.
//  2. A ghost edge is deactivated *exactly once per side*, and only when
//     its outcome is locally known (match completed, REJECT/INVALID
//     received, or REJECT/INVALID sent). active_cross() therefore reaches
//     zero on a rank only when no in-flight message can still concern it,
//     which makes the Send-Recv local exit test sound and the RMA/NCL
//     global reduction exact.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mel/graph/dist.hpp"
#include "mel/match/edge_order.hpp"
#include "mel/mpi/comm.hpp"

namespace mel::match {

using graph::EdgeId;
using sim::Rank;

/// Communication contexts (paper Fig 3). Encoded in the message tag for
/// Send-Recv and in the payload for RMA/NCL.
enum class Ctx : std::int32_t { kRequest = 0, kReject = 1, kInvalid = 2 };

/// Fixed-size wire record: {target vertex, source vertex, context}.
struct WireMsg {
  VertexId target = kNullVertex;  // vertex owned by the receiver ("x")
  VertexId source = kNullVertex;  // vertex owned by the sender ("y")
  std::int32_t ctx = 0;
  // Zero on the wire and at the engine boundary. The node-aware Send-Recv
  // backend (NSR-HIER) borrows it in transit: a record travelling through a
  // node-leader relay carries its final destination rank here, and the
  // relay resets it to zero before the last hop. handle() rejects records
  // whose pad was not stripped.
  std::int32_t pad = 0;
};
static_assert(sizeof(WireMsg) == 24);

class LocalMatcher {
 public:
  /// Receives every outgoing record and the rank that owns its target.
  using Push = std::function<void(Rank dst, const WireMsg& msg)>;

  /// `comm` is used only to charge local-computation time to the rank's
  /// virtual clock; all communication goes through `push`. `*live` is
  /// where the match driver reads this rank's state while it runs (crash
  /// recovery): the matcher points it at itself and clears it when
  /// destroyed, so the slot must outlive the matcher.
  LocalMatcher(mpi::Comm& comm, const graph::LocalGraph& lg,
               const graph::Distribution& dist, Push push,
               const LocalMatcher** live);
  ~LocalMatcher();
  LocalMatcher(const LocalMatcher&) = delete;
  LocalMatcher& operator=(const LocalMatcher&) = delete;

  /// Phase 1: FINDMATE for every owned vertex, then drain local work.
  void start();

  /// PROCESSINCOMINGDATA for one wire record.
  void handle(const WireMsg& msg);

  /// Run the local matched/refind queues to quiescence.
  void drain_local();

  /// Number of ghost edges not yet deactivated on this side.
  std::int64_t active_cross() const { return active_cross_; }

  /// mate per owned vertex (global partner id or kNullVertex), indexed by
  /// local offset (global id - vbegin).
  std::span<const VertexId> mates() const { return mate_; }

 private:
  VertexId local_index(VertexId global_v) const { return global_v - lg_.vbegin; }
  bool owned(VertexId v) const { return lg_.owns(v); }

  /// Index of adjacency entry (x, y) in lg_.adj (rows sorted by `to`). Only
  /// handle() needs it: every other lookup already holds the entry.
  EdgeId entry_index(VertexId x, VertexId y) const;

  /// Deactivate an adjacency entry; returns false if already dead.
  bool deactivate(EdgeId orig_index);

  void find_mate(VertexId x);
  void process_neighbors(VertexId v);
  void push(Ctx ctx, VertexId target, VertexId source);
  void match_pair_local(VertexId x, VertexId y, EdgeId xy);

  mpi::Comm& comm_;
  const graph::LocalGraph& lg_;
  const graph::Distribution& dist_;

  // Per lg_.adj entry, as uint32 indices into lg_.adj (the constructor
  // throws std::length_error past 2^32 - 1 entries). order_ lists each
  // row's entries in descending EdgeKey (rows_by_edge_key); mirror_ holds
  // the reverse entry (y, x) of an owned-owned entry (x, y) and is unused
  // for ghost entries.
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> mirror_;
  std::vector<EdgeId> cursor_;              // per local vertex: next in order_
  std::vector<char> dead_;                  // per lg_.adj entry
  std::vector<char> incoming_req_;          // deferred REQUEST per entry
  std::vector<VertexId> mate_;              // per local vertex (global id)
  std::vector<VertexId> cand_;              // per local vertex (global id)
  std::vector<VertexId> matched_queue_;
  std::vector<VertexId> refind_queue_;
  Push push_;
  const LocalMatcher** live_;
  std::int64_t active_cross_ = 0;
};

}  // namespace mel::match
