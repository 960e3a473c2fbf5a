// Trace-driven what-if replay: reconstruct the per-flow event DAG from a
// recorded (self-contained, mel.trace/2) Chrome trace and re-price every
// hop under a substituted net::Params — `meltrace replay`.
//
// The replayer is residual-based. Every recorded interval is decomposed
// as  recorded = model(recorded params) + residual  where the model part
// is the LogGP term the machine charged (wire alpha + bytes*beta, send /
// recv software overhead, collective entry, staging copy) and the
// residual is everything the trace realized on top of it: chaos jitter,
// non-overtaking delivery floors, ft retransmit delays, receiver
// lateness, collective skew. A what-if replay swaps the model part for
// model(new params) and carries the residual verbatim, then propagates
// through the DAG:
//
//   * per-rank chains — consecutive trace anchors (flow begins,
//     deliveries, ends) on one rank, carrying local compute and software
//     overheads;
//   * wire edges — flow begin -> mailbox delivery (or -> completion for
//     one-sided puts, parked-waiter receives, and collective slices);
//   * per-channel (src, dst, tag) non-overtaking edges between
//     consecutive deliveries, preserving message order;
//   * neighbor-collective completion groups, whose pairwise-exchange sum
//     re-prices jointly (complete = ready + sum of slice wires + copy).
//
// Each anchor's replayed time is the max over its in-edges, evaluated in
// one topological pass. Under *unchanged* parameters every edge
// reproduces its recorded interval, so replay is bit-exact against the
// recorded per-flow times and total virtual time — the fidelity
// guarantee `meltrace replay` (no --set) and CI verify. Under perturbed
// parameters the DAG yields a capacity-planning estimate at a small
// fraction of full-simulation cost; global barrier re-synchronization is
// carried as recorded (residual) rather than re-converged.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mel/net/network.hpp"
#include "mel/obs/json.hpp"
#include "mel/obs/recorder.hpp"

namespace mel::obs {

/// One flow reconstructed from the trace's s/t/f events.
struct ReplayFlow {
  std::uint64_t id = 0;  // as the trace spells it: 64 bits, not FlowId's 32
  Channel channel = Channel::kP2P;
  Rank src = -1;
  Rank dst = -1;
  int tag = 0;
  std::uint64_t bytes = 0;  // wire bytes (payload + header), from args
  Time begin = 0;
  Time step = -1;
  Time end = -1;
  Rank end_rank = -1;
  bool has_step = false;
  bool ended = false;
  bool repaired = false;  // referenced by an ft retransmit/drop/corrupt/dup
};

/// Everything `meltrace replay` / `meltrace critical` need from one
/// self-contained trace file.
struct ReplayTrace {
  std::string algo;
  std::string model;
  int nranks = 0;
  std::uint64_t seed = 0;
  std::string config_digest;

  net::Params net{};  // the parameter set the run was priced under

  Time run_time_ns = 0;  // recorded total virtual time
  std::uint64_t run_events = 0;

  std::vector<ReplayFlow> flows;  // ascending id

  /// Spans kept for critical-path attribution, reduced to the classes
  /// the attribution distinguishes.
  enum class SpanClass : std::uint8_t { kCompute, kBarrier };
  struct Span {
    Time start = 0;
    Time end = 0;
    Rank rank = -1;
    SpanClass cls = SpanClass::kCompute;
  };
  std::vector<Span> spans;  // sorted by (rank, start, end)
};

/// Parse a mel.trace/2 document into replay form (the file variant
/// streams through a fixed-size buffer). Throws std::runtime_error when
/// the trace is malformed JSON or structurally unusable (no traceEvents,
/// missing metadata header, missing net params / run result — i.e.
/// recorded before mel.trace/2 or not by melsim).
ReplayTrace load_replay_trace_text(const std::string& text);
ReplayTrace load_replay_trace_file(const std::string& path);

/// Result of one re-pricing pass.
struct ReplayResult {
  Time total_ns = 0;  // replayed total virtual time

  /// Replayed completion time per ended flow, ascending id.
  std::vector<std::pair<std::uint64_t, Time>> flow_end;

  struct ClassRoll {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    Time rec_latency_ns = 0;  // recorded sum of (end - begin)
    Time new_latency_ns = 0;  // replayed sum
  };
  std::map<std::string, ClassRoll> by_class;  // "p2p"/"rma"/...

  /// FNV-1a over the total and every (id, end) pair: two replays agree
  /// iff their digests do (the determinism pin compares these).
  std::uint64_t digest = 0;
};

class Replayer {
 public:
  /// Builds the anchor DAG once; replay() re-prices it per call.
  explicit Replayer(ReplayTrace trace);

  const ReplayTrace& trace() const { return trace_; }

  /// Re-price the recorded run under `params`.
  ReplayResult replay(const net::Params& params) const;
  /// Replay under the recorded parameters (the fidelity case).
  ReplayResult replay() const { return replay(trace_.net); }

  /// Compare replay() under the recorded parameters with the recorded
  /// per-flow times and total. Empty = bit-exact fidelity; otherwise one
  /// message per mismatch (capped).
  std::vector<std::string> fidelity_errors() const;

  // -- DAG introspection (critical-path analysis, tests) --------------------
  struct Anchor {
    enum class Kind : std::uint8_t { kBegin = 0, kDeliver = 1, kEnd = 2 };
    Time t = 0;  // recorded time
    std::uint32_t flow = 0;  // index into trace().flows
    Rank rank = -1;
    // Edge bookkeeping (filled at construction). Deliveries are mailbox
    // events driven by the wire, not by the destination rank's progress,
    // so they are excluded from the rank chains on both sides.
    std::int32_t chain_prev = -1;   // previous non-delivery anchor on rank
    std::int32_t wire_from = -1;    // begin/deliver anchor feeding this one
    std::int32_t order_prev = -1;   // previous delivery on the same channel
    std::int32_t group = -1;        // neighbor completion group id
    std::int32_t begin_peers = 0;   // neighbor begin-group size (head only)
    Kind kind = Kind::kBegin;
    Channel channel = Channel::kP2P;  // the flow's
    bool begin_head = false;          // first begin of a neighbor call
    bool copy_after = false;          // send_copy_bytes(this anchor) > 0
  };

  const std::vector<Anchor>& anchors() const { return anchors_; }
  /// Member flow indices per neighbor completion group.
  const std::vector<std::vector<std::uint32_t>>& groups() const {
    return groups_;
  }
  /// Last anchor per rank (-1 when the rank never appears in a flow).
  const std::vector<std::int32_t>& last_anchor_of_rank() const {
    return last_anchor_of_rank_;
  }
  /// Per-flow begin anchor index (every flow has one).
  const std::vector<std::int32_t>& begin_anchor() const { return b_idx_; }

  // -- The LogGP terms on the DAG's edges, each defined once: replay()
  // re-prices them, critical_path splits the recorded ones into classes.
  /// The chain gap ending at an anchor: the anchor's own overhead (o_send,
  /// o_put or collective entry at a begin, o_recv at a two-sided end), and
  /// the staging copy charged after its chain predecessor.
  struct ChainTerms {
    Time overhead = 0;
    Time copy = 0;
  };
  /// The wire edge into an anchor outside a neighbor group: the flow's
  /// wire time and its two-sided receive overhead.
  struct HopTerms {
    Time wire = 0;
    Time recv = 0;
  };
  /// A neighbor completion group: every consumed slice's wire time,
  /// summed, and the staging copy of their payload.
  struct GroupTerms {
    Time wire = 0;
    Time copy = 0;
  };
  /// Under the recorded parameters, of anchor `i` or group `g`.
  ChainTerms chain_terms(std::size_t i) const;
  HopTerms hop_terms(std::size_t i) const;
  GroupTerms group_terms(std::size_t g) const;
  /// The network the recorded run was priced by.
  const net::Network& network() const { return recorded_.net; }

 private:
  /// A flow's model terms under one parameter set: the wire time of its
  /// bytes from src to dst, and the two-sided send and receive overheads.
  struct FlowTerms {
    Time transfer = 0;
    Time send = 0;
    Time recv = 0;
  };
  /// One parameter set's network, and every flow's terms under it priced
  /// once, indexed as trace().flows.
  struct Prices {
    net::Network net;
    std::vector<FlowTerms> flows;
  };
  Prices prices(const net::Params& params) const;

  /// Send-side staging-copy bytes charged right after anchor `i` (the
  /// last begin of a neighbor call); 0 for every other anchor. Kept beside
  /// the anchors: few have such a copy, and a field would add 8 bytes to
  /// every Anchor.
  std::uint64_t send_copy_bytes(std::int32_t i) const;

  /// An anchor's chain gap and its wire edge outside a neighbor group.
  struct EdgeTerms {
    ChainTerms chain;
    HopTerms hop;
  };
  // The terms under the recorded parameters and under `now`, those a
  // pass re-prices to, read in one walk of the anchor's cases. Inline:
  // evaluate() calls it for every anchor.
  inline std::pair<EdgeTerms, EdgeTerms> edge_terms(std::size_t i,
                                                    const Prices& now) const;
  std::pair<GroupTerms, GroupTerms> group_terms(std::size_t g,
                                                const Prices& now) const;

  /// One evaluation pass under `now`: the replayed time per anchor into
  /// `out` (same order as anchors_); returns the replayed total.
  Time evaluate(const Prices& now, std::vector<Time>& out) const;

  ReplayTrace trace_;
  bool persistent_;  // persistent neighborhood collectives (NCL-PERSIST)
  Prices recorded_;  // under the recorded parameters
  std::vector<Anchor> anchors_;  // topologically sorted (recorded time)
  std::vector<std::vector<std::uint32_t>> groups_;
  /// (anchor, bytes) for every anchor with copy_after, ascending anchor.
  std::vector<std::pair<std::int32_t, std::uint64_t>> send_copies_;
  std::vector<std::int32_t> last_anchor_of_rank_;
  /// Per-flow anchor indexes (-1 when absent: no delivery / never ended).
  std::vector<std::int32_t> b_idx_;
  std::vector<std::int32_t> d_idx_;
  std::vector<std::int32_t> e_idx_;
};

}  // namespace mel::obs
