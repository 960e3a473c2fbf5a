// Machine: the global state of the simulated MPI job.
//
// One Machine spans all simulated ranks of a run. It owns mailboxes,
// windows, topology and collective state, plus all accounting. Rank code
// reaches it only through its per-rank Comm and Window views (comm.hpp):
// every MPI call is private here, and Comm, Window and their awaiters are
// friends. The public surface is what host code needs: set-up, accounting,
// the audit, the fault model, the ft::Host callbacks and tracing.
//
// The accounting rule: every MPI call adds the clock advance it causes to
// the rank's comm_ns. Nonblocking calls add their own charge, a split-phase
// neighborhood begin included; blocking calls end with end_call(), which
// adds [entry, resume] and traces that interval under the call's name.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mel/chaos/chaos.hpp"
#include "mel/ft/transport.hpp"
#include "mel/mpi/counters.hpp"
#include "mel/mpi/message.hpp"
#include "mel/net/network.hpp"
#include "mel/sim/simulator.hpp"

namespace mel::mpi {

class Comm;

/// Reduction operator for global collectives.
enum class ReduceOp { kSum, kMax, kMin };

/// ULFM-style process-failure notification (MPI_ERR_PROC_FAILED): thrown
/// by isend when the destination rank has already failed. Surfaces out of
/// the rank coroutine through Simulator::run(); the match driver catches
/// it (alongside sim::RankFailure) and runs checkpoint recovery.
class RankFailedError : public std::runtime_error {
 public:
  explicit RankFailedError(std::string what)
      : std::runtime_error(std::move(what)) {}
};

/// Channel class a simulated message travels on; tags every flow so the
/// observability layer can attribute traffic per communication model.
enum class Channel : std::uint8_t {
  kP2P,       // plain point-to-point isend/recv
  kRma,       // one-sided put
  kNeighbor,  // neighborhood-collective slice
  kFt,        // p2p routed through the reliable (ack/retransmit) transport
};

/// How a rank entered a neighborhood collective. MPI matches a call only
/// with the same kind of call on every neighbor: a blocking alltoallv never
/// completes against a split-phase one, nor either against a persistent
/// start.
enum class NeighborCall : std::uint8_t {
  kBlocking,         // neighbor_alltoallv
  kSplitPhase,       // ineighbor_alltoallv
  kPersistentStart,  // neighbor_alltoallv_start
};

/// Unique per-message flow id, assigned at injection (isend/put/slice).
/// 0 means "no flow" (message predates tracer-relevant instrumentation).
using FlowId = std::uint32_t;

/// Optional structured trace sink (obs::Recorder implements all of it).
/// record() is invoked with the rank, an operation category ("isend",
/// "recv", "ncoll", "allreduce", "put", "flush", "fence", "compute", ...),
/// and the operation's virtual [start, end) interval. The remaining hooks
/// default to no-ops so span-only sinks keep working: flow_* follow one
/// message from injection through delivery to receive/match, wire()
/// mirrors every CommMatrix record, counter() carries periodic gauge
/// samples, instant() marks point events (crashes, checkpoints, transport
/// faults), and iteration() carries per-backend-iteration phase metrics.
class Tracer {
 public:
  virtual ~Tracer() = default;
  virtual void record(Rank rank, const char* category, Time start,
                      Time end) = 0;
  /// Point event on a rank's timeline (rank -1 = whole machine); `flow`
  /// links it to a message flow when nonzero.
  virtual void instant(Rank rank, const char* name, Time t, FlowId flow) {
    (void)rank, (void)name, (void)t, (void)flow;
  }
  /// A message enters the network on `channel` at time t.
  virtual void flow_begin(FlowId flow, Channel channel, Rank src, Rank dst,
                          int tag, std::size_t bytes, Time t) {
    (void)flow, (void)channel, (void)src, (void)dst, (void)tag, (void)bytes,
        (void)t;
  }
  /// The message reached `rank`'s mailbox (network delivery) at time t.
  virtual void flow_step(FlowId flow, Rank rank, Time t) {
    (void)flow, (void)rank, (void)t;
  }
  /// The message was consumed (received/matched/landed) on `rank`.
  virtual void flow_end(FlowId flow, Rank rank, Time t) {
    (void)flow, (void)rank, (void)t;
  }
  /// One wire transfer as recorded in the communication matrix (includes
  /// retransmit copies and acks under the reliable transport).
  virtual void wire(Rank src, Rank dst, std::size_t bytes, Time t) {
    (void)src, (void)dst, (void)bytes, (void)t;
  }
  /// Periodic gauge sample (rank -1 = machine-global, e.g. event queue).
  virtual void counter(Rank rank, const char* name, Time t,
                       std::uint64_t value) {
    (void)rank, (void)name, (void)t, (void)value;
  }
  /// One backend iteration finished on `rank` with `active` cross edges
  /// still undecided; `c` is the rank's cumulative counter snapshot.
  virtual void iteration(Rank rank, std::uint64_t iter, std::int64_t active,
                         const CommCounters& c, Time t) {
    (void)rank, (void)iter, (void)active, (void)c, (void)t;
  }
};

class Machine : public ft::Host {
 public:
  /// The fault model is fixed here, once. The chaos engine is built when
  /// the network params turn any chaos knob on. The reliable transport
  /// (mel::ft) is built when `ft.enabled` asks for it, or when the chaos
  /// config destroys messages (wire faults) or strands them (scheduled
  /// crashes). With the transport on, the engine runs sequential, because
  /// the transport keeps per-channel state that every rank's shard would
  /// write; otherwise a sharded engine keeps running, chaos timing knobs
  /// included (their draws are pure, and the jitter counters sit in the
  /// sender's row of draws_), and the Machine computes its window bound:
  /// the cheapest header-only message between ranks on different shards
  /// (inter-node unless a shard boundary splits a node) or the reduction
  /// time, whichever is less. So the Machine is built before anything is
  /// spawned on `simulator`, while the engine can still be chosen.
  Machine(sim::Simulator& simulator, net::Network network,
          const ft::Params& ft = {});
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  ~Machine();

  int nranks() const { return net_.nranks(); }
  sim::Simulator& simulator() { return sim_; }
  const net::Network& network() const { return net_; }

  /// The per-rank communicator view handed to rank coroutines.
  Comm& comm(Rank rank);

  /// Define the distributed-graph process topology of every rank at once
  /// (MPI_Dist_graph_create_adjacent), before the run: one neighbor list
  /// per rank. The call checks it and indexes it: a wrong list count, an
  /// out-of-range neighbor or a self-loop throws std::invalid_argument; a
  /// duplicate neighbor or an edge without its reverse throws
  /// std::logic_error. On a sharded engine it lowers the window bound to
  /// the least, over ranks with neighbors, of the header-only transfers
  /// from all of a rank's neighbors summed: the earliest a neighborhood
  /// completion decided at a window's merge can land after its start.
  void set_topology(std::vector<std::vector<Rank>> topology);
  const std::vector<Rank>& topology(Rank rank) const;

  /// Allocate an RMA window with the given per-rank sizes in bytes.
  /// Returns the window id used with Comm::window(). Host-side setup;
  /// mirrors MPI_Win_allocate done before the algorithm starts.
  int allocate_window(const std::vector<std::size_t>& bytes_per_rank);

  // -- Accounting ----------------------------------------------------------
  const CommCounters& counters(Rank rank) const { return counters_[rank]; }
  CommCounters total_counters() const;
  /// Record the (src, dst) communication matrix, before the run: O(p^2)
  /// memory, so it is off unless asked for.
  void collect_matrix();
  /// Hand the recorded matrix over (null unless collect_matrix() ran).
  std::unique_ptr<CommMatrix> take_matrix() { return std::move(matrix_); }

  /// Explicitly registered communication-buffer bytes per rank (windows,
  /// staging buffers, ...), for the memory model.
  void account_buffer(Rank rank, std::size_t bytes);
  std::size_t buffer_bytes(Rank rank) const { return buffer_bytes_[rank]; }
  /// Peak bytes queued in a rank's mailbox (unexpected-message memory).
  std::size_t peak_mailbox_bytes(Rank rank) const {
    return peak_mailbox_bytes_[rank];
  }
  /// Peak number of messages queued in the mailbox at once.
  std::uint64_t peak_mailbox_msgs(Rank rank) const {
    return peak_mailbox_msgs_[rank];
  }
  /// Peak number of this rank's sends simultaneously in flight (posted,
  /// not yet delivered) — a proxy for MPI-internal request/buffer memory.
  std::uint64_t peak_inflight_sends(Rank rank) const {
    return peak_inflight_sends_[rank];
  }

  // -- Invariant auditor ----------------------------------------------------

  /// Run the finalize-time conservation and accounting audits and return
  /// every violation found (empty = substrate state is consistent):
  /// p2p payload bytes sent == delivered, no in-flight sends, mailbox
  /// byte/message accounting back to zero with no parked waiters, every
  /// scheduled put landed, and window memory consistent with
  /// account_buffer(). The checks cost nothing per operation.
  std::vector<std::string> audit() const;

  /// audit() and throw std::logic_error listing the violations, if any.
  void audit_or_throw() const;

  // -- Stall diagnostics ----------------------------------------------------

  /// One-line description of a rank's substrate state for the progress
  /// watchdog: the parked operation (kind, source/tag or sequence number),
  /// mailbox depth and bytes, in-flight sends, and collective sequence
  /// numbers. Installed into the Simulator as its stall reporter.
  std::string rank_diagnostics(Rank rank) const;

  /// The fault-injection engine, if the network params enabled one.
  const chaos::Engine* chaos_engine() const { return chaos_.get(); }

  // -- Fault tolerance ------------------------------------------------------

  /// True when the constructor built the reliable transport: every p2p
  /// message, RMA put and collective slice then rides it.
  bool ft_enabled() const { return transport_ != nullptr; }
  const ft::Transport* transport() const { return transport_.get(); }
  /// Mutable access for the transport's *_for_test hooks (channel
  /// preseeding near the sequence-number limit, rto probing).
  ft::Transport* transport() { return transport_.get(); }

  /// ULFM-style failure queries: the set of ranks known to have failed,
  /// sorted.
  bool rank_failed(Rank rank) const { return failed_[rank] != 0; }
  std::vector<Rank> failed_ranks() const;
  int failed_count() const { return static_cast<int>(failed_ranks_.size()); }

  /// Mark a rank failed *now*: kill its coroutine and stop retransmissions
  /// to it. Scheduled automatically for every chaos-configured crash; a
  /// crash landing after the rank already returned is a no-op.
  void handle_rank_failure(Rank rank);

  // -- ft::Host (callbacks from the reliable transport) ---------------------
  void ft_deliver(Rank src, Rank dst, int tag, util::Buffer payload,
                  Time sent_at, Time arrive_at, FlowId flow) override;
  void ft_count(Rank rank, ft::Stat stat, FlowId flow, Time t) override;
  void ft_price(Rank rank, Time ns) override;
  void ft_abandoned(Rank src, std::size_t payload_bytes, FlowId flow) override;
  bool ft_rank_failed(Rank rank) const override { return failed_[rank] != 0; }
  void ft_record_wire(Rank src, Rank dst, std::size_t bytes) override;

  /// Install (or clear, with nullptr) the operation tracer.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Emit a point event on the tracer (rank -1 = machine-wide). The match
  /// layer marks checkpoints and recoveries with it, so it needs no obs
  /// dependency.
  void trace_instant(Rank rank, const char* name, Time t, FlowId flow = 0) {
    with_trace([=](Tracer& tr) { tr.instant(rank, name, t, flow); });
  }

  /// Sample per-rank gauges (mailbox depth/bytes, in-flight bytes, FT
  /// retransmit-queue length) and the global event-queue size into the
  /// tracer every `interval_ns` of virtual time. The hook only reads
  /// state — it schedules no events and advances no clocks, so enabling it
  /// cannot perturb the event trace. No-op when interval_ns <= 0.
  void enable_sampling(Time interval_ns);

 private:
  // -- Rank-facing calls: reached only through Comm, Window and awaiters ----
  friend class Comm;
  friend class Window;
  friend class RecvAwaiter;
  friend class FlushAwaiter;
  template <class Raw, class Park, class Finish>
  friend class Blocking;

  /// Post a nonblocking send: charges sender overhead, prices the wire
  /// transfer, enforces non-overtaking per channel, schedules delivery.
  /// A tag outside [0, kTagUb] throws std::invalid_argument.
  void isend(Rank src, Rank dst, int tag, std::span<const std::byte> data);

  /// Nonblocking probe: charges the probe cost and peeks the mailbox for a
  /// message visible at the rank's (post-charge) local clock.
  std::optional<Envelope> iprobe(Rank rank, Rank src, int tag);

  /// Try to complete a receive immediately (message already arrived).
  /// On success, the rank clock is advanced past the arrival + recv cost.
  bool try_recv(Rank rank, Rank src, int tag, Message& out);

  /// True if anything is queued in the rank's mailbox (regardless of
  /// arrival time relative to the rank's lagging clock).
  bool iprobe_any_queued(Rank rank) const;

  /// Park a rank until a matching message arrives. If `peek_only`, the
  /// message is left in the mailbox (used by wait_message()). The ticket is
  /// owned by the awaiter (it lives in the suspended coroutine frame); the
  /// machine holds only a pointer, which is dropped when the waiter fires.
  struct RecvTicket {
    Rank rank = -1;
    Rank src = kAnySource;
    int tag = kAnyTag;
    bool peek_only = false;
    sim::Simulator::Parked parked;
    Time parked_clock = 0;
    bool fired = false;
    Message msg;  // filled on fire when !peek_only
  };
  void park_recv(RecvTicket* ticket);

  /// One-sided put into window `win` of rank `target` at byte offset. An
  /// `ordered` put's completion is additionally floored by every earlier
  /// ordered put from the same origin to the same target — the landing
  /// order the partitioned (MPI_Pready flavored) protocol needs so a
  /// partition-boundary marker can never overtake its partition's data.
  /// Plain puts keep their independent completion times. A put that does
  /// not fit inside the target's window throws std::out_of_range.
  void put(int win, Rank origin, Rank target, std::size_t offset,
           std::span<const std::byte> data, bool ordered);
  /// Time at which all puts issued so far by `origin` on `win` complete.
  Time put_completion_time(int win, Rank origin) const;
  /// Time at which all puts issued so far by *any* rank on `win` complete
  /// (used by active-target fence synchronization).
  Time window_quiesce_time(int win) const;
  /// Direct access to a rank's local window memory.
  std::span<std::byte> window_memory(int win, Rank rank);
  std::size_t window_size(int win, Rank rank) const;

  /// Active-target fence on a window (MPI_Win_fence): a barrier over all
  /// ranks that additionally waits for every outstanding put on the
  /// window. Every rank wakes at the epoch completion time.
  void fence_arrive(int win, Rank rank, sim::Simulator::Parked parked);

  /// Neighborhood collective, first half (MPI_Ineighbor_alltoallv): the
  /// rank posts one packed block with a slice per topology neighbor
  /// (ordered as topology(rank)) without parking; neighbor_wait completes
  /// it. At most one outstanding per rank. `recv_out` receives one view
  /// per neighbor into that neighbor's block (refcounted); the
  /// per-receiver copy is still priced into virtual time via copy_time. A
  /// slice count other than the degree throws std::invalid_argument. A
  /// persistent start is charged o_coll_persistent_start instead of the
  /// full collective entry. A neighbor that made another kind of call at
  /// the same sequence number fails the run with a std::logic_error. The
  /// clock advance is not added to comm_ns here: the caller's accounting
  /// covers it.
  void neighbor_begin(Rank rank, PackedSlices slices,
                      std::vector<SliceView>* recv_out, NeighborCall kind);

  /// Park until the outstanding collective completes, once all neighbors
  /// arrived at the same sequence number; if it already completed, the
  /// wake lands at its completion time. `recv` names the request: one
  /// that is not the outstanding call's throws std::logic_error.
  void neighbor_wait(Rank rank, const std::vector<SliceView>* recv,
                     sim::Simulator::Parked parked);

  /// Global collectives (allreduce on int64 vectors / barrier): rank
  /// arrives with its contribution; completes when all ranks arrive at the
  /// same sequence number. `result_out` is null for a barrier. Every rank
  /// must make the same call for a given instance: a barrier, or an
  /// allreduce with the same `op` and contribution length; a mismatch
  /// throws std::logic_error.
  void global_arrive(Rank rank, std::vector<std::int64_t> contribution,
                     ReduceOp op, std::vector<std::int64_t>* result_out,
                     sim::Simulator::Parked parked);

  /// Charge `ns` of explicitly modelled local computation to the rank,
  /// after any chaos straggler scaling. Returns the charged amount.
  Time charge_compute(Rank rank, Time ns);

  /// The one way to the tracer: when one is installed, run `f` on it at
  /// the current call site's position in the global event order. The
  /// tracer is shared across all ranks, so the call goes through
  /// Simulator::defer: replayed at the window barrier in exact merged
  /// order inside a sharded window, inline everywhere else. Every value
  /// the callback needs must be captured eagerly: by the time a deferred
  /// callback runs, rank clocks may have advanced.
  template <class F>
  void with_trace(F&& f) {
    if (tracer_ == nullptr) return;
    sim_.defer([this, f = std::forward<F>(f)]() mutable { f(*tracer_); });
  }

  /// Record one completed operation interval if a tracer is installed.
  /// This and trace_iteration check for the tracer before the gate does, so
  /// an untraced call also skips the clock read (and the counter copy).
  void trace_op(Rank rank, const char* category, Time start) {
    if (tracer_ == nullptr) return;
    const Time end = sim_.rank_now(rank);
    with_trace([=](Tracer& t) { t.record(rank, category, start, end); });
  }

  /// Emit one per-backend-iteration metrics record for `rank` at its
  /// current local clock (called via Comm::obs_iteration; purely
  /// observational — charges nothing, schedules nothing).
  void trace_iteration(Rank rank, std::uint64_t iter, std::int64_t active) {
    if (tracer_ == nullptr) return;
    const Time t = sim_.rank_now(rank);
    with_trace([=, c = counters_[rank]](Tracer& tr) {
      tr.iteration(rank, iter, active, c, t);
    });
  }

  /// The end of every blocking MPI call: the rank's clock advance since
  /// `entry` is communication time, traced as the interval [entry, now]
  /// under `op`.
  void end_call(Rank rank, const char* op, Time entry) {
    counters_[rank].comm_ns += sim_.rank_now(rank) - entry;
    trace_op(rank, op, entry);
  }

  CommCounters& counters_mut(Rank rank) { return counters_[rank]; }

  void enqueue_accounting(Rank dst, std::size_t bytes);
  /// Record one wire copy sent at `t` in the matrix and the tracer.
  void record_wire(Rank src, Rank dst, std::size_t bytes, Time t);
  /// Put a new message (an isend, a put or one neighborhood slice) of
  /// `payload_bytes` on the wire at `t`: record its first wire copy, unless
  /// the transport records its own copies, and begin its traced flow.
  void inject(FlowId flow, Channel channel, Rank src, Rank dst, int tag,
              std::size_t payload_bytes, Time t);
  /// Schedule `msg`'s mailbox delivery at its arrival time on its
  /// destination's shard; the sender's in-flight gauges settle at the
  /// merge point.
  void schedule_delivery(Message msg);
  /// The slot of `src`'s channel to `dst` in floors_[src], and in
  /// draws_[src] under jitter; a new channel is inserted on first use.
  std::size_t channel_slot(Rank src, Rank dst, int tag);

  struct Mailbox;
  struct WindowState;
  struct NeighborState;
  struct GlobalCollState;

  void deliver(Message msg);
  void complete_neighbor_op(Rank rank, std::uint64_t seq);

  sim::Simulator& sim_;
  net::Network net_;
  std::unique_ptr<chaos::Engine> chaos_;  // null when fault injection is off

  std::vector<std::unique_ptr<Comm>> comms_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::vector<Rank>> topology_;
  /// reverse_[r][i]: r's position in the list of its i-th neighbor, so a
  /// neighborhood collective picks the slice meant for r without a search.
  /// Built by set_topology, before any shard runs.
  std::vector<std::vector<std::uint32_t>> reverse_;

  std::vector<std::unique_ptr<WindowState>> windows_;
  std::unique_ptr<NeighborState> neighbor_;
  std::unique_ptr<GlobalCollState> global_;

  /// Reliable transport (null when the fault model does not need it);
  /// declared after sim_/net_ and before the per-rank state it delivers
  /// into.
  std::unique_ptr<ft::Transport> transport_;

  Tracer* tracer_ = nullptr;
  std::vector<CommCounters> counters_;
  std::unique_ptr<CommMatrix> matrix_;  // null unless collect_matrix()
  /// Non-overtaking floors, one row per source rank: the last arrival on
  /// each channel the source has sent on, sorted by channel. A channel is
  /// the destination, or (destination, tag) under chaos latency jitter,
  /// where messages with different tags may legally overtake each other.
  /// Rows hold only the channels in use, and only the source's own events
  /// write its row, so shards never share one.
  struct Floor {
    std::uint64_t channel;
    Time at;
  };
  std::vector<std::vector<Floor>> floors_;
  /// Empty unless chaos latency jitter is on. Then draws_[src][i] counts
  /// the jitter draws on floors_[src][i]'s channel, which is exactly the
  /// engine's (src, dst, tag); written only by the source, like its floors.
  std::vector<std::vector<std::uint64_t>> draws_;
  std::vector<std::size_t> buffer_bytes_;
  std::vector<std::size_t> window_bytes_;  // subset of buffer_bytes_
  std::vector<std::size_t> mailbox_bytes_;
  std::vector<std::size_t> peak_mailbox_bytes_;
  std::vector<std::uint64_t> mailbox_msgs_;
  std::vector<std::uint64_t> peak_mailbox_msgs_;
  std::vector<std::uint64_t> inflight_sends_;
  std::vector<std::uint64_t> peak_inflight_sends_;
  std::vector<std::size_t> inflight_bytes_;
  /// Messages delivered after the recipient coroutine already returned
  /// (e.g. crossing REJECTs in the send-recv protocols). Unconsumable by
  /// construction; the auditor tolerates exactly these and nothing more.
  std::vector<std::uint64_t> dead_letter_msgs_;
  std::vector<std::size_t> dead_letter_bytes_;
  std::vector<char> failed_;        // per rank, 1 = failed
  std::vector<Rank> failed_ranks_;  // in failure order

  /// The finalize audit's conservation totals, one row per rank. Each is
  /// written inline by the rank whose event it is: the sender in isend,
  /// the receiver in deliver, the origin in put and the target where the
  /// put lands. Sums do not depend on event order, so audit() adds the
  /// rows up and no shard writes another's row.
  struct Conservation {
    std::uint64_t sent_payload_bytes = 0;
    std::uint64_t delivered_payload_bytes = 0;
    std::uint64_t puts_scheduled = 0;
    std::uint64_t puts_landed = 0;
  };
  std::vector<Conservation> conservation_;
  /// Payload bytes whose delivery the transport abandoned because an
  /// endpoint failed; conservation becomes sent == delivered + abandoned.
  std::uint64_t abandoned_payload_bytes_ = 0;
  /// Per-rank message-flow counters; assigned unconditionally (cheap) so
  /// flows stay identical whether or not a tracer is installed mid-run.
  /// Striped per injecting rank (flow = count * nranks + rank + 1) instead
  /// of one global counter so flow assignment is rank-local — no shared
  /// counter between shards — and identical at every thread count.
  std::vector<FlowId> next_flow_;

  /// The next `count` flow ids of messages injected by `rank` (isend /
  /// put / slices); the first is returned, and id i is flow_at(first, i).
  FlowId new_flow(Rank rank, FlowId count = 1) {
    const FlowId first = next_flow_[rank] * static_cast<FlowId>(nranks()) +
                         static_cast<FlowId>(rank) + 1;
    next_flow_[rank] += count;
    return first;
  }
  /// The id a rank's counter gives i ids after `first`, wrapping as they do.
  FlowId flow_at(FlowId first, std::size_t i) const {
    return first + static_cast<FlowId>(i) * static_cast<FlowId>(nranks());
  }
};

}  // namespace mel::mpi
