#include "mel/mpi/machine.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "mel/mpi/comm.hpp"
#include "mel/prof/prof.hpp"

namespace mel::mpi {

// ---------------------------------------------------------------------------
// Internal state structs
// ---------------------------------------------------------------------------

/// FIFO of arrived messages as a vector + head cursor instead of a deque:
/// front-pops are cursor bumps, steady state reuses one allocation (deque
/// churns map/chunk nodes), and the occasional mid-queue extraction (tag
/// matching) is a vector erase. The dead prefix is compacted once it
/// dominates the vector.
struct Machine::Mailbox {
  std::vector<Message> arrived;  // live range [head, arrived.size())
  std::size_t head = 0;
  std::vector<RecvTicket*> waiters;  // in park order

  bool empty() const { return head == arrived.size(); }
  std::size_t size() const { return arrived.size() - head; }
  auto begin() { return arrived.begin() + static_cast<std::ptrdiff_t>(head); }
  auto end() { return arrived.end(); }
  auto begin() const {
    return arrived.begin() + static_cast<std::ptrdiff_t>(head);
  }
  auto end() const { return arrived.end(); }
  const Message& front() const { return arrived[head]; }
  void push_back(Message m) { arrived.push_back(std::move(m)); }
  void erase(std::vector<Message>::iterator it) {
    if (it == begin()) {
      ++head;
      if (head == arrived.size()) {
        arrived.clear();  // keeps capacity
        head = 0;
      } else if (head >= 64 && head * 2 >= arrived.size()) {
        arrived.erase(arrived.begin(),
                      arrived.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
    } else {
      arrived.erase(it);
    }
  }
};

struct Machine::WindowState {
  std::vector<std::vector<std::byte>> mem;  // per rank
  std::vector<Time> last_completion;        // per origin rank

  /// Per (origin, target) completion floor consulted only by *ordered*
  /// puts (partitioned protocol): a later ordered put to the same target
  /// never lands before an earlier one. Indexed by origin, then keyed by
  /// target: each origin owns its own map, so concurrent ordered puts
  /// from different origins (different shards) never touch shared nodes.
  std::vector<std::map<Rank, Time>> ordered_floor;

  // Active-target fence epochs (MPI_Win_fence): a per-window barrier that
  // also drains every outstanding put on the window.
  struct FenceInst {
    int arrived = 0;
    Time max_arrive = 0;
    std::vector<sim::Simulator::Parked> waiters;
  };
  std::vector<std::uint64_t> fence_seq;  // per rank
  std::map<std::uint64_t, FenceInst> fences;
};

struct Machine::NeighborState {
  static constexpr std::uint64_t kNoCall = ~std::uint64_t{0};
  /// One rank's call, from its begin until the last neighbor consumed it.
  struct Call {
    std::uint64_t seq = kNoCall;
    NeighborCall kind = NeighborCall::kBlocking;
    Time arrive = 0;
    PackedSlices slices;  // slice i is meant for the caller's i-th neighbor
    FlowId first_flow = 0;  // slice i's flow is flow_at(first_flow, i)
    int consumers_left = 0;
    /// Reliable-transport landing time of each slice at its receiver;
    /// empty on the perfect-wire path.
    std::vector<Time> slice_deliver;
  };
  struct Pending {
    std::uint64_t seq = 0;
    Time arrive = 0;
    std::vector<SliceView>* recv_out = nullptr;  // names the request
    sim::Simulator::Parked parked;
    int waiting_on = 0;
    bool active = false;   // an op is outstanding
    bool has_waiter = false;  // someone is parked on it
    bool done = false;     // completion time computed, data scheduled
    Time complete_at = 0;
  };
  std::vector<std::uint64_t> next_seq;
  /// calls[r][s & 1] holds rank r's call at sequence s. Two slots suffice:
  /// every neighbor consumes r's call at s before r begins s + 2, because r
  /// completes s + 1 only once each neighbor arrived at s + 1, which a
  /// neighbor does only after its wait for s returned.
  std::vector<std::array<Call, 2>> calls;
  std::vector<Pending> pending;  // at most one per rank
};

struct Machine::GlobalCollState {
  struct Waiter {
    Rank rank = -1;
    std::vector<std::int64_t>* out = nullptr;
    sim::Simulator::Parked parked;
  };
  struct Inst {
    int arrived = 0;
    Time max_arrive = 0;
    std::vector<std::int64_t> acc;
    /// The first arrival's call, which every later arrival must repeat: a
    /// barrier, or an allreduce with this op and acc.size() values.
    Rank first = -1;
    bool barrier = false;
    ReduceOp op = ReduceOp::kSum;
    std::vector<Waiter> waiters;
  };
  std::vector<std::uint64_t> next_seq;  // per rank
  std::map<std::uint64_t, Inst> insts;
};

// ---------------------------------------------------------------------------
// The sharded engine's window bound
// ---------------------------------------------------------------------------

namespace {

/// The cheapest message between ranks on different shards: every isend,
/// put and neighborhood slice pays at least a header-only transfer. Prices
/// depend only on whether the two ranks share a node, so one pair of each
/// kind stands for all. Ranks 0 and p-1 always sit on different shards,
/// and on different nodes unless there is one node. Two ranks of one node
/// sit on different shards only where a shard boundary splits that node.
Time cheapest_cross_shard(const sim::Simulator& sim, const net::Network& net) {
  const Rank last = net.nranks() - 1;
  Time least = std::numeric_limits<Time>::max();
  if (net.nnodes() > 1) least = net.transfer_time(0, last, kHeaderBytes);
  for (int s = 1; s < sim.shards(); ++s) {
    const Rank first = sim.shard_first(s);
    if (first <= last && net.same_node(first - 1, first)) {
      return std::min(least, net.transfer_time(first - 1, first, kHeaderBytes));
    }
  }
  return least;
}

}  // namespace

// ---------------------------------------------------------------------------

CommCounters& CommCounters::operator+=(const CommCounters& o) {
  isends += o.isends;
  recvs += o.recvs;
  iprobes += o.iprobes;
  puts += o.puts;
  flushes += o.flushes;
  fences += o.fences;
  neighbor_colls += o.neighbor_colls;
  allreduces += o.allreduces;
  barriers += o.barriers;
  retransmits += o.retransmits;
  dropped += o.dropped;
  corrupt_detected += o.corrupt_detected;
  dup_filtered += o.dup_filtered;
  acks += o.acks;
  sends_failed += o.sends_failed;
  bytes_sent += o.bytes_sent;
  bytes_put += o.bytes_put;
  bytes_coll += o.bytes_coll;
  comm_ns += o.comm_ns;
  compute_ns += o.compute_ns;
  return *this;
}

std::uint64_t CommMatrix::total_msgs() const {
  std::uint64_t total = 0;
  for (auto v : msgs_) total += v;
  return total;
}

std::uint64_t CommMatrix::total_bytes() const {
  std::uint64_t total = 0;
  for (auto v : bytes_) total += v;
  return total;
}

std::uint64_t CommMatrix::nonzero_pairs() const {
  std::uint64_t total = 0;
  for (auto v : msgs_) total += (v != 0);
  return total;
}

// ---------------------------------------------------------------------------

Machine::Machine(sim::Simulator& simulator, net::Network network,
                 const ft::Params& ft)
    : sim_(simulator),
      net_(std::move(network)),
      topology_(net_.nranks()),
      reverse_(net_.nranks()),
      counters_(net_.nranks()),
      floors_(net_.nranks()),
      buffer_bytes_(net_.nranks(), 0),
      window_bytes_(net_.nranks(), 0),
      mailbox_bytes_(net_.nranks(), 0),
      peak_mailbox_bytes_(net_.nranks(), 0),
      mailbox_msgs_(net_.nranks(), 0),
      peak_mailbox_msgs_(net_.nranks(), 0),
      inflight_sends_(net_.nranks(), 0),
      peak_inflight_sends_(net_.nranks(), 0),
      inflight_bytes_(net_.nranks(), 0),
      dead_letter_msgs_(net_.nranks(), 0),
      dead_letter_bytes_(net_.nranks(), 0),
      failed_(net_.nranks(), 0),
      conservation_(net_.nranks()),
      next_flow_(net_.nranks(), 0) {
  if (net_.nranks() != sim_.nranks()) {
    throw std::invalid_argument("Machine: simulator/network rank mismatch");
  }
  const int p = net_.nranks();
  const chaos::Config& chaos = net_.params().chaos;
  if (chaos.enabled()) chaos_ = std::make_unique<chaos::Engine>(chaos, p);
  if (chaos.latency_jitter > 0.0) draws_.resize(p);
  ft.validate();
  if (ft.enabled || chaos.wire_faults() || !chaos.crashes.empty()) {
    // Wire faults destroy messages and crashes strand them: both need the
    // reliable ack/retransmit transport below the MPI layer.
    transport_ =
        std::make_unique<ft::Transport>(*this, sim_, net_, chaos_.get(), ft);
  }
  if (transport_) {
    // What the shards cannot split is the transport's per-channel state in
    // one shared map: each channel's sender and receiver halves.
    sim_.require_sequential(
        "the reliable transport keeps per-channel state that every shard "
        "writes");
  } else if (sim_.threaded()) {
    // The window bound: an event a window runs at t causes an event on
    // another shard no sooner than t plus the cheapest cross-shard
    // message, and a global collective or fence completes no sooner than
    // one reduction time after the window's start (set_topology adds the
    // neighborhood term). Chaos timing knobs only ever add time (jitter
    // never pulls a wire time below the LogGP floor), so the bound holds
    // under them, and their draws are pure: the jitter counters live in
    // the source's row.
    sim_.limit_lookahead(
        std::min(cheapest_cross_shard(sim_, net_), net_.reduction_time()));
  }
  comms_.reserve(p);
  mailboxes_.reserve(p);
  for (Rank r = 0; r < p; ++r) {
    comms_.push_back(std::make_unique<Comm>(*this, r));
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  neighbor_ = std::make_unique<NeighborState>();
  neighbor_->next_seq.assign(p, 0);
  neighbor_->calls.resize(p);
  neighbor_->pending.resize(p);
  global_ = std::make_unique<GlobalCollState>();
  global_->next_seq.assign(p, 0);
  // Scheduled fail-stop crashes: at the configured virtual time the rank is
  // killed and the failure surfaced ULFM-style. A crash landing after the
  // rank already returned is a no-op (handled inside handle_rank_failure).
  for (const auto& crash : chaos.crashes) {
    sim_.schedule_for(crash.rank, crash.at,
                      [this, r = crash.rank] { handle_rank_failure(r); });
  }
  sim_.set_stall_reporter([this](Rank r) { return rank_diagnostics(r); });
}

Machine::~Machine() { sim_.set_stall_reporter(nullptr); }

Comm& Machine::comm(Rank rank) { return *comms_.at(rank); }

void Machine::set_topology(std::vector<std::vector<Rank>> topology) {
  const int p = nranks();
  if (topology.size() != static_cast<std::size_t>(p)) {
    std::ostringstream os;
    os << "set_topology: got " << topology.size() << " neighbor list(s) for "
       << p << " ranks";
    throw std::invalid_argument(os.str());
  }
  // incoming[m]: (n, j) for every rank n whose j-th neighbor is m, in rank
  // order, so one binary search per edge finds its reverse: O(sum d log d).
  // Sized for a symmetric topology, whose in-degrees equal its out-degrees.
  std::vector<std::vector<std::pair<Rank, std::uint32_t>>> incoming(p);
  for (Rank r = 0; r < p; ++r) incoming[r].reserve(topology[r].size());
  for (Rank n = 0; n < p; ++n) {
    for (std::uint32_t j = 0; j < topology[n].size(); ++j) {
      const Rank m = topology[n][j];
      if (m < 0 || m >= p || m == n) {
        std::ostringstream os;
        os << "set_topology: rank " << n << " lists neighbor " << m;
        if (m == n) {
          os << ", itself (self-loops are not a valid dist-graph edge)";
        } else {
          os << ", outside the valid range [0, " << p << ")";
        }
        throw std::invalid_argument(os.str());
      }
      incoming[m].emplace_back(n, j);
    }
  }
  std::vector<std::vector<std::uint32_t>> reverse(p);
  for (Rank r = 0; r < p; ++r) {
    reverse[r].reserve(topology[r].size());
    const auto& in = incoming[r];
    const auto dup = std::adjacent_find(
        in.begin(), in.end(),
        [](const auto& a, const auto& b) { return a.first == b.first; });
    if (dup != in.end()) {
      std::ostringstream os;
      os << "duplicate neighbor in process topology: rank " << dup->first
         << " lists " << r << " more than once";
      throw std::logic_error(os.str());
    }
    for (const Rank n : topology[r]) {
      const auto it = std::lower_bound(in.begin(), in.end(),
                                       std::pair<Rank, std::uint32_t>{n, 0});
      if (it == in.end() || it->first != n) {
        std::ostringstream os;
        os << "asymmetric process topology: rank " << r << " lists " << n
           << " as a neighbor, but rank " << n << " (" << topology[n].size()
           << " neighbor(s)) has no reverse edge to " << r;
        throw std::logic_error(os.str());
      }
      reverse[r].push_back(it->second);
    }
  }
  topology_ = std::move(topology);
  reverse_ = std::move(reverse);
  if (!sim_.threaded()) return;
  // A neighborhood completion is decided at the merge, no sooner than the
  // start of the window it is decided in plus one header-only transfer
  // from each of the rank's neighbors; it must land past that window.
  Time least = std::numeric_limits<Time>::max();
  for (Rank r = 0; r < p; ++r) {
    if (topology_[r].empty()) continue;
    Time sum = 0;
    for (const Rank n : topology_[r]) {
      sum += net_.transfer_time(n, r, kHeaderBytes);
    }
    least = std::min(least, sum);
  }
  if (least != std::numeric_limits<Time>::max()) sim_.limit_lookahead(least);
}

const std::vector<Rank>& Machine::topology(Rank rank) const {
  return topology_.at(rank);
}

void Machine::collect_matrix() {
  matrix_ = std::make_unique<CommMatrix>(nranks());
}

int Machine::allocate_window(const std::vector<std::size_t>& bytes_per_rank) {
  if (static_cast<int>(bytes_per_rank.size()) != nranks()) {
    throw std::invalid_argument("allocate_window: need one size per rank");
  }
  auto ws = std::make_unique<WindowState>();
  ws->mem.resize(nranks());
  ws->last_completion.assign(nranks(), 0);
  ws->ordered_floor.resize(nranks());
  ws->fence_seq.assign(nranks(), 0);
  for (Rank r = 0; r < nranks(); ++r) {
    ws->mem[r].assign(bytes_per_rank[r], std::byte{0});
    account_buffer(r, bytes_per_rank[r]);
    window_bytes_[r] += bytes_per_rank[r];
  }
  windows_.push_back(std::move(ws));
  return static_cast<int>(windows_.size()) - 1;
}

CommCounters Machine::total_counters() const {
  CommCounters total;
  for (const auto& c : counters_) total += c;
  return total;
}

void Machine::account_buffer(Rank rank, std::size_t bytes) {
  buffer_bytes_.at(rank) += bytes;
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

// Send tags stay below the transport's synthetic channels.
static_assert(kTagUb < ft::Transport::kRmaTagBase);

void Machine::isend(Rank src, Rank dst, int tag,
                    std::span<const std::byte> data) {
  if (dst < 0 || dst >= nranks()) {
    throw std::invalid_argument("isend: bad destination rank");
  }
  if (tag < 0 || tag > kTagUb) {
    throw std::invalid_argument("isend: tag " + std::to_string(tag) +
                                " outside [0, kTagUb = " +
                                std::to_string(kTagUb) + "]");
  }
  if (failed_[dst] != 0) {
    // ULFM fail-fast (MPI_ERR_PROC_FAILED): the sender learns of the
    // failure at the next communication with the dead rank. The error
    // unwinds the rank coroutine and surfaces out of Simulator::run();
    // the match driver catches it and recovers from the last checkpoint.
    counters_[src].sends_failed += 1;
    std::ostringstream os;
    os << "isend: destination rank " << dst << " has failed (src=" << src
       << " tag=" << tag << " " << data.size() << " B)";
    throw RankFailedError(os.str());
  }
  const prof::ScopedTimer pt(prof::Section::kP2P);
  const Time o_send = net_.send_overhead(src, dst);
  auto& c = counters_[src];
  c.isends += 1;
  c.bytes_sent += data.size();
  c.comm_ns += o_send;
  const Time isend_start = sim_.rank_now(src);
  sim_.charge(src, o_send);
  trace_op(src, "isend", isend_start);
  const FlowId flow = new_flow(src);
  const Time sent_at = sim_.rank_now(src);
  inject(flow, transport_ != nullptr ? Channel::kFt : Channel::kP2P, src, dst,
         tag, data.size(), sent_at);
  // The in-flight gauge's peak depends on the global event order, so the
  // increment runs at the merge point (same global order as the sequential
  // engine, so the recorded peaks are identical), as does the decrement in
  // schedule_delivery.
  const std::size_t payload_bytes = data.size();
  conservation_[src].sent_payload_bytes += payload_bytes;
  sim_.defer([this, src, payload_bytes] {
    inflight_sends_[src] += 1;
    peak_inflight_sends_[src] =
        std::max(peak_inflight_sends_[src], inflight_sends_[src]);
    inflight_bytes_[src] += payload_bytes;
  });
  if (transport_ != nullptr) {
    // Reliable path: the transport sequences, checksums, acks and (under
    // chaos) retransmits, and hands each in-order segment to ft_deliver.
    transport_->send(src, dst, tag, data, flow);
    return;
  }

  // MPI non-overtaking: messages on one channel are delivered in send
  // order regardless of size.
  const std::size_t slot = channel_slot(src, dst, tag);
  Time wire = net_.transfer_time(src, dst, data.size() + kHeaderBytes);
  if (!draws_.empty()) {
    wire += chaos_->transfer_jitter(src, dst, tag, draws_[src][slot]++, wire);
  }
  Time& floor = floors_[src][slot].at;
  const Time arrival = std::max(sent_at + wire, floor + 1);
  floor = arrival;

  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.tag = tag;
  // The payload's one and only copy: into a refcounted buffer that
  // travels through delivery and the mailbox by reference.
  msg.data = util::Buffer::copy_of(data);
  msg.sent_at = sent_at;
  msg.arrived_at = arrival;
  msg.flow = flow;
  schedule_delivery(std::move(msg));
}

void Machine::schedule_delivery(Message msg) {
  const Rank dst = msg.dst;
  const Time at = msg.arrived_at;
  sim_.schedule_for(dst, at, [this, m = std::move(msg)]() mutable {
    sim_.defer([this, src = m.src, nbytes = m.data.size()] {
      inflight_sends_[src] -= 1;
      inflight_bytes_[src] -= nbytes;
    });
    deliver(std::move(m));
  });
}

std::size_t Machine::channel_slot(Rank src, Rank dst, int tag) {
  // Under jitter different tags may overtake — the MPI-legal reordering
  // the chaos sweep exercises — so the channel is (dst, tag).
  const bool jitter = !draws_.empty();
  const std::uint64_t channel = chaos::channel_key(src, dst, jitter ? tag : 0);
  auto& row = floors_[src];
  const auto it = std::lower_bound(
      row.begin(), row.end(), channel,
      [](const Floor& f, std::uint64_t c) { return f.channel < c; });
  const auto slot = it - row.begin();
  if (it == row.end() || it->channel != channel) {
    row.insert(it, Floor{channel, 0});
    if (jitter) draws_[src].insert(draws_[src].begin() + slot, 0);
  }
  return static_cast<std::size_t>(slot);
}

void Machine::record_wire(Rank src, Rank dst, std::size_t bytes, Time t) {
  if (matrix_) matrix_->record(src, dst, bytes);
  with_trace([=](Tracer& tr) { tr.wire(src, dst, bytes, t); });
}

void Machine::inject(FlowId flow, Channel channel, Rank src, Rank dst, int tag,
                     std::size_t payload_bytes, Time t) {
  const std::size_t wire_bytes = payload_bytes + kHeaderBytes;
  // The reliable transport records each of its wire copies itself
  // (ft_record_wire), the first one included.
  if (transport_ == nullptr) record_wire(src, dst, wire_bytes, t);
  with_trace([=](Tracer& tr) {
    tr.flow_begin(flow, channel, src, dst, tag, wire_bytes, t);
  });
}

namespace {
bool matches(const Message& m, Rank src, int tag) {
  return (src == kAnySource || m.src == src) && (tag == kAnyTag || m.tag == tag);
}
}  // namespace

void Machine::deliver(Message msg) {
  const prof::ScopedTimer pt(prof::Section::kP2P);
  auto& box = *mailboxes_[msg.dst];
  const Rank dst = msg.dst;
  conservation_[dst].delivered_payload_bytes += msg.data.size();
  if (sim_.rank_done(dst)) {
    // The recipient already returned: nothing can consume this message.
    // Track it so the finalize audit can tell unavoidable late traffic
    // from messages a backend abandoned while it could still read them.
    dead_letter_msgs_[dst] += 1;
    dead_letter_bytes_[dst] += msg.data.size();
    if (msg.flow != 0) {
      // Close the flow here: nothing will ever recv it.
      const FlowId flow = msg.flow;
      const Time at = msg.arrived_at;
      with_trace([=](Tracer& t) {
        t.flow_end(flow, dst, at);
        t.instant(dst, "dead-letter", at, flow);
      });
    }
  }
  // Try to satisfy a parked waiter first (in park order).
  for (auto it = box.waiters.begin(); it != box.waiters.end(); ++it) {
    RecvTicket* t = *it;
    if (!matches(msg, t->src, t->tag)) continue;
    box.waiters.erase(it);
    t->fired = true;
    if (t->peek_only) {
      // Leave the message in the mailbox for a later recv.
      if (msg.flow != 0) {
        const FlowId flow = msg.flow;
        const Time at = msg.arrived_at;
        with_trace([=](Tracer& tr) { tr.flow_step(flow, dst, at); });
      }
      enqueue_accounting(dst, msg.data.size());
      const Time wake_at = std::max(t->parked_clock, msg.arrived_at);
      box.push_back(std::move(msg));
      sim_.wake(t->parked, wake_at);
    } else {
      const Time wake_at = std::max(t->parked_clock, msg.arrived_at) +
                           net_.recv_overhead(msg.src, dst);
      if (msg.flow != 0) {
        const FlowId flow = msg.flow;
        with_trace([=](Tracer& tr) { tr.flow_end(flow, dst, wake_at); });
      }
      t->msg = std::move(msg);
      counters_[dst].recvs += 1;
      sim_.wake(t->parked, wake_at);
    }
    return;
  }
  if (msg.flow != 0 && !sim_.rank_done(dst)) {
    const FlowId flow = msg.flow;
    const Time at = msg.arrived_at;
    with_trace([=](Tracer& tr) { tr.flow_step(flow, dst, at); });
  }
  enqueue_accounting(dst, msg.data.size());
  box.push_back(std::move(msg));
}

void Machine::enqueue_accounting(Rank dst, std::size_t bytes) {
  mailbox_bytes_[dst] += bytes;
  peak_mailbox_bytes_[dst] =
      std::max(peak_mailbox_bytes_[dst], mailbox_bytes_[dst]);
  mailbox_msgs_[dst] += 1;
  peak_mailbox_msgs_[dst] = std::max(peak_mailbox_msgs_[dst], mailbox_msgs_[dst]);
}

std::optional<Envelope> Machine::iprobe(Rank rank, Rank src, int tag) {
  const auto& p = net_.params();
  sim_.charge(rank, p.o_iprobe);
  counters_[rank].iprobes += 1;
  counters_[rank].comm_ns += p.o_iprobe;
  const Time now = sim_.rank_now(rank);
  for (const Message& m : *mailboxes_[rank]) {
    if (m.arrived_at <= now && matches(m, src, tag)) {
      return Envelope{m.src, m.tag, m.data.size()};
    }
  }
  return std::nullopt;
}

bool Machine::try_recv(Rank rank, Rank src, int tag, Message& out) {
  auto& box = *mailboxes_[rank];
  for (auto it = box.begin(); it != box.end(); ++it) {
    if (!matches(*it, src, tag)) continue;
    // Completing a recv of a message that is still "in flight" relative to
    // this rank's (lagging) clock simply waits until its arrival.
    if (it->arrived_at > sim_.rank_now(rank)) {
      sim_.charge(rank, it->arrived_at - sim_.rank_now(rank));
    }
    sim_.charge(rank, net_.recv_overhead(it->src, rank));
    out = std::move(*it);
    mailbox_bytes_[rank] -= out.data.size();
    mailbox_msgs_[rank] -= 1;
    box.erase(it);
    counters_[rank].recvs += 1;
    if (out.flow != 0) {
      const FlowId flow = out.flow;
      const Time tnow = sim_.rank_now(rank);
      with_trace([=](Tracer& t) { t.flow_end(flow, rank, tnow); });
    }
    return true;
  }
  return false;
}

bool Machine::iprobe_any_queued(Rank rank) const {
  return !mailboxes_[rank]->empty();
}

void Machine::park_recv(RecvTicket* ticket) {
  ticket->parked_clock = sim_.rank_now(ticket->rank);
  mailboxes_[ticket->rank]->waiters.push_back(ticket);
}

// ---------------------------------------------------------------------------
// RMA
// ---------------------------------------------------------------------------

void Machine::put(int win, Rank origin, Rank target, std::size_t offset,
                  std::span<const std::byte> data, bool ordered) {
  const prof::ScopedTimer pt(prof::Section::kRma);
  auto& ws = *windows_.at(win);
  // Written so that no sum can wrap past the window's end.
  const std::size_t size = ws.mem.at(target).size();
  if (offset > size || data.size() > size - offset) {
    throw std::out_of_range("Window::put past end of target window");
  }
  const auto& p = net_.params();
  const Time put_start = sim_.rank_now(origin);
  sim_.charge(origin, p.o_put);
  trace_op(origin, "put", put_start);
  auto& c = counters_[origin];
  c.puts += 1;
  c.bytes_put += data.size();
  c.comm_ns += p.o_put;
  const FlowId flow = new_flow(origin);
  inject(flow, Channel::kRma, origin, target, /*tag=*/-1, data.size(),
         sim_.rank_now(origin));

  Time completion;
  if (transport_ != nullptr) {
    // Sequence/CRC/ack-retransmit segments per (origin, target, window)
    // channel: the completion time is the landing of the first intact
    // copy at the target's window layer, so a lossy wire shows up as a
    // later completion (and a later flush/fence), never as lost data.
    completion = transport_->send_segment(origin, target,
                                          ft::Transport::kRmaTagBase + win,
                                          data.size(), flow,
                                          sim_.rank_now(origin));
  } else {
    completion = sim_.rank_now(origin) +
                 net_.transfer_time(origin, target, data.size() + kHeaderBytes);
  }
  if (ordered) {
    // Partitioned protocol: a later ordered put from this origin to this
    // target must not land before an earlier one (MPI_Pready semantics —
    // the partition marker trails its data). Equal completion times are
    // fine: same-time events run in schedule order, which is issue order.
    Time& floor = ws.ordered_floor[static_cast<std::size_t>(origin)][target];
    completion = std::max(completion, floor);
    floor = completion;
  }
  ws.last_completion[origin] = std::max(ws.last_completion[origin], completion);
  conservation_[origin].puts_scheduled += 1;
  // Refcounted staging copy (the payload's only copy and its one
  // allocation; the closure holds it by handle).
  sim_.schedule_for(
      target, completion,
      [this, &ws, target, offset, flow,
       payload = util::Buffer::copy_of(data)](Time at) {
        std::memcpy(ws.mem[target].data() + offset, payload.data(),
                    payload.size());
        conservation_[target].puts_landed += 1;
        if (flow != 0) {
          with_trace([=](Tracer& t) { t.flow_end(flow, target, at); });
        }
      });
}

Time Machine::put_completion_time(int win, Rank origin) const {
  return windows_.at(win)->last_completion.at(origin);
}

Time Machine::window_quiesce_time(int win) const {
  Time t = 0;
  for (const Time c : windows_.at(win)->last_completion) t = std::max(t, c);
  return t;
}

void Machine::fence_arrive(int win, Rank rank, sim::Simulator::Parked parked) {
  // The whole body runs at the merge point: the fence instance map and the
  // cross-origin quiesce scan span every shard, and the arriving rank is
  // parked — its clock cannot advance before the completion wake — so
  // charging at the merge is byte-identical to charging inline.
  sim_.defer([this, win, rank, parked] {
    auto& ws = *windows_.at(win);
    const auto& p = net_.params();
    sim_.charge(rank, p.o_coll_base);
    counters_[rank].fences += 1;

    const std::uint64_t seq = ws.fence_seq[rank]++;
    if (chaos_) sim_.charge(rank, chaos_->collective_skew(rank, 2, seq));
    auto& inst = ws.fences[seq];
    inst.arrived += 1;
    inst.max_arrive = std::max(inst.max_arrive, sim_.rank_now(rank));
    inst.waiters.push_back(parked);
    if (inst.arrived == nranks()) {
      // The epoch closes when every rank arrived and every outstanding put
      // on the window has landed, plus a dissemination barrier.
      const Time complete = std::max(inst.max_arrive, window_quiesce_time(win)) +
                            net_.reduction_time();
      for (const auto& w : inst.waiters) sim_.wake(w, complete);
      ws.fences.erase(seq);
    }
  });
}

std::span<std::byte> Machine::window_memory(int win, Rank rank) {
  auto& mem = windows_.at(win)->mem.at(rank);
  return {mem.data(), mem.size()};
}

std::size_t Machine::window_size(int win, Rank rank) const {
  return windows_.at(win)->mem.at(rank).size();
}

// ---------------------------------------------------------------------------
// Neighborhood collectives
// ---------------------------------------------------------------------------

namespace {
const char* describe_neighbor_call(NeighborCall kind) {
  switch (kind) {
    case NeighborCall::kBlocking: return "neighbor_alltoallv()";
    case NeighborCall::kSplitPhase: return "ineighbor_alltoallv()";
    case NeighborCall::kPersistentStart: return "neighbor_alltoallv_start()";
  }
  return "?";
}
}  // namespace

void Machine::neighbor_begin(Rank rank, PackedSlices slices,
                             std::vector<SliceView>* recv_out,
                             NeighborCall kind) {
  const prof::ScopedTimer pt(prof::Section::kNeighbor);
  auto& st = *neighbor_;
  const auto& topo = topology_[rank];
  if (slices.count() != topo.size()) {
    std::ostringstream os;
    os << "neighbor collective: rank " << rank << " passed " << slices.count()
       << " slice(s) but its topology has " << topo.size() << " neighbor(s)";
    throw std::invalid_argument(os.str());
  }
  if (st.pending[rank].active) {
    throw std::logic_error("rank already in neighbor collective");
  }
  const Time entry = kind == NeighborCall::kPersistentStart
                         ? net_.params().o_coll_persistent_start
                         : net_.collective_entry(static_cast<int>(topo.size()));
  sim_.charge(rank, entry);
  if (chaos_) {
    sim_.charge(rank, chaos_->collective_skew(rank, 0, st.next_seq[rank]));
  }

  const FlowId first_flow = new_flow(rank, static_cast<FlowId>(topo.size()));
  const Time tnow = sim_.rank_now(rank);
  for (std::size_t i = 0; i < topo.size(); ++i) {
    inject(flow_at(first_flow, i), Channel::kNeighbor, rank, topo[i],
           /*tag=*/-1, slices.size(i), tnow);
  }
  // Staging copy into the collective's send buffer.
  sim_.charge(rank, net_.copy_time(slices.bytes()));
  auto& c = counters_[rank];
  c.neighbor_colls += 1;
  c.bytes_coll += slices.bytes();

  const std::uint64_t seq = st.next_seq[rank]++;
  const Time arrive = sim_.rank_now(rank);
  std::vector<Time> slice_deliver;
  if (transport_ != nullptr) {
    // Each slice rides its own sequence/CRC/ack-retransmit segment on the
    // (rank, neighbor) collective channel; the landing times feed the
    // pairwise-exchange completion math in complete_neighbor_op, so a
    // repaired slice delays the collective rather than vanishing.
    slice_deliver.resize(topo.size(), 0);
    for (std::size_t i = 0; i < topo.size(); ++i) {
      slice_deliver[i] = transport_->send_segment(
          rank, topo[i], ft::Transport::kCollTag, slices.size(i),
          flow_at(first_flow, i), arrive);
    }
  }

  // The rank-owned half of the pending record is set inline so this rank's
  // own neighbor_wait — possibly later in the same window — sees an active
  // op. The shared half (the call slots and the neighbors' pending records)
  // runs at the merge point, in exact sequential order.
  auto& pend = st.pending[rank];
  pend = NeighborState::Pending{};
  pend.seq = seq;
  pend.arrive = arrive;
  pend.recv_out = recv_out;
  pend.active = true;

  if (topo.empty()) {
    // Rank-local completion: no neighbor reads this rank's call, and the
    // completion wake must stay in this window (it lands at `arrive`), so
    // it runs inline.
    complete_neighbor_op(rank, seq);
    return;
  }

  sim_.defer([this, rank,
              call = NeighborState::Call{
                  seq, kind, arrive, std::move(slices), first_flow,
                  static_cast<int>(topo.size()),
                  std::move(slice_deliver)}]() mutable {
    auto& st = *neighbor_;
    const auto& topo = topology_[rank];
    const std::uint64_t seq = call.seq;
    int waiting = 0;
    for (Rank n : topo) {
      // A neighbor's call at this sequence number stays in its slot until
      // this rank consumes it, so whichever of two neighbors arrives second
      // sees the other's call there.
      const auto& theirs = st.calls[n][seq & 1];
      if (theirs.seq != seq) {
        ++waiting;
      } else if (theirs.kind != call.kind) {
        std::ostringstream os;
        os << "neighborhood collective #" << seq << ": rank " << rank
           << " calls " << describe_neighbor_call(call.kind) << " but rank "
           << n << " called " << describe_neighbor_call(theirs.kind);
        throw std::logic_error(os.str());
      }
    }
    auto& slot = st.calls[rank][seq & 1];
    if (slot.consumers_left > 0) {
      std::ostringstream os;
      os << "neighborhood collective #" << seq << ": rank " << rank
         << " begins while " << slot.consumers_left
         << " neighbor(s) have not consumed its call #" << slot.seq;
      throw std::logic_error(os.str());
    }
    slot = std::move(call);
    auto& pend = st.pending[rank];
    pend.waiting_on = waiting;
    if (waiting == 0) complete_neighbor_op(rank, seq);
    // This arrival may unblock neighbors stuck at the same sequence number.
    for (Rank n : topo) {
      auto& np = st.pending[n];
      if (np.active && !np.done && np.seq == seq && np.waiting_on > 0) {
        if (--np.waiting_on == 0) complete_neighbor_op(n, seq);
      }
    }
  });
}

void Machine::neighbor_wait(Rank rank, const std::vector<SliceView>* recv,
                            sim::Simulator::Parked parked) {
  auto& pend = neighbor_->pending[rank];
  if (!pend.active) {
    throw std::logic_error("neighbor_wait without an outstanding collective");
  }
  if (pend.recv_out != recv) {
    throw std::logic_error(
        "neighbor_wait on a request that is not the outstanding collective "
        "of rank " + std::to_string(rank));
  }
  if (pend.has_waiter) {
    throw std::logic_error("neighbor collective already has a waiter");
  }
  if (pend.done) {
    // Completed while we were computing: resume once the (already
    // scheduled) data-fill event has run.
    pend.active = false;
    sim_.wake(parked, std::max(sim_.rank_now(rank), pend.complete_at));
    return;
  }
  if (sim_.in_window_phase()) {
    // The completion may be sitting in this window's deferred actions (a
    // neighbor's begin earlier in the window, whose shared half has not
    // merged yet). Re-check at the merge point, where global order is
    // restored: if the op completed there, this wake is byte-identical to
    // the sequential done-branch above; otherwise the waiter is recorded
    // exactly where the sequential engine would have recorded it.
    const Time now = sim_.rank_now(rank);
    sim_.defer([this, rank, parked, now] {
      auto& pend = neighbor_->pending[rank];
      if (pend.done) {
        pend.active = false;
        sim_.wake(parked, std::max(now, pend.complete_at));
        return;
      }
      pend.parked = parked;
      pend.has_waiter = true;
    });
    return;
  }
  pend.parked = parked;
  pend.has_waiter = true;
}

void Machine::complete_neighbor_op(Rank rank, std::uint64_t seq) {
  const prof::ScopedTimer pt(prof::Section::kNeighbor);
  auto& st = *neighbor_;
  const auto& topo = topology_[rank];
  const auto& reverse = reverse_[rank];
  auto& pend = st.pending[rank];

  // Use the pending record's own arrival time: this rank's own call may
  // already have been consumed and released by faster neighbors.
  Time ready = pend.arrive;
  Time wire = 0;
  std::size_t recv_bytes = 0;
  std::vector<SliceView> data;
  data.reserve(topo.size());
  for (std::size_t i = 0; i < topo.size(); ++i) {
    const Rank n = topo[i];
    const auto& call = st.calls[n][seq & 1];
    ready = std::max(ready, call.arrive);
    // My position in n's neighbor list picks the slice meant for me.
    const std::size_t pos = reverse[i];
    data.push_back(call.slices.view(pos));  // refcount bump, no byte copy
    recv_bytes += data.back().size();
    // Pairwise-exchange cost model: a neighborhood collective on k
    // neighbors degenerates into ~k sequential point-to-point exchanges
    // (this is how MPI implementations realize Neighbor_alltoall(v) on
    // arbitrary dist-graph topologies). Dense process neighborhoods —
    // stochastic block / social graphs, Tables III-IV — therefore pay a
    // latency per neighbor, which is precisely why the paper sees NCL/RMA
    // degrade there while staying fast on bounded neighborhoods (RGG).
    // Under the reliable transport each slice's exchange cost is its
    // actual (possibly retransmitted) landing delay, which also keeps the
    // completion at or past every slice's landing time.
    if (!call.slice_deliver.empty()) {
      wire += call.slice_deliver[pos] - call.arrive;
    } else {
      wire += net_.transfer_time(n, rank, data.back().size() + kHeaderBytes);
    }
  }

  const Time complete = ready + wire + net_.copy_time(recv_bytes);
  for (std::size_t i = 0; i < topo.size(); ++i) {
    auto& call = st.calls[topo[i]][seq & 1];
    const FlowId f = flow_at(call.first_flow, reverse[i]);
    if (f != 0) with_trace([=](Tracer& t) { t.flow_end(f, rank, complete); });
    // The last consumer releases the call and its block.
    if (--call.consumers_left == 0) call = NeighborState::Call{};
  }
  auto* out = pend.recv_out;
  pend.done = true;
  pend.complete_at = complete;
  sim_.schedule_for(rank, complete, [out, d = std::move(data)]() mutable {
    *out = std::move(d);
  });
  if (pend.has_waiter) {
    pend.active = false;
    sim_.wake(pend.parked, complete);
  }
}

// ---------------------------------------------------------------------------
// Global collectives
// ---------------------------------------------------------------------------

namespace {
std::string describe_global_call(bool barrier, ReduceOp op, std::size_t n) {
  if (barrier) return "barrier()";
  const char* name = op == ReduceOp::kSum ? "sum"
                     : op == ReduceOp::kMax ? "max"
                                            : "min";
  return "allreduce(" + std::to_string(n) + " value(s), " + name + ")";
}
}  // namespace

void Machine::global_arrive(Rank rank, std::vector<std::int64_t> contribution,
                            ReduceOp op, std::vector<std::int64_t>* result_out,
                            sim::Simulator::Parked parked) {
  const prof::ScopedTimer pt(prof::Section::kGlobalColl);
  // Whole body deferred to the merge point: the instance map (accumulator,
  // arrival count, waiter list) spans every shard, and the arriving rank
  // parks here — its clock is frozen until the completion wake, which
  // lands at least one reduction_time (>= the lookahead) later, so
  // charging and sequence assignment at the merge are byte-identical.
  sim_.defer([this, rank, op, result_out, parked,
              contribution = std::move(contribution)] {
    auto& st = *global_;
    const auto& p = net_.params();
    sim_.charge(rank, p.o_coll_base);
    if (chaos_) {
      sim_.charge(rank, chaos_->collective_skew(rank, 1, st.next_seq[rank]));
    }
    auto& c = counters_[rank];
    if (result_out != nullptr) {
      c.allreduces += 1;
    } else {
      c.barriers += 1;
    }

    const std::uint64_t seq = st.next_seq[rank]++;
    auto& inst = st.insts[seq];
    // A barrier passes kSum and no values, so these three fields tell
    // every pair of calls apart.
    const bool barrier = result_out == nullptr;
    if (inst.arrived == 0) {
      inst.first = rank;
      inst.barrier = barrier;
      inst.op = op;
      const std::int64_t identity =
          op == ReduceOp::kSum ? 0
          : op == ReduceOp::kMax ? std::numeric_limits<std::int64_t>::min()
                                 : std::numeric_limits<std::int64_t>::max();
      inst.acc.assign(contribution.size(), identity);
    } else if (barrier != inst.barrier || op != inst.op ||
               contribution.size() != inst.acc.size()) {
      std::ostringstream os;
      os << "global collective #" << seq << ": rank " << rank << " calls "
         << describe_global_call(barrier, op, contribution.size())
         << " but rank " << inst.first << " called "
         << describe_global_call(inst.barrier, inst.op, inst.acc.size());
      throw std::logic_error(os.str());
    }
    for (std::size_t i = 0; i < contribution.size(); ++i) {
      switch (op) {
        case ReduceOp::kSum: inst.acc[i] += contribution[i]; break;
        case ReduceOp::kMax: inst.acc[i] = std::max(inst.acc[i], contribution[i]); break;
        case ReduceOp::kMin: inst.acc[i] = std::min(inst.acc[i], contribution[i]); break;
      }
    }
    inst.max_arrive = std::max(inst.max_arrive, sim_.rank_now(rank));
    inst.waiters.push_back({rank, result_out, parked});
    inst.arrived += 1;

    if (inst.arrived == nranks()) {
      const Time complete = inst.max_arrive + net_.reduction_time();
      auto acc =
          std::make_shared<std::vector<std::int64_t>>(std::move(inst.acc));
      for (const auto& w : inst.waiters) {
        if (w.out != nullptr) {
          sim_.schedule_for(w.rank, complete, [out = w.out, acc] { *out = *acc; });
        }
        sim_.wake(w.parked, complete);
      }
      st.insts.erase(seq);
    }
  });
}

// ---------------------------------------------------------------------------
// Compute charging (chaos straggler hook)
// ---------------------------------------------------------------------------

Time Machine::charge_compute(Rank rank, Time ns) {
  if (chaos_) ns = chaos_->perturb_compute(rank, ns);
  sim_.charge(rank, ns);
  counters_[rank].compute_ns += ns;
  return ns;
}

// ---------------------------------------------------------------------------
// Fault tolerance: reliable transport and failure notification
// ---------------------------------------------------------------------------

std::vector<Rank> Machine::failed_ranks() const {
  std::vector<Rank> out = failed_ranks_;
  std::sort(out.begin(), out.end());
  return out;
}

void Machine::handle_rank_failure(Rank rank) {
  if (rank < 0 || rank >= nranks()) {
    throw std::out_of_range("handle_rank_failure: bad rank");
  }
  // A crash scheduled past the rank's clean exit is a non-event: the
  // process already left the job. Repeat failures are idempotent.
  if (sim_.rank_done(rank) || failed_[rank] != 0) return;
  sim_.kill(rank);
  failed_[rank] = 1;
  failed_ranks_.push_back(rank);
  trace_instant(rank, "rank-crash", sim_.now());
  if (transport_ != nullptr) transport_->on_rank_failed(rank);
}

void Machine::ft_deliver(Rank src, Rank dst, int tag, util::Buffer payload,
                         Time sent_at, Time arrive_at, FlowId flow) {
  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.tag = tag;
  msg.flow = flow;
  msg.data = std::move(payload);
  msg.sent_at = sent_at;
  msg.arrived_at = arrive_at;
  schedule_delivery(std::move(msg));
}

void Machine::ft_count(Rank rank, ft::Stat stat, FlowId flow, Time t) {
  auto& c = counters_[rank];
  const char* name = nullptr;
  switch (stat) {
    case ft::Stat::kRetransmit: c.retransmits += 1; name = "ft-retransmit"; break;
    case ft::Stat::kDropped: c.dropped += 1; name = "ft-drop"; break;
    case ft::Stat::kCorruptDetected:
      c.corrupt_detected += 1;
      name = "ft-corrupt";
      break;
    case ft::Stat::kDupFiltered: c.dup_filtered += 1; name = "ft-dup"; break;
    case ft::Stat::kAck: c.acks += 1; name = "ft-ack"; break;
  }
  // Transport faults/acks are point events referencing the segment's flow,
  // not flow phases: a retransmit can land *after* the flow already ended
  // (e.g. a duplicate racing the delivered copy), and Perfetto requires
  // flow steps to stay inside [s, f].
  trace_instant(rank, name, t, flow);
}

void Machine::ft_price(Rank rank, Time ns) {
  // Transport work happens on the NIC/progress engine, asynchronously to
  // the rank coroutine: it is priced into the rank's communication time
  // but does not block its clock.
  counters_[rank].comm_ns += ns;
}

void Machine::ft_abandoned(Rank src, std::size_t payload_bytes, FlowId flow) {
  inflight_sends_[src] -= 1;
  inflight_bytes_[src] -= payload_bytes;
  abandoned_payload_bytes_ += payload_bytes;
  if (flow != 0) {
    // Close the flow on the sender: the destination died and this message
    // will never be delivered.
    const Time t = sim_.now();
    with_trace([=](Tracer& tr) {
      tr.flow_end(flow, src, t);
      tr.instant(src, "ft-abandoned", t, flow);
    });
  }
}

void Machine::ft_record_wire(Rank src, Rank dst, std::size_t bytes) {
  record_wire(src, dst, bytes, sim_.now());
}

void Machine::enable_sampling(Time interval_ns) {
  if (interval_ns <= 0) return;
  sim_.add_periodic_hook(interval_ns, [this](Time t) {
    // Hooks fire between events, never inside a shard's window, so the
    // gate runs this inline and it reads the gauges as of t.
    with_trace([this, t](Tracer& tr) {
      for (Rank r = 0; r < nranks(); ++r) {
        tr.counter(r, "mailbox_msgs", t, mailbox_msgs_[r]);
        tr.counter(r, "mailbox_bytes", t, mailbox_bytes_[r]);
        tr.counter(r, "inflight_bytes", t, inflight_bytes_[r]);
        if (transport_ != nullptr) {
          tr.counter(r, "ft_pending", t, transport_->pending_segments_from(r));
        }
      }
      tr.counter(-1, "event_queue", t, sim_.pending_events());
    });
  });
}

// ---------------------------------------------------------------------------
// Invariant auditor
// ---------------------------------------------------------------------------

std::vector<std::string> Machine::audit() const {
  std::vector<std::string> violations;
  // A run with failed ranks tore coroutines mid-protocol: mailboxes,
  // waiters and in-flight accounting legitimately reflect the wreckage.
  // The driver re-validates the *result* after recovery instead.
  if (!failed_ranks_.empty()) return violations;
  auto violate = [&violations](std::string text) {
    violations.push_back(std::move(text));
  };

  // Conservation: every payload byte posted by an isend was handed to a
  // mailbox or a parked receiver (or provably abandoned to a failed rank),
  // and no send is still in flight.
  Conservation total;
  for (const Conservation& c : conservation_) {
    total.sent_payload_bytes += c.sent_payload_bytes;
    total.delivered_payload_bytes += c.delivered_payload_bytes;
    total.puts_scheduled += c.puts_scheduled;
    total.puts_landed += c.puts_landed;
  }
  if (total.sent_payload_bytes !=
      total.delivered_payload_bytes + abandoned_payload_bytes_) {
    std::ostringstream os;
    os << "p2p byte conservation: " << total.sent_payload_bytes
       << " payload bytes sent but " << total.delivered_payload_bytes
       << " delivered + " << abandoned_payload_bytes_ << " abandoned";
    violate(os.str());
  }
  if (transport_ != nullptr && !transport_->idle()) {
    std::ostringstream os;
    os << "reliable transport finalized busy: " << transport_->pending_segments()
       << " unacknowledged segment(s) or non-empty reorder buffers";
    violate(os.str());
  }
  if (total.puts_scheduled != total.puts_landed) {
    std::ostringstream os;
    os << "RMA put conservation: " << total.puts_scheduled
       << " puts scheduled but " << total.puts_landed << " landed";
    violate(os.str());
  }
  std::uint64_t counted = 0;
  for (const auto& c : counters_) counted += c.bytes_sent;
  if (counted != total.sent_payload_bytes) {
    std::ostringstream os;
    os << "counter consistency: per-rank bytes_sent sums to " << counted
       << " but the machine posted " << total.sent_payload_bytes;
    violate(os.str());
  }

  for (Rank r = 0; r < nranks(); ++r) {
    const auto& box = *mailboxes_[r];
    // Mailbox accounting must mirror the actual queue contents at all
    // times; at finalize both must be zero (every message consumed).
    std::size_t queued_bytes = 0;
    for (const Message& m : box) queued_bytes += m.data.size();
    if (queued_bytes != mailbox_bytes_[r] ||
        box.size() != mailbox_msgs_[r]) {
      std::ostringstream os;
      os << "mailbox accounting drift on rank " << r << ": counted "
         << mailbox_msgs_[r] << " msgs/" << mailbox_bytes_[r]
         << " B but the queue holds " << box.size() << " msgs/"
         << queued_bytes << " B";
      violate(os.str());
    }
    // Residual messages are tolerated only as dead letters: traffic
    // delivered after the rank's coroutine already returned (crossing
    // REJECTs in the send-recv protocols) that nothing could consume.
    // Any residue beyond that was readable while the rank still ran and
    // means a backend abandoned its mailbox.
    if (box.size() != dead_letter_msgs_[r] ||
        queued_bytes != dead_letter_bytes_[r]) {
      std::ostringstream os;
      os << "rank " << r << " finalized abandoning "
         << (box.size() - std::min<std::size_t>(
                                      box.size(), dead_letter_msgs_[r]))
         << " readable message(s) in its mailbox (" << box.size()
         << " msgs/" << queued_bytes << " B queued, of which "
         << dead_letter_msgs_[r] << " msgs/" << dead_letter_bytes_[r]
         << " B arrived after it returned; first queued: src="
         << box.front().src << " tag=" << box.front().tag
         << " " << box.front().data.size() << " B)";
      violate(os.str());
    }
    if (!box.waiters.empty()) {
      std::ostringstream os;
      os << "rank " << r << " finalized with " << box.waiters.size()
         << " parked receive ticket(s) never fired or cancelled";
      violate(os.str());
    }
    if (inflight_sends_[r] != 0) {
      std::ostringstream os;
      os << "rank " << r << " finalized with " << inflight_sends_[r]
         << " send(s) still in flight";
      violate(os.str());
    }
    // Window memory must stay consistent with what account_buffer was
    // told.
    std::size_t window_mem = 0;
    for (const auto& ws : windows_) window_mem += ws->mem[r].size();
    if (window_mem != window_bytes_[r]) {
      std::ostringstream os;
      os << "window accounting drift on rank " << r << ": windows hold "
         << window_mem << " B but " << window_bytes_[r] << " B were recorded";
      violate(os.str());
    }
    if (window_bytes_[r] > buffer_bytes_[r]) {
      std::ostringstream os;
      os << "buffer accounting on rank " << r << ": " << window_bytes_[r]
         << " B of window memory exceed the " << buffer_bytes_[r]
         << " B registered via account_buffer";
      violate(os.str());
    }
  }
  return violations;
}

void Machine::audit_or_throw() const {
  const auto violations = audit();
  if (violations.empty()) return;
  std::ostringstream os;
  os << "substrate invariant audit failed (" << violations.size()
     << " violation(s)):";
  for (const auto& v : violations) os << "\n  - " << v;
  throw std::logic_error(os.str());
}

// ---------------------------------------------------------------------------
// Stall diagnostics (consulted by the simulator's progress watchdog)
// ---------------------------------------------------------------------------

std::string Machine::rank_diagnostics(Rank rank) const {
  std::ostringstream os;
  const auto& box = *mailboxes_[rank];
  if (failed_[rank] != 0) os << "FAILED ";
  bool parked = false;
  for (const RecvTicket* t : box.waiters) {
    parked = true;
    os << "parked=" << (t->peek_only ? "wait_message(" : "recv(") << "src=";
    if (t->src == kAnySource) {
      os << '*';
    } else {
      os << t->src;
    }
    os << " tag=";
    if (t->tag == kAnyTag) {
      os << '*';
    } else {
      os << t->tag;
    }
    os << " since=" << t->parked_clock << "ns) ";
  }
  const auto& pend = neighbor_->pending[rank];
  if (pend.active) {
    parked = true;
    os << "parked=neighbor_coll(seq=" << pend.seq << " waiting_on="
       << pend.waiting_on << " neighbor(s)"
       << (pend.has_waiter ? "" : " split-phase, no waiter yet") << ") ";
  }
  for (const auto& [seq, inst] : global_->insts) {
    for (const auto& w : inst.waiters) {
      if (w.rank != rank) continue;
      parked = true;
      os << "parked=" << (w.out != nullptr ? "allreduce" : "barrier")
         << "(seq=" << seq << " arrived=" << inst.arrived << '/' << nranks()
         << ") ";
    }
  }
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    for (const auto& [seq, inst] : windows_[w]->fences) {
      for (const auto& parked_rank : inst.waiters) {
        if (parked_rank.rank != rank) continue;
        parked = true;
        os << "parked=fence(win=" << w << " seq=" << seq << " arrived="
           << inst.arrived << '/' << nranks() << ") ";
      }
    }
  }
  if (!parked) os << "parked=none ";
  os << "mailbox=" << box.size() << "msgs/" << mailbox_bytes_[rank]
     << "B inflight_sends=" << inflight_sends_[rank]
     << " next_nbr_seq=" << neighbor_->next_seq[rank]
     << " next_coll_seq=" << global_->next_seq[rank];
  if (transport_ != nullptr) {
    os << " ft_pending=" << transport_->pending_segments();
  }
  return os.str();
}

}  // namespace mel::mpi
