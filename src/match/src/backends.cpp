#include "mel/match/backends.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "mel/match/exchange.hpp"

namespace mel::match {

namespace {

/// Extra per-message software cost modelling MatchBox-P's heavier
/// bookkeeping (per-message allocation, request-object tracking): the
/// paper measures plain NSR 1.2-2x faster than MBP on large graphs.
constexpr sim::Time kMbpSendSurcharge = 900;  // ns per message sent
constexpr sim::Time kMbpRecvSurcharge = 600;  // ns per message received

constexpr int kAggTag = 64;         // above the Ctx tag range
constexpr int kHierDirectTag = 65;  // final hop: every record is for the receiver
constexpr int kHierRelayTag = 66;   // combined batch: pad carries the final rank

/// Records per partition for the partitioned-put backend (how many records
/// a rank writes to one neighbor before publishing the running count).
constexpr std::int64_t kRmaPartitionRecords = 8;

using WireExchange = Exchange<WireMsg>;
using WireSink = Sink<WireMsg>;

// ---------------------------------------------------------------------------
// Send-Recv family: Iprobe, then Recv whatever has arrived, one message at a
// time. NSR, NSR-AGG and NSR-HIER differ in how records combine into
// messages.
// ---------------------------------------------------------------------------

class P2pExchange : public WireExchange {
 public:
  using WireExchange::WireExchange;

  sim::Task round(WireSink& sink) override {
    // Nothing arrived last turn and edges are still pending: block for
    // progress instead of spinning on Iprobe. A globally paced model must
    // not block here, or a rank with an empty mailbox would never reach
    // the allreduce the others wait in.
    if (idle_ && local_exit()) co_await comm_.wait_message();
    idle_ = true;
    while (auto env = comm_.iprobe()) {
      const mpi::Message m = co_await comm_.recv(env->src, env->tag);
      idle_ = false;
      receive(m, env->tag, sink);
    }
  }

  sim::Task drain(WireSink& sink) override {
    // Both endpoints of a cross edge can deactivate it independently, so a
    // peer's REJECT/INVALID may already sit in our mailbox with nothing left
    // to decide. Consume everything visible (handle() is a no-op on dead
    // edges) instead of abandoning it. Relayed records for other ranks are
    // dropped: at global active == 0 an in-flight REQUEST is impossible (it
    // would keep its sender's count positive), so anything still travelling
    // is a dead REJECT/INVALID nobody needs.
    while (auto env = comm_.iprobe()) {
      const mpi::Message m = co_await comm_.recv(env->src, env->tag);
      unpack(m, env->tag, sink, nullptr);
    }
  }

 protected:
  using Batches = std::map<Rank, std::vector<WireMsg>>;

  /// Process one message received during a round.
  virtual void receive(const mpi::Message& m, int tag, WireSink& sink) = 0;

  /// Deliver the records of `m` addressed to this rank (an NSR message
  /// holds one, a combined batch a packed array). Records of a relay batch
  /// into a node leader that are meant for another rank go to `forward`,
  /// grouped by final rank, or are dropped when it is null.
  void unpack(const mpi::Message& m, int tag, WireSink& sink,
              Batches* forward) {
    const std::size_t n = mpi::record_count<WireMsg>(m.data);
    for (std::size_t i = 0; i < n; ++i) {
      WireMsg rec = mpi::nth_record<WireMsg>(m.data, i);
      const Rank to = tag == kHierRelayTag ? rec.pad : comm_.rank();
      rec.pad = 0;
      if (to == comm_.rank()) {
        sink.deliver(rec);
      } else if (forward != nullptr) {
        (*forward)[to].push_back(rec);
      }
    }
  }

  bool idle_ = false;
  std::uint64_t batches_ = 0;
};

/// NSR / MBP: one Isend per record, handled one message at a time (the
/// paper's baseline does not aggregate).
class NsrExchange final : public P2pExchange {
 public:
  NsrExchange(mpi::Comm& comm, const graph::LocalGraph& lg, bool mbp)
      : P2pExchange(comm, lg), mbp_(mbp) {}

  void push(Rank dst, const WireMsg& rec) override {
    outgoing_.emplace_back(dst, rec);
  }
  void flush() override {
    for (const auto& [dst, rec] : outgoing_) {
      if (mbp_) comm_.compute(kMbpSendSurcharge);
      // Communication context rides in the message tag (paper §IV-B).
      comm_.isend_pod<WireMsg>(dst, rec.ctx, rec);
    }
    outgoing_.clear();
  }
  bool local_exit() const override { return true; }
  std::uint64_t iterations(std::uint64_t) const override { return received_; }

 private:
  void receive(const mpi::Message& m, int tag, WireSink& sink) override {
    comm_.compute(comm_.machine().network().params().nsr_handling_per_msg);
    if (mbp_) comm_.compute(kMbpRecvSurcharge);
    unpack(m, tag, sink, nullptr);
    sink.settle();
    flush();
    ++received_;
  }

  bool mbp_;
  std::vector<std::pair<Rank, WireMsg>> outgoing_;
  std::uint64_t received_ = 0;
};

/// NSR-AGG: Send-Recv with per-neighbor aggregation (the paper's "we do
/// not aggregate outgoing messages" flag, implemented). A turn's records
/// are staged per destination and leave as one packed Isend each.
class AggExchange final : public P2pExchange {
 public:
  AggExchange(mpi::Comm& comm, const graph::LocalGraph& lg)
      : P2pExchange(comm, lg), by_neighbor_(lg.neighbor_ranks.size()) {}

  void push(Rank dst, const WireMsg& rec) override {
    by_neighbor_[neighbor(dst)].push_back(rec);
  }
  void flush() override {
    for (std::size_t k = 0; k < by_neighbor_.size(); ++k) {
      if (by_neighbor_[k].empty()) continue;
      comm_.isend(lg_.neighbor_ranks[k], kAggTag,
                  std::as_bytes(std::span<const WireMsg>(by_neighbor_[k])));
      by_neighbor_[k].clear();
      ++batches_;
    }
  }
  bool local_exit() const override { return true; }
  std::uint64_t iterations(std::uint64_t) const override { return batches_; }

 private:
  void receive(const mpi::Message& m, int tag, WireSink& sink) override {
    unpack(m, tag, sink, nullptr);
    sink.settle();
  }

  std::vector<std::vector<WireMsg>> by_neighbor_;  // capacity kept across turns
};

/// NSR-HIER: two-level (node-aware) Send-Recv. Records for ranks on a
/// remote node are combined into one batch addressed to that node's leader
/// rank, which relays each record over the cheap intra-node links. The
/// expensive inter-node hop carries one header per (source rank,
/// destination node) instead of one per (source rank, destination rank);
/// payload bytes are unchanged because the final destination rides in the
/// otherwise-unused WireMsg::pad field. A turn drains everything visible
/// before flushing once: staging across the whole turn is what concentrates
/// its records into one batch per destination node. Exit is global — a
/// leader whose own edges are all decided still owes relays to the rest of
/// its node — and each round's allreduce advances every clock, so in-flight
/// batches eventually land.
class HierExchange final : public P2pExchange {
 public:
  HierExchange(mpi::Comm& comm, const graph::LocalGraph& lg)
      : P2pExchange(comm, lg), net_(comm.machine().network()) {}

  void push(Rank dst, const WireMsg& rec) override {
    const int rpn = net_.params().ranks_per_node;
    const Rank leader = (dst / rpn) * rpn;
    // Relay failover: a dead leader must not orphan records addressed to
    // its node's survivors. Skip the combining and send direct — pricier,
    // but the record arrives (or fail-fasts on a dead final destination
    // like any NSR send would).
    if (net_.same_node(comm_.rank(), dst) || comm_.rank_failed(leader)) {
      direct_[dst].push_back(rec);
    } else {
      WireMsg relayed = rec;
      relayed.pad = dst;  // the final destination survives the leader hop
      relay_[leader].push_back(relayed);
    }
  }
  void flush() override {
    send(direct_, kHierDirectTag);
    send(relay_, kHierRelayTag);
  }
  std::uint64_t iterations(std::uint64_t) const override { return batches_; }

 private:
  void receive(const mpi::Message& m, int tag, WireSink& sink) override {
    Batches forward;
    unpack(m, tag, sink, &forward);
    send(forward, kHierDirectTag);
  }

  /// One packed Isend per destination, in rank order: ordered maps keep the
  /// send schedule independent of staging order (determinism rule R1).
  void send(Batches& batches, int tag) {
    for (const auto& [dst, recs] : batches) {
      comm_.isend(dst, tag, std::as_bytes(std::span<const WireMsg>(recs)));
      ++batches_;
    }
    batches.clear();
  }

  const net::Network& net_;
  Batches direct_;
  Batches relay_;  // node leader => records
};

// ---------------------------------------------------------------------------
// One-sided family. My window holds one region per neighbor, sized for two
// records per shared ghost edge (paper Fig 1) at prefix-sum offsets; the
// fence and partitioned variants add one cumulative-count slot per neighbor
// behind the data regions. The variants differ only in how a round makes
// the puts visible:
//   kFlush       - passive target: flush_all, then a neighbor_alltoall of
//                  the cumulative counts (RMA);
//   kFence       - active target: counts travel as puts too and
//                  MPI_Win_fence closes the epoch — no neighbor_alltoall in
//                  the loop, but a global epoch per round (RMA-FENCE);
//   kPartitioned - ordered puts, and every kRmaPartitionRecords records the
//                  origin publishes its cumulative count (the MPI_Pready
//                  analogue, ordered so it never overtakes its data). The
//                  target consumes whatever has landed: no flush, fence or
//                  count collective (RMA-PART). The allreduce that paces the
//                  exit also advances every clock, so unlanded puts always
//                  land in a later round.
// ---------------------------------------------------------------------------

class WindowExchange final : public WireExchange {
 public:
  enum class Sync { kFlush, kFence, kPartitioned };

  WindowExchange(mpi::Comm& comm, const graph::LocalGraph& lg, int window_id,
                 Sync sync)
      : WireExchange(comm, lg),
        win_(comm.window(window_id)),
        sync_(sync),
        region_base_(lg.neighbor_ranks.size(), 0),
        written_(lg.neighbor_ranks.size(), 0),
        seen_(lg.neighbor_ranks.size(), 0),
        pending_(lg.neighbor_ranks.size(), 0) {
    std::int64_t acc = 0;
    for (std::size_t k = 0; k < region_base_.size(); ++k) {
      region_base_[k] = acc;
      acc += 2 * lg.ghost_counts[k];
    }
  }

  sim::Task setup() override {
    // Tell each neighbor where its region in my window starts; what comes
    // back is where my region in each neighbor's window starts.
    remote_base_ = co_await comm_.neighbor_alltoall_i64(region_base_);
    if (sync_ == Sync::kFlush) co_return;
    // Which count slot is mine at each neighbor, and where its count area
    // starts (behind data regions whose size differs per rank).
    std::vector<std::int64_t> index_of(region_base_.size());
    std::iota(index_of.begin(), index_of.end(), std::int64_t{0});
    slot_at_ = co_await comm_.neighbor_alltoall_i64(std::move(index_of));
    count_base_at_ = co_await comm_.neighbor_alltoall_i64(
        std::vector<std::int64_t>(region_base_.size(),
                                  static_cast<std::int64_t>(count_base())));
  }

  sim::Task round(WireSink& sink) override {
    const bool ordered = sync_ == Sync::kPartitioned;
    for (const auto& [k, rec] : staged_) {
      const auto at = static_cast<std::size_t>(remote_base_[k] + written_[k]);
      const std::span<const WireMsg> one(&rec, 1);
      if (ordered) {
        win_.put_records_ordered<WireMsg>(lg_.neighbor_ranks[k], at, one);
      } else {
        win_.put_records<WireMsg>(lg_.neighbor_ranks[k], at, one);
      }
      ++written_[k];
      if (ordered && ++pending_[k] >= kRmaPartitionRecords) publish(k);
    }
    staged_.clear();

    const std::size_t deg = written_.size();
    std::vector<std::int64_t> avail(deg, 0);
    switch (sync_) {
      case Sync::kFlush:
        co_await win_.flush_all();
        avail = co_await comm_.neighbor_alltoall_i64(written_);
        break;
      case Sync::kFence:
        for (std::size_t k = 0; k < deg; ++k) publish(k);
        co_await win_.fence();  // epoch boundary: all puts visible everywhere
        break;
      case Sync::kPartitioned:
        // Close the round's partial partitions.
        for (std::size_t k = 0; k < deg; ++k) {
          if (pending_[k] > 0) publish(k);
        }
        break;
    }

    // Process: consume freshly landed records straight from the window.
    // Counts are cumulative (and, partitioned, ordered behind their data),
    // so every record below one is valid.
    for (std::size_t k = 0; k < deg; ++k) {
      if (sync_ != Sync::kFlush) {
        avail[k] = mpi::from_bytes<std::int64_t>(win_.local().subspan(
            count_base() + k * sizeof(std::int64_t), sizeof(std::int64_t)));
      }
      for (std::int64_t r = seen_[k]; r < avail[k]; ++r) {
        const auto off =
            static_cast<std::size_t>(region_base_[k] + r) * sizeof(WireMsg);
        sink.deliver(mpi::from_bytes<WireMsg>(
            win_.local().subspan(off, sizeof(WireMsg))));
      }
      seen_[k] = avail[k];
    }
  }

 private:
  /// The count slots start right behind the data regions.
  std::size_t count_base() const { return rma_window_bytes(lg_); }

  /// Put my cumulative record count for neighbor k into my slot there.
  void publish(std::size_t k) {
    const std::size_t slot =
        static_cast<std::size_t>(count_base_at_[k]) +
        static_cast<std::size_t>(slot_at_[k]) * sizeof(std::int64_t);
    const auto count = mpi::bytes_of(written_[k]);
    if (sync_ == Sync::kPartitioned) {
      win_.put_ordered(lg_.neighbor_ranks[k], slot, count);
    } else {
      win_.put(lg_.neighbor_ranks[k], slot, count);
    }
    pending_[k] = 0;
  }

  mpi::Window win_;
  Sync sync_;
  std::vector<std::int64_t> region_base_;    // neighbor k's region in mine
  std::vector<std::int64_t> remote_base_;    // my region in neighbor k's
  std::vector<std::int64_t> slot_at_;        // my count slot at neighbor k
  std::vector<std::int64_t> count_base_at_;  // neighbor k's count area
  std::vector<std::int64_t> written_;        // records I put per neighbor
  std::vector<std::int64_t> seen_;           // records I consumed per nbr
  std::vector<std::int64_t> pending_;        // records since last publish
};

std::unique_ptr<WireExchange> make_exchange(Model m, mpi::Comm& comm,
                                            const graph::LocalGraph& lg,
                                            int window_id) {
  using Ncl = NclExchange<WireMsg>;
  using Sync = WindowExchange::Sync;
  switch (m) {
    case Model::kNsr: return std::make_unique<NsrExchange>(comm, lg, false);
    case Model::kMbp: return std::make_unique<NsrExchange>(comm, lg, true);
    case Model::kNsrAgg: return std::make_unique<AggExchange>(comm, lg);
    case Model::kNsrHier: return std::make_unique<HierExchange>(comm, lg);
    case Model::kRma:
      return std::make_unique<WindowExchange>(comm, lg, window_id, Sync::kFlush);
    case Model::kRmaFence:
      return std::make_unique<WindowExchange>(comm, lg, window_id, Sync::kFence);
    case Model::kRmaPart:
      return std::make_unique<WindowExchange>(comm, lg, window_id,
                                              Sync::kPartitioned);
    case Model::kNcl: return std::make_unique<Ncl>(comm, lg, Ncl::Start::kBlocking);
    case Model::kNclNb:
      return std::make_unique<Ncl>(comm, lg, Ncl::Start::kNonblocking);
    case Model::kNclPersist:
      return std::make_unique<Ncl>(comm, lg, Ncl::Start::kPersistent);
  }
  throw std::invalid_argument("match_rank: unknown model");
}

}  // namespace

const char* model_name(Model m) {
  switch (m) {
    case Model::kNsr: return "NSR";
    case Model::kRma: return "RMA";
    case Model::kNcl: return "NCL";
    case Model::kMbp: return "MBP";
    case Model::kNsrAgg: return "NSR-AGG";
    case Model::kRmaFence: return "RMA-FENCE";
    case Model::kNclNb: return "NCL-NB";
    case Model::kNsrHier: return "NSR-HIER";
    case Model::kNclPersist: return "NCL-PERSIST";
    case Model::kRmaPart: return "RMA-PART";
  }
  return "?";
}

Model parse_model(const std::string& name) {
  for (const Model m : kAllModels) {
    if (name == model_name(m)) return m;
  }
  throw std::invalid_argument("unknown model: " + name);
}

std::size_t rma_window_bytes(const graph::LocalGraph& lg) {
  // One region per process neighbor sized for the worst case of 2 records
  // per shared ghost edge (paper §IV-B: at most 2 messages per ghost).
  // Widen before the doubling: total_ghost_edges is int64, and `2 * x` in
  // the narrower arithmetic type would wrap for graphs whose ghost-edge
  // count exceeds half the type's range.
  return 2 * static_cast<std::size_t>(lg.total_ghost_edges) * sizeof(WireMsg);
}

std::size_t backend_buffer_bytes(Model m, const graph::LocalGraph& lg) {
  // Same widen-before-doubling rule as rma_window_bytes.
  const auto two_per_ghost =
      2 * static_cast<std::size_t>(lg.total_ghost_edges) * sizeof(WireMsg);
  switch (m) {
    case Model::kNsr:
      return 0;  // per-message dynamic buffers; peak mailbox is accounted
                 // by the Machine
    case Model::kMbp:
      // MatchBox-P keeps both persistent send and receive staging arrays.
      return 2 * two_per_ghost;
    case Model::kRma:
      // Window accounted at allocation; add origin-side counters and the
      // displacement table (O(neighbors)).
      return lg.neighbor_ranks.size() * 3 * sizeof(std::int64_t);
    case Model::kNcl:
    case Model::kNclNb:
      // Send staging sized to the per-edge bound; receive staging sized to
      // the observed per-round maximum (about half that in practice) —
      // which is why the paper measures NCL below RMA's worst-case window.
      return two_per_ghost / 2 + two_per_ghost / 4;
    case Model::kNsrAgg:
      // One send staging buffer; receives land in place.
      return two_per_ghost / 2;
    case Model::kRmaFence:
      return lg.neighbor_ranks.size() * 4 * sizeof(std::int64_t);
    case Model::kNsrHier:
      // Send staging as NSR-AGG, plus a relay staging area on node leaders
      // (sized to the observed per-turn relay volume, about half the send
      // staging in practice).
      return two_per_ghost / 2 + two_per_ghost / 4;
    case Model::kNclPersist:
      // NCL staging plus the persistent schedule tables (per-neighbor fill
      // offsets and slice sizes) the init call pins for reuse.
      return two_per_ghost / 2 + two_per_ghost / 4 +
             lg.neighbor_ranks.size() * 2 * sizeof(std::int64_t);
    case Model::kRmaPart:
      // Fence-style origin bookkeeping plus the per-neighbor
      // pending-partition counter.
      return lg.neighbor_ranks.size() * 5 * sizeof(std::int64_t);
  }
  return 0;
}

std::size_t rma_fence_window_bytes(const graph::LocalGraph& lg) {
  return rma_window_bytes(lg) +
         lg.neighbor_ranks.size() * sizeof(std::int64_t);
}

sim::RankTask match_rank(Model m, mpi::Comm& comm, const graph::LocalGraph& lg,
                         const graph::Distribution& dist, int window_id,
                         std::span<VertexId> mate_out,
                         std::uint64_t* iterations_out,
                         const LocalMatcher** live) {
  const std::unique_ptr<WireExchange> ex = make_exchange(m, comm, lg, window_id);
  LocalMatcher eng(
      comm, lg, dist,
      [&ex](Rank dst, const WireMsg& msg) { ex->push(dst, msg); }, live);
  WireSink sink{[&eng](const WireMsg& msg) { eng.handle(msg); },
                [&eng] { eng.drain_local(); }};

  co_await ex->setup();
  eng.start();
  ex->flush();
  std::uint64_t iter = 1;
  for (; !ex->local_exit() || eng.active_cross() > 0; ++iter) {
    co_await ex->round(sink);
    eng.drain_local();
    ex->flush();
    // Exit needs a global reduction (paper §V-D) unless the model exits on
    // its local count: a rank with no active edges may still owe answers
    // that only exist as other ranks' state (or, on NSR-HIER, relays).
    std::int64_t remaining = eng.active_cross();
    if (!ex->local_exit()) remaining = co_await comm.allreduce_sum(remaining);
    comm.obs_iteration(iter, remaining);
    if (remaining == 0) break;
  }
  co_await ex->drain(sink);

  std::copy(eng.mates().begin(), eng.mates().end(), mate_out.begin());
  *iterations_out = ex->iterations(iter);
}

}  // namespace mel::match
