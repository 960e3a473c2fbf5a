// The record-exchange layer under every distributed graph algorithm here:
// half-approximate matching on ten communication models, BFS, and
// Jones-Plassmann coloring. An algorithm only produces and consumes
// fixed-size records; an Exchange moves them. Its interface is the paper's
// Table I:
//
//   Push     push(dst, record)     stage one record for rank `dst`
//   Evoke    co_await round(sink)  start and complete one exchange round,
//   Process                        handing each record that arrived to
//                                  sink.deliver
//
// flush() sends what a Send-Recv model staged, drain() consumes traffic
// still visible at exit, and local_exit() names the exit criterion.
//
// Each implementation issues exactly the communication calls, in exactly
// the order, of the hand-written loop it replaced, so virtual time, trace
// hashes and counters are unchanged. The matcher-only models live in
// backends.cpp; the two that BFS and coloring also use are here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mel/graph/dist.hpp"
#include "mel/match/backends.hpp"
#include "mel/mpi/comm.hpp"
#include "mel/sim/task.hpp"

namespace mel::match {

/// The algorithm's side of an exchange (Table I's Process step).
template <class R>
struct Sink {
  /// One incoming record, in arrival order.
  std::function<void(const R&)> deliver;
  /// Called after each received message by the models that interleave
  /// local work with receiving (NSR, MBP, NSR-AGG): run local work to
  /// quiescence, pushing what it produces.
  std::function<void()> settle = [] {};
};

template <class R>
class Exchange {
 public:
  Exchange(mpi::Comm& comm, const graph::LocalGraph& lg)
      : comm_(comm), lg_(lg) {}
  virtual ~Exchange() = default;
  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  /// One-time set-up before the first record (window displacements, a
  /// persistent schedule).
  virtual sim::Task setup() { co_return; }
  /// Push: stage one record for `dst`, a process neighbor. Nothing is sent
  /// or charged until flush() or the next round.
  virtual void push(Rank dst, const R& rec) {
    staged_.emplace_back(neighbor(dst), rec);
  }
  /// Send what a Send-Recv model staged, once the algorithm's local work is
  /// done; the other models send in round().
  virtual void flush() {}
  /// Evoke + Process: one exchange round.
  virtual sim::Task round(Sink<R>& sink) = 0;
  /// Exit hygiene: consume traffic still visible once the algorithm is done.
  virtual sim::Task drain(Sink<R>&) { co_return; }
  /// True when a rank may stop as soon as its own work is done (Send-Recv);
  /// otherwise ranks agree on exit with a global reduction.
  virtual bool local_exit() const { return false; }
  /// The iteration count a run reports: rounds, unless the model counts
  /// messages or batches.
  virtual std::uint64_t iterations(std::uint64_t rounds) const {
    return rounds;
  }

 protected:
  std::size_t neighbor(Rank dst) const {
    const int k = lg_.neighbor_index(dst);
    if (k < 0) throw std::logic_error("Exchange: record for a non-neighbor");
    return static_cast<std::size_t>(k);
  }

  /// The staged records packed into one block, one slice per neighbor in
  /// push order. Each record is written exactly once; receivers view the
  /// block by refcount.
  mpi::PackedSlices pack() const {
    std::vector<std::size_t> fill(lg_.neighbor_ranks.size(), 0);
    for (const auto& staged : staged_) fill[staged.first] += sizeof(R);
    mpi::PackedSlices packed(fill);
    std::fill(fill.begin(), fill.end(), 0);
    for (const auto& [k, rec] : staged_) {
      std::memcpy(packed.writable(k).data() + fill[k], &rec, sizeof(R));
      fill[k] += sizeof(R);
    }
    return packed;
  }

  mpi::Comm& comm_;
  const graph::LocalGraph& lg_;
  std::vector<std::pair<std::size_t, R>> staged_;  // (neighbor index, record)
};

/// Neighborhood collectives (NCL family): a round packs the staged records
/// into one slice per neighbor and runs one alltoallv. The variants differ
/// only in how the round starts and completes:
///   kBlocking    - fixed-size count exchange so receivers can size their
///                  buffers, then a blocking alltoallv (NCL);
///   kNonblocking - split-phase alltoallv whose slice sizes ride along, so
///                  the wait is the only synchronization (NCL-NB);
///   kPersistent  - schedule built once by init, each round a cheap
///                  start/wait pair (NCL-PERSIST).
template <class R>
class NclExchange final : public Exchange<R> {
 public:
  enum class Start { kBlocking, kNonblocking, kPersistent };

  NclExchange(mpi::Comm& comm, const graph::LocalGraph& lg, Start start)
      : Exchange<R>(comm, lg), start_(start) {}

  sim::Task setup() override {
    if (start_ == Start::kPersistent) {
      this->comm_.neighbor_alltoallv_init(persistent_);
    }
    co_return;
  }

  sim::Task round(Sink<R>& sink) override {
    mpi::Comm& comm = this->comm_;
    mpi::PackedSlices slices = this->pack();
    this->staged_.clear();
    const auto process = [&sink](const std::vector<mpi::SliceView>& incoming) {
      for (const auto& slice : incoming) {
        const std::size_t n = mpi::record_count<R>(slice);
        for (std::size_t i = 0; i < n; ++i) {
          sink.deliver(mpi::nth_record<R>(slice, i));
        }
      }
    };
    switch (start_) {
      case Start::kBlocking: {
        std::vector<std::int64_t> counts(slices.count());
        for (std::size_t k = 0; k < slices.count(); ++k) {
          counts[k] = static_cast<std::int64_t>(slices.size(k) / sizeof(R));
        }
        (void)co_await comm.neighbor_alltoall_i64(std::move(counts));
        const std::vector<mpi::SliceView> incoming =
            co_await comm.neighbor_alltoallv(std::move(slices));
        process(incoming);
        break;
      }
      case Start::kNonblocking: {
        mpi::NeighborRequest req;
        comm.ineighbor_alltoallv(std::move(slices), req);
        co_await comm.ineighbor_wait(req);
        process(req.recv);
        break;
      }
      case Start::kPersistent:
        comm.neighbor_alltoallv_start(persistent_, std::move(slices));
        co_await comm.neighbor_alltoallv_wait(persistent_);
        process(persistent_.recv);
        break;
    }
  }

 private:
  Start start_;
  mpi::NeighborRequest persistent_;
};

/// Level-synchronous Send-Recv (BFS, coloring): every round sends each
/// neighbor a record count and then one message per record; the receiver
/// collects the counts, then exactly that many records from any source.
/// `grouped` sends each neighbor's records right behind its count (BFS);
/// otherwise all counts go first, then the records in push order
/// (coloring).
template <class R>
class CountedNsrExchange final : public Exchange<R> {
 public:
  CountedNsrExchange(mpi::Comm& comm, const graph::LocalGraph& lg,
                     bool grouped)
      : Exchange<R>(comm, lg), grouped_(grouped) {}

  sim::Task round(Sink<R>& sink) override {
    constexpr int kCountTag = 100;
    constexpr int kRecordTag = 101;
    mpi::Comm& comm = this->comm_;
    const std::vector<Rank>& nbrs = this->lg_.neighbor_ranks;
    const mpi::PackedSlices slices = this->pack();
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const mpi::SliceView slice = slices.view(k);
      const std::size_t n = mpi::record_count<R>(slice);
      comm.isend_pod<std::int64_t>(nbrs[k], kCountTag,
                                   static_cast<std::int64_t>(n));
      if (!grouped_) continue;
      for (std::size_t i = 0; i < n; ++i) {
        comm.isend_pod<R>(nbrs[k], kRecordTag, mpi::nth_record<R>(slice, i));
      }
    }
    if (!grouped_) {
      for (const auto& [k, rec] : this->staged_) {
        comm.isend_pod<R>(nbrs[k], kRecordTag, rec);
      }
    }
    this->staged_.clear();
    std::int64_t expected = 0;
    for (const Rank nbr : nbrs) {
      const mpi::Message m = co_await comm.recv(nbr, kCountTag);
      expected += mpi::from_bytes<std::int64_t>(m.data);
    }
    for (std::int64_t i = 0; i < expected; ++i) {
      const mpi::Message m = co_await comm.recv(mpi::kAnySource, kRecordTag);
      sink.deliver(mpi::from_bytes<R>(m.data));
    }
  }

 private:
  bool grouped_;
};

/// The exchange of a level-synchronous algorithm (BFS, coloring), which
/// runs on NSR or NCL only.
template <class R>
std::unique_ptr<Exchange<R>> make_level_exchange(Model model, mpi::Comm& comm,
                                                 const graph::LocalGraph& lg,
                                                 bool grouped) {
  if (model == Model::kNsr) {
    return std::make_unique<CountedNsrExchange<R>>(comm, lg, grouped);
  }
  return std::make_unique<NclExchange<R>>(comm, lg,
                                          NclExchange<R>::Start::kBlocking);
}

}  // namespace mel::match
