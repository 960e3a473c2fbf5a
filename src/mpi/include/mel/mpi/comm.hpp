// Per-rank communicator view and the awaitable communication operations.
//
// Rank coroutines are written exactly like their real-MPI counterparts:
//
//   comm.isend(dst, tag, bytes);                  // MPI_Isend (nonblocking)
//   auto env = comm.iprobe();                     // MPI_Iprobe
//   Message m = co_await comm.recv(src, tag);     // MPI_Recv
//   co_await comm.wait_message();                 // progress-idle wait
//   auto counts = co_await comm.neighbor_alltoall_i64(my_counts);
//   PackedSlices out(bytes_per_neighbor);         // one send block
//   ... fill out.writable(k) for each neighbor k ...
//   auto in = co_await comm.neighbor_alltoallv(std::move(out));  // views
//   win.put(target, offset, bytes);               // MPI_Put
//   co_await win.flush_all();                     // MPI_Win_flush_all
//   auto total = co_await comm.allreduce_sum(x);  // MPI_Allreduce
//   co_await comm.barrier();
//
// Comm and Window are the only way rank code reaches the Machine. Every
// operation charges realistic software overheads and advances the rank's
// virtual clock, and that advance is the rank's communication time;
// blocking ones suspend the coroutine until the simulated completion time.
//
// A Comm stands for two communicators: the world, on which allreduce and
// barrier are ordered, and the process topology, which
// MPI_Dist_graph_create_adjacent returns as a communicator of its own, on
// which the neighborhood collectives are ordered. Each keeps its own
// collective sequence, so a rank may start a neighborhood collective and a
// global one in either order, while every rank still starts the
// collectives of one communicator in one order.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <variant>
#include <vector>

#include "mel/mpi/machine.hpp"
#include "mel/mpi/message.hpp"

namespace mel::mpi {

// ---------------------------------------------------------------------------
// Awaiters
// ---------------------------------------------------------------------------

/// co_await comm.recv(src, tag) -> Message: blocks until a matching message
/// has arrived (wildcards kAnySource / kAnyTag supported). With `peek`
/// (co_await comm.wait_message()) it blocks until *some* message is in the
/// mailbox and leaves it there; the idle path of Send-Recv loops.
///
/// The destructor is deliberately passive: a parked awaiter is only
/// destroyed with its suspended coroutine frame, in ~Simulator, after the
/// Machine may be gone; its ticket pointer is never read once the event
/// loop has stopped.
class RecvAwaiter {
 public:
  RecvAwaiter(Machine& m, Rank rank, Rank src, int tag, bool peek);
  RecvAwaiter(RecvAwaiter&&) = delete;

  bool await_ready();
  void await_suspend(std::coroutine_handle<> h);
  Message await_resume();

 private:
  Machine& m_;
  Time entry_;
  bool registered_ = false;
  Machine::RecvTicket ticket_;  // rank, src, tag and peek from the start
  Message msg_;
};

/// The one awaiter of every blocking collective: neighborhood, global,
/// fence and the split-phase waits. `park(machine, rank, raw, parked)`
/// hands the parked rank to the Machine, which fills `raw` before the wake;
/// `finish(raw)` turns it into what co_await returns.
template <class Raw, class Park, class Finish>
class Blocking {
 public:
  Blocking(Machine& m, Rank rank, const char* op, Park park, Finish finish)
      : m_(m),
        rank_(rank),
        op_(op),
        entry_(m.simulator().rank_now(rank)),
        park_(std::move(park)),
        finish_(std::move(finish)) {}
  Blocking(Blocking&&) = delete;

  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    park_(m_, rank_, raw_, sim::Simulator::Parked{rank_, h});
  }
  auto await_resume() {
    m_.end_call(rank_, op_, entry_);
    return finish_(std::move(raw_));
  }

 private:
  Machine& m_;
  Rank rank_;
  const char* op_;
  Time entry_;
  Park park_;
  Finish finish_;
  Raw raw_{};
};

namespace detail {
/// The finish of a call that returns nothing.
struct Nothing {
  void operator()(std::monostate) const {}
};

/// A Blocking awaiter, deduced from its park and finish callables.
template <class Raw = std::monostate, class Park, class Finish = Nothing>
Blocking<Raw, Park, Finish> blocking(Machine& m, Rank rank, const char* op,
                                     Park park, Finish finish = {}) {
  return {m, rank, op, std::move(park), std::move(finish)};
}
}  // namespace detail

/// co_await win.flush_all(): completes this origin's outstanding puts, and
/// completes inline when none is outstanding beyond the local clock.
class FlushAwaiter {
 public:
  FlushAwaiter(Machine& m, int win, Rank rank);
  FlushAwaiter(FlushAwaiter&&) = delete;

  bool await_ready();
  void await_suspend(std::coroutine_handle<> h);
  void await_resume();

 private:
  Machine& m_;
  int win_;
  Rank rank_;
  Time entry_;
  Time complete_at_ = 0;
};

/// co_await comm.sleep(dt): pure virtual-time delay (testing / pacing).
class SleepAwaiter {
 public:
  SleepAwaiter(Machine& m, Rank rank, Time dt);
  SleepAwaiter(SleepAwaiter&&) = delete;

  bool await_ready() { return dt_ <= 0; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() {}

 private:
  Machine& m_;
  Rank rank_;
  Time dt_;
};

/// Neighborhood collective request, split-phase (MPI_Ineighbor_alltoallv)
/// or persistent (MPI_Neighbor_alltoallv_init / MPI_Start / MPI_Wait):
///
///   mpi::NeighborRequest req;
///   comm.ineighbor_alltoallv(std::move(packed), req);
///   ... overlap local computation ...
///   co_await comm.ineighbor_wait(req);
///   use(req.recv);
///
///   comm.neighbor_alltoallv_init(req);  // schedule built once (full
///                                       // collective-entry cost)
///   for (;;) {
///     comm.neighbor_alltoallv_start(req, std::move(packed));  // cheap
///     co_await comm.neighbor_alltoallv_wait(req);
///     use(req.recv);
///   }
///
/// A persistent schedule (neighbor list, slice-offset table, matching
/// state) is built by init on this request and reused by each of its
/// starts, which are charged o_coll_persistent_start instead of the
/// per-call entry; a start on a request that init never saw throws
/// std::logic_error. The wait names the request, and waiting on one that
/// is not the rank's outstanding call throws std::logic_error too.
/// Non-movable: the machine holds a pointer to `recv` until completion.
class NeighborRequest {
 public:
  NeighborRequest() = default;
  NeighborRequest(const NeighborRequest&) = delete;
  NeighborRequest& operator=(const NeighborRequest&) = delete;

  /// One view per neighbor into its sender's block, valid after the wait.
  std::vector<SliceView> recv;

 private:
  friend class Comm;
  bool persistent_ = false;  // neighbor_alltoallv_init ran on it
};

// ---------------------------------------------------------------------------
// Window: per-rank handle for one-sided (RMA) access
// ---------------------------------------------------------------------------

class Window {
 public:
  Window() = default;
  Window(Machine* m, int id, Rank rank) : m_(m), id_(id), rank_(rank) {}

  /// Nonblocking one-sided put into `target`'s window memory. A put that
  /// does not fit inside the target's window throws std::out_of_range.
  void put(Rank target, std::size_t offset, std::span<const std::byte> data) {
    m_->put(id_, rank_, target, offset, data, /*ordered=*/false);
  }

  /// Put a packed array of trivially-copyable records at a record offset.
  template <class T>
    requires std::is_trivially_copyable_v<T>
  void put_records(Rank target, std::size_t record_offset,
                   std::span<const T> records) {
    put(target, byte_offset<T>(record_offset), std::as_bytes(records));
  }

  /// Ordered (partitioned) put: like put, but guaranteed to land no
  /// earlier than every previous *ordered* put from this rank to the same
  /// target. The partitioned backend uses it so a partition-boundary
  /// marker (the MPI_Pready analogue) trails its partition's data.
  void put_ordered(Rank target, std::size_t offset,
                   std::span<const std::byte> data) {
    m_->put(id_, rank_, target, offset, data, /*ordered=*/true);
  }

  template <class T>
    requires std::is_trivially_copyable_v<T>
  void put_records_ordered(Rank target, std::size_t record_offset,
                           std::span<const T> records) {
    put_ordered(target, byte_offset<T>(record_offset), std::as_bytes(records));
  }

  /// Complete all outstanding puts issued by this rank (passive target).
  [[nodiscard]] FlushAwaiter flush_all() {
    return FlushAwaiter(*m_, id_, rank_);
  }

  /// Active-target epoch boundary (MPI_Win_fence): a window-wide barrier
  /// that also drains every outstanding put on the window.
  [[nodiscard]] auto fence() {
    return detail::blocking(*m_, rank_, "fence",
                            [win = id_](Machine& m, Rank r, auto&, auto p) {
                              m.fence_arrive(win, r, p);
                            });
  }

  /// This rank's own exposed memory (direct load/store, like a real
  /// MPI_Win_allocate'd buffer).
  std::span<std::byte> local() { return m_->window_memory(id_, rank_); }
  std::span<const std::byte> local() const {
    return m_->window_memory(id_, rank_);
  }

  std::size_t size() const { return m_->window_size(id_, rank_); }
  bool valid() const { return m_ != nullptr; }

 private:
  /// A record offset in bytes; one whose byte offset does not fit in
  /// size_t lies past the end of every window.
  template <class T>
  static std::size_t byte_offset(std::size_t record_offset) {
    if (record_offset > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::out_of_range("Window::put past end of target window");
    }
    return record_offset * sizeof(T);
  }

  Machine* m_ = nullptr;
  int id_ = -1;
  Rank rank_ = -1;
};

// ---------------------------------------------------------------------------
// Comm: the per-rank communicator
// ---------------------------------------------------------------------------

class Comm {
  // The shapes the collectives below share come first: their callers
  // deduce return types from them.
  static std::int64_t first(std::vector<std::int64_t> result) {
    return result.at(0);
  }

  /// The blocking neighborhood alltoallv: begin and wait in one call.
  template <class Finish>
  auto neighbor(PackedSlices slices, Finish finish) {
    return detail::blocking<std::vector<SliceView>>(
        m_, rank_, "ncoll",
        [s = std::move(slices)](Machine& m, Rank r, auto& recv,
                                auto p) mutable {
          m.neighbor_begin(r, std::move(s), &recv, NeighborCall::kBlocking);
          m.neighbor_wait(r, &recv, p);
        },
        std::move(finish));
  }

  /// A split-phase or persistent begin does not park, so it counts its own
  /// clock advance (collective entry or persistent start, chaos skew and
  /// the staging copy) as communication time, with no span.
  void neighbor_start(PackedSlices slices, NeighborRequest& req,
                      NeighborCall kind) {
    const Time entry = now();
    m_.neighbor_begin(rank_, std::move(slices), &req.recv, kind);
    m_.counters_mut(rank_).comm_ns += now() - entry;
  }

  template <class Finish>
  auto reduce(std::vector<std::int64_t> values, ReduceOp op, Finish finish) {
    return detail::blocking<std::vector<std::int64_t>>(
        m_, rank_, "allreduce",
        [v = std::move(values), op](Machine& m, Rank r, auto& out,
                                    auto p) mutable {
          m.global_arrive(r, std::move(v), op, &out, p);
        },
        std::move(finish));
  }

 public:
  Comm(Machine& m, Rank rank) : m_(m), rank_(rank) {}
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  Rank rank() const { return rank_; }
  int size() const { return m_.nranks(); }
  Machine& machine() { return m_; }

  // -- Point-to-point ------------------------------------------------------
  void isend(Rank dst, int tag, std::span<const std::byte> data) {
    m_.isend(rank_, dst, tag, data);
  }
  template <class T>
    requires std::is_trivially_copyable_v<T>
  void isend_pod(Rank dst, int tag, const T& value) {
    m_.isend(rank_, dst, tag, bytes_of(value));
  }
  std::optional<Envelope> iprobe(Rank src = kAnySource, int tag = kAnyTag) {
    return m_.iprobe(rank_, src, tag);
  }
  [[nodiscard]] RecvAwaiter recv(Rank src = kAnySource, int tag = kAnyTag) {
    return RecvAwaiter(m_, rank_, src, tag, /*peek=*/false);
  }
  /// Blocks until some message is queued; returns an empty Message.
  [[nodiscard]] RecvAwaiter wait_message() {
    return RecvAwaiter(m_, rank_, kAnySource, kAnyTag, /*peek=*/true);
  }

  // -- Process topology and neighborhood collectives -----------------------
  const std::vector<Rank>& neighbors() const { return m_.topology(rank_); }
  /// co_await -> received slices, one view per topology neighbor (same
  /// order as neighbors()).
  [[nodiscard]] auto neighbor_alltoallv(PackedSlices slices) {
    return neighbor(std::move(slices), std::identity{});
  }
  /// co_await -> one int64 from each neighbor. The fixed-size count
  /// exchange used before an alltoallv.
  [[nodiscard]] auto neighbor_alltoall_i64(std::vector<std::int64_t> values) {
    return neighbor(PackedSlices::of_records<std::int64_t>(values),
                    [](std::vector<SliceView> recv) {
                      std::vector<std::int64_t> out(recv.size());
                      std::ranges::transform(recv, out.begin(),
                                             from_bytes<std::int64_t>);
                      return out;
                    });
  }
  /// Split-phase (nonblocking) neighborhood collective; complete with
  /// ineighbor_wait. At most one outstanding per rank.
  void ineighbor_alltoallv(PackedSlices slices, NeighborRequest& req) {
    neighbor_start(std::move(slices), req, NeighborCall::kSplitPhase);
  }
  [[nodiscard]] auto ineighbor_wait(NeighborRequest& req) {
    return detail::blocking(m_, rank_, "ncoll",
                            [recv = &req.recv](Machine& m, Rank r, auto&,
                                               auto p) {
                              m.neighbor_wait(r, recv, p);
                            });
  }
  /// Persistent neighborhood alltoallv: build the exchange schedule once,
  /// paying one full collective entry as communication time, then
  /// start/wait it every round (see NeighborRequest).
  void neighbor_alltoallv_init(NeighborRequest& req) {
    const Time entry = m_.network().collective_entry(
        static_cast<int>(neighbors().size()));
    m_.simulator().charge(rank_, entry);
    m_.counters_mut(rank_).comm_ns += entry;
    req.persistent_ = true;
  }
  void neighbor_alltoallv_start(NeighborRequest& req, PackedSlices slices) {
    if (!req.persistent_) {
      throw std::logic_error(
          "neighbor_alltoallv_start on a request that "
          "neighbor_alltoallv_init did not build");
    }
    neighbor_start(std::move(slices), req, NeighborCall::kPersistentStart);
  }
  [[nodiscard]] auto neighbor_alltoallv_wait(NeighborRequest& req) {
    return ineighbor_wait(req);
  }

  // -- Global collectives --------------------------------------------------
  /// co_await -> the elementwise-reduced vector.
  [[nodiscard]] auto allreduce(std::vector<std::int64_t> values,
                               ReduceOp op = ReduceOp::kSum) {
    return reduce(std::move(values), op, std::identity{});
  }
  [[nodiscard]] auto allreduce_sum(std::int64_t value) {
    return reduce(std::vector<std::int64_t>{value}, ReduceOp::kSum, first);
  }
  [[nodiscard]] auto allreduce_max(std::int64_t value) {
    return reduce(std::vector<std::int64_t>{value}, ReduceOp::kMax, first);
  }
  [[nodiscard]] auto barrier() {
    return detail::blocking(
        m_, rank_, "barrier", [](Machine& m, Rank r, auto&, auto p) {
          m.global_arrive(r, {}, ReduceOp::kSum, nullptr, p);
        });
  }

  // -- Fault tolerance (ULFM flavored) -------------------------------------
  bool rank_failed(Rank r) const { return m_.rank_failed(r); }

  // -- RMA -----------------------------------------------------------------
  Window window(int id) { return Window(&m_, id, rank_); }

  // -- Local work model ----------------------------------------------------
  /// Charge `ns` of local computation to this rank's clock (scaled up by
  /// the chaos engine if this rank is a straggler).
  void compute(Time ns) {
    const Time start = m_.simulator().rank_now(rank_);
    m_.charge_compute(rank_, ns);
    m_.trace_op(rank_, "compute", start);
  }
  void compute_edges(std::int64_t n) {
    compute(n * m_.network().params().compute_per_edge);
  }
  void compute_vertices(std::int64_t n) {
    compute(n * m_.network().params().compute_per_vertex);
  }
  [[nodiscard]] SleepAwaiter sleep(Time ns) {
    return SleepAwaiter(m_, rank_, ns);
  }

  /// This rank's local virtual clock.
  Time now() const { return m_.simulator().rank_now(rank_); }

  // -- Observability -------------------------------------------------------
  /// Report one algorithm iteration (round / progress turn) to the tracer:
  /// the recorder snapshots this rank's cumulative counters and emits
  /// per-iteration deltas. Purely observational — no virtual-time effect.
  void obs_iteration(std::uint64_t iter, std::int64_t active) {
    m_.trace_iteration(rank_, iter, active);
  }

 private:
  Machine& m_;
  Rank rank_;
};

}  // namespace mel::mpi
