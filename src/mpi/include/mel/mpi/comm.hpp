// Per-rank communicator view and the awaitable communication operations.
//
// Rank coroutines are written exactly like their real-MPI counterparts:
//
//   comm.isend(dst, tag, bytes);                  // MPI_Isend (nonblocking)
//   auto env = comm.iprobe();                     // MPI_Iprobe
//   Message m = co_await comm.recv(src, tag);     // MPI_Recv
//   co_await comm.wait_message();                 // progress-idle wait
//   auto counts = co_await comm.neighbor_alltoall_i64(my_counts);
//   auto slices = co_await comm.neighbor_alltoallv(my_slices);
//   win.put(target, offset, bytes);               // MPI_Put
//   co_await win.flush_all();                     // MPI_Win_flush_all
//   auto total = co_await comm.allreduce_sum(x);  // MPI_Allreduce
//   co_await comm.barrier();
//
// Every operation charges realistic software overheads and advances the
// rank's virtual clock; blocking ones suspend the coroutine until the
// simulated completion time.
#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mel/mpi/machine.hpp"
#include "mel/mpi/message.hpp"
#include "mel/util/buffer.hpp"

namespace mel::mpi {

namespace detail {
/// Stage caller-built byte vectors into pooled buffers — the one copy a
/// neighborhood slice pays end-to-end (receivers alias by refcount).
inline std::vector<util::Buffer> to_buffers(
    const std::vector<std::vector<std::byte>>& slices) {
  std::vector<util::Buffer> out;
  out.reserve(slices.size());
  for (const auto& s : slices) out.push_back(util::Buffer::copy_of(s));
  return out;
}
}  // namespace detail

// ---------------------------------------------------------------------------
// Awaiters
// ---------------------------------------------------------------------------

/// co_await comm.recv(src, tag) -> Message. Blocks until a matching message
/// has arrived (wildcards kAnySource / kAnyTag supported).
class RecvAwaiter {
 public:
  RecvAwaiter(Machine& m, Rank rank, Rank src, int tag);
  RecvAwaiter(RecvAwaiter&&) = delete;
  ~RecvAwaiter();

  bool await_ready();
  void await_suspend(std::coroutine_handle<> h);
  Message await_resume();

 private:
  Machine& m_;
  Rank rank_;
  Rank src_;
  int tag_;
  Time entry_clock_;
  bool registered_ = false;
  Machine::RecvTicket ticket_;
  Message msg_;
};

/// co_await comm.wait_message() -> void. Blocks until *some* message is in
/// the mailbox (does not dequeue it); the idle path of Send-Recv loops.
class WaitMessageAwaiter {
 public:
  WaitMessageAwaiter(Machine& m, Rank rank);
  WaitMessageAwaiter(WaitMessageAwaiter&&) = delete;
  ~WaitMessageAwaiter();

  bool await_ready();
  void await_suspend(std::coroutine_handle<> h);
  void await_resume();

 private:
  Machine& m_;
  Rank rank_;
  Time entry_clock_;
  bool registered_ = false;
  Machine::RecvTicket ticket_;
};

/// co_await comm.neighbor_alltoallv(slices) -> received slices, one per
/// topology neighbor (same order as comm.neighbors()).
class NeighborAwaiter {
 public:
  NeighborAwaiter(Machine& m, Rank rank, std::vector<util::Buffer> slices);
  NeighborAwaiter(NeighborAwaiter&&) = delete;

  bool await_ready() { return false; }
  void await_suspend(std::coroutine_handle<> h);
  std::vector<util::Buffer> await_resume();

 private:
  Machine& m_;
  Rank rank_;
  Time entry_clock_;
  std::vector<util::Buffer> send_;
  std::vector<util::Buffer> recv_;
};

/// co_await comm.neighbor_alltoall_i64(values) -> one int64 from each
/// neighbor. The fixed-size count exchange used before an alltoallv.
class NeighborI64Awaiter {
 public:
  NeighborI64Awaiter(Machine& m, Rank rank, std::vector<std::int64_t> values);
  NeighborI64Awaiter(NeighborI64Awaiter&&) = delete;

  bool await_ready() { return false; }
  void await_suspend(std::coroutine_handle<> h);
  std::vector<std::int64_t> await_resume();

 private:
  Machine& m_;
  Rank rank_;
  Time entry_clock_;
  std::vector<std::int64_t> values_;
  std::vector<util::Buffer> recv_;
};

/// co_await comm.allreduce(values, op) -> elementwise-reduced vector.
class AllreduceAwaiter {
 public:
  AllreduceAwaiter(Machine& m, Rank rank, std::vector<std::int64_t> values,
                   ReduceOp op);
  AllreduceAwaiter(AllreduceAwaiter&&) = delete;

  bool await_ready() { return false; }
  void await_suspend(std::coroutine_handle<> h);
  std::vector<std::int64_t> await_resume();

 private:
  Machine& m_;
  Rank rank_;
  Time entry_clock_;
  ReduceOp op_;
  std::vector<std::int64_t> values_;
  std::vector<std::int64_t> result_;
};

/// co_await comm.allreduce_sum(x) -> int64 (scalar convenience).
class AllreduceScalarAwaiter {
 public:
  AllreduceScalarAwaiter(Machine& m, Rank rank, std::int64_t value,
                         ReduceOp op)
      : inner_(m, rank, {value}, op) {}

  bool await_ready() { return inner_.await_ready(); }
  void await_suspend(std::coroutine_handle<> h) { inner_.await_suspend(h); }
  std::int64_t await_resume() { return inner_.await_resume().at(0); }

 private:
  AllreduceAwaiter inner_;
};

/// co_await comm.barrier().
class BarrierAwaiter {
 public:
  BarrierAwaiter(Machine& m, Rank rank);
  BarrierAwaiter(BarrierAwaiter&&) = delete;

  bool await_ready() { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume();

 private:
  Machine& m_;
  Rank rank_;
  Time entry_clock_;
};

/// co_await win.flush_all(): completes this origin's outstanding puts.
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
  Time entry_clock_;
  Time complete_at_ = 0;
};

/// co_await win.fence(): active-target epoch synchronization
/// (MPI_Win_fence) — a window-wide barrier that also drains every
/// outstanding put on the window.
class FenceAwaiter {
 public:
  FenceAwaiter(Machine& m, int win, Rank rank);
  FenceAwaiter(FenceAwaiter&&) = delete;

  bool await_ready() { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume();

 private:
  Machine& m_;
  int win_;
  Rank rank_;
  Time entry_clock_;
};

/// Split-phase neighborhood collective handle (MPI_Ineighbor_alltoallv):
///
///   mpi::NeighborRequest req;
///   comm.ineighbor_alltoallv(std::move(slices), req);
///   ... overlap local computation ...
///   co_await comm.ineighbor_wait(req);
///   use(req.recv);
///
/// Non-movable: the machine holds a pointer to `recv` until completion.
class NeighborRequest {
 public:
  NeighborRequest() = default;
  NeighborRequest(const NeighborRequest&) = delete;
  NeighborRequest& operator=(const NeighborRequest&) = delete;

  std::vector<util::Buffer> recv;  // valid after ineighbor_wait
};

/// Persistent neighborhood alltoallv (MPI_Neighbor_alltoallv_init /
/// MPI_Start / MPI_Wait flavored):
///
///   mpi::PersistentNeighborRequest req;
///   comm.neighbor_alltoallv_init(req);      // schedule built once (full
///                                           // collective-entry cost)
///   for (;;) {
///     comm.neighbor_alltoallv_start(req, std::move(slices));  // cheap
///     co_await comm.neighbor_alltoallv_wait(req);
///     use(req.recv);
///   }
///
/// The exchange schedule (neighbor list, slice-offset table, matching
/// state) is registered at init and reused by every start, which is
/// charged o_coll_persistent_start instead of the per-call entry.
/// Non-movable for the same reason as NeighborRequest.
class PersistentNeighborRequest {
 public:
  PersistentNeighborRequest() = default;
  PersistentNeighborRequest(const PersistentNeighborRequest&) = delete;
  PersistentNeighborRequest& operator=(const PersistentNeighborRequest&) =
      delete;

  std::vector<util::Buffer> recv;  // valid after neighbor_alltoallv_wait
};

class NeighborWaitAwaiter {
 public:
  NeighborWaitAwaiter(Machine& m, Rank rank);
  NeighborWaitAwaiter(NeighborWaitAwaiter&&) = delete;

  bool await_ready() { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume();

 private:
  Machine& m_;
  Rank rank_;
  Time entry_clock_;
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

// ---------------------------------------------------------------------------
// Window: per-rank handle for one-sided (RMA) access
// ---------------------------------------------------------------------------

class Window {
 public:
  Window() = default;
  Window(Machine* m, int id, Rank rank) : m_(m), id_(id), rank_(rank) {}

  /// Nonblocking one-sided put into `target`'s window memory.
  void put(Rank target, std::size_t offset, std::span<const std::byte> data);

  /// Put a packed array of trivially-copyable records at a record offset.
  template <class T>
    requires std::is_trivially_copyable_v<T>
  void put_records(Rank target, std::size_t record_offset,
                   std::span<const T> records) {
    put(target, record_offset * sizeof(T), std::as_bytes(records));
  }

  /// Ordered (partitioned) put: like put, but guaranteed to land no
  /// earlier than every previous *ordered* put from this rank to the same
  /// target. The partitioned backend uses it so a partition-boundary
  /// marker (the MPI_Pready analogue) trails its partition's data.
  void put_ordered(Rank target, std::size_t offset,
                   std::span<const std::byte> data);

  template <class T>
    requires std::is_trivially_copyable_v<T>
  void put_records_ordered(Rank target, std::size_t record_offset,
                           std::span<const T> records) {
    put_ordered(target, record_offset * sizeof(T), std::as_bytes(records));
  }

  /// Complete all outstanding puts issued by this rank (passive target).
  [[nodiscard]] FlushAwaiter flush_all();

  /// Active-target epoch boundary: window-wide barrier draining all puts.
  [[nodiscard]] FenceAwaiter fence();

  /// This rank's own exposed memory (direct load/store, like a real
  /// MPI_Win_allocate'd buffer).
  std::span<std::byte> local();
  std::span<const std::byte> local() const;

  std::size_t size() const;
  bool valid() const { return m_ != nullptr; }

 private:
  Machine* m_ = nullptr;
  int id_ = -1;
  Rank rank_ = -1;
};

// ---------------------------------------------------------------------------
// Comm: the per-rank communicator
// ---------------------------------------------------------------------------

class Comm {
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
    return RecvAwaiter(m_, rank_, src, tag);
  }
  [[nodiscard]] WaitMessageAwaiter wait_message() {
    return WaitMessageAwaiter(m_, rank_);
  }

  // -- Process topology and neighborhood collectives -----------------------
  const std::vector<Rank>& neighbors() const { return m_.topology(rank_); }
  [[nodiscard]] NeighborAwaiter neighbor_alltoallv(
      std::vector<util::Buffer> slices) {
    return NeighborAwaiter(m_, rank_, std::move(slices));
  }
  /// Convenience overload: stages caller-built byte vectors into pooled
  /// buffers (one copy; prefer the Buffer overload on hot paths that can
  /// fill slices directly).
  [[nodiscard]] NeighborAwaiter neighbor_alltoallv(
      const std::vector<std::vector<std::byte>>& slices) {
    return NeighborAwaiter(m_, rank_, detail::to_buffers(slices));
  }
  [[nodiscard]] NeighborI64Awaiter neighbor_alltoall_i64(
      std::vector<std::int64_t> values) {
    return NeighborI64Awaiter(m_, rank_, std::move(values));
  }
  /// Split-phase (nonblocking) neighborhood collective; complete with
  /// ineighbor_wait. At most one outstanding per rank.
  void ineighbor_alltoallv(std::vector<util::Buffer> slices,
                           NeighborRequest& req) {
    m_.neighbor_begin(rank_, std::move(slices), &req.recv);
  }
  void ineighbor_alltoallv(const std::vector<std::vector<std::byte>>& slices,
                           NeighborRequest& req) {
    m_.neighbor_begin(rank_, detail::to_buffers(slices), &req.recv);
  }
  [[nodiscard]] NeighborWaitAwaiter ineighbor_wait(NeighborRequest&) {
    return NeighborWaitAwaiter(m_, rank_);
  }
  /// Persistent neighborhood alltoallv: build the exchange schedule once,
  /// then start/wait it every round (see PersistentNeighborRequest).
  void neighbor_alltoallv_init(PersistentNeighborRequest& req) {
    (void)req;  // the schedule is per rank; req just receives the data
    m_.persistent_neighbor_init(rank_);
  }
  void neighbor_alltoallv_start(PersistentNeighborRequest& req,
                                std::vector<util::Buffer> slices) {
    m_.neighbor_begin(rank_, std::move(slices), &req.recv,
                      /*persistent_start=*/true);
  }
  [[nodiscard]] NeighborWaitAwaiter neighbor_alltoallv_wait(
      PersistentNeighborRequest&) {
    return NeighborWaitAwaiter(m_, rank_);
  }

  // -- Global collectives --------------------------------------------------
  [[nodiscard]] AllreduceAwaiter allreduce(std::vector<std::int64_t> values,
                                           ReduceOp op = ReduceOp::kSum) {
    return AllreduceAwaiter(m_, rank_, std::move(values), op);
  }
  [[nodiscard]] AllreduceScalarAwaiter allreduce_sum(std::int64_t value) {
    return AllreduceScalarAwaiter(m_, rank_, value, ReduceOp::kSum);
  }
  [[nodiscard]] AllreduceScalarAwaiter allreduce_max(std::int64_t value) {
    return AllreduceScalarAwaiter(m_, rank_, value, ReduceOp::kMax);
  }
  [[nodiscard]] BarrierAwaiter barrier() { return BarrierAwaiter(m_, rank_); }

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
