// The accounting rule of the simulated MPI: every call adds the clock
// advance it causes to the rank's comm_ns, and every blocking call records
// one span [call, resume] under its category.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "world_fixture.hpp"

namespace mel::test {
namespace {

using mpi::Comm;
using sim::RankTask;
using sim::Time;

struct Span {
  std::string op;
  Time start;
  Time end;
  bool operator==(const Span&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Span& s) {
  return os << s.op << " [" << s.start << ", " << s.end << "]";
}

/// Records the spans of the blocking calls, per rank.
class BlockingSpans : public mpi::Tracer {
 public:
  explicit BlockingSpans(int p) : spans(p) {}
  void record(sim::Rank rank, const char* category, Time start,
              Time end) override {
    static const std::set<std::string> kBlocking = {
        "recv", "wait", "ncoll", "allreduce", "barrier", "flush", "fence"};
    if (kBlocking.count(category) != 0) {
      spans[rank].push_back({category, start, end});
    }
  }
  std::vector<std::vector<Span>> spans;
};

/// The clock and comm_ns of one rank when a call starts.
struct Call {
  Call(const mpi::Machine& m, Comm& c)
      : m(m), c(c), clock(c.now()), comm(m.counters(c.rank()).comm_ns) {}
  Time advance() const { return c.now() - clock; }
  Time counted() const { return m.counters(c.rank()).comm_ns - comm; }

  const mpi::Machine& m;
  Comm& c;
  Time clock;
  Time comm;
};

mpi::PackedSlices one_slice_per_neighbor(const Comm& c, std::int64_t v) {
  return mpi::PackedSlices::of_records<std::int64_t>(
      std::vector<std::int64_t>(c.neighbors().size(), v));
}

TEST(CommAccounting, EveryCallCountsItsClockAdvance) {
  World w(2);
  w.full_topology();
  const int win = w.machine.allocate_window({64, 64});
  BlockingSpans tracer(2);
  w.machine.set_tracer(&tracer);
  const net::Params& params = w.machine.network().params();
  std::vector<std::vector<Span>> want(2);

  auto body = [&](Comm& c) -> RankTask {
    const sim::Rank me = c.rank();
    // `span` names the category a blocking call records, or is null.
    auto check = [&](const char* name, const Call& call, const char* span) {
      EXPECT_GT(call.advance(), 0) << name << " on rank " << me;
      EXPECT_EQ(call.counted(), call.advance()) << name << " on rank " << me;
      if (span != nullptr) want[me].push_back({span, call.clock, c.now()});
    };
    const std::int64_t payload = 42;

    // Point-to-point: a parked and a ready recv, a probe, a parked wait.
    if (me == 0) {
      const Call send(w.machine, c);
      c.isend(1, 1, mpi::bytes_of(payload));
      check("isend", send, nullptr);
      c.isend(1, 2, mpi::bytes_of(payload));
    } else {
      const Call parked(w.machine, c);
      (void)co_await c.recv(0, 1);
      check("recv (parked)", parked, "recv");
      co_await c.sleep(sim::kMillisecond);
      const Call ready(w.machine, c);
      (void)co_await c.recv(0, 2);
      check("recv (ready)", ready, "recv");
      EXPECT_EQ(ready.advance(), w.machine.network().recv_overhead(0, 1));
      const Call probe(w.machine, c);
      EXPECT_FALSE(c.iprobe().has_value());
      check("iprobe", probe, nullptr);
    }
    const Call barrier1(w.machine, c);
    co_await c.barrier();
    check("barrier", barrier1, "barrier");
    if (me == 0) {
      co_await c.sleep(10 * sim::kMicrosecond);
      c.isend(1, 3, mpi::bytes_of(payload));
    } else {
      const Call wait(w.machine, c);
      (void)co_await c.wait_message();
      check("wait_message", wait, "wait");
      const Call recv(w.machine, c);
      (void)co_await c.recv(0, 3);
      check("recv (after the wait)", recv, "recv");
    }

    // Neighborhood: blocking, split-phase and persistent.
    std::vector<std::int64_t> counts(c.neighbors().size(), 1);
    const Call i64(w.machine, c);
    (void)co_await c.neighbor_alltoall_i64(std::move(counts));
    check("neighbor_alltoall_i64", i64, "ncoll");
    const Call alltoallv(w.machine, c);
    (void)co_await c.neighbor_alltoallv(one_slice_per_neighbor(c, payload));
    check("neighbor_alltoallv", alltoallv, "ncoll");
    mpi::NeighborRequest req;
    const Call begin(w.machine, c);
    c.ineighbor_alltoallv(one_slice_per_neighbor(c, payload), req);
    check("ineighbor_alltoallv", begin, nullptr);
    const Call wait(w.machine, c);
    co_await c.ineighbor_wait(req);
    check("ineighbor_wait", wait, "ncoll");
    mpi::NeighborRequest persistent;
    const Call init(w.machine, c);
    c.neighbor_alltoallv_init(persistent);
    check("neighbor_alltoallv_init", init, nullptr);
    const Call start(w.machine, c);
    c.neighbor_alltoallv_start(persistent, one_slice_per_neighbor(c, payload));
    check("neighbor_alltoallv_start", start, nullptr);
    const Call pwait(w.machine, c);
    co_await c.neighbor_alltoallv_wait(persistent);
    check("neighbor_alltoallv_wait", pwait, "ncoll");

    // Global collectives.
    std::vector<std::int64_t> values(3, me);
    const Call allreduce(w.machine, c);
    (void)co_await c.allreduce(std::move(values));
    check("allreduce", allreduce, "allreduce");
    const Call sum(w.machine, c);
    (void)co_await c.allreduce_sum(me);
    check("allreduce_sum", sum, "allreduce");
    const Call barrier2(w.machine, c);
    co_await c.barrier();
    check("barrier", barrier2, "barrier");

    // RMA: a put, a flush that parks on it, one that completes inline.
    mpi::Window window = c.window(win);
    if (me == 0) {
      const Call put(w.machine, c);
      window.put(1, 0, mpi::bytes_of(payload));
      check("put", put, nullptr);
      const Call parked(w.machine, c);
      co_await window.flush_all();
      check("flush_all (parked)", parked, "flush");
      EXPECT_GT(parked.advance(), params.o_flush);
      const Call inline_flush(w.machine, c);
      co_await window.flush_all();
      check("flush_all (inline)", inline_flush, "flush");
      EXPECT_EQ(inline_flush.advance(), params.o_flush);
    }
    const Call fence(w.machine, c);
    co_await window.fence();
    check("fence", fence, "fence");
  };
  w.spawn_all(body);
  w.run();
  for (sim::Rank r = 0; r < 2; ++r) {
    EXPECT_EQ(tracer.spans[r], want[r]) << "rank " << r;
  }
}

}  // namespace
}  // namespace mel::test
