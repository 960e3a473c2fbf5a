#include "mel/mpi/comm.hpp"

#include <stdexcept>

namespace mel::mpi {

// ---------------------------------------------------------------------------
// RecvAwaiter
// ---------------------------------------------------------------------------

RecvAwaiter::RecvAwaiter(Machine& m, Rank rank, Rank src, int tag)
    : m_(m),
      rank_(rank),
      src_(src),
      tag_(tag),
      entry_clock_(m.simulator().rank_now(rank)) {}

// NOTE: awaiter destructors are deliberately passive. A registered-but-
// unfired awaiter is only destroyed when its suspended coroutine frame is
// torn down, which happens in ~Simulator — after the Machine may already be
// gone. The Machine's dangling ticket pointers are never dereferenced once
// the event loop has stopped, so no deregistration is needed (or safe).
RecvAwaiter::~RecvAwaiter() = default;

bool RecvAwaiter::await_ready() {
  return m_.try_recv(rank_, src_, tag_, msg_);
}

void RecvAwaiter::await_suspend(std::coroutine_handle<> h) {
  ticket_.rank = rank_;
  ticket_.src = src_;
  ticket_.tag = tag_;
  ticket_.peek_only = false;
  ticket_.parked = {rank_, h};
  registered_ = true;
  m_.park_recv(&ticket_);
}

Message RecvAwaiter::await_resume() {
  m_.add_comm_time(rank_, m_.simulator().rank_now(rank_) - entry_clock_);
  m_.trace_op(rank_, "recv", entry_clock_);
  if (registered_) {
    if (!ticket_.fired) {
      throw std::logic_error("RecvAwaiter resumed without a message");
    }
    return std::move(ticket_.msg);
  }
  return std::move(msg_);
}

// ---------------------------------------------------------------------------
// WaitMessageAwaiter
// ---------------------------------------------------------------------------

WaitMessageAwaiter::WaitMessageAwaiter(Machine& m, Rank rank)
    : m_(m), rank_(rank), entry_clock_(m.simulator().rank_now(rank)) {}

WaitMessageAwaiter::~WaitMessageAwaiter() = default;

bool WaitMessageAwaiter::await_ready() {
  // Ready if anything (any arrival time) is queued: a lagging local clock
  // only means the rank "waits" until the message lands.
  return m_.iprobe_any_queued(rank_);
}

void WaitMessageAwaiter::await_suspend(std::coroutine_handle<> h) {
  ticket_.rank = rank_;
  ticket_.src = kAnySource;
  ticket_.tag = kAnyTag;
  ticket_.peek_only = true;
  ticket_.parked = {rank_, h};
  registered_ = true;
  m_.park_recv(&ticket_);
}

void WaitMessageAwaiter::await_resume() {
  m_.add_comm_time(rank_, m_.simulator().rank_now(rank_) - entry_clock_);
  m_.trace_op(rank_, "wait", entry_clock_);
}

// ---------------------------------------------------------------------------
// NeighborAwaiter / NeighborI64Awaiter
// ---------------------------------------------------------------------------

NeighborAwaiter::NeighborAwaiter(Machine& m, Rank rank,
                                 std::vector<util::Buffer> slices)
    : m_(m),
      rank_(rank),
      entry_clock_(m.simulator().rank_now(rank)),
      send_(std::move(slices)) {}

void NeighborAwaiter::await_suspend(std::coroutine_handle<> h) {
  m_.neighbor_arrive(rank_, std::move(send_), &recv_, {rank_, h});
}

std::vector<util::Buffer> NeighborAwaiter::await_resume() {
  m_.add_comm_time(rank_, m_.simulator().rank_now(rank_) - entry_clock_);
  m_.trace_op(rank_, "ncoll", entry_clock_);
  return std::move(recv_);
}

NeighborI64Awaiter::NeighborI64Awaiter(Machine& m, Rank rank,
                                       std::vector<std::int64_t> values)
    : m_(m),
      rank_(rank),
      entry_clock_(m.simulator().rank_now(rank)),
      values_(std::move(values)) {}

void NeighborI64Awaiter::await_suspend(std::coroutine_handle<> h) {
  std::vector<util::Buffer> slices;
  slices.reserve(values_.size());
  for (const std::int64_t v : values_) {
    slices.push_back(util::Buffer::copy_of(bytes_of(v)));
  }
  m_.neighbor_arrive(rank_, std::move(slices), &recv_, {rank_, h});
}

std::vector<std::int64_t> NeighborI64Awaiter::await_resume() {
  m_.add_comm_time(rank_, m_.simulator().rank_now(rank_) - entry_clock_);
  m_.trace_op(rank_, "ncoll", entry_clock_);
  std::vector<std::int64_t> out;
  out.reserve(recv_.size());
  for (const auto& slice : recv_) out.push_back(from_bytes<std::int64_t>(slice));
  return out;
}

// ---------------------------------------------------------------------------
// AllreduceAwaiter / BarrierAwaiter
// ---------------------------------------------------------------------------

AllreduceAwaiter::AllreduceAwaiter(Machine& m, Rank rank,
                                   std::vector<std::int64_t> values,
                                   ReduceOp op)
    : m_(m),
      rank_(rank),
      entry_clock_(m.simulator().rank_now(rank)),
      op_(op),
      values_(std::move(values)) {}

void AllreduceAwaiter::await_suspend(std::coroutine_handle<> h) {
  m_.global_arrive(rank_, std::move(values_), op_, &result_, {rank_, h});
}

std::vector<std::int64_t> AllreduceAwaiter::await_resume() {
  m_.add_comm_time(rank_, m_.simulator().rank_now(rank_) - entry_clock_);
  m_.trace_op(rank_, "allreduce", entry_clock_);
  return std::move(result_);
}

BarrierAwaiter::BarrierAwaiter(Machine& m, Rank rank)
    : m_(m), rank_(rank), entry_clock_(m.simulator().rank_now(rank)) {}

void BarrierAwaiter::await_suspend(std::coroutine_handle<> h) {
  m_.global_arrive(rank_, {}, ReduceOp::kSum, nullptr, {rank_, h});
}

void BarrierAwaiter::await_resume() {
  m_.add_comm_time(rank_, m_.simulator().rank_now(rank_) - entry_clock_);
  m_.trace_op(rank_, "barrier", entry_clock_);
}

// ---------------------------------------------------------------------------
// FlushAwaiter / SleepAwaiter / Window
// ---------------------------------------------------------------------------

FlushAwaiter::FlushAwaiter(Machine& m, int win, Rank rank)
    : m_(m),
      win_(win),
      rank_(rank),
      entry_clock_(m.simulator().rank_now(rank)) {}

bool FlushAwaiter::await_ready() {
  auto& sim = m_.simulator();
  const auto& p = m_.network().params();
  m_.counters_mut(rank_).flushes += 1;
  complete_at_ = std::max(sim.rank_now(rank_),
                          m_.put_completion_time(win_, rank_)) +
                 p.o_flush;
  if (complete_at_ <= sim.rank_now(rank_) + p.o_flush) {
    // Nothing outstanding beyond the local clock: complete inline.
    sim.charge(rank_, p.o_flush);
    m_.add_comm_time(rank_, p.o_flush);
    return true;
  }
  return false;
}

void FlushAwaiter::await_suspend(std::coroutine_handle<> h) {
  m_.simulator().wake({rank_, h}, complete_at_);
}

void FlushAwaiter::await_resume() {
  const Time now = m_.simulator().rank_now(rank_);
  if (now > entry_clock_ + m_.network().params().o_flush) {
    // Suspended path: account wait + flush as communication time.
    m_.add_comm_time(rank_, now - entry_clock_);
  }
  m_.trace_op(rank_, "flush", entry_clock_);
}

FenceAwaiter::FenceAwaiter(Machine& m, int win, Rank rank)
    : m_(m), win_(win), rank_(rank),
      entry_clock_(m.simulator().rank_now(rank)) {}

void FenceAwaiter::await_suspend(std::coroutine_handle<> h) {
  m_.fence_arrive(win_, rank_, {rank_, h});
}

void FenceAwaiter::await_resume() {
  m_.add_comm_time(rank_, m_.simulator().rank_now(rank_) - entry_clock_);
  m_.trace_op(rank_, "fence", entry_clock_);
}

NeighborWaitAwaiter::NeighborWaitAwaiter(Machine& m, Rank rank)
    : m_(m), rank_(rank), entry_clock_(m.simulator().rank_now(rank)) {}

void NeighborWaitAwaiter::await_suspend(std::coroutine_handle<> h) {
  (void)m_.neighbor_wait(rank_, {rank_, h});
}

void NeighborWaitAwaiter::await_resume() {
  m_.add_comm_time(rank_, m_.simulator().rank_now(rank_) - entry_clock_);
  m_.trace_op(rank_, "ncoll", entry_clock_);
}

SleepAwaiter::SleepAwaiter(Machine& m, Rank rank, Time dt)
    : m_(m), rank_(rank), dt_(dt) {}

void SleepAwaiter::await_suspend(std::coroutine_handle<> h) {
  m_.simulator().wake({rank_, h}, m_.simulator().rank_now(rank_) + dt_);
}

void Window::put(Rank target, std::size_t offset,
                 std::span<const std::byte> data) {
  m_->put(id_, rank_, target, offset, data);
}

void Window::put_ordered(Rank target, std::size_t offset,
                         std::span<const std::byte> data) {
  m_->put_ordered(id_, rank_, target, offset, data);
}

FlushAwaiter Window::flush_all() { return FlushAwaiter(*m_, id_, rank_); }

FenceAwaiter Window::fence() { return FenceAwaiter(*m_, id_, rank_); }

std::span<std::byte> Window::local() { return m_->window_memory(id_, rank_); }

std::span<const std::byte> Window::local() const {
  return m_->window_memory(id_, rank_);
}

std::size_t Window::size() const { return m_->window_size(id_, rank_); }

}  // namespace mel::mpi
