#include "mel/mpi/comm.hpp"

#include <stdexcept>

namespace mel::mpi {

// ---------------------------------------------------------------------------
// RecvAwaiter
// ---------------------------------------------------------------------------

RecvAwaiter::RecvAwaiter(Machine& m, Rank rank, Rank src, int tag, bool peek)
    : m_(m), entry_(m.simulator().rank_now(rank)) {
  ticket_.rank = rank;
  ticket_.src = src;
  ticket_.tag = tag;
  ticket_.peek_only = peek;
}

bool RecvAwaiter::await_ready() {
  // A peek is ready if anything (any arrival time) is queued: a lagging
  // local clock only means the rank "waits" until the message lands.
  if (ticket_.peek_only) return m_.iprobe_any_queued(ticket_.rank);
  return m_.try_recv(ticket_.rank, ticket_.src, ticket_.tag, msg_);
}

void RecvAwaiter::await_suspend(std::coroutine_handle<> h) {
  ticket_.parked = {ticket_.rank, h};
  registered_ = true;
  m_.park_recv(&ticket_);
}

Message RecvAwaiter::await_resume() {
  m_.end_call(ticket_.rank, ticket_.peek_only ? "wait" : "recv", entry_);
  if (!registered_) return std::move(msg_);
  if (!ticket_.fired) {
    throw std::logic_error("RecvAwaiter resumed without a message");
  }
  return std::move(ticket_.msg);
}

// ---------------------------------------------------------------------------
// FlushAwaiter / SleepAwaiter
// ---------------------------------------------------------------------------

FlushAwaiter::FlushAwaiter(Machine& m, int win, Rank rank)
    : m_(m), win_(win), rank_(rank), entry_(m.simulator().rank_now(rank)) {}

bool FlushAwaiter::await_ready() {
  auto& sim = m_.simulator();
  const Time o_flush = m_.network().params().o_flush;
  m_.counters_mut(rank_).flushes += 1;
  complete_at_ = std::max(sim.rank_now(rank_),
                          m_.put_completion_time(win_, rank_)) +
                 o_flush;
  if (complete_at_ <= sim.rank_now(rank_) + o_flush) {
    // Nothing outstanding beyond the local clock: complete inline.
    sim.charge(rank_, o_flush);
    return true;
  }
  return false;
}

void FlushAwaiter::await_suspend(std::coroutine_handle<> h) {
  m_.simulator().wake({rank_, h}, complete_at_);
}

void FlushAwaiter::await_resume() { m_.end_call(rank_, "flush", entry_); }

SleepAwaiter::SleepAwaiter(Machine& m, Rank rank, Time dt)
    : m_(m), rank_(rank), dt_(dt) {}

void SleepAwaiter::await_suspend(std::coroutine_handle<> h) {
  m_.simulator().wake({rank_, h}, m_.simulator().rank_now(rank_) + dt_);
}

}  // namespace mel::mpi
