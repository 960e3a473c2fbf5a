// The discrete-event simulator driving all simulated ranks.
//
// Model: each rank is a coroutine with a private local clock. A rank runs
// (in host time) from one co_await to the next; everything it does in
// between happens at its current local clock, which subsystems advance by
// calling charge(). Blocking operations suspend the coroutine and register
// a wake-up; the simulator's global event queue interleaves ranks in
// deterministic (time, sequence) order. When the event queue drains while
// ranks are still suspended, the run has deadlocked and run() throws a
// DeadlockError carrying a per-rank progress report; when virtual time
// exceeds a configured horizon, run() throws a WatchdogError with the same
// report instead of spinning forever. Subsystems that park coroutines (the
// MPI Machine) can install a stall reporter to enrich the report with the
// parked operation's identity (op kind, mailbox depth, sequence numbers).
//
// Sharded (multi-threaded) mode — set_threads(T) with T > 1:
//
// Ranks are block-partitioned into min(T, nranks) shards (shards(),
// shard_first()), each with its own EventQueue, advanced by one worker
// thread per shard in bounded windows [W, W + lookahead). The simulator
// does not know the model's delays: its user computes the lookahead from
// the shard map and installs it (limit_lookahead). The MPI machine takes
// the cheapest message between ranks on different shards, the reduction
// time, and the earliest a neighborhood completion can land after the
// window it is decided in, so no event executed inside a window can
// schedule into another shard's past, or into the window from the merge.
// Every event names the rank whose state it touches (schedule_for), and
// that rank's shard runs it. A push for another shard, or past the
// window, goes into the executing shard's outbox for its destination;
// every other side effect that crosses shards — a deferred body for shared
// collective bookkeeping, trace emission — is recorded in a per-event
// action log (an EventFn for defer()). At the window barrier one thread
// merges the shards' executed events in exactly the global (time,
// sequence) order the sequential engine uses: it gives each push its
// final sequence number, in global call order, and runs the deferred
// bodies. So trace_hash(), events_executed() and every rank-visible
// timestamp are bit-identical to the sequential engine at any thread
// count. Each worker moves the entries addressed to its shard into its
// own queue at the start of the next window, so a closure is stored once:
// in an outbox, then in a queue. Outboxes alternate by window parity, so
// the drain needs no barrier of its own, and a destination hands back an
// outbox's storage, and the log a burst grew, once it is done with them.
// Periodic hooks, the horizon watchdog and deadlock detection all fire at
// window barriers, which the window bounds align with the exact
// sequential boundaries; pending_events() and the end-of-run check count
// the entries not yet drained. The engine is chosen before anything is
// spawned or scheduled (set_threads, require_sequential); the shard
// queues exist from set_threads on.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mel/sim/event_queue.hpp"
#include "mel/sim/task.hpp"
#include "mel/sim/time.hpp"

namespace mel::sim {

/// Thrown by Simulator::run() when no event can make progress but at least
/// one rank has not finished.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(std::string what) : std::runtime_error(std::move(what)) {}
};

/// Thrown by Simulator::run() when the next event lies beyond the
/// configured virtual-time horizon (a livelock / runaway-run guard).
class WatchdogError : public std::runtime_error {
 public:
  explicit WatchdogError(std::string what) : std::runtime_error(std::move(what)) {}
};

/// Thrown by Simulator::run() when the event queue drains with surviving
/// ranks still suspended *and* at least one rank was killed: the survivors
/// are blocked on a dead peer, not deadlocked among themselves. Callers
/// that configured crashes catch this and run recovery.
class RankFailure : public std::runtime_error {
 public:
  explicit RankFailure(std::string what) : std::runtime_error(std::move(what)) {}
};

class Simulator {
 public:
  explicit Simulator(int nranks);
  // Out of line: the engine control block is an incomplete type here.
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  int nranks() const { return static_cast<int>(ranks_.size()); }

  /// Install the main coroutine for a rank. Must be called once per rank
  /// before run(). The factory is invoked immediately; the coroutine body
  /// does not start until run().
  void spawn(Rank rank, RankTask task);

  /// Run the simulation to completion (all ranks returned). Throws
  /// DeadlockError if progress stalls and rethrows the first rank exception.
  void run();

  /// Global event-queue time (time of the most recent event).
  Time now() const { return now_; }

  /// A rank's local virtual clock.
  Time rank_now(Rank rank) const { return ranks_[rank].clock; }

  /// Advance a rank's local clock by dt (models local computation or
  /// per-call software overhead). Must only be called while that rank's
  /// coroutine is the one logically executing. Negative charges would
  /// silently break clock monotonicity (the invariant every completion
  /// time in the machine rests on), so they are rejected outright.
  void charge(Rank rank, Time dt) {
    if (dt < 0) {
      throw std::logic_error("Simulator::charge: negative dt on rank " +
                             std::to_string(rank));
    }
    ranks_[rank].clock += dt;
  }

  /// Schedule an event at absolute virtual time t that logically belongs
  /// to `rank`: a delivery into its mailbox, a wake of its coroutine, a
  /// completion writing its output. The event may touch only that rank's
  /// state; anything shared goes through defer(). Events at equal time run
  /// in scheduling order. The callable may take the event's virtual time
  /// as a parameter (`void(Time)`) or nothing; it must fit the EventFn
  /// small buffer to stay off the heap (larger closures still work, they
  /// just allocate).
  ///
  /// In sharded mode the event runs on the rank's shard: pushed straight
  /// into its queue when the scheduling shard owns the rank and the time
  /// falls inside the current window, via the merge-ordered action log
  /// otherwise.
  template <class F>
  void schedule_for(Rank rank, Time t, F&& fn) {
    if (!sharded_) {
      queue_.push(t, std::forward<F>(fn));
      return;
    }
    sharded_schedule(rank, t, EventFn(std::forward<F>(fn)));
  }

  /// Run `fn` at the point in the global (time, sequence) event order
  /// corresponding to the current call site. Sequential mode runs it
  /// inline, immediately. Inside a sharded window the call is recorded in
  /// the executing event's action log and replayed at the window barrier,
  /// single-threaded, in exact merged event order — the mechanism the MPI
  /// machine uses for state shared across shards (collective instance
  /// maps, global gauges, trace emission). Deferred bodies may call
  /// schedule_for/wake/charge/defer themselves. The body is held as an
  /// EventFn, so a closure that fits its inline buffer never allocates;
  /// on the sequential path it runs before this call returns.
  template <typename F>
  void defer(F&& fn) {
    if (sharded_ && in_window_phase()) {
      defer_window(EventFn(std::forward<F>(fn)));
      return;
    }
    // Sequential mode, merge phase, or pre-run: the call site is already
    // at its globally ordered position — run inline.
    fn();
  }

  // -- Sharded engine -------------------------------------------------------

  /// Select the engine: 1 (default) = sequential, > 1 = sharded across
  /// min(threads, nranks) worker threads. Must be called before anything
  /// is spawned or scheduled. Sharded runs additionally need a positive
  /// lookahead (limit_lookahead), which the MPI machine computes from the
  /// shard map.
  void set_threads(int threads);

  /// The sharded engine's shard map: shard s runs the ranks
  /// [shard_first(s), shard_first(s + 1)), for s in [0, shards()); the last
  /// shard ends at nranks(). shards() is 0 on the sequential engine.
  int shards() const { return static_cast<int>(shards_.size()); }
  Rank shard_first(int s) const {
    return std::min(s * ranks_per_shard_, nranks());
  }

  /// Lower (or set, if unset) the conservative lookahead window bound, in
  /// virtual ns. Every cross-shard schedule must land at least this far
  /// after the event that issues it, and every schedule made by a deferred
  /// body at least this far after the start of the window it came from.
  void limit_lookahead(Time d);
  /// The window bound installed so far (0: none).
  Time lookahead() const { return lookahead_; }

  /// Fall back to the sequential engine (e.g. the MPI machine with the
  /// reliable transport on, whose per-channel state every shard would
  /// write): warns and calls set_threads(1), so it has the same
  /// precondition — nothing spawned or scheduled yet. A no-op when the
  /// engine is already sequential.
  void require_sequential(const char* why);

  /// True when the sharded engine is selected (threads > 1 over > 1 rank).
  bool threaded() const { return sharded_; }

  /// True while the calling thread is executing a shard's window for this
  /// simulator — the phase in which shared state must not be touched and
  /// tracer calls must be deferred.
  bool in_window_phase() const;

  /// Park the currently running rank coroutine; some subsystem holding the
  /// returned token will later call wake(). Called from awaiter
  /// await_suspend paths.
  struct Parked {
    Rank rank = -1;
    std::coroutine_handle<> handle;
  };

  /// Resume a parked rank at absolute time t (>= the rank's clock at the
  /// time of parking; clamped up if in the past).
  void wake(const Parked& parked, Time t);

  /// Number of events executed so far (diagnostic / test hook).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Number of windows the sharded engine has run (0 on the sequential
  /// engine).
  std::uint64_t windows() const { return windows_; }

  /// Order-sensitive hash over the full (time, sequence) event trace
  /// executed so far. Two runs are bit-identical in virtual time iff their
  /// trace hashes agree; the determinism pin tests rely on this staying
  /// stable across event-queue implementations.
  std::uint64_t trace_hash() const { return trace_hash_; }

  /// True once the rank's main coroutine has returned.
  bool rank_done(Rank rank) const { return ranks_[rank].done; }

  /// Internal: called by RankTask final awaiter.
  void mark_done(Rank rank) { ranks_[rank].done = true; }

  // -- Fail-stop crashes ----------------------------------------------------

  /// Kill a rank: its coroutine is never resumed again (every pending or
  /// future wake() for it is suppressed) and it no longer counts as stuck
  /// when the queue drains. Models a fail-stop process crash; the MPI
  /// Machine layers ULFM-style failure notification on top.
  void kill(Rank rank);

  // -- Periodic run-loop hooks (checkpointing, telemetry sampling) ----------

  /// Invoke `hook(k * interval)` from the run loop just before executing
  /// the first event at virtual time >= k * interval, for every k >= 1.
  /// Unlike a self-rescheduling queue event this cannot keep the queue
  /// alive (which would mask deadlocks and crash detection). The hook must
  /// not schedule events. Returns the hook's id; interval <= 0 or a null
  /// hook throws std::invalid_argument. When several hooks are due before
  /// the same event they fire in ascending boundary time, ties broken by
  /// registration id — a deterministic order, so observers that only
  /// *read* state cannot perturb the event trace.
  using PeriodicHook = std::function<void(Time)>;
  int add_periodic_hook(Time interval, PeriodicHook hook);

  /// Events currently queued (diagnostic gauge for telemetry sampling).
  /// In sharded mode: the sum over shard queues and the outbox entries not
  /// yet drained — sampled at window barriers this equals the sequential
  /// engine's queue size exactly.
  std::size_t pending_events() const;

  /// The latest local clock over all ranks: the simulated "job time".
  Time max_rank_time() const;

  // -- Progress watchdog ----------------------------------------------------

  /// Abort the run (WatchdogError) if the next event's virtual time
  /// exceeds `t`. 0 disables the horizon (the default).
  void set_horizon(Time t) { horizon_ = t; }
  Time horizon() const { return horizon_; }

  /// Install a per-rank diagnostics callback consulted when building a
  /// stall report (deadlock or horizon breach). The MPI Machine installs
  /// one describing the parked operation; pass nullptr to clear.
  using StallReporter = std::function<std::string(Rank)>;
  void set_stall_reporter(StallReporter reporter) {
    reporter_ = std::move(reporter);
  }

  /// Human-readable per-rank progress dump for every unfinished rank:
  /// clock, last resume time, and the stall reporter's diagnostics.
  std::string progress_report() const;

 private:
  /// Record a pending exception thrown by a rank coroutine, if any.
  void note_rank_error(Rank rank);

  struct RankState {
    RankTask task;
    Time clock = 0;
    Time last_resume = 0;
    bool done = false;
    bool started = false;
    bool crashed = false;
  };

  struct Hook {
    Time interval = 0;
    Time next_at = 0;
    PeriodicHook fn;
  };

  /// Fire every registered hook whose boundary is <= t (ascending boundary
  /// time, ties by id).
  void fire_hooks(Time t);

  // The two steps both engines take (simulator.cpp), defined once so the
  // sharded engine's barriers and merge repeat the sequential loop exactly.
  /// The run reaches the next event's time t: fire every hook boundary it
  /// crosses, then throw WatchdogError past the horizon.
  inline void reach(Time t);
  /// The event at (t, seq) ran: advance now(), fold it into trace_hash()
  /// and count it.
  inline void count_event(Time t, std::uint64_t seq);
  [[noreturn]] void throw_watchdog(Time t) const;

  // -- Sharded engine internals (simulator.cpp) -----------------------------

  struct Shard;   // per-shard queue, outboxes, window execution records
  struct Engine;  // worker threads, window control block

  int shard_of(Rank rank) const { return rank / ranks_per_shard_; }
  void sharded_schedule(Rank rank, Time t, EventFn fn);
  /// Queue an event for `rank` on its shard under the next final sequence
  /// (before the run, or at merge, when the call is globally ordered).
  void push_final(Rank rank, Time t, EventFn fn);
  /// Slow path of defer(): append to the executing window's action log.
  void defer_window(EventFn fn);
  void run_sequential();
  void run_sharded();
  /// Move the entries addressed to `shard` in the previous window's
  /// outboxes into its queue, then run its share of the window.
  void run_window(Shard& shard);
  void merge_window();
  /// Merge the finished window (unless `first`), reach the next event's
  /// time, and publish the next window's bound into the control block — or
  /// mark the run done. Throws a failed window's error or the watchdog's.
  void prepare_window(bool first);
  void throw_if_stuck();

  std::vector<RankState> ranks_;
  std::exception_ptr error_;
  EventQueue queue_;
  Time now_ = 0;
  Time horizon_ = 0;
  StallReporter reporter_;
  std::vector<Hook> hooks_;
  int crashed_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t trace_hash_ = 0x9e3779b97f4a7c15ULL;

  /// Shard context of the window the calling thread is executing, if any.
  /// Routing state only — it never feeds virtual-time decisions, and it is
  /// null outside the data-parallel window phase.
  // mellint: allow(mutable-static) — thread-local routing context for the
  // sharded window phase; set/cleared around run_window on each worker,
  // never consulted across threads, no effect on virtual-time behaviour.
  static thread_local Shard* tls_window_;

  bool sharded_ = false;  // threads > 1 over > 1 rank, not downgraded
  Time lookahead_ = 0;
  std::uint64_t global_seq_ = 0;  // sharded mode's sequence counter
  /// Windows published so far; window k writes the outboxes of parity
  /// k & 1, and the next window drains them.
  std::uint64_t windows_ = 0;
  /// The shards, set by set_threads when sharded; ranks are split into
  /// blocks of ranks_per_shard_.
  std::vector<std::unique_ptr<Shard>> shards_;
  int ranks_per_shard_ = 1;
  std::unique_ptr<Engine> engine_;        // live during run_sharded only
  /// What window preparation threw, rethrown once the workers have joined.
  std::exception_ptr pending_throw_;
};

inline void RankTask::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) noexcept {
  auto& p = h.promise();
  if (p.sim != nullptr && p.rank >= 0) p.sim->mark_done(p.rank);
}

}  // namespace mel::sim
