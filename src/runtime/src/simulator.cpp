#include "mel/sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <barrier>
#include <cstdio>
#include <limits>
#include <sstream>
#include <thread>

#ifdef __GLIBC__
#include <malloc.h>  // malloc_trim
#endif

#include "mel/prof/prof.hpp"
#include "mel/util/rng.hpp"

namespace mel::sim {

namespace {
std::size_t checked_nranks(int nranks) {
  if (nranks <= 0) throw std::invalid_argument("Simulator: nranks must be > 0");
  return static_cast<std::size_t>(nranks);
}

/// Intra-window pushes carry provisional sequence numbers from this base —
/// above any real sequence, so at equal time they order after every event
/// queued before the window, exactly where the sequential engine's counter
/// would have placed them. They are resolved to final sequences at merge.
constexpr std::uint64_t kProvBase = 1ULL << 63;

/// A window's storage (action log, deferred bodies, execution records,
/// outboxes) keeps its capacity from window to window, unless a window
/// grew one vector past this many bytes: then it is handed back once that
/// window's entries are done with. On NSR matching of a 512-rank RGG
/// (|V|=120,000) at 4 threads, the first window runs every rank from its
/// spawn to its first wait: 290,312 isends, each a deferred in-flight
/// gauge update and a delivery, up to 5.7 MiB of deferred bodies and
/// 6.8 MiB of outbox entries on one shard. Kept, that storage would stay
/// resident for the rest of the run. In the 4,340 windows after it, the
/// largest vector on any shard held 0.86 MiB (p99.9 0.78 MiB), so no
/// steady window hands its storage back; at 256 KiB, 3.3% of them did.
constexpr std::size_t kMaxKeptBytes = std::size_t{1} << 21;

/// Empty `v` for the next window, handing its storage back if a burst grew
/// it past kMaxKeptBytes. Returns the bytes handed back.
template <class T>
std::size_t reset_storage(std::vector<T>& v) {
  const std::size_t bytes = v.capacity() * sizeof(T);
  if (bytes > kMaxKeptBytes) {
    std::vector<T>().swap(v);
    return bytes;
  }
  v.clear();
  return 0;
}

/// Handing back an outbox of at least this many bytes also returns the
/// freed pages to the system, before the queue grows into the next one.
constexpr std::size_t kTrimBytes = std::size_t{1} << 22;

/// Return the pages of freed heap blocks to the system. glibc keeps a
/// freed block below its dynamic mmap threshold, which rises to the size
/// of the largest block freed so far (up to 32 MiB), in its heap: resident,
/// and of no use to a queue that grows by one large block. So the outboxes
/// of RMA's put window on sbp p=512 (2.94M puts) stayed resident while the
/// destination queues grew, and four threads peaked 290-320 MB above one
/// thread instead of 159-201 MB. Trimming once per drain, after all of a
/// destination's outboxes, peaked at 1259-1338 MB against 1192-1213 MB
/// for one trim per outbox; the 24 trims of that run take 0.04-0.06 s.
void release_freed_pages() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}
}  // namespace

// -- Sharded engine data structures ------------------------------------------

/// One shard: the event queue for a contiguous block of ranks, its
/// outboxes, plus the window-execution record its worker thread builds.
/// Everything in here is owned by the shard's thread during a window and
/// by the main (merging) thread between the window barriers, except the
/// previous window's outboxes, which each destination drains at the start
/// of the next window.
struct Simulator::Shard {
  /// A push for another shard, or past the window: its closure waits here
  /// until the destination shard moves it into its queue.
  struct Entry {
    Time t = 0;
    EventFn fn;
  };
  /// The pushes of one window for one destination shard, in push order,
  /// and the final sequence the merge gave each.
  struct Outbox {
    std::vector<Entry> entries;
    std::vector<std::uint64_t> seqs;
  };

  /// The window's side effects, one code per call in execution order,
  /// replayed at merge in global (time, sequence) order:
  ///   d < kLocal — a push into outbox d: the merge gives it its final
  ///       sequence;
  ///   kLocal — a push into this shard's own queue inside the window,
  ///       already enqueued under a provisional sequence: the merge gives
  ///       it its final sequence, so the trace hash sees the real one;
  ///   kDefer — the next globally-ordered callback in `defers` (shared
  ///       MPI-machine state, trace emission), run single-threaded at
  ///       merge.
  static constexpr std::uint32_t kLocal = ~std::uint32_t{0} - 1;
  static constexpr std::uint32_t kDefer = ~std::uint32_t{0};
  static constexpr Time kNever = std::numeric_limits<Time>::max();

  /// One executed event: its queue key plus its slice of the action log.
  struct Exec {
    Time t;
    std::uint64_t key;  // final sequence, or provisional (>= kProvBase)
    std::uint32_t actions_begin;
    std::uint32_t actions_end;
  };

  EventQueue queue;
  std::vector<std::uint32_t> actions;
  std::vector<EventFn> defers;
  std::vector<Exec> execs;
  /// Final sequence of each provisional push of the window being merged,
  /// indexed by (prov - kProvBase); filled in shard-stream order.
  std::vector<std::uint64_t> prov_final;
  std::uint64_t prov_next = 0;  // provisionals handed out this window
  std::size_t defers_run = 0;   // deferred bodies the merge has run
  /// out[p][d]: this shard's pushes for shard d in its windows of parity p.
  std::array<std::vector<Outbox>, 2> out;
  /// Time of the earliest push into this window's outboxes.
  Time out_min = kNever;
  int id = 0;
  Time w_end = 0;  // exclusive bound of the window being executed
  std::exception_ptr failure;
  Simulator* sim = nullptr;
};

/// Shared control block of one sharded run. The main thread writes it
/// strictly between the window barriers; workers read it strictly after
/// the start barrier — the barriers are the synchronization.
struct Simulator::Engine {
  Time w_end = 0;
  bool done = false;

  /// Per-shard cursor of the K-way merge, reused so a window allocates
  /// nothing.
  std::vector<std::size_t> head;

  /// Shards 1..nshards-1 (the main thread drives shard 0). Joined before
  /// the engine is destroyed.
  // mellint: allow(mutable-static) — the worker pool itself; every other
  // member of this block is written by the main thread strictly between
  // the end and start barriers and only read by these workers between
  // start and end, so the barrier rendezvous is the synchronization.
  std::vector<std::thread> workers;
};

// mellint: allow(mutable-static) — routing context only (see the
// declaration): set/cleared around each worker's run_window, never read
// across threads, and it never feeds a virtual-time decision.
thread_local Simulator::Shard* Simulator::tls_window_ = nullptr;

Simulator::Simulator(int nranks) : ranks_(checked_nranks(nranks)) {}

Simulator::~Simulator() = default;

void Simulator::spawn(Rank rank, RankTask task) {
  if (rank < 0 || rank >= nranks()) {
    throw std::out_of_range("Simulator::spawn: bad rank");
  }
  auto& state = ranks_[rank];
  if (state.task.valid()) {
    throw std::logic_error("Simulator::spawn: rank already spawned");
  }
  auto& promise = task.handle().promise();
  promise.sim = this;
  promise.rank = rank;
  state.task = std::move(task);
  // Kick the coroutine off at virtual time 0, on the rank's own shard.
  schedule_for(rank, 0, [this, rank] {
    auto& st = ranks_[rank];
    if (st.crashed) return;
    st.started = true;
    st.clock = std::max<Time>(st.clock, 0);
    st.last_resume = 0;
    st.task.handle().resume();
    note_rank_error(rank);
  });
}

void Simulator::wake(const Parked& parked, Time t) {
  // The wake time reaches the closure as the event's own timestamp — no
  // second capture of t, and the closure stays within EventFn's inline
  // buffer.
  schedule_for(parked.rank, t, [this, parked](Time at) {
    auto& st = ranks_[parked.rank];
    // A killed rank is never resumed: its coroutine stays frozen at the
    // suspension point forever (fail-stop), frame destroyed at shutdown.
    if (st.crashed) return;
    st.clock = std::max(st.clock, at);
    st.last_resume = at;
    parked.handle.resume();
    note_rank_error(parked.rank);
  });
}

void Simulator::kill(Rank rank) {
  if (rank < 0 || rank >= nranks()) {
    throw std::out_of_range("Simulator::kill: bad rank");
  }
  auto& st = ranks_[rank];
  if (st.crashed || st.done) return;
  st.crashed = true;
  ++crashed_;
}

int Simulator::add_periodic_hook(Time interval, PeriodicHook hook) {
  if (interval <= 0 || !hook) {
    throw std::invalid_argument(
        "Simulator::add_periodic_hook: need a positive interval and a "
        "non-null hook");
  }
  hooks_.push_back(Hook{interval, interval, std::move(hook)});
  return static_cast<int>(hooks_.size()) - 1;
}

void Simulator::fire_hooks(Time t) {
  // Fire every due boundary across all hooks in ascending (boundary, id)
  // order. Hook counts are tiny (checkpointing + sampling), so a linear
  // scan per firing beats maintaining a heap.
  for (;;) {
    int best = -1;
    for (std::size_t i = 0; i < hooks_.size(); ++i) {
      const Hook& h = hooks_[i];
      if (t < h.next_at) continue;
      if (best < 0 || h.next_at < hooks_[best].next_at) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) return;
    const Time at = hooks_[best].next_at;
    hooks_[best].next_at += hooks_[best].interval;
    hooks_[best].fn(at);
  }
}

void Simulator::throw_watchdog(Time t) const {
  std::ostringstream os;
  os << "watchdog: next event at t=" << t
     << "ns exceeds the virtual-time horizon of " << horizon_ << "ns\n"
     << progress_report();
  throw WatchdogError(os.str());
}

inline void Simulator::reach(Time t) {
  if (!hooks_.empty()) fire_hooks(t);
  if (horizon_ > 0 && t > horizon_) throw_watchdog(t);
}

inline void Simulator::count_event(Time t, std::uint64_t seq) {
  now_ = std::max(now_, t);
  trace_hash_ = util::hash_combine(
      trace_hash_, util::hash_combine(static_cast<std::uint64_t>(t), seq));
  ++events_executed_;
}

void Simulator::note_rank_error(Rank rank) {
  const auto& task = ranks_[rank].task;
  if (!task.valid() || !task.handle().promise().error) return;
  Shard* ctx = tls_window_;
  if (ctx != nullptr && ctx->sim == this) {
    // Shard-local capture: error_ is shared, and in a failing window the
    // merge is skipped anyway. The first failure (by shard id) wins.
    if (!ctx->failure) ctx->failure = task.handle().promise().error;
    return;
  }
  if (!error_) error_ = task.handle().promise().error;
}

// -- Sharded mode configuration ----------------------------------------------

void Simulator::set_threads(int threads) {
  if (threads < 1) {
    throw std::invalid_argument("Simulator::set_threads: threads must be >= 1");
  }
  if (engine_ != nullptr || queue_.seqs_issued() > 0 || global_seq_ > 0) {
    throw std::logic_error(
        "Simulator: the engine (set_threads, require_sequential) is fixed "
        "once anything is spawned or scheduled");
  }
  sharded_ = threads > 1 && nranks() > 1;
  shards_.clear();
  if (!sharded_) return;
  const int nshards = std::min(threads, nranks());
  ranks_per_shard_ = (nranks() + nshards - 1) / nshards;
  for (int i = 0; i < nshards; ++i) {
    auto s = std::make_unique<Shard>();
    s->id = i;
    s->sim = this;
    for (auto& boxes : s->out) boxes.resize(static_cast<std::size_t>(nshards));
    shards_.push_back(std::move(s));
  }
}

void Simulator::limit_lookahead(Time d) {
  if (d <= 0) {
    throw std::invalid_argument(
        "Simulator::limit_lookahead: need a positive delay");
  }
  lookahead_ = lookahead_ > 0 ? std::min(lookahead_, d) : d;
}

void Simulator::require_sequential(const char* why) {
  if (!sharded_) return;
  set_threads(1);
  std::fprintf(stderr,
               "[mel WARN ] sharded engine disabled (%s): running sequential\n",
               why);
}

bool Simulator::in_window_phase() const {
  const Shard* ctx = tls_window_;
  return ctx != nullptr && ctx->sim == this;
}

std::size_t Simulator::pending_events() const {
  std::size_t n = queue_.size();
  for (const auto& s : shards_) {
    n += s->queue.size();
    // The last window's pushes wait in its outboxes until the next window.
    if (windows_ > 0) {
      for (const auto& box : s->out[(windows_ - 1) & 1]) {
        n += box.entries.size();
      }
    }
  }
  return n;
}

void Simulator::sharded_schedule(Rank rank, Time t, EventFn fn) {
  Shard* ctx = tls_window_;
  if (ctx != nullptr && ctx->sim == this) {
    const int dst = shard_of(rank);
    if (t < ctx->w_end) {
      if (dst != ctx->id) {
        // The destination may already have run past t.
        std::ostringstream os;
        os << "Simulator: a cross-shard event for rank " << rank << " at t="
           << t << "ns lands before the window end t=" << ctx->w_end
           << "ns; the lookahead of " << lookahead_
           << "ns exceeds the shortest cross-shard delay";
        throw std::logic_error(os.str());
      }
      // Same shard, inside the window: execute it this window under a
      // provisional sequence (same-time wake chains depend on this); the
      // merge maps it back to the sequence the sequential engine would
      // have assigned at this very call.
      ctx->actions.push_back(Shard::kLocal);
      ctx->queue.push_keyed(t, kProvBase + ctx->prov_next++, std::move(fn));
      return;
    }
    // For another shard (at or past the window end, by the lookahead
    // bound) or past this window: the destination moves it into its queue
    // at the start of the next window, under the sequence the merge gives
    // it.
    ctx->actions.push_back(static_cast<std::uint32_t>(dst));
    Shard::Entry& e = ctx->out[(windows_ - 1) & 1][static_cast<std::size_t>(dst)]
                          .entries.emplace_back();
    e.t = t;
    e.fn = std::move(fn);
    ctx->out_min = std::min(ctx->out_min, t);
    return;
  }
  // Before the run, or from a deferred action replayed at merge: the call
  // is globally ordered already, so the sequence is final. After a window
  // every queue holds only events at or past its end, so one placed inside
  // the window just merged would run after later-timed events.
  if (engine_ != nullptr && t < engine_->w_end) {
    std::ostringstream os;
    os << "Simulator: a merge-time event for rank " << rank << " at t=" << t
       << "ns lands before the end t=" << engine_->w_end
       << "ns of the window it was scheduled from";
    throw std::logic_error(os.str());
  }
  push_final(rank, t, std::move(fn));
}

void Simulator::push_final(Rank rank, Time t, EventFn fn) {
  shards_[shard_of(rank)]->queue.push_keyed(t, global_seq_++, std::move(fn));
}

void Simulator::defer_window(EventFn fn) {
  Shard& s = *tls_window_;
  s.actions.push_back(Shard::kDefer);
  s.defers.push_back(std::move(fn));
}

// -- Run loops ---------------------------------------------------------------

void Simulator::run() {
  // Inclusive wall time of the whole drive loop; subsystem sections
  // (P2P, RMA, ...) nest inside it.
  const prof::ScopedTimer pt(prof::Section::kEventLoop);
  if (sharded_) {
    run_sharded();
  } else {
    run_sequential();
  }
}

void Simulator::run_sequential() {
  while (!queue_.empty()) {
    const auto& top = queue_.peek();
    const Time t = top.t;
    // Hooks must not schedule events, so the peeked event stays next.
    reach(t);
    count_event(t, top.seq);
    EventQueue::Event ev = queue_.pop();
    ev.fn(t);
    // Propagate rank exceptions eagerly so a failing assertion inside a
    // rank coroutine surfaces at the right virtual time.
    if (error_) std::rethrow_exception(error_);
  }
  throw_if_stuck();
}

void Simulator::run_window(Shard& s) {
  // The previous window's outboxes are this window's inbox. Each is handed
  // back as soon as it is drained, so a burst is not held twice.
  const std::size_t inbox = windows_ & 1;
  for (const auto& src : shards_) {
    Shard::Outbox& box = src->out[inbox][static_cast<std::size_t>(s.id)];
    for (std::size_t i = 0; i < box.entries.size(); ++i) {
      s.queue.push_keyed(box.entries[i].t, box.seqs[i],
                         std::move(box.entries[i].fn));
    }
    if (reset_storage(box.entries) + reset_storage(box.seqs) >= kTrimBytes) {
      release_freed_pages();
    }
  }
  s.out_min = Shard::kNever;
  tls_window_ = &s;
  try {
    while (!s.queue.empty()) {
      const EventQueue::Key k = s.queue.peek();
      if (k.t >= s.w_end) break;
      Shard::Exec ex{k.t, k.seq,
                     static_cast<std::uint32_t>(s.actions.size()), 0};
      EventQueue::Event ev = s.queue.pop();
      ev.fn(k.t);
      ex.actions_end = static_cast<std::uint32_t>(s.actions.size());
      s.execs.push_back(ex);
      if (s.failure) break;
    }
  } catch (...) {
    if (!s.failure) s.failure = std::current_exception();
  }
  tls_window_ = nullptr;
}

void Simulator::merge_window() {
  // K-way merge of the shard execution streams by (time, final sequence).
  // A provisional key's final sequence is always resolvable when its event
  // reaches the head: the push that created it is an earlier entry of the
  // same shard's stream, so its kLocal action has already run. The workers
  // wait at the start barrier, so deferred bodies may push into any shard's
  // queue.
  const std::size_t parity = (windows_ - 1) & 1;
  auto& head = engine_->head;
  head.assign(shards_.size(), 0);
  auto resolved = [](const Shard& s, const Shard::Exec& ex) {
    return ex.key >= kProvBase
               ? s.prov_final[static_cast<std::size_t>(ex.key - kProvBase)]
               : ex.key;
  };
  for (;;) {
    int best = -1;
    Time bt = 0;
    std::uint64_t bs = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const Shard& s = *shards_[i];
      if (head[i] == s.execs.size()) continue;
      const Shard::Exec& ex = s.execs[head[i]];
      const std::uint64_t fs = resolved(s, ex);
      if (best < 0 || ex.t < bt || (ex.t == bt && fs < bs)) {
        best = static_cast<int>(i);
        bt = ex.t;
        bs = fs;
      }
    }
    if (best < 0) break;
    Shard& s = *shards_[best];
    const Shard::Exec& ex = s.execs[head[best]++];
    count_event(ex.t, bs);
    for (std::uint32_t a = ex.actions_begin; a != ex.actions_end; ++a) {
      const std::uint32_t code = s.actions[a];
      if (code == Shard::kDefer) {
        s.defers[s.defers_run++](ex.t);
      } else if (code == Shard::kLocal) {
        s.prov_final.push_back(global_seq_++);
      } else {
        s.out[parity][code].seqs.push_back(global_seq_++);
      }
    }
  }
  for (auto& sp : shards_) {
    reset_storage(sp->actions);
    reset_storage(sp->defers);
    reset_storage(sp->execs);
    reset_storage(sp->prov_final);
    sp->defers_run = 0;
    sp->prov_next = 0;
  }
}

void Simulator::prepare_window(bool first) {
  auto& e = *engine_;
  if (!first) {
    for (const auto& s : shards_) {
      // Skip the merge: the window is torn anyway and the exception
      // preempts every observable result.
      if (s->failure) std::rethrow_exception(s->failure);
    }
    merge_window();
  }
  // The next event is the earliest queued one or the earliest push the
  // last window left in an outbox.
  Time w = Shard::kNever;
  for (const auto& s : shards_) {
    if (!s->queue.empty()) w = std::min(w, s->queue.peek().t);
    w = std::min(w, s->out_min);
  }
  if (w == Shard::kNever) {
    e.done = true;
    return;
  }
  // The sequential loop's step: no events exist between the previous
  // window's end and w, so every hook fires just before the first event at
  // or past its boundary.
  reach(w);
  Time w_end = w + lookahead_;
  // Cap the window so no hook boundary and no horizon crossing falls
  // strictly inside it — both must be window-global decisions taken at a
  // barrier, at the exact virtual boundary the sequential engine uses.
  for (const Hook& h : hooks_) {
    if (h.next_at < w_end) w_end = h.next_at;
  }
  if (horizon_ > 0 && horizon_ + 1 < w_end) w_end = horizon_ + 1;
  e.w_end = w_end;
  for (auto& s : shards_) s->w_end = w_end;
  ++windows_;
}

void Simulator::run_sharded() {
  if (lookahead_ <= 0) {
    throw std::logic_error(
        "Simulator: sharded mode needs a positive lookahead "
        "(limit_lookahead), which the MPI machine computes from the shard "
        "map");
  }
  engine_ = std::make_unique<Engine>();
  auto& e = *engine_;
  const int nshards = static_cast<int>(shards_.size());
  std::barrier start_bar(nshards);
  std::barrier end_bar(nshards);
  // A throw out of window preparation (a failed window, the watchdog, or a
  // merged deferred action such as a collective misuse error) must not
  // escape while workers wait at the start barrier — park it and let the
  // loop wind down first.
  try {
    prepare_window(true);
  } catch (...) {
    pending_throw_ = std::current_exception();
    e.done = true;
  }
  e.workers.reserve(static_cast<std::size_t>(nshards) - 1);
  for (int i = 1; i < nshards; ++i) {
    e.workers.emplace_back([this, i, &start_bar, &end_bar] {
      for (;;) {
        start_bar.arrive_and_wait();
        if (engine_->done) return;
        run_window(*shards_[i]);
        end_bar.arrive_and_wait();
      }
    });
  }
  for (;;) {
    start_bar.arrive_and_wait();
    if (e.done) break;
    run_window(*shards_[0]);
    end_bar.arrive_and_wait();
    try {
      prepare_window(false);
    } catch (...) {
      pending_throw_ = std::current_exception();
      e.done = true;
    }
  }
  for (auto& w : e.workers) w.join();
  engine_.reset();
  if (pending_throw_) {
    std::exception_ptr p = pending_throw_;
    pending_throw_ = nullptr;
    std::rethrow_exception(p);
  }
  throw_if_stuck();
}

void Simulator::throw_if_stuck() {
  int stuck = 0;
  for (Rank r = 0; r < nranks(); ++r) {
    if (ranks_[r].task.valid() && !ranks_[r].done && !ranks_[r].crashed) {
      ++stuck;
    }
  }
  if (stuck == 0) return;
  std::ostringstream os;
  if (crashed_ > 0) {
    // Survivors are blocked on a dead peer: that is a rank failure to
    // recover from, not a protocol deadlock.
    os << "rank failure at t=" << now_ << "ns: " << crashed_
       << " rank(s) crashed and the event queue drained with " << stuck
       << " survivor(s) still suspended\n"
       << progress_report();
    throw RankFailure(os.str());
  }
  os << "simulation deadlock at t=" << now_
     << "ns: event queue drained with " << stuck << " rank(s) stuck\n"
     << progress_report();
  throw DeadlockError(os.str());
}

std::string Simulator::progress_report() const {
  std::ostringstream os;
  int reported = 0;
  for (Rank r = 0; r < nranks(); ++r) {
    const auto& st = ranks_[r];
    if (st.done) continue;
    if (++reported > 64) {
      os << "  ... (" << nranks() << " ranks total)\n";
      break;
    }
    os << "  rank " << r << ": clock=" << st.clock << "ns last_resume="
       << st.last_resume << "ns";
    if (st.crashed) os << " CRASHED";
    if (!st.task.valid()) {
      os << " never_spawned";
    } else if (!st.started) {
      os << " never_started";
    }
    if (reporter_) os << ' ' << reporter_(r);
    os << '\n';
  }
  return os.str();
}

Time Simulator::max_rank_time() const {
  Time t = 0;
  for (const auto& st : ranks_) t = std::max(t, st.clock);
  return t;
}

}  // namespace mel::sim
