#include "mel/match/driver.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "mel/match/verify.hpp"
#include "mel/mpi/machine.hpp"
#include "mel/util/rng.hpp"

namespace mel::match {

namespace {

/// Rank `lg`'s owned range of a global per-vertex output: where the rank
/// writes its results, so no per-rank copy is ever stitched together.
template <class T>
std::span<T> owned_range(std::vector<T>& global, const graph::LocalGraph& lg) {
  return std::span<T>(global).subspan(static_cast<std::size_t>(lg.vbegin),
                                      static_cast<std::size_t>(lg.nlocal()));
}

/// Snapshot of per-rank matching state taken by the periodic run-loop
/// hook. Only *mutually recorded* pairs in it are trusted by recovery.
struct Checkpoint {
  bool valid = false;
  sim::Time at = 0;
  std::vector<std::vector<std::int64_t>> state;  // per rank; may be empty
};

/// Outcome of one simulator pass, which either completes or aborts on a
/// rank failure (carrying both the last pre-crash checkpoint for rollback
/// and the survivors' live state at abort time for shrink-and-continue).
struct Attempt {
  Checkpoint ckpt;
  /// Survivor state read at abort time (ULFM shrink-and-continue):
  /// strictly fresher than any periodic checkpoint, valid even with
  /// checkpoint_ns = 0. Invalid when some surviving unfinished rank has no
  /// live matcher — the unrecoverable-frontier case that falls back to the
  /// checkpoint rollback path.
  Checkpoint live;
  RunResult result;  // after a failure, the matching holds finished ranks only
};

Attempt run_once(const graph::DistGraph& dg, Model model,
                 const RunConfig& cfg) {
  const int p = dg.nranks();
  Attempt a;
  a.ckpt.state.resize(p);
  // Each rank's LocalMatcher while it lives. Declared before the job: the
  // simulator destroys parked coroutine frames, and with them matchers
  // that clear their slot here.
  std::vector<const LocalMatcher*> live(p, nullptr);

  Job job(dg, cfg);
  sim::Simulator& simulator = job.simulator;
  mpi::Machine& machine = job.machine;

  // RMA window allocation (host side, like MPI_Win_allocate at startup).
  // RMA-PART shares the fence layout: data regions plus one cumulative
  // count slot per process neighbor.
  int window_id = -1;
  if (model == Model::kRma || model == Model::kRmaFence ||
      model == Model::kRmaPart) {
    std::vector<std::size_t> sizes(p);
    for (Rank r = 0; r < p; ++r) {
      sizes[r] = model == Model::kRma ? rma_window_bytes(dg.local(r))
                                      : rma_fence_window_bytes(dg.local(r));
    }
    window_id = machine.allocate_window(sizes);
  }
  // Staging-buffer accounting for the memory model.
  for (Rank r = 0; r < p; ++r) {
    machine.account_buffer(r, backend_buffer_bytes(model, dg.local(r)));
  }

  RunResult& result = a.result;
  std::vector<VertexId>& mate = result.matching.mate;
  mate.assign(static_cast<std::size_t>(dg.nverts()), kNullVertex);
  const auto owned = [&](Rank r) { return owned_range(mate, dg.local(r)); };
  // A rank that finished wrote its mates; one that is still running is
  // read from its live matcher.
  const auto state_of = [&](Rank r, std::vector<std::int64_t>& state) {
    std::span<const VertexId> mates;
    if (simulator.rank_done(r)) {
      mates = owned(r);
    } else if (live[r] != nullptr) {
      mates = live[r]->mates();
    } else {
      return false;
    }
    state.assign(mates.begin(), mates.end());
    return true;
  };

  if (cfg.ft.checkpoint_ns > 0) {
    // Periodic checkpoint from the run loop (never a queue event: a
    // self-rescheduling event would keep the queue alive forever and mask
    // both deadlock and crash detection). Once any rank has crashed the
    // hook stops, preserving the last pre-crash snapshot for rollback.
    simulator.add_periodic_hook(cfg.ft.checkpoint_ns, [&](sim::Time t) {
      if (machine.failed_count() > 0) return;
      for (Rank r = 0; r < p; ++r) state_of(r, a.ckpt.state[r]);
      a.ckpt.valid = true;
      a.ckpt.at = t;
      machine.trace_instant(-1, "checkpoint", t);
    });
  }

  std::vector<std::uint64_t> iterations(p, 0);
  job.run(
      [&](Rank r) {
        return match_rank(model, machine.comm(r), dg.local(r), dg.dist(),
                          window_id, owned(r), &iterations[r], &live[r]);
      },
      result);
  result.failed_ranks = machine.failed_ranks();
  const bool failed = !result.failed_ranks.empty();

  if (failed) {
    // Capture the surviving frontier for shrink-and-continue. Matched
    // pairs are final in the locally-dominant algorithm, so the state the
    // survivors hold *right now* is a checkpoint taken at the moment of
    // failure. Parked coroutine frames stay alive until the Simulator is
    // destroyed, so reading their matchers here is safe; a rank that
    // already returned (cleanly or by unwinding on RankFailedError) reads
    // from the output instead. A surviving, unfinished rank with no live
    // matcher leaves a frontier that cannot be reconstructed, so shrink
    // recovery is off the table.
    a.live.valid = true;
    a.live.at = simulator.max_rank_time();
    a.live.state.resize(p);
    for (Rank r = 0; r < p; ++r) {
      if (machine.rank_failed(r) || state_of(r, a.live.state[r])) continue;
      a.live.valid = false;
      a.live.state.clear();
      break;
    }
  }

  result.model = model;
  result.nranks = p;
  result.per_rank.reserve(p);
  for (Rank r = 0; r < p; ++r) {
    result.per_rank.push_back(machine.counters(r));
    result.comm_buffer_bytes.push_back(machine.buffer_bytes(r) +
                                       machine.peak_mailbox_bytes(r));
    result.state_bytes.push_back(dg.local(r).byte_size());
    result.peak_queued_msgs.push_back(machine.peak_mailbox_msgs(r));
    result.peak_inflight_msgs.push_back(machine.peak_inflight_sends(r));
    result.iterations = std::max(result.iterations, iterations[r]);
  }
  if (!failed) result.matching.cardinality = matching_cardinality(mate);
  return a;
}

sim::Simulator& configured(sim::Simulator& simulator, const RunConfig& cfg) {
  simulator.set_threads(cfg.threads);
  simulator.set_horizon(cfg.watchdog_horizon);
  return simulator;
}

}  // namespace

Job::Job(const graph::DistGraph& dg, const RunConfig& cfg)
    : simulator(dg.nranks()),
      machine(configured(simulator, cfg), net::Network(dg.nranks(), cfg.net),
              cfg.ft) {
  // Distributed-graph process topology from the ghost structure, checked
  // and indexed here, before anything runs.
  machine.set_topology(dg.process_topology());
  if (cfg.collect_matrix) machine.collect_matrix();
  if (cfg.tracer != nullptr) {
    machine.set_tracer(cfg.tracer);
    if (cfg.sample_interval_ns > 0) {
      machine.enable_sampling(cfg.sample_interval_ns);
    }
  }
}

void Job::run(const Program& program, RunStats& stats) {
  for (Rank r = 0; r < simulator.nranks(); ++r) {
    simulator.spawn(r, program(r));
  }
  try {
    simulator.run();
  } catch (const sim::RankFailure&) {
    // Survivors blocked on a dead peer; the caller recovers.
  } catch (const mpi::RankFailedError&) {
    // A survivor hit the dead rank fail-fast (ULFM MPI_ERR_PROC_FAILED).
  }
  if (machine.failed_count() == 0) machine.audit_or_throw();
  stats.time = simulator.max_rank_time();
  stats.sim_events = simulator.events_executed();
  stats.trace_hash = simulator.trace_hash();
  stats.totals = machine.total_counters();
  stats.matrix = machine.take_matrix();
}

bool supports_levels(Model m) { return m == Model::kNsr || m == Model::kNcl; }

std::int64_t run_levels(const char* algo, const graph::Csr& g, int nranks,
                        Model model, const RunConfig& cfg,
                        const LevelRank& rank,
                        std::vector<std::int64_t>& values, RunStats& stats) {
  if (!supports_levels(model)) {
    throw std::invalid_argument(std::string(algo) +
                                ": only NSR and NCL are supported");
  }
  if (!cfg.net.chaos.crashes.empty()) {
    throw std::invalid_argument(
        std::string(algo) +
        ": scheduled rank crashes need recovery, which only matching "
        "implements");
  }
  const graph::DistGraph dg(g, nranks);
  Job job(dg, cfg);
  values.assign(static_cast<std::size_t>(g.nverts()), -1);
  std::vector<std::int64_t> rounds(static_cast<std::size_t>(nranks), 0);
  job.run(
      [&](Rank r) {
        return rank(model, job.machine.comm(r), dg.local(r), dg.dist(),
                    owned_range(values, dg.local(r)), &rounds[r]);
      },
      stats);
  return *std::max_element(rounds.begin(), rounds.end());
}

RunResult run_match(const graph::DistGraph& dg, Model model,
                    const RunConfig& cfg) {
  if (!cfg.net.chaos.crashes.empty()) {
    throw std::invalid_argument(
        "run_match(DistGraph): scheduled rank crashes need checkpoint "
        "recovery over the global graph — use the Csr overload, which can "
        "rebuild the surviving subgraph");
  }
  Attempt a = run_once(dg, model, cfg);
  return std::move(a.result);
}

RunResult run_match(const graph::Csr& g, int nranks, Model model,
                    const RunConfig& cfg) {
  const graph::DistGraph dg(g, nranks);
  Attempt a = run_once(dg, model, cfg);
  const std::vector<Rank>& failed = a.result.failed_ranks;
  if (failed.empty()) {
    RunResult result = std::move(a.result);
    result.matching.weight = matching_weight(g, result.matching.mate);
    return result;
  }

  // -- Crash recovery: shrink-and-continue, or checkpoint rollback ----------
  //
  // Matched pairs are *final* in the locally-dominant algorithm (monotone
  // state), so any pair both endpoints recorded is durable — unless an
  // endpoint's owner died, which takes its vertices (and their matches)
  // out of the computation. The default (ft::Recovery::kShrink) sources
  // those pairs from the survivors' live state read at abort time and
  // resumes on the induced surviving subgraph with no rollback at all;
  // kRollback — or an unrecoverable live frontier — sources them from the
  // last periodic checkpoint instead. Either way, surviving vertices not
  // covered by a durable pair are re-matched from scratch on the induced
  // subgraph over the surviving ranks.
  const bool shrink =
      cfg.ft.recovery == ft::Recovery::kShrink && a.live.valid;
  const Checkpoint& base = shrink ? a.live : a.ckpt;
  const auto& dist = dg.dist();
  const VertexId n = g.nverts();
  std::vector<char> rank_failed(static_cast<std::size_t>(nranks), 0);
  for (const Rank r : failed) rank_failed[static_cast<std::size_t>(r)] = 1;

  std::vector<VertexId> rolled(static_cast<std::size_t>(n), kNullVertex);
  if (base.valid) {
    for (Rank r = 0; r < nranks; ++r) {
      const auto& st = base.state[r];
      const VertexId base_v = dist.begin(r);
      for (std::size_t i = 0; i < st.size(); ++i) {
        rolled[static_cast<std::size_t>(base_v) + i] =
            static_cast<VertexId>(st[i]);
      }
    }
  }
  std::vector<VertexId> durable(static_cast<std::size_t>(n), kNullVertex);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId m = rolled[v];
    if (m < 0 || m >= n || rolled[m] != v) continue;  // one-sided: not durable
    if (rank_failed[static_cast<std::size_t>(dist.owner(v))] != 0 ||
        rank_failed[static_cast<std::size_t>(dist.owner(m))] != 0) {
      continue;  // invalidated: incident to a failed rank
    }
    durable[v] = m;
  }

  std::vector<char> keep(static_cast<std::size_t>(n), 0);
  for (VertexId v = 0; v < n; ++v) {
    keep[v] = rank_failed[static_cast<std::size_t>(dist.owner(v))] == 0 &&
              durable[v] == kNullVertex;
  }
  std::vector<VertexId> old_ids;
  const graph::Csr sub = g.induced_subgraph(keep, &old_ids);
  const int p2 = nranks - static_cast<int>(failed.size());  // >= 1

  RunResult result = std::move(a.result);
  result.recoveries = 1;
  result.shrinks = shrink ? 1 : 0;
  result.matching.mate = std::move(durable);
  if (sub.nverts() > 0) {
    // Re-run the same backend on the survivors. Remaining scheduled
    // crashes are dropped — rank ids are remapped in the recovery run, so
    // a crash time/rank pair from the original schedule is meaningless.
    RunConfig cfg2 = cfg;
    cfg2.net.chaos.crashes.clear();
    const RunResult rec = run_match(sub, p2, model, cfg2);
    for (VertexId v2 = 0; v2 < sub.nverts(); ++v2) {
      const VertexId m2 = rec.matching.mate[v2];
      if (m2 != kNullVertex) {
        result.matching.mate[static_cast<std::size_t>(old_ids[v2])] =
            old_ids[static_cast<std::size_t>(m2)];
      }
    }
    // Recovery runs after the aborted attempt: job time and traffic add up.
    result.time += rec.time;
    result.sim_events += rec.sim_events;
    result.trace_hash = util::hash_combine(result.trace_hash, rec.trace_hash);
    result.iterations += rec.iterations;
    result.totals += rec.totals;
    result.recoveries += rec.recoveries;
    result.shrinks += rec.shrinks;
  }
  result.matching.cardinality = matching_cardinality(result.matching.mate);
  result.matching.weight = matching_weight(g, result.matching.mate);
  return result;
}

}  // namespace mel::match
