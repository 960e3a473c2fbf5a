// Host-side driver: the run shell every algorithm runs on (Job), the
// level-synchronous entry point BFS and coloring share (run_levels), and
// matching's own driver, which returns everything the paper's
// tables/figures report about a run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "mel/ft/params.hpp"
#include "mel/graph/dist.hpp"
#include "mel/match/backends.hpp"
#include "mel/match/serial.hpp"
#include "mel/mpi/counters.hpp"
#include "mel/mpi/machine.hpp"
#include "mel/net/network.hpp"
#include "mel/sim/task.hpp"

namespace mel::match {

struct RunConfig {
  net::Params net{};
  /// Record the (src, dst) communication matrix into RunStats::matrix.
  /// The Machine allocates it (O(p^2) memory) only when this asks for it.
  bool collect_matrix = false;
  /// Optional per-operation timeline sink (see obs::Recorder).
  mpi::Tracer* tracer = nullptr;
  /// Periodic gauge sampling (mailbox depth, in-flight bytes, event-queue
  /// size) into the tracer's counter tracks, every this many virtual ns.
  /// 0 disables; ignored without a tracer.
  sim::Time sample_interval_ns = 0;
  /// Abort with a per-rank diagnostic (sim::WatchdogError) if virtual
  /// time exceeds this horizon, in ns. 0 = unlimited.
  sim::Time watchdog_horizon = 0;
  /// Fault tolerance: reliable-transport knobs, the checkpoint interval
  /// (ft.checkpoint_ns) and the recovery strategy, handed to the Machine,
  /// which builds the transport when ft.enabled asks for it or the chaos
  /// config injects wire faults or schedules crashes.
  ft::Params ft{};
  /// Host threads for the sharded discrete-event engine: ranks are
  /// partitioned into that many shards, each advancing in conservative
  /// LogGP-lookahead windows. Results — trace_hash, matching, counters,
  /// metrics — are bit-identical at any thread count. Runs with the
  /// reliable transport on (ft.enabled, wire faults or crashes) fall back
  /// to the sequential engine; chaos timing knobs keep the sharded one
  /// (see mpi::Machine's constructor). 1 = sequential.
  int threads = 1;
};

/// What every run reports, whatever the algorithm; Job::run fills it.
struct RunStats {
  /// Simulated job time: max over ranks of final virtual clock.
  sim::Time time = 0;
  double seconds() const { return sim::to_seconds(time); }

  std::uint64_t sim_events = 0;

  /// Order-sensitive hash of the simulator's full (time, sequence) event
  /// trace (sim::Simulator::trace_hash); recovery passes fold in their own
  /// trace. Equal hashes across builds certify bit-identical virtual-time
  /// behaviour — the determinism pin tests assert on this.
  std::uint64_t trace_hash = 0;

  mpi::CommCounters totals;  // summed over ranks

  std::unique_ptr<mpi::CommMatrix> matrix;  // if collect_matrix
};

struct RunResult : RunStats {
  Model model = Model::kNsr;
  int nranks = 1;

  Matching matching;  // assembled global matching

  std::vector<mpi::CommCounters> per_rank;

  /// Memory model inputs, per rank: communication buffers (windows,
  /// staging, peak unexpected-message queue) and algorithm+graph state.
  std::vector<std::size_t> comm_buffer_bytes;
  std::vector<std::size_t> state_bytes;
  /// Per-rank peaks of queued incoming messages and in-flight sends
  /// (drives the MPI-internal per-message memory model, Table VIII).
  std::vector<std::uint64_t> peak_queued_msgs;
  std::vector<std::uint64_t> peak_inflight_msgs;

  std::uint64_t iterations = 0;  // max over ranks

  /// Ranks that failed (fail-stop crashes), in rank order; empty for a
  /// fault-free run. When non-empty the matching covers only vertices
  /// owned by surviving ranks, and `time`/`totals` span the aborted run
  /// plus every recovery pass.
  std::vector<Rank> failed_ranks;
  /// Recovery passes that ran after crashes (0 = none needed).
  int recoveries = 0;
  /// How many of those recoveries were ULFM shrink-and-continue (live
  /// survivor state, no rollback); recoveries - shrinks fell back to the
  /// checkpoint rollback path.
  int shrinks = 0;
};

/// The simulated machine an algorithm runs on, built from a RunConfig: the
/// engine (sharded at cfg.threads, with its watchdog), the audited machine
/// with its fault model (chaos and the reliable transport), the graph's
/// process topology, and the tracer. Matching, BFS and coloring all run on one,
/// the way a vertex-program engine runs any program: the algorithm
/// supplies only its per-rank task.
struct Job {
  Job(const graph::DistGraph& dg, const RunConfig& cfg);

  /// Rank r's task. It writes its owned vertices' results straight into
  /// the caller's global output, at the rank's vbegin.
  using Program = std::function<sim::RankTask(Rank r)>;

  /// Spawn program(r) on every rank and run the engine to the end. A rank
  /// failure (only matching schedules crashes) ends the run early and is
  /// left to the caller to recover from; the audit runs only when no rank
  /// failed. Fills `stats` either way.
  void run(const Program& program, RunStats& stats);

  sim::Simulator simulator;
  mpi::Machine machine;
};

/// True for the models the level-synchronous algorithms (BFS, coloring)
/// run on: NSR and NCL.
bool supports_levels(Model m);

/// One rank of a level-synchronous algorithm: it writes one value per owned
/// vertex into `owned` (preset to -1) and its round count into `*rounds`.
using LevelRank = std::function<sim::RankTask(
    Model model, mpi::Comm& comm, const graph::LocalGraph& lg,
    const graph::Distribution& dist, std::span<std::int64_t> owned,
    std::int64_t* rounds)>;

/// Run a level-synchronous algorithm (`algo` names it in errors) on `g`
/// over `nranks` ranks. Only the supports_levels models run it, and no
/// scheduled crashes, which only matching recovers from. Fills `values`
/// with one value per vertex and `stats`; returns the most rounds any rank
/// ran.
std::int64_t run_levels(const char* algo, const graph::Csr& g, int nranks,
                        Model model, const RunConfig& cfg,
                        const LevelRank& rank,
                        std::vector<std::int64_t>& values, RunStats& stats);

/// Run one model on a prebuilt distribution.
RunResult run_match(const graph::DistGraph& dg, Model model,
                    const RunConfig& cfg = {});

/// Convenience: distribute `g` over `nranks` and run.
RunResult run_match(const graph::Csr& g, int nranks, Model model,
                    const RunConfig& cfg = {});

}  // namespace mel::match
