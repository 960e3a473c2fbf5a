// Distributed level-synchronized BFS on the same owner-computes substrate
// as the matcher.
//
// The paper contrasts matching's communication pattern with Graph500 BFS
// (Figs 2 and 11) and argues the substrate generalizes to any
// owner-computes graph algorithm; this module is that demonstration. Two
// backends are provided: Send-Recv (per-level counts + visit messages) and
// neighborhood collectives (per-level neighbor_alltoall(v)).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mel/graph/dist.hpp"
#include "mel/match/driver.hpp"  // RunConfig, Model
#include "mel/mpi/counters.hpp"

namespace mel::bfs {

using graph::Csr;
using graph::VertexId;

/// Distances from root (-1 = unreachable). Reference implementation.
std::vector<std::int64_t> serial_bfs(const Csr& g, VertexId root);

struct BfsResult {
  std::vector<std::int64_t> dist;
  sim::Time time = 0;
  std::int64_t levels = 0;
  /// Simulator (time, sequence) event-trace hash — the same determinism
  /// fingerprint run_match reports, so BFS runs can be pinned too.
  std::uint64_t trace_hash = 0;
  std::uint64_t sim_events = 0;
  mpi::CommCounters totals;
  std::unique_ptr<mpi::CommMatrix> matrix;
};

/// Run distributed BFS under the given communication model.
/// Supported models: kNsr and kNcl.
BfsResult run_bfs(const Csr& g, int nranks, VertexId root, match::Model model,
                  const match::RunConfig& cfg = {});

}  // namespace mel::bfs
