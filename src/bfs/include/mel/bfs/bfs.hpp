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
#include <vector>

#include "mel/graph/dist.hpp"
#include "mel/match/driver.hpp"  // Model, RunConfig, RunStats

namespace mel::bfs {

using graph::Csr;
using graph::VertexId;

/// Distances from root (-1 = unreachable). Reference implementation.
std::vector<std::int64_t> serial_bfs(const Csr& g, VertexId root);

/// A BFS run: the run statistics every algorithm reports (time, trace
/// hash, events, totals, matrix), plus distances and the level count.
struct BfsResult : match::RunStats {
  std::vector<std::int64_t> dist;
  std::int64_t levels = 0;
};

/// Run distributed BFS under the given communication model.
/// Supported models: kNsr and kNcl.
BfsResult run_bfs(const Csr& g, int nranks, VertexId root, match::Model model,
                  const match::RunConfig& cfg = {});

}  // namespace mel::bfs
