#include "mel/bfs/bfs.hpp"

#include <deque>
#include <set>
#include <span>

#include "mel/match/exchange.hpp"

namespace mel::bfs {

using graph::Distribution;
using graph::LocalGraph;
using match::Model;

std::vector<std::int64_t> serial_bfs(const Csr& g, VertexId root) {
  std::vector<std::int64_t> dist(static_cast<std::size_t>(g.nverts()), -1);
  if (root < 0 || root >= g.nverts()) return dist;
  std::deque<VertexId> queue{root};
  dist[root] = 0;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    for (const graph::Adj& a : g.neighbors(v)) {
      if (dist[a.to] < 0) {
        dist[a.to] = dist[v] + 1;
        queue.push_back(a.to);
      }
    }
  }
  return dist;
}

namespace {

/// One rank's level-synchronous BFS: expand the frontier, relaxing owned
/// neighbors locally and pushing each ghost (once per level) to its owner,
/// then one exchange round and a global count of the next frontier. `dist`
/// holds the owned vertices' distances, -1 until reached.
sim::RankTask bfs_rank(Model model, mpi::Comm& comm, const LocalGraph& lg,
                       const Distribution& dist_map, VertexId root,
                       std::span<std::int64_t> dist, std::int64_t* levels_out) {
  // Send-Recv sends each neighbor's visits right behind its count.
  const auto ex =
      match::make_level_exchange<VertexId>(model, comm, lg, /*grouped=*/true);
  std::vector<VertexId> frontier;  // owned, discovered last level
  std::vector<VertexId> next;      // owned, discovered this level
  std::int64_t level = 0;
  const auto relax = [&](VertexId v) {
    const VertexId lv = v - lg.vbegin;
    if (dist[lv] < 0) {
      dist[lv] = level + 1;
      next.push_back(v);
    }
  };
  match::Sink<VertexId> sink{relax};
  if (lg.owns(root)) {
    dist[root - lg.vbegin] = 0;
    frontier.push_back(root);
  }

  for (;;) {
    // Membership-only dedup, but ordered anyway: determinism discipline
    // (mellint R1) costs nothing here and survives future iteration.
    std::set<VertexId> sent;
    for (const VertexId v : frontier) {
      const VertexId lv = v - lg.vbegin;
      comm.compute_edges(lg.offsets[lv + 1] - lg.offsets[lv]);
      for (graph::EdgeId i = lg.offsets[lv]; i < lg.offsets[lv + 1]; ++i) {
        const VertexId u = lg.adj[i].to;
        if (lg.owns(u)) {
          relax(u);
        } else if (sent.insert(u).second) {
          ex->push(dist_map.owner(u), u);
        }
      }
    }
    co_await ex->round(sink);
    // Level-synchronous exit: global size of the next frontier.
    const std::int64_t global_next =
        co_await comm.allreduce_sum(static_cast<std::int64_t>(next.size()));
    frontier = std::move(next);
    next.clear();
    comm.obs_iteration(static_cast<std::uint64_t>(++level), global_next);
    if (global_next == 0) break;
  }
  *levels_out = level;
}

}  // namespace

BfsResult run_bfs(const Csr& g, int nranks, VertexId root, Model model,
                  const match::RunConfig& cfg) {
  BfsResult result;
  result.levels = match::run_levels(
      "run_bfs", g, nranks, model, cfg,
      [root](Model m, mpi::Comm& comm, const LocalGraph& lg,
             const Distribution& dist, std::span<std::int64_t> owned,
             std::int64_t* levels) {
        return bfs_rank(m, comm, lg, dist, root, owned, levels);
      },
      result.dist, result);
  return result;
}

}  // namespace mel::bfs
