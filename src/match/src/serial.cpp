#include "mel/match/serial.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace mel::match {

namespace {

/// Each row's entries in descending edge order, as indices into the
/// graph's own adjacency array, with monotone "next live candidate"
/// pointers.
struct SortedRows {
  std::span<const EdgeId> offsets;
  std::span<const graph::Adj> adj;
  std::vector<std::uint32_t> order;  // rows_by_edge_key of g
  std::vector<EdgeId> cursor;        // per-vertex scan position in order

  explicit SortedRows(const Csr& g)
      : offsets(g.offsets()),
        adj(g.adjacency()),
        order(rows_by_edge_key(0, offsets, adj, "serial_half_approx")),
        cursor(offsets.begin(), offsets.end() - 1) {}

  /// Heaviest still-unmatched neighbor of v with positive weight, or null.
  VertexId next_candidate(VertexId v, const std::vector<VertexId>& mate) {
    EdgeId& c = cursor[v];
    while (c < offsets[v + 1]) {
      const graph::Adj& a = adj[order[c]];
      if (a.w <= 0) return kNullVertex;  // sorted: the rest are no better
      if (mate[a.to] == kNullVertex) return a.to;
      ++c;  // permanently matched: skip forever
    }
    return kNullVertex;
  }
};

void finalize(const Csr& g, Matching& m) {
  m.weight = 0.0;
  m.cardinality = 0;
  for (VertexId v = 0; v < g.nverts(); ++v) {
    const VertexId u = m.mate[v];
    if (u != kNullVertex && u > v) {
      for (const graph::Adj& a : g.neighbors(v)) {
        if (a.to == u) {
          m.weight += a.w;
          break;
        }
      }
      ++m.cardinality;
    }
  }
}

}  // namespace

Matching serial_half_approx(const Csr& g) {
  const VertexId n = g.nverts();
  Matching m;
  m.mate.assign(static_cast<std::size_t>(n), kNullVertex);
  SortedRows sorted(g);
  std::vector<VertexId> cand(static_cast<std::size_t>(n), kNullVertex);

  std::vector<VertexId> matched_stack;

  // Phase 1 (Algorithm 2 lines 2-5): point every vertex at its heaviest
  // available neighbor; mutual pointers become matched edges.
  auto find_mate = [&](VertexId v) {
    if (m.mate[v] != kNullVertex) return;
    const VertexId u = sorted.next_candidate(v, m.mate);
    cand[v] = u;
    if (u != kNullVertex && cand[u] == v) {
      m.mate[v] = u;
      m.mate[u] = v;
      matched_stack.push_back(v);
      matched_stack.push_back(u);
    }
  };

  for (VertexId v = 0; v < n; ++v) find_mate(v);

  // Phase 2 (lines 6-13): vertices that pointed at a now-matched vertex
  // recompute their candidate.
  while (!matched_stack.empty()) {
    const VertexId v = matched_stack.back();
    matched_stack.pop_back();
    for (const graph::Adj& a : g.neighbors(v)) {
      const VertexId x = a.to;
      if (m.mate[x] == kNullVertex && cand[x] == v) find_mate(x);
    }
  }

  finalize(g, m);
  return m;
}

Matching greedy_matching(const Csr& g) {
  auto edges = g.to_edges();
  std::sort(edges.begin(), edges.end(),
            [](const graph::Edge& a, const graph::Edge& b) {
              return edge_key(b.u, b.v, b.w) < edge_key(a.u, a.v, a.w);
            });
  Matching m;
  m.mate.assign(static_cast<std::size_t>(g.nverts()), kNullVertex);
  for (const graph::Edge& e : edges) {
    if (e.w <= 0) break;
    if (m.mate[e.u] == kNullVertex && m.mate[e.v] == kNullVertex) {
      m.mate[e.u] = e.v;
      m.mate[e.v] = e.u;
    }
  }
  finalize(g, m);
  return m;
}

Matching brute_force_optimum(const Csr& g) {
  const auto edges = g.to_edges();
  const std::size_t m_edges = edges.size();
  if (m_edges > 24) {
    throw std::invalid_argument("brute_force_optimum: too many edges");
  }
  Matching best;
  best.mate.assign(static_cast<std::size_t>(g.nverts()), kNullVertex);
  double best_weight = 0.0;

  std::vector<VertexId> mate(static_cast<std::size_t>(g.nverts()), kNullVertex);
  // Enumerate all subsets of edges; keep the best valid matching.
  for (std::uint32_t mask = 0; mask < (1u << m_edges); ++mask) {
    std::fill(mate.begin(), mate.end(), kNullVertex);
    double w = 0.0;
    bool ok = true;
    for (std::size_t i = 0; i < m_edges && ok; ++i) {
      if (!(mask & (1u << i))) continue;
      const auto& e = edges[i];
      if (mate[e.u] != kNullVertex || mate[e.v] != kNullVertex) {
        ok = false;
        break;
      }
      mate[e.u] = e.v;
      mate[e.v] = e.u;
      w += e.w;
    }
    if (ok && w > best_weight) {
      best_weight = w;
      best.mate = mate;
    }
  }
  finalize(g, best);
  return best;
}

}  // namespace mel::match
