#include "mel/graph/csr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mel::graph {

Csr Csr::from_edges(VertexId nverts, std::span<const Edge> edges) {
  if (nverts < 0) throw std::invalid_argument("Csr: negative vertex count");
  // Counting sort: bucket each canonical (lo, hi) pair under lo, so rows
  // come out in vertex order without a global comparison sort.
  std::vector<EdgeId> row(static_cast<std::size_t>(nverts) + 1, 0);
  for (const Edge& e : edges) {
    if (std::isnan(e.w)) throw std::invalid_argument("Csr: NaN edge weight");
    if (e.u == e.v) continue;  // self-loop
    if (e.u < 0 || e.u >= nverts || e.v < 0 || e.v >= nverts) {
      throw std::out_of_range("Csr: edge endpoint out of range");
    }
    ++row[std::min(e.u, e.v) + 1];
  }
  for (VertexId v = 0; v < nverts; ++v) row[v + 1] += row[v];
  std::vector<Adj> up(static_cast<std::size_t>(row[nverts]));  // (hi, w) by lo
  {
    std::vector<EdgeId> cursor(row.begin(), row.end() - 1);
    for (const Edge& e : edges) {
      if (e.u == e.v) continue;
      const auto [lo, hi] = std::minmax(e.u, e.v);
      up[cursor[lo]++] = Adj{hi, e.w};
    }
  }
  // Sort each short row by (hi, weight descending) and keep the first
  // entry of each hi, so parallel edges keep their maximum weight. Rows
  // are compacted in place; row[lo] becomes the deduplicated row's start.
  EdgeId kept = 0;
  for (VertexId lo = 0; lo < nverts; ++lo) {
    const auto first = up.begin() + row[lo];
    const auto last = up.begin() + row[lo + 1];
    std::sort(first, last, [](const Adj& a, const Adj& b) {
      return a.to != b.to ? a.to < b.to : a.w > b.w;
    });
    row[lo] = kept;
    for (auto it = first; it != last; ++it) {
      if (kept == row[lo] || up[kept - 1].to != it->to) up[kept++] = *it;
    }
  }
  row[nverts] = kept;

  // Row v is its pairs (u, v) with u < v, then its own pairs (v, hi).
  // Writing the former in ascending u leaves every row sorted by `to`.
  Csr g;
  g.offsets_.assign(row.size(), 0);
  for (VertexId u = 0; u < nverts; ++u) {
    g.offsets_[u + 1] += row[u + 1] - row[u];
    for (EdgeId k = row[u]; k < row[u + 1]; ++k) ++g.offsets_[up[k].to + 1];
  }
  for (VertexId v = 0; v < nverts; ++v) g.offsets_[v + 1] += g.offsets_[v];
  g.adj_.resize(static_cast<std::size_t>(g.offsets_[nverts]));
  std::vector<EdgeId> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (VertexId u = 0; u < nverts; ++u) {
    const auto first = up.begin() + row[u];
    const auto last = up.begin() + row[u + 1];
    std::copy(first, last, g.adj_.begin() + (g.offsets_[u + 1] - (last - first)));
    for (auto it = first; it != last; ++it) g.adj_[cursor[it->to]++] = Adj{u, it->w};
  }
  return g;
}

EdgeId Csr::max_degree() const {
  EdgeId best = 0;
  for (VertexId v = 0; v < nverts(); ++v) best = std::max(best, degree(v));
  return best;
}

VertexId Csr::bandwidth() const {
  VertexId bw = 0;
  for (VertexId v = 0; v < nverts(); ++v) {
    for (const Adj& a : neighbors(v)) bw = std::max(bw, std::abs(a.to - v));
  }
  return bw;
}

double Csr::total_weight() const {
  double total = 0;
  for (VertexId v = 0; v < nverts(); ++v) {
    for (const Adj& a : neighbors(v)) {
      if (a.to > v) total += a.w;
    }
  }
  return total;
}

std::vector<Edge> Csr::to_edges() const {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(nedges()));
  for (VertexId v = 0; v < nverts(); ++v) {
    for (const Adj& a : neighbors(v)) {
      if (a.to > v) edges.push_back(Edge{v, a.to, a.w});
    }
  }
  return edges;
}

Csr Csr::induced_subgraph(std::span<const char> keep,
                          std::vector<VertexId>* old_ids) const {
  if (static_cast<VertexId>(keep.size()) != nverts()) {
    throw std::invalid_argument("Csr::induced_subgraph: keep size mismatch");
  }
  std::vector<VertexId> new_id(keep.size(), -1);
  VertexId n2 = 0;
  for (VertexId v = 0; v < nverts(); ++v) {
    if (keep[v] != 0) new_id[v] = n2++;
  }
  std::vector<Edge> edges;
  for (VertexId v = 0; v < nverts(); ++v) {
    if (keep[v] == 0) continue;
    for (const Adj& a : neighbors(v)) {
      if (a.to > v && keep[a.to] != 0) {
        edges.push_back(Edge{new_id[v], new_id[a.to], a.w});
      }
    }
  }
  if (old_ids != nullptr) {
    old_ids->clear();
    old_ids->reserve(static_cast<std::size_t>(n2));
    for (VertexId v = 0; v < nverts(); ++v) {
      if (keep[v] != 0) old_ids->push_back(v);
    }
  }
  return from_edges(n2, edges);
}

Csr Csr::permuted(std::span<const VertexId> perm) const {
  if (static_cast<VertexId>(perm.size()) != nverts()) {
    throw std::invalid_argument("Csr::permuted: permutation size mismatch");
  }
  std::vector<Edge> edges = to_edges();
  for (Edge& e : edges) {
    e.u = perm[e.u];
    e.v = perm[e.v];
  }
  return from_edges(nverts(), edges);
}

}  // namespace mel::graph
