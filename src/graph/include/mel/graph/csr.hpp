// Undirected weighted graphs in Compressed Sparse Row form.
//
// The paper stores each rank's local portion in CSR; we also keep a global
// CSR on the driver side, from which the 1D distribution slices per-rank
// views. Graphs are simple (no self-loops, no multi-edges) and symmetric:
// every undirected edge {u, v} appears in both adjacency lists.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mel::graph {

using VertexId = std::int64_t;
using EdgeId = std::int64_t;
using Weight = double;

/// One undirected input edge.
struct Edge {
  VertexId u = 0;
  VertexId v = 0;
  Weight w = 1.0;
};

/// One adjacency entry.
struct Adj {
  VertexId to = 0;
  Weight w = 1.0;
};

class Csr {
 public:
  Csr() = default;

  /// Build from an edge list. Self-loops are dropped; parallel edges are
  /// deduplicated keeping the maximum weight (any deterministic rule works
  /// for matching; max keeps the strongest edge). An endpoint outside
  /// [0, nverts) throws std::out_of_range and a NaN weight (which no
  /// ordering of edges can rank) std::invalid_argument. Linear in
  /// |V| + |E| apart from sorting each vertex's own short row.
  static Csr from_edges(VertexId nverts, std::span<const Edge> edges);

  VertexId nverts() const { return static_cast<VertexId>(offsets_.size()) - 1; }
  /// Number of undirected edges.
  EdgeId nedges() const { return static_cast<EdgeId>(adj_.size()) / 2; }
  /// Number of directed adjacency entries (2|E|).
  EdgeId nentries() const { return static_cast<EdgeId>(adj_.size()); }

  std::span<const Adj> neighbors(VertexId v) const {
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }
  EdgeId degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Row offsets (size nverts + 1) into the flat adjacency array: vertex
  /// v's row is adjacency()[offsets()[v], offsets()[v + 1]).
  std::span<const EdgeId> offsets() const { return offsets_; }
  std::span<const Adj> adjacency() const { return adj_; }

  EdgeId max_degree() const;

  /// Matrix bandwidth: max |u - v| over edges (Fig 7 / RCM metric).
  VertexId bandwidth() const;

  /// Sum of all edge weights (each undirected edge counted once).
  double total_weight() const;

  /// Flat undirected edge list (u < v), e.g. to re-permute or serialize.
  std::vector<Edge> to_edges() const;

  /// Apply a vertex permutation: new_id = perm[old_id]. Returns the
  /// relabeled graph (adjacency re-sorted).
  Csr permuted(std::span<const VertexId> perm) const;

  /// Subgraph induced by the vertices with keep[v] != 0, renumbered
  /// densely in ascending old-id order; only edges with both endpoints
  /// kept survive. If `old_ids` is non-null it receives the new-id ->
  /// old-id map. Used by crash recovery to re-match the surviving,
  /// still-unmatched part of a graph.
  Csr induced_subgraph(std::span<const char> keep,
                       std::vector<VertexId>* old_ids = nullptr) const;

  /// Memory footprint of the CSR arrays in bytes (for the memory model).
  std::size_t byte_size() const {
    return offsets_.size() * sizeof(EdgeId) + adj_.size() * sizeof(Adj);
  }

 private:
  std::vector<EdgeId> offsets_;  // size nverts + 1
  std::vector<Adj> adj_;         // size 2|E|, sorted by `to` within a row
};

}  // namespace mel::graph
