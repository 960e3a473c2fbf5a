// 1D vertex-block distribution of a graph over simulated MPI ranks,
// including the ghost-vertex bookkeeping the paper's matching algorithm
// relies on (§IV-A of the paper).
//
// Each rank owns a contiguous block of vertices and all their edges. An
// edge {u, v} with owner(u) != owner(v) makes v a "ghost" at owner(u) and
// u a "ghost" at owner(v); the two owning ranks become neighbors in the
// process graph. The number of messages a vertex sends to a ghost is
// bounded by 2 per cross edge, so per-neighbor communication buffers can
// be sized ahead of time (2 * ghost_count records) — exactly the paper's
// displacement precomputation for RMA windows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mel/graph/csr.hpp"
#include "mel/sim/time.hpp"

namespace mel::graph {

using sim::Rank;

/// Contiguous 1D distribution of `nverts` vertices over `nranks` ranks:
/// either uniform blocks (the paper's default) or explicit boundaries
/// (e.g. from edge_balanced_partition below — the paper's future-work
/// remedy for the load imbalance RCM-reordered inputs showed in §V-C).
class Distribution {
 public:
  Distribution() = default;
  /// Uniform vertex-balanced blocks.
  Distribution(VertexId nverts, int nranks);
  /// Explicit boundaries: offsets.size() == nranks + 1, offsets.front()
  /// == 0, offsets.back() == nverts, nondecreasing.
  static Distribution from_offsets(std::vector<VertexId> offsets);

  int nranks() const { return nranks_; }
  VertexId nverts() const { return nverts_; }

  Rank owner(VertexId v) const;
  VertexId begin(Rank r) const;
  VertexId end(Rank r) const;
  VertexId count(Rank r) const { return end(r) - begin(r); }

 private:
  VertexId nverts_ = 0;
  int nranks_ = 1;
  VertexId base_ = 0;  // nverts / nranks
  VertexId rem_ = 0;   // nverts % nranks: first `rem_` ranks get base_+1
  std::vector<VertexId> offsets_;  // non-empty iff explicit boundaries
};

/// 1D partition balancing adjacency entries (edges incl. ghosts) instead
/// of vertices: a greedy sweep that closes a block once it reaches the
/// per-rank average. Addresses the imbalance the paper measured on
/// RCM-reordered inputs under plain vertex-balanced blocks (Table V).
Distribution edge_balanced_partition(const Csr& g, int nranks);

/// A rank's local portion: CSR over owned vertices with global adjacency
/// ids, plus ghost/process-neighbor tables.
struct LocalGraph {
  Rank rank = 0;
  VertexId vbegin = 0;
  VertexId vend = 0;

  /// offsets.size() == (vend - vbegin) + 1, rebased to start at 0. `adj`
  /// views the owned rows in the global Csr (see DistGraph); its entries
  /// hold global vertex ids (owned or ghost).
  std::vector<EdgeId> offsets;
  std::span<const Adj> adj;

  /// Sorted ranks this rank shares at least one cross edge with.
  std::vector<Rank> neighbor_ranks;
  /// Cross-edge count per entry of neighbor_ranks (== #ghost edges shared).
  std::vector<std::int64_t> ghost_counts;
  /// Total cross edges (sum of ghost_counts).
  std::int64_t total_ghost_edges = 0;

  VertexId nlocal() const { return vend - vbegin; }
  std::span<const Adj> neighbors(VertexId global_v) const {
    const VertexId lv = global_v - vbegin;
    return {adj.data() + offsets[lv], adj.data() + offsets[lv + 1]};
  }
  EdgeId degree(VertexId global_v) const {
    const VertexId lv = global_v - vbegin;
    return offsets[lv + 1] - offsets[lv];
  }
  bool owns(VertexId v) const { return v >= vbegin && v < vend; }

  /// Index of `r` in neighbor_ranks (-1 if absent).
  int neighbor_index(Rank r) const;

  /// Bytes of the local CSR arrays + ghost tables, charging the rank for
  /// its own copy of its rows as on a real machine (memory model).
  std::size_t byte_size() const;
};

/// Host-side container of all ranks' local graphs plus the distribution.
/// (On a real machine each rank would build only its own LocalGraph; the
/// simulator's driver builds all of them before spawning rank coroutines.)
/// It borrows `global`: every LocalGraph::adj views global.adjacency(), so
/// the Csr must outlive the DistGraph, and a temporary Csr does not compile.
class DistGraph {
 public:
  DistGraph(const Csr& global, int nranks);
  /// Distribute with explicit boundaries (e.g. edge_balanced_partition).
  DistGraph(const Csr& global, Distribution dist);
  DistGraph(const Csr&& global, int nranks) = delete;
  DistGraph(const Csr&& global, Distribution dist) = delete;

  const Distribution& dist() const { return dist_; }
  int nranks() const { return dist_.nranks(); }
  VertexId nverts() const { return dist_.nverts(); }
  EdgeId nedges() const { return nedges_; }

  const LocalGraph& local(Rank r) const { return locals_[r]; }

  /// Process-graph adjacency: neighbor rank lists, symmetric.
  std::vector<std::vector<Rank>> process_topology() const;

 private:
  Distribution dist_;
  EdgeId nedges_ = 0;
  std::vector<LocalGraph> locals_;
};

}  // namespace mel::graph
