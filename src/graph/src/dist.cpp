#include "mel/graph/dist.hpp"

#include <algorithm>
#include <stdexcept>

namespace mel::graph {

Distribution::Distribution(VertexId nverts, int nranks)
    : nverts_(nverts), nranks_(nranks) {
  if (nverts < 0 || nranks <= 0) {
    throw std::invalid_argument("Distribution: bad sizes");
  }
  base_ = nverts / nranks;
  rem_ = nverts % nranks;
}

Distribution Distribution::from_offsets(std::vector<VertexId> offsets) {
  if (offsets.size() < 2 || offsets.front() != 0) {
    throw std::invalid_argument("Distribution::from_offsets: bad offsets");
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      throw std::invalid_argument(
          "Distribution::from_offsets: offsets must be nondecreasing");
    }
  }
  Distribution d;
  d.nverts_ = offsets.back();
  d.nranks_ = static_cast<int>(offsets.size()) - 1;
  d.offsets_ = std::move(offsets);
  return d;
}

Rank Distribution::owner(VertexId v) const {
  if (!offsets_.empty()) {
    // upper_bound - 1: the last rank whose begin <= v. Empty blocks have
    // begin == end, and upper_bound skips them correctly.
    const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), v);
    return static_cast<Rank>(it - offsets_.begin()) - 1;
  }
  // First rem_ ranks own (base_+1) vertices each.
  const VertexId fat = rem_ * (base_ + 1);
  if (v < fat) return static_cast<Rank>(v / (base_ + 1));
  if (base_ == 0) return static_cast<Rank>(nranks_ - 1);  // defensive
  return static_cast<Rank>(rem_ + (v - fat) / base_);
}

VertexId Distribution::begin(Rank r) const {
  if (!offsets_.empty()) return offsets_[static_cast<std::size_t>(r)];
  const VertexId rr = static_cast<VertexId>(r);
  return rr < rem_ ? rr * (base_ + 1) : rem_ * (base_ + 1) + (rr - rem_) * base_;
}

VertexId Distribution::end(Rank r) const { return begin(r + 1 > nranks_ ? nranks_ : r + 1); }

Distribution edge_balanced_partition(const Csr& g, int nranks) {
  if (nranks <= 0) throw std::invalid_argument("edge_balanced_partition");
  std::vector<VertexId> offsets;
  offsets.reserve(static_cast<std::size_t>(nranks) + 1);
  offsets.push_back(0);
  const double total = static_cast<double>(g.nentries());
  double acc = 0.0;
  VertexId v = 0;
  for (Rank r = 0; r < nranks - 1; ++r) {
    const double target = total * static_cast<double>(r + 1) /
                          static_cast<double>(nranks);
    while (v < g.nverts() && acc < target) {
      acc += static_cast<double>(g.degree(v));
      ++v;
    }
    offsets.push_back(v);  // trailing ranks may end up empty; that's fine
  }
  offsets.push_back(g.nverts());
  return Distribution::from_offsets(std::move(offsets));
}

int LocalGraph::neighbor_index(Rank r) const {
  const auto it =
      std::lower_bound(neighbor_ranks.begin(), neighbor_ranks.end(), r);
  if (it == neighbor_ranks.end() || *it != r) return -1;
  return static_cast<int>(it - neighbor_ranks.begin());
}

std::size_t LocalGraph::byte_size() const {
  return offsets.size() * sizeof(EdgeId) + adj.size() * sizeof(Adj) +
         neighbor_ranks.size() * sizeof(Rank) +
         ghost_counts.size() * sizeof(std::int64_t);
}

DistGraph::DistGraph(const Csr& global, int nranks)
    : DistGraph(global, Distribution(global.nverts(), nranks)) {}

DistGraph::DistGraph(const Csr& global, Distribution dist)
    : dist_(std::move(dist)), nedges_(global.nedges()) {
  if (dist_.nverts() != global.nverts()) {
    throw std::invalid_argument("DistGraph: distribution size mismatch");
  }
  const int nranks = dist_.nranks();
  const auto offsets = global.offsets();
  const auto adj = global.adjacency();
  locals_.resize(nranks);
  // Ghost entries per owner rank, reset after each rank; `touched` lists
  // the owners with a nonzero count.
  std::vector<std::int64_t> ghosts(static_cast<std::size_t>(nranks), 0);
  std::vector<Rank> touched;
  for (Rank r = 0; r < nranks; ++r) {
    LocalGraph& lg = locals_[r];
    lg.rank = r;
    lg.vbegin = dist_.begin(r);
    lg.vend = dist_.end(r);
    // The owned rows are one contiguous slice of the global arrays: view
    // the adjacency in place and rebase a copy of the offsets.
    const EdgeId first = offsets[lg.vbegin];
    lg.offsets.assign(offsets.begin() + lg.vbegin, offsets.begin() + lg.vend + 1);
    for (EdgeId& o : lg.offsets) o -= first;
    lg.adj = adj.subspan(static_cast<std::size_t>(first),
                         static_cast<std::size_t>(offsets[lg.vend] - first));

    for (const Adj& a : lg.adj) {
      if (lg.owns(a.to)) continue;
      const Rank o = dist_.owner(a.to);
      if (ghosts[o]++ == 0) touched.push_back(o);
    }
    std::sort(touched.begin(), touched.end());
    lg.neighbor_ranks = touched;
    lg.ghost_counts.reserve(touched.size());
    for (const Rank o : touched) {
      lg.ghost_counts.push_back(ghosts[o]);
      lg.total_ghost_edges += ghosts[o];
      ghosts[o] = 0;
    }
    touched.clear();
  }
}

std::vector<std::vector<Rank>> DistGraph::process_topology() const {
  std::vector<std::vector<Rank>> topo(nranks());
  for (Rank r = 0; r < nranks(); ++r) topo[r] = locals_[r].neighbor_ranks;
  return topo;
}

}  // namespace mel::graph
