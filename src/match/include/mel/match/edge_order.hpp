// The strict total order on edges that every matcher variant (serial and
// all distributed backends) must share.
//
// Heavier edges win; ties are broken by a hash of the (unordered) endpoint
// pair, as suggested by Manne & Bisseling for pathological equal-weight
// inputs (paths, grids with ordered vertex numbering), with the raw
// endpoint pair as the final tiebreak so the order is strict. A strict
// total order makes the locally-dominant matching unique — it equals the
// greedy matching by descending order — which is the invariant our
// cross-backend equality tests lean on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mel/graph/csr.hpp"
#include "mel/util/rng.hpp"

namespace mel::match {

using graph::VertexId;
using graph::Weight;

/// Sort key for an edge; compare lexicographically, larger = preferred.
struct EdgeKey {
  Weight w;
  std::uint64_t tie;
  VertexId lo;
  VertexId hi;

  friend bool operator<(const EdgeKey& a, const EdgeKey& b) {
    if (a.w != b.w) return a.w < b.w;
    if (a.tie != b.tie) return a.tie < b.tie;
    if (a.lo != b.lo) return a.lo < b.lo;
    return a.hi < b.hi;
  }
  friend bool operator==(const EdgeKey& a, const EdgeKey& b) {
    return a.w == b.w && a.tie == b.tie && a.lo == b.lo && a.hi == b.hi;
  }
};

inline EdgeKey edge_key(VertexId u, VertexId v, Weight w) {
  const VertexId lo = u < v ? u : v;
  const VertexId hi = u < v ? v : u;
  return EdgeKey{w,
                 util::hash_combine(static_cast<std::uint64_t>(lo),
                                    static_cast<std::uint64_t>(hi)),
                 lo, hi};
}

/// True if edge (u, a) is strictly preferred over (u, b) from u's side.
inline bool edge_better(VertexId u, VertexId a, Weight wa, VertexId b,
                        Weight wb) {
  return edge_key(u, b, wb) < edge_key(u, a, wa);
}

/// Every row of a CSR in descending EdgeKey order, most preferred first.
/// Row lv holds entries [offsets[lv], offsets[lv + 1]) of `adj` and belongs
/// to vertex `first + lv`; the same range of the result lists them as
/// uint32 indices into `adj`. Throws std::length_error, naming `owner`,
/// when `adj` has more entries than a uint32 index addresses.
inline std::vector<std::uint32_t> rows_by_edge_key(
    VertexId first, std::span<const graph::EdgeId> offsets,
    std::span<const graph::Adj> adj, const std::string& owner) {
  if (adj.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(owner + " holds " + std::to_string(adj.size()) +
                            " adjacency entries, more than its uint32 edge "
                            "indices address");
  }
  std::vector<std::uint32_t> order(adj.size());
  std::vector<EdgeKey> keys;  // one row's keys, computed once per entry
  for (std::size_t lv = 0; lv + 1 < offsets.size(); ++lv) {
    const VertexId v = first + static_cast<VertexId>(lv);
    const graph::EdgeId row = offsets[lv];
    const graph::EdgeId end = offsets[lv + 1];
    keys.clear();
    for (graph::EdgeId i = row; i < end; ++i) {
      keys.push_back(edge_key(v, adj[i].to, adj[i].w));
      order[i] = static_cast<std::uint32_t>(i);
    }
    std::sort(order.begin() + row, order.begin() + end,
              [&keys, row](std::uint32_t a, std::uint32_t b) {
                return keys[b - row] < keys[a - row];
              });
  }
  return order;
}

/// Sentinel for "no mate / no candidate".
inline constexpr VertexId kNullVertex = -1;

}  // namespace mel::match
