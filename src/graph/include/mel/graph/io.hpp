// Graph I/O: Matrix Market coordinate files (how SuiteSparse distributes
// the paper's real-world inputs) and a fast binary edge-list format.
#pragma once

#include <iosfwd>
#include <string>

#include "mel/graph/csr.hpp"

namespace mel::graph {

/// The largest vertex count a graph file may declare: 2^31, whose row
/// offsets alone take 16 GiB. Both readers reject a larger count with a
/// std::runtime_error naming the count and this limit, before allocating
/// anything for it.
inline constexpr VertexId kMaxFileVertices = VertexId{1} << 31;

/// Read a Matrix Market coordinate file as an undirected weighted graph.
/// Supports `matrix coordinate (real|integer|pattern) (general|symmetric)`.
/// Pattern entries get weight 1.0; explicit zeros are kept as 0-weight
/// edges (they exist structurally but are never matched). The matrix must
/// be square; diagonal entries are dropped.
Csr read_matrix_market(std::istream& in);
Csr read_matrix_market_file(const std::string& path);

/// Write in `matrix coordinate real symmetric` form (lower triangle).
void write_matrix_market(const Csr& g, std::ostream& out);

/// Binary format: magic "MELG", u64 nverts, u64 nedges, then nedges
/// records of (i64 u, i64 v, f64 w). Little-endian, host order.
Csr read_binary(std::istream& in);
Csr read_binary_file(const std::string& path);
void write_binary(const Csr& g, std::ostream& out);

}  // namespace mel::graph
