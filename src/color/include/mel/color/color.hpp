// Distributed greedy graph coloring (Jones-Plassmann with hashed random
// priorities) on the owner-computes substrate.
//
// The original MatchBox-P codebase covers "matching and coloring"; this
// module is the coloring half, and the second demonstration (after BFS)
// that the communication substrate generalizes beyond matching. A vertex
// colors itself once every higher-priority neighbor is colored, taking
// the smallest color unused among them; with fixed hashed priorities the
// result is deterministic, so the distributed runs must equal the serial
// reference exactly under every communication model.
#pragma once

#include <cstdint>
#include <vector>

#include "mel/graph/dist.hpp"
#include "mel/match/driver.hpp"  // Model, RunConfig, RunStats

namespace mel::color {

using graph::Csr;
using graph::VertexId;

/// Priority of a vertex (hashed; ties impossible across distinct ids).
std::uint64_t priority(VertexId v);

/// Serial Jones-Plassmann: equivalent to greedy first-fit in decreasing
/// (priority, id) order. Returns one color id (>= 0) per vertex.
std::vector<std::int64_t> serial_jp_coloring(const Csr& g);

/// True iff no edge has equal endpoint colors and all colors are >= 0.
bool is_proper_coloring(const Csr& g, const std::vector<std::int64_t>& colors);

/// Number of distinct colors used.
std::int64_t color_count(const std::vector<std::int64_t>& colors);

/// A coloring run: the run statistics every algorithm reports (time, trace
/// hash, events, totals, matrix), plus one color per vertex and the round
/// count.
struct ColorResult : match::RunStats {
  std::vector<std::int64_t> colors;
  std::int64_t rounds = 0;
};

/// Distributed Jones-Plassmann under kNsr or kNcl.
ColorResult run_coloring(const Csr& g, int nranks, match::Model model,
                         const match::RunConfig& cfg = {});

}  // namespace mel::color
