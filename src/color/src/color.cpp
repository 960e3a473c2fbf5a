#include "mel/color/color.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>

#include "mel/match/exchange.hpp"
#include "mel/util/rng.hpp"

namespace mel::color {

using graph::Distribution;
using graph::LocalGraph;
using match::Model;
using sim::Rank;

std::uint64_t priority(VertexId v) {
  return util::hash64(static_cast<std::uint64_t>(v) ^ 0xc01057a1c0105ULL);
}

namespace {

/// Strict "u dominates v" order: higher priority first, id as tiebreak.
bool dominates(VertexId u, VertexId v) {
  const auto pu = priority(u), pv = priority(v);
  return pu != pv ? pu > pv : u > v;
}

/// Smallest color not used in `used` (which must be sorted).
std::int64_t mex(std::vector<std::int64_t>& used) {
  std::sort(used.begin(), used.end());
  std::int64_t c = 0;
  for (const auto u : used) {
    if (u == c) {
      ++c;
    } else if (u > c) {
      break;
    }
  }
  return c;
}

}  // namespace

std::vector<std::int64_t> serial_jp_coloring(const Csr& g) {
  std::vector<VertexId> order(static_cast<std::size_t>(g.nverts()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), dominates);
  std::vector<std::int64_t> colors(static_cast<std::size_t>(g.nverts()), -1);
  std::vector<std::int64_t> used;
  for (const VertexId v : order) {
    used.clear();
    for (const graph::Adj& a : g.neighbors(v)) {
      if (colors[a.to] >= 0) used.push_back(colors[a.to]);
    }
    colors[v] = mex(used);
  }
  return colors;
}

bool is_proper_coloring(const Csr& g, const std::vector<std::int64_t>& colors) {
  if (static_cast<VertexId>(colors.size()) != g.nverts()) return false;
  for (VertexId v = 0; v < g.nverts(); ++v) {
    if (colors[v] < 0) return false;
    for (const graph::Adj& a : g.neighbors(v)) {
      if (colors[a.to] == colors[v]) return false;
    }
  }
  return true;
}

std::int64_t color_count(const std::vector<std::int64_t>& colors) {
  std::set<std::int64_t> distinct(colors.begin(), colors.end());
  return static_cast<std::int64_t>(distinct.size());
}

namespace {

struct ColorMsg {
  VertexId v = -1;
  std::int64_t color = -1;
};

/// Per-rank Jones-Plassmann state shared by both backends.
///
/// A color goes from -1 to its final value exactly once, so a vertex never
/// needs to re-read the adjacency entries it has already seen settled: its
/// cursor resumes at the first dominating neighbor that was still
/// uncolored. The simulated cost stays the modelled full rescan, one
/// compute_edges(degree) per visit.
struct JpState {
  const LocalGraph& lg;
  const VertexId nlocal;
  /// Owned vertices' colors (by local index), then one color per ghost.
  std::vector<std::int64_t> colors;
  std::vector<VertexId> ghosts;  // sorted ghost ids; ghost k is slot nlocal + k
  /// Per adjacency entry: the neighbor's slot in `colors` if it dominates
  /// the row's vertex, else -1 (the row never waits for it).
  std::vector<std::int32_t> slot;
  std::vector<graph::EdgeId> cursor;  // per local vertex: next unsettled entry
  /// Per neighbor rank (as in lg.neighbor_ranks): the last vertex that
  /// pushed to it.
  std::vector<VertexId> told;
  std::int64_t uncolored;

  explicit JpState(const LocalGraph& local)
      : lg(local),
        nlocal(local.nlocal()),
        cursor(local.offsets.begin(), local.offsets.end() - 1),
        told(local.neighbor_ranks.size(), -1),
        uncolored(local.nlocal()) {
    for (const graph::Adj& a : lg.adj) {
      if (!lg.owns(a.to)) ghosts.push_back(a.to);
    }
    std::sort(ghosts.begin(), ghosts.end());
    ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
    if (nlocal + static_cast<VertexId>(ghosts.size()) >
        std::numeric_limits<std::int32_t>::max()) {
      throw std::length_error(
          "run_coloring: a rank's owned plus ghost vertices exceed the "
          "int32 range of its color slots");
    }
    colors.assign(static_cast<std::size_t>(nlocal) + ghosts.size(), -1);
    slot.reserve(lg.adj.size());
    for (VertexId lv = 0; lv < nlocal; ++lv) {
      const VertexId v = lg.vbegin + lv;
      for (graph::EdgeId i = lg.offsets[lv]; i < lg.offsets[lv + 1]; ++i) {
        const VertexId u = lg.adj[i].to;
        const VertexId s = lg.owns(u) ? u - lg.vbegin : nlocal + ghost_index(u);
        slot.push_back(dominates(u, v) ? static_cast<std::int32_t>(s) : -1);
      }
    }
  }

  VertexId ghost_index(VertexId u) const {
    const auto it = std::lower_bound(ghosts.begin(), ghosts.end(), u);
    if (it == ghosts.end() || *it != u) {
      throw std::logic_error("run_coloring: color update for a non-ghost");
    }
    return it - ghosts.begin();
  }

  /// One round: color eligible vertices until a local fixpoint (a vertex
  /// colored in a pass can unblock lower-priority local neighbors in the
  /// same round). Pushes (owner-deduped) updates to ghosts' owners.
  void sweep(mpi::Comm& comm, match::Exchange<ColorMsg>& ex,
             const Distribution& dist) {
    std::vector<std::int64_t> used;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (VertexId lv = 0; lv < nlocal; ++lv) {
        if (colors[lv] >= 0) continue;
        const graph::EdgeId begin = lg.offsets[lv], end = lg.offsets[lv + 1];
        comm.compute_edges(end - begin);
        graph::EdgeId& c = cursor[lv];
        while (c < end && (slot[c] < 0 || colors[slot[c]] >= 0)) ++c;
        if (c < end) continue;  // a dominating neighbor is still uncolored
        used.clear();
        for (graph::EdgeId i = begin; i < end; ++i) {
          if (slot[i] >= 0) used.push_back(colors[slot[i]]);
        }
        colors[lv] = mex(used);
        --uncolored;
        progressed = true;
        // Tell each distinct neighboring owner about the new color.
        const VertexId v = lg.vbegin + lv;
        for (graph::EdgeId i = begin; i < end; ++i) {
          const VertexId u = lg.adj[i].to;
          if (lg.owns(u)) continue;
          const Rank owner = dist.owner(u);
          if (std::exchange(told[lg.neighbor_index(owner)], v) == v) continue;
          ex.push(owner, ColorMsg{v, colors[lv]});
        }
      }
    }
  }

  void apply(const ColorMsg& m) { colors[nlocal + ghost_index(m.v)] = m.color; }
};

/// One rank's Jones-Plassmann coloring: sweep, one exchange round of color
/// updates, then a global count of still-uncolored vertices.
sim::RankTask jp_rank(Model model, mpi::Comm& comm, const LocalGraph& lg,
                      const Distribution& dist,
                      std::span<std::int64_t> colors_out,
                      std::int64_t* rounds_out) {
  // Send-Recv sends every count first, then the updates in sweep order.
  const auto ex =
      match::make_level_exchange<ColorMsg>(model, comm, lg, /*grouped=*/false);
  JpState st(lg);
  match::Sink<ColorMsg> sink{[&st](const ColorMsg& m) { st.apply(m); }};
  std::int64_t rounds = 0;
  for (;;) {
    ++rounds;
    st.sweep(comm, *ex, dist);
    co_await ex->round(sink);
    const auto remaining = co_await comm.allreduce_sum(st.uncolored);
    comm.obs_iteration(static_cast<std::uint64_t>(rounds), remaining);
    if (remaining == 0) break;
  }
  std::copy_n(st.colors.begin(), colors_out.size(), colors_out.begin());
  *rounds_out = rounds;
}

}  // namespace

ColorResult run_coloring(const Csr& g, int nranks, Model model,
                         const match::RunConfig& cfg) {
  ColorResult result;
  result.rounds = match::run_levels("run_coloring", g, nranks, model, cfg,
                                    jp_rank, result.colors, result);
  return result;
}

}  // namespace mel::color
