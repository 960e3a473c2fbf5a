#include "mel/color/color.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "mel/match/exchange.hpp"
#include "mel/mpi/machine.hpp"
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
struct JpState {
  const LocalGraph& lg;
  std::vector<std::int64_t> colors;  // per local vertex
  // Looked up by key only (never iterated), but ordered anyway so a
  // future "iterate ghosts" refactor cannot silently become seed- and
  // platform-dependent (mellint R1).
  std::map<VertexId, std::int64_t> ghost_colors;
  std::int64_t uncolored;

  explicit JpState(const LocalGraph& local)
      : lg(local),
        colors(static_cast<std::size_t>(local.nlocal()), -1),
        uncolored(local.nlocal()) {}

  std::int64_t known_color(VertexId u) const {
    if (lg.owns(u)) return colors[u - lg.vbegin];
    const auto it = ghost_colors.find(u);
    return it == ghost_colors.end() ? -1 : it->second;
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
      for (VertexId v = lg.vbegin; v < lg.vend; ++v) {
        const VertexId lv = v - lg.vbegin;
        if (colors[lv] >= 0) continue;
        bool ready = true;
        used.clear();
        comm.compute_edges(lg.offsets[lv + 1] - lg.offsets[lv]);
        for (graph::EdgeId i = lg.offsets[lv]; i < lg.offsets[lv + 1]; ++i) {
          const VertexId u = lg.adj[i].to;
          const std::int64_t cu = known_color(u);
          if (dominates(u, v)) {
            if (cu < 0) {
              ready = false;
              break;
            }
            used.push_back(cu);
          }
        }
        if (!ready) continue;
        colors[lv] = mex(used);
        --uncolored;
        progressed = true;
        // Tell each distinct neighboring owner about the new color.
        std::set<Rank> told;
        for (graph::EdgeId i = lg.offsets[lv]; i < lg.offsets[lv + 1]; ++i) {
          const VertexId u = lg.adj[i].to;
          if (lg.owns(u)) continue;
          const Rank owner = dist.owner(u);
          if (!told.insert(owner).second) continue;
          ex.push(owner, ColorMsg{v, colors[lv]});
        }
      }
    }
  }

  void apply(const ColorMsg& m) { ghost_colors[m.v] = m.color; }
};

/// One rank's Jones-Plassmann coloring: sweep, one exchange round of color
/// updates, then a global count of still-uncolored vertices.
sim::RankTask jp_rank(Model model, mpi::Comm& comm, const LocalGraph& lg,
                      const Distribution& dist,
                      std::vector<std::int64_t>* colors_out,
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
  *colors_out = std::move(st.colors);
  *rounds_out = rounds;
}

}  // namespace

ColorResult run_coloring(const Csr& g, int nranks, Model model,
                         const match::RunConfig& cfg) {
  if (model != Model::kNsr && model != Model::kNcl) {
    throw std::invalid_argument("run_coloring: only NSR and NCL supported");
  }
  if (!cfg.net.chaos.crashes.empty()) {
    throw std::invalid_argument(
        "run_coloring: scheduled rank crashes need recovery, which only "
        "matching implements");
  }
  const graph::DistGraph dg(g, nranks);
  match::Job job(dg, cfg);

  std::vector<std::vector<std::int64_t>> colors(nranks);
  std::vector<std::int64_t> rounds(nranks, 0);
  for (Rank r = 0; r < nranks; ++r) {
    job.simulator.spawn(r, jp_rank(model, job.machine.comm(r), dg.local(r),
                                   dg.dist(), &colors[r], &rounds[r]));
  }
  job.simulator.run();
  job.machine.audit_or_throw();

  ColorResult result;
  result.colors.assign(static_cast<std::size_t>(g.nverts()), -1);
  for (Rank r = 0; r < nranks; ++r) {
    const VertexId base = dg.local(r).vbegin;
    for (std::size_t i = 0; i < colors[r].size(); ++i) {
      result.colors[static_cast<std::size_t>(base) + i] = colors[r][i];
    }
    result.rounds = std::max(result.rounds, rounds[r]);
  }
  result.time = job.simulator.max_rank_time();
  result.trace_hash = job.simulator.trace_hash();
  result.sim_events = job.simulator.events_executed();
  result.totals = job.machine.total_counters();
  return result;
}

}  // namespace mel::color
