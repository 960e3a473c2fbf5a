#include "mel/gen/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "mel/util/rng.hpp"

namespace mel::gen {

using graph::Edge;
using util::Xoshiro256;

namespace {

/// Weight in (0, 1]: never zero, so "unmatched" sentinels are unambiguous.
double random_weight(Xoshiro256& rng) { return 1.0 - rng.next_double(); }

/// Shuffle vertex ids of an edge list in place.
void shuffle_ids(std::vector<Edge>& edges, VertexId n, Xoshiro256& rng) {
  std::vector<VertexId> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (VertexId i = n - 1; i > 0; --i) {
    const auto j = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(perm[i], perm[j]);
  }
  for (Edge& e : edges) {
    e.u = perm[e.u];
    e.v = perm[e.v];
  }
}

/// The edge-count generators reserve `edges` slots up front; a negative
/// count must fail by name, not inside std::vector::reserve.
void check_edge_count(const char* generator, EdgeId edges) {
  if (edges < 0) {
    throw std::invalid_argument(std::string(generator) +
                                ": edge count must be >= 0, got " +
                                std::to_string(edges));
  }
}

}  // namespace

double rgg_radius_for_degree(VertexId n, double deg) {
  // Expected degree of an RGG in the unit square: n * pi * r^2.
  return std::sqrt(deg / (static_cast<double>(n) * 3.14159265358979323846));
}

Csr random_geometric(VertexId n, double radius, std::uint64_t seed) {
  if (n <= 0) throw std::invalid_argument("random_geometric: n must be > 0");
  if (radius <= 0.0 || radius > 1.0) {
    throw std::invalid_argument("random_geometric: radius in (0, 1] required");
  }
  Xoshiro256 rng(seed);
  struct Point {
    double x, y;
  };
  std::vector<Point> pts(static_cast<std::size_t>(n));
  for (auto& p : pts) {
    p.x = rng.next_double();
    p.y = rng.next_double();
  }
  // Ids ordered by x: a 1D block distribution then owns a vertical strip,
  // and cross edges only reach adjacent strips (the paper's RGG property).
  std::sort(pts.begin(), pts.end(),
            [](const Point& a, const Point& b) { return a.x < b.x; });

  // Uniform grid of cell size >= radius for the neighbour search, as flat
  // cell lists: the ids of cell c are ids[start[c], start[c + 1]), in
  // ascending order.
  const auto cells = static_cast<VertexId>(std::max(1.0, std::floor(1.0 / radius)));
  const double cell = 1.0 / static_cast<double>(cells);
  auto cell_of = [&](VertexId i) {
    const VertexId cx = std::min(static_cast<VertexId>(pts[i].x / cell), cells - 1);
    const VertexId cy = std::min(static_cast<VertexId>(pts[i].y / cell), cells - 1);
    return cx * cells + cy;
  };
  std::vector<VertexId> start(static_cast<std::size_t>(cells * cells) + 1, 0);
  for (VertexId i = 0; i < n; ++i) ++start[cell_of(i) + 1];
  for (VertexId c = 0; c < cells * cells; ++c) start[c + 1] += start[c];
  std::vector<VertexId> ids(static_cast<std::size_t>(n));
  std::vector<VertexId> next(start.begin(), start.end() - 1);  // fill cursor
  for (VertexId i = 0; i < n; ++i) ids[next[cell_of(i)]++] = i;
  // From here on, next[c] indexes the first id of cell c that the search
  // below has not passed yet.
  next.assign(start.begin(), start.end() - 1);

  // Two uniform points of the unit square lie within r <= 1 of each other
  // with probability pi r^2 - 8/3 r^3 + 1/2 r^4. Reserving the expected
  // pair count with some slack spares the list its reallocation copies.
  const double r2 = radius * radius;
  const double p_pair = r2 * (3.14159265358979323846 - 8.0 / 3.0 * radius + 0.5 * r2);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(1.05 * p_pair * 0.5 * static_cast<double>(n) *
                                         static_cast<double>(n - 1)) + 64);

  // Pairs (i, j > i) within the radius, in the order i ascending, then
  // cell column, cell row, j ascending; each draws its weight when found.
  // Ids are x-sorted, so column cx - 1 only holds ids below i and is
  // skipped, and in column cx the scan starts just past i.
  for (VertexId i = 0; i < n; ++i) {
    const VertexId c = cell_of(i);
    ++next[c];
    const VertexId cx = c / cells, cy = c % cells;
    for (VertexId bx = cx; bx <= std::min(cx + 1, cells - 1); ++bx) {
      for (VertexId by = std::max<VertexId>(cy - 1, 0);
           by <= std::min(cy + 1, cells - 1); ++by) {
        const VertexId b = bx * cells + by;
        for (VertexId k = next[b]; k < start[b + 1]; ++k) {
          const VertexId j = ids[k];
          const double ddx = pts[i].x - pts[j].x;
          const double ddy = pts[i].y - pts[j].y;
          if (ddx * ddx + ddy * ddy <= r2) {
            edges.push_back(Edge{i, j, random_weight(rng)});
          }
        }
      }
    }
  }
  return Csr::from_edges(n, edges);
}

Csr rmat(int scale, int edge_factor, std::uint64_t seed, bool permute,
         double a, double b, double c) {
  if (scale < 1 || scale > 30) throw std::invalid_argument("rmat: bad scale");
  const VertexId n = VertexId{1} << scale;
  const EdgeId m = static_cast<EdgeId>(edge_factor) * n;
  const double d = 1.0 - a - b - c;
  if (d < 0) throw std::invalid_argument("rmat: probabilities exceed 1");
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  for (EdgeId e = 0; e < m; ++e) {
    VertexId u = 0, v = 0;
    for (int bit = 0; bit < scale; ++bit) {
      const double p = rng.next_double();
      u <<= 1;
      v <<= 1;
      if (p < a) {
        // top-left quadrant
      } else if (p < a + b) {
        v |= 1;
      } else if (p < a + b + c) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    edges.push_back(Edge{u, v, random_weight(rng)});
  }
  if (permute) shuffle_ids(edges, n, rng);
  return Csr::from_edges(n, edges);
}

Csr stochastic_block(VertexId n, EdgeId edges, int blocks, double overlap,
                     std::uint64_t seed) {
  if (blocks <= 0 || n < blocks) {
    throw std::invalid_argument("stochastic_block: bad block count");
  }
  check_edge_count("stochastic_block", edges);
  Xoshiro256 rng(seed);
  const VertexId block_size = (n + blocks - 1) / blocks;
  // Rounding the block size up can leave trailing blocks empty (n = 100,
  // 32 blocks: 25 blocks of 4); draw only among the non-empty ones.
  const VertexId filled = (n + block_size - 1) / block_size;
  std::vector<Edge> out;
  out.reserve(static_cast<std::size_t>(edges));
  for (EdgeId e = 0; e < edges; ++e) {
    VertexId u, v;
    if (rng.next_bool(overlap)) {
      // Inter-community "overlap" edge: uniform over all pairs.
      u = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
      v = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
    } else {
      const auto blk = static_cast<VertexId>(
          rng.next_below(static_cast<std::uint64_t>(filled)));
      const VertexId lo = blk * block_size;
      const VertexId hi = std::min<VertexId>(n, lo + block_size);
      u = lo + static_cast<VertexId>(
                   rng.next_below(static_cast<std::uint64_t>(hi - lo)));
      v = lo + static_cast<VertexId>(
                   rng.next_below(static_cast<std::uint64_t>(hi - lo)));
    }
    if (u == v) continue;
    out.push_back(Edge{u, v, random_weight(rng)});
  }
  return Csr::from_edges(n, out);
}

Csr chung_lu(VertexId n, EdgeId edges, double gamma, std::uint64_t seed) {
  if (gamma <= 1.0) throw std::invalid_argument("chung_lu: gamma must be > 1");
  check_edge_count("chung_lu", edges);
  Xoshiro256 rng(seed);
  // Expected-degree weights w_i ~ (i+1)^(-1/(gamma-1)); cumulative table
  // for endpoint sampling by binary search.
  std::vector<double> cdf(static_cast<std::size_t>(n));
  double acc = 0.0;
  const double expo = -1.0 / (gamma - 1.0);
  for (VertexId i = 0; i < n; ++i) {
    acc += std::pow(static_cast<double>(i + 1), expo);
    cdf[i] = acc;
  }
  auto draw = [&]() -> VertexId {
    const double x = rng.next_double() * acc;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), x);
    return static_cast<VertexId>(it - cdf.begin());
  };
  std::vector<Edge> out;
  out.reserve(static_cast<std::size_t>(edges));
  for (EdgeId e = 0; e < edges; ++e) {
    const VertexId u = draw(), v = draw();
    if (u == v) continue;
    out.push_back(Edge{u, v, random_weight(rng)});
  }
  shuffle_ids(out, n, rng);
  return Csr::from_edges(n, out);
}

Csr grid_of_grids(VertexId n, VertexId side_min, VertexId side_max,
                  std::uint64_t seed, double disperse) {
  if (side_min < 2 || side_max < side_min) {
    throw std::invalid_argument("grid_of_grids: bad side range");
  }
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  VertexId next_id = 0;
  while (next_id < n) {
    const auto sx = static_cast<VertexId>(
        rng.next_range(static_cast<std::uint64_t>(side_min),
                       static_cast<std::uint64_t>(side_max)));
    const auto sy = static_cast<VertexId>(
        rng.next_range(static_cast<std::uint64_t>(side_min),
                       static_cast<std::uint64_t>(side_max)));
    const VertexId base = next_id;
    for (VertexId x = 0; x < sx; ++x) {
      for (VertexId y = 0; y < sy; ++y) {
        const VertexId id = base + x * sy + y;
        if (id >= n) break;
        if (y + 1 < sy && id + 1 < n) {
          edges.push_back(Edge{id, id + 1, random_weight(rng)});
        }
        if (x + 1 < sx && id + sy < n) {
          edges.push_back(Edge{id, id + sy, random_weight(rng)});
        }
      }
    }
    next_id = std::min<VertexId>(n, base + sx * sy);
  }
  if (disperse > 0.0 && n > 1) {
    // Displace ~disperse*n vertices by random transpositions.
    std::vector<VertexId> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    const auto swaps =
        static_cast<VertexId>(static_cast<double>(n) * disperse / 2.0);
    for (VertexId s = 0; s < swaps; ++s) {
      const auto i = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
      const auto j = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
      std::swap(perm[i], perm[j]);
    }
    for (Edge& e : edges) {
      e.u = perm[e.u];
      e.v = perm[e.v];
    }
  }
  return Csr::from_edges(n, edges);
}

Csr banded(VertexId n, int deg, VertexId band, std::uint64_t seed) {
  if (band < 1) throw std::invalid_argument("banded: band must be >= 1");
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * deg / 2);
  for (VertexId v = 0; v < n; ++v) {
    for (int k = 0; k < deg / 2; ++k) {
      const VertexId lo = std::max<VertexId>(0, v - band);
      const VertexId hi = std::min<VertexId>(n - 1, v + band);
      const VertexId u = lo + static_cast<VertexId>(rng.next_below(
                                  static_cast<std::uint64_t>(hi - lo + 1)));
      if (u != v) edges.push_back(Edge{v, u, random_weight(rng)});
    }
  }
  return Csr::from_edges(n, edges);
}

Csr stencil3d(VertexId nx, VertexId ny, VertexId nz, double keep,
              std::uint64_t seed) {
  if (nx < 1 || ny < 1 || nz < 1) {
    throw std::invalid_argument("stencil3d: bad dimensions");
  }
  Xoshiro256 rng(seed);
  const VertexId n = nx * ny * nz;
  auto id = [&](VertexId x, VertexId y, VertexId z) {
    return (x * ny + y) * nz + z;
  };
  std::vector<Edge> edges;
  for (VertexId x = 0; x < nx; ++x) {
    for (VertexId y = 0; y < ny; ++y) {
      for (VertexId z = 0; z < nz; ++z) {
        const VertexId u = id(x, y, z);
        // Forward half of the 27-point stencil (13 directions).
        for (VertexId dx = 0; dx <= 1; ++dx) {
          for (VertexId dy = -1; dy <= 1; ++dy) {
            for (VertexId dz = -1; dz <= 1; ++dz) {
              if (dx == 0 && (dy < 0 || (dy == 0 && dz <= 0))) continue;
              const VertexId X = x + dx, Y = y + dy, Z = z + dz;
              if (X < 0 || X >= nx || Y < 0 || Y >= ny || Z < 0 || Z >= nz) {
                continue;
              }
              if (!rng.next_bool(keep)) continue;
              edges.push_back(Edge{u, id(X, Y, Z), random_weight(rng)});
            }
          }
        }
      }
    }
  }
  return Csr::from_edges(n, edges);
}

Csr erdos_renyi(VertexId n, EdgeId edges, std::uint64_t seed) {
  check_edge_count("erdos_renyi", edges);
  Xoshiro256 rng(seed);
  std::vector<Edge> out;
  out.reserve(static_cast<std::size_t>(edges));
  for (EdgeId e = 0; e < edges; ++e) {
    const auto u = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    out.push_back(Edge{u, v, random_weight(rng)});
  }
  return Csr::from_edges(n, out);
}

Csr barabasi_albert(VertexId n, int m, std::uint64_t seed) {
  if (m < 1 || n <= m) throw std::invalid_argument("barabasi_albert: bad m");
  Xoshiro256 rng(seed);
  // `targets` holds one entry per edge endpoint, so uniform sampling from
  // it is degree-proportional sampling.
  std::vector<VertexId> targets;
  targets.reserve(static_cast<std::size_t>(2 * n) * m);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * m);
  // Seed clique over the first m+1 vertices.
  for (VertexId u = 0; u <= m; ++u) {
    for (VertexId v = u + 1; v <= m; ++v) {
      edges.push_back(Edge{u, v, random_weight(rng)});
      targets.push_back(u);
      targets.push_back(v);
    }
  }
  for (VertexId v = m + 1; v < n; ++v) {
    for (int j = 0; j < m; ++j) {
      const VertexId u = targets[rng.next_below(targets.size())];
      if (u == v) continue;
      edges.push_back(Edge{v, u, random_weight(rng)});
      targets.push_back(v);
      targets.push_back(u);
    }
  }
  return Csr::from_edges(n, edges);
}

Csr watts_strogatz(VertexId n, int k, double beta, std::uint64_t seed) {
  if (k < 2 || k % 2 != 0 || n <= k) {
    throw std::invalid_argument("watts_strogatz: k must be even and < n");
  }
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * k / 2);
  for (VertexId v = 0; v < n; ++v) {
    for (int j = 1; j <= k / 2; ++j) {
      VertexId u = (v + j) % n;
      if (rng.next_bool(beta)) {
        u = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
        if (u == v) continue;
      }
      edges.push_back(Edge{v, u, random_weight(rng)});
    }
  }
  return Csr::from_edges(n, edges);
}

Csr path(VertexId n) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back(Edge{v, v + 1, 1.0});
  return Csr::from_edges(n, edges);
}

Csr grid2d(VertexId nx, VertexId ny) {
  std::vector<Edge> edges;
  auto id = [&](VertexId x, VertexId y) { return x * ny + y; };
  for (VertexId x = 0; x < nx; ++x) {
    for (VertexId y = 0; y < ny; ++y) {
      if (y + 1 < ny) edges.push_back(Edge{id(x, y), id(x, y + 1), 1.0});
      if (x + 1 < nx) edges.push_back(Edge{id(x, y), id(x + 1, y), 1.0});
    }
  }
  return Csr::from_edges(nx * ny, edges);
}

}  // namespace mel::gen
