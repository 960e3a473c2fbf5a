// Generator digest pin: the exact graph every generator produces — CSR
// offsets, neighbour ids and the bit pattern of every weight — is frozen
// here for two seeds (or, for the unseeded generators, two sizes) each.
//
// The matching, BFS and coloring pins only see R-MAT and Erdős–Rényi
// inputs, so without this table a change to graph construction (the CSR
// build, the RGG neighbour search, a generator's draw order) could alter
// every other input silently. If a change is *intended* to alter a
// generated graph, re-capture with MEL_PIN_PRINT=1 and update the table in
// the same change.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "mel/gen/generators.hpp"

namespace mel::gen {
namespace {

/// FNV-1a over nverts, the offsets, and every (to, weight bits) entry.
std::uint64_t digest(const Csr& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(g.nverts()));
  EdgeId offset = 0;
  for (VertexId v = 0; v < g.nverts(); ++v) {
    mix(static_cast<std::uint64_t>(offset));
    for (const graph::Adj& a : g.neighbors(v)) {
      mix(static_cast<std::uint64_t>(a.to));
      mix(std::bit_cast<std::uint64_t>(a.w));
    }
    offset += g.degree(v);
  }
  mix(static_cast<std::uint64_t>(offset));
  return h;
}

struct Pin {
  const char* name;
  std::function<Csr()> build;
  EdgeId nedges;
  std::uint64_t digest;
};

// Captured with MEL_PIN_PRINT=1 on the comparison-sort CSR build and the
// nested-vector RGG neighbour search.
const Pin kPins[] = {
    {"rgg_3000_deg16_s1",
     [] { return random_geometric(3000, rgg_radius_for_degree(3000, 16.0), 1); },
     23156, 0x4493426aa9afc674ULL},
    {"rgg_3000_deg16_s2",
     [] { return random_geometric(3000, rgg_radius_for_degree(3000, 16.0), 2); },
     23200, 0x23481f93f415b71fULL},
    {"rgg_400_r0.25_s1",
     [] { return random_geometric(400, 0.25, 1); },
     12852, 0x0e5e273b8c862948ULL},
    {"rgg_400_r0.25_s2",
     [] { return random_geometric(400, 0.25, 2); },
     12982, 0x9165b10afb534236ULL},
    {"rgg_200_r0.6_s1",
     [] { return random_geometric(200, 0.6, 1); },
     12950, 0x87c95e710047744bULL},
    {"rgg_200_r0.6_s2",
     [] { return random_geometric(200, 0.6, 2); },
     12848, 0x9c63a9db8f29b5bcULL},
    {"rmat_10_8_s1",
     [] { return rmat(10, 8, 1); },
     6046, 0xe59a24b6b9402978ULL},
    {"rmat_10_8_s2",
     [] { return rmat(10, 8, 2); },
     5981, 0xd7f8aa5b908c8a3fULL},
    {"rmat_10_8_s1_nopermute",
     [] { return rmat(10, 8, 1, false); },
     6046, 0x780c9581b512c4e2ULL},
    {"rmat_10_8_s2_nopermute",
     [] { return rmat(10, 8, 2, false); },
     5981, 0x95c474d71b40ef3dULL},
    {"sbp_2000_s1",
     [] { return stochastic_block(2000, 16000, 8, 0.3, 1); },
     15664, 0xbd96ae1d81dc3d19ULL},
    {"sbp_2000_s2",
     [] { return stochastic_block(2000, 16000, 8, 0.3, 2); },
     15663, 0x823be60e282cce6eULL},
    {"chung_lu_3000_s1",
     [] { return chung_lu(3000, 20000, 2.3, 1); },
     17948, 0x8dd174960f334025ULL},
    {"chung_lu_3000_s2",
     [] { return chung_lu(3000, 20000, 2.3, 2); },
     17992, 0x334835f46f7b7a7bULL},
    {"grid_of_grids_3000_s1",
     [] { return grid_of_grids(3000, 4, 20, 1, 0.05); },
     5478, 0x2a0493961347b3e3ULL},
    {"grid_of_grids_3000_s2",
     [] { return grid_of_grids(3000, 4, 20, 2, 0.05); },
     5519, 0xefde2682771e16a4ULL},
    {"banded_3000_s1",
     [] { return banded(3000, 12, 50, 1); },
     16863, 0xc282eb926f5062feULL},
    {"banded_3000_s2",
     [] { return banded(3000, 12, 50, 2); },
     16881, 0x0cde663e4a404f30ULL},
    {"stencil3d_12x10x8_s1",
     [] { return stencil3d(12, 10, 8, 0.8, 1); },
     7989, 0x5534b7cb3e544888ULL},
    {"stencil3d_12x10x8_s2",
     [] { return stencil3d(12, 10, 8, 0.8, 2); },
     7973, 0xd49d5ca37049d4abULL},
    {"erdos_renyi_2000_s1",
     [] { return erdos_renyi(2000, 12000, 1); },
     11955, 0xb15b449aa38dbb50ULL},
    {"erdos_renyi_2000_s2",
     [] { return erdos_renyi(2000, 12000, 2); },
     11967, 0x8d3d218b6c62eb0cULL},
    {"barabasi_albert_2000_s1",
     [] { return barabasi_albert(2000, 4, 1); },
     7929, 0xc57506c8cda9bc98ULL},
    {"barabasi_albert_2000_s2",
     [] { return barabasi_albert(2000, 4, 2); },
     7929, 0x7b758a036d220f9aULL},
    {"watts_strogatz_2000_s1",
     [] { return watts_strogatz(2000, 8, 0.1, 1); },
     7998, 0xa9638ce32f685440ULL},
    {"watts_strogatz_2000_s2",
     [] { return watts_strogatz(2000, 8, 0.1, 2); },
     7998, 0x82c3273e4535c6c9ULL},
    {"path_1000",
     [] { return path(1000); },
     999, 0x1f80e67b5153433bULL},
    {"path_1",
     [] { return path(1); },
     0, 0x5b2a969b42d238a4ULL},
    {"grid2d_30x40",
     [] { return grid2d(30, 40); },
     2330, 0xb26127635dd1730cULL},
    {"grid2d_1x17",
     [] { return grid2d(1, 17); },
     16, 0xd6a0d1e9d3d79dc4ULL},
};

TEST(GenDigestPin, EveryGeneratorTwoSeeds) {
  const bool print = std::getenv("MEL_PIN_PRINT") != nullptr;
  for (const Pin& pin : kPins) {
    const Csr g = pin.build();
    const std::uint64_t d = digest(g);
    if (print) {
      std::printf("    {\"%s\", ..., %lld, 0x%016llxULL},\n", pin.name,
                  static_cast<long long>(g.nedges()),
                  static_cast<unsigned long long>(d));
      continue;
    }
    EXPECT_EQ(g.nedges(), pin.nedges) << pin.name;
    EXPECT_EQ(d, pin.digest) << pin.name;
  }
}

}  // namespace
}  // namespace mel::gen
