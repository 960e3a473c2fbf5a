// Table V: impact of RCM reordering on the ghost-augmented edge
// distribution |E'| (total, max, avg, sigma across ranks). Paper: totals
// rise slightly (1-5%) while the across-rank standard deviation drops
// 30-40% (better balance).
#include "common.hpp"

#include "mel/graph/stats.hpp"
#include "mel/order/rcm.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", 0));

  struct Inst {
    std::string name;
    graph::Csr g;
    int p;
  };
  const graph::VertexId n1 = graph::VertexId{1} << (15 + scale);
  const graph::VertexId side = 24 << (scale > 0 ? scale / 3 : 0);
  std::vector<Inst> instances;
  instances.push_back({"Cage15-like", gen::banded(n1, 38, n1 / 64, 5), 64});
  instances.push_back(
      {"HV15R-like", gen::stencil3d(side, side, side, 0.9, 5), 128});

  std::printf("== Table V: |E'| (edges incl. ghosts) original vs RCM ==\n\n");
  util::Table table({"graph", "p", "ordering", "|E'|", "|E'|max", "|E'|avg",
                     "sigma|E'|"});
  for (const auto& inst : instances) {
    const auto scrambled =
        inst.g.permuted(order::random_order(inst.g.nverts(), 17));
    const auto rcm = scrambled.permuted(order::rcm(scrambled));
    for (const auto& [ordering, g] :
         {std::pair<const char*, const graph::Csr&>{"original", scrambled},
          {"RCM", rcm}}) {
      const graph::DistGraph dg(g, inst.p);
      const auto s = graph::edge_prime_stats(dg);
      table.add_row({inst.name, std::to_string(inst.p), ordering,
                     util::fmt_si(static_cast<double>(s.total)),
                     util::fmt_si(static_cast<double>(s.max)),
                     util::fmt_si(s.avg), util::fmt_si(s.sigma)});
    }
  }
  bench::emit(cli, table);
  std::printf("\npaper shape: RCM lowers sigma|E'| (30-40%% in the paper) at "
              "a small cost in total |E'|.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
