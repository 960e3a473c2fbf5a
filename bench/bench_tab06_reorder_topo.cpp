// Table VI: process-graph topology of original vs RCM-reordered graphs.
// Paper's counter-intuitive finding under plain 1D partitioning: RCM about
// doubles |Ep| and the average process degree (more neighbors exchanging
// less each).
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

  std::printf("== Table VI: process topology, original vs RCM ==\n\n");
  util::Table table(
      {"graph", "p", "ordering", "|Ep|", "dmax", "davg", "sigma_d"});
  for (const auto& inst : instances) {
    const auto scrambled =
        inst.g.permuted(order::random_order(inst.g.nverts(), 17));
    const auto rcm = scrambled.permuted(order::rcm(scrambled));
    for (const auto& [ordering, g] :
         {std::pair<const char*, const graph::Csr&>{"original", scrambled},
          {"RCM", rcm}}) {
      const graph::DistGraph dg(g, inst.p);
      const auto s = graph::process_graph_stats(dg);
      table.add_row({inst.name, std::to_string(inst.p), ordering,
                     std::to_string(s.ep_edges), std::to_string(s.dmax),
                     util::fmt_double(s.davg, 2),
                     util::fmt_double(s.dsigma, 2)});
    }
  }
  bench::emit(cli, table);
  std::printf("\nnote: the paper compares natural vs RCM order; we scramble "
              "first so both orderings are derived identically, and RCM "
              "yields far fewer, denser neighborhoods than the scrambled "
              "placement.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
