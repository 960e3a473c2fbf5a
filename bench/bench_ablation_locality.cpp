// Ablation (beyond the paper): how much of the RGG result is the
// engineered locality? The same RGG with shuffled vertex ids loses its
// <=2-neighbor process graph, and the NCL advantage collapses — isolating
// data distribution (not the generator family) as the cause of Fig 4a.
#include "common.hpp"

#include "mel/graph/stats.hpp"
#include "mel/order/rcm.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv, {"ranks", "scale", "csv"});
  const int scale = static_cast<int>(cli.get_int("scale", 0));
  const int ranks = static_cast<int>(cli.get_int("ranks", 64));
  const graph::VertexId n = graph::VertexId{1} << (16 + scale);

  const auto rgg = gen::random_geometric(n, gen::rgg_radius_for_degree(n, 24.0), 1);
  const auto shuffled = rgg.permuted(order::random_order(n, 99));
  const auto recovered = shuffled.permuted(order::rcm(shuffled));

  std::printf("== Ablation: vertex locality on RGG (p=%d, |E|=%s) ==\n\n",
              ranks, util::fmt_si(static_cast<double>(rgg.nedges())).c_str());
  util::Table table({"ordering", "proc dmax", "proc davg", "NSR(s)", "RMA(s)",
                     "NCL(s)", "NSR/NCL"});
  for (const auto& [name, g] :
       {std::pair<const char*, const graph::Csr&>{"x-sorted (paper RGG)", rgg},
        {"shuffled ids", shuffled},
        {"RCM recovered", recovered}}) {
    const graph::DistGraph dg(g, ranks);
    const auto s = graph::process_graph_stats(dg);
    double t[3];
    int i = 0;
    for (const auto model : bench::kPaperModels) {
      t[i++] = match::run_match(g, ranks, model).seconds();
    }
    table.add_row({name, std::to_string(s.dmax), util::fmt_double(s.davg, 1),
                   util::fmt_double(t[0], 4), util::fmt_double(t[1], 4),
                   util::fmt_double(t[2], 4), bench::fmt_speedup(t[0], t[2])});
  }
  bench::emit(cli, table);
  std::printf("\nreading: shuffling destroys the bounded process "
              "neighborhood and with it the collective advantage; RCM "
              "recovers most of both.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
