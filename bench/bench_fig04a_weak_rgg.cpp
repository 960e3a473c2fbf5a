// Fig 4a: weak scaling on random geometric graphs. The paper's RGG
// distribution guarantees each rank at most two process neighbors; both
// NCL and RMA should beat NSR by 2-3.5x, growing with p.
#include "common.hpp"

#include "mel/graph/stats.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv, {"scale", "ranks", "verts-per-rank", "csv"});
  const int scale = static_cast<int>(cli.get_int("scale", 0));
  const auto ranks_list = cli.get_int_list("ranks", "16,32,64,128");
  const auto verts_per_rank = cli.get_int("verts-per-rank", 8192) << scale;

  std::printf("== Fig 4a: weak scaling, RGG, %lld vertices/rank ==\n\n",
              static_cast<long long>(verts_per_rank));
  util::Table table({"p", "|E|", "proc dmax", "NSR(s)", "RMA(s)", "NCL(s)",
                     "NSR/RMA", "NSR/NCL"});
  for (const auto p64 : ranks_list) {
    const int p = static_cast<int>(p64);
    const graph::VertexId n = verts_per_rank * p;
    const auto g =
        gen::random_geometric(n, gen::rgg_radius_for_degree(n, 24.0), 1);
    const graph::DistGraph dg(g, p);
    const auto stats = graph::process_graph_stats(dg);
    double t[3];
    int i = 0;
    for (const auto model : bench::kPaperModels) {
      t[i++] = bench::run_verified(g, p, model).seconds();
    }
    table.add_row({std::to_string(p),
                   util::fmt_si(static_cast<double>(g.nedges())),
                   std::to_string(stats.dmax), util::fmt_double(t[0], 4),
                   util::fmt_double(t[1], 4), util::fmt_double(t[2], 4),
                   bench::fmt_speedup(t[0], t[1]),
                   bench::fmt_speedup(t[0], t[2])});
  }
  bench::emit(cli, table);
  std::printf("\npaper shape: NCL/RMA 2-3.5x over NSR, process dmax <= 2.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
