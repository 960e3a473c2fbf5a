// Fig 4c + Table III: weak scaling on stochastic block partitioned (HILO)
// graphs. The paper's contrast case: the process graph is complete
// (Table III: dmax = davg = p-1), so NCL/RMA lose their aggregation edge
// and NSR overtakes them as p grows.
#include "common.hpp"

#include "mel/graph/stats.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv, {"scale", "ranks", "verts-per-rank", "csv"});
  const int scale = static_cast<int>(cli.get_int("scale", 0));
  const auto ranks_list = cli.get_int_list("ranks", "64,128,256,512");
  const auto verts_per_rank = cli.get_int("verts-per-rank", 256) << scale;

  std::printf("== Fig 4c: weak scaling, stochastic block partitioned (HILO), "
              "%lld vertices/rank ==\n\n",
              static_cast<long long>(verts_per_rank));
  util::Table table({"p", "|E|", "NSR(s)", "RMA(s)", "NCL(s)", "NSR/RMA",
                     "NSR/NCL"});
  util::Table topo({"p", "|Ep|", "dmax", "davg"});  // Table III
  for (const auto p64 : ranks_list) {
    const int p = static_cast<int>(p64);
    const graph::VertexId n = verts_per_rank * p;
    const auto g = gen::stochastic_block(n, n * 24, 32, 0.6, 1);
    const graph::DistGraph dg(g, p);
    const auto stats = graph::process_graph_stats(dg);
    topo.add_row({std::to_string(p), std::to_string(stats.ep_edges),
                  std::to_string(stats.dmax), util::fmt_double(stats.davg, 0)});
    double t[3];
    int i = 0;
    for (const auto model : bench::kPaperModels) {
      t[i++] = bench::run_verified(g, p, model).seconds();
    }
    table.add_row({std::to_string(p),
                   util::fmt_si(static_cast<double>(g.nedges())),
                   util::fmt_double(t[0], 4), util::fmt_double(t[1], 4),
                   util::fmt_double(t[2], 4), bench::fmt_speedup(t[0], t[1]),
                   bench::fmt_speedup(t[0], t[2])});
  }
  bench::emit(cli, table);
  std::printf("\n== Table III: process-graph topology (complete graph) ==\n\n");
  bench::emit(cli, topo);
  std::printf("\npaper shape: dmax = davg = p-1; the NSR/NCL ratio decays "
              "toward (and past) 1 as p grows.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
