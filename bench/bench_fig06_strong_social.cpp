// Fig 6 + Table IV: strong scaling on the social-network stand-ins
// (power-law Chung-Lu). Paper: 2-5x for NCL/RMA at moderate p, with both
// degrading at scale because the process graph approaches completeness
// (Table IV: davg ~ p-1) and |E'| inflates with p.
#include "common.hpp"

#include "mel/graph/stats.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", 0));

  const struct {
    const char* name;
    graph::VertexId n;
    graph::EdgeId deg;
    std::vector<std::int64_t> ranks;
  } instances[] = {
      {"Orkut-like", graph::VertexId{1} << (15 + scale), 39,
       cli.get_int_list("ranks-orkut", "16,32,64,128")},
      {"Friendster-like", graph::VertexId{1} << (17 + scale), 27,
       cli.get_int_list("ranks-friendster", "32,64,128,256")},
  };

  std::printf("== Fig 6: strong scaling, social network stand-ins ==\n\n");
  util::Table topo({"graph", "p", "|Ep|", "dmax", "davg", "sigma_d"});
  for (const auto& inst : instances) {
    const auto g = gen::chung_lu(inst.n, inst.n * inst.deg, 2.35, 3);
    std::printf("--- %s (|E|=%s) ---\n", inst.name,
                util::fmt_si(static_cast<double>(g.nedges())).c_str());
    util::Table table({"p", "NSR(s)", "RMA(s)", "NCL(s)", "NSR/RMA",
                       "NSR/NCL"});
    for (const auto p64 : inst.ranks) {
      const int p = static_cast<int>(p64);
      const graph::DistGraph dg(g, p);
      const auto s = graph::process_graph_stats(dg);
      topo.add_row({inst.name, std::to_string(p), std::to_string(s.ep_edges),
                    std::to_string(s.dmax), util::fmt_double(s.davg, 0),
                    util::fmt_double(s.dsigma, 2)});
      double t[3];
      int i = 0;
      for (const auto model : bench::kPaperModels) {
        t[i++] = bench::run_verified(g, p, model).seconds();
      }
      table.add_row({std::to_string(p), util::fmt_double(t[0], 4),
                     util::fmt_double(t[1], 4), util::fmt_double(t[2], 4),
                     bench::fmt_speedup(t[0], t[1]),
                     bench::fmt_speedup(t[0], t[2])});
    }
    bench::emit(cli, table);
    std::printf("\n");
  }
  std::printf("== Table IV: process-graph topology ==\n\n");
  bench::emit(cli, topo);
  std::printf("\npaper shape: 2-5x at moderate p; the advantage shrinks as p "
              "grows and davg approaches p-1.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
