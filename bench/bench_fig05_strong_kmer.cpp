// Fig 5: strong scaling on the four protein k-mer graph stand-ins (grids
// of different sizes, densely packed). Paper: RMA typically 25-35% better
// than NSR and NCL, occasionally 2-3x better than NSR.
#include "common.hpp"

#include "mel/order/rcm.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv, {"scale", "ranks", "csv"});
  const int scale = static_cast<int>(cli.get_int("scale", 0));
  const auto ranks_list = cli.get_int_list("ranks", "16,32,64");

  // K-mer graphs are grids of different sizes, mostly — but not perfectly
  // — contiguous in memory (assembly emits runs out of order); a partial
  // shuffle models that residual dispersion. The result is sparse traffic
  // spread over wide neighborhoods: many tiny exchanges, RMA's best case.
  const struct {
    const char* name;
    graph::VertexId n;
    graph::VertexId lo, hi;
    double disperse;
  } instances[] = {
      {"V2a-like", graph::VertexId{1} << (16 + scale), 3, 6, 0.02},
      {"U1a-like", graph::VertexId{1} << (16 + scale), 4, 8, 0.03},
      {"P1a-like", graph::VertexId{1} << (17 + scale), 4, 10, 0.04},
      {"V1r-like", graph::VertexId{1} << (17 + scale), 6, 14, 0.05},
  };

  std::printf("== Fig 5: strong scaling, protein k-mer stand-ins ==\n\n");
  for (const auto& inst : instances) {
    const auto g0 = gen::grid_of_grids(inst.n, inst.lo, inst.hi, 11);
    const auto g =
        g0.permuted(order::partial_shuffle(inst.n, inst.disperse, 13));
    std::printf("--- %s (|E|=%s) ---\n", inst.name,
                util::fmt_si(static_cast<double>(g.nedges())).c_str());
    util::Table table({"p", "NSR(s)", "RMA(s)", "NCL(s)", "NSR/RMA",
                       "NCL/RMA"});
    for (const auto p64 : ranks_list) {
      const int p = static_cast<int>(p64);
      double t[3];
      int i = 0;
      for (const auto model : bench::kPaperModels) {
        t[i++] = bench::run_verified(g, p, model).seconds();
      }
      table.add_row({std::to_string(p), util::fmt_double(t[0], 4),
                     util::fmt_double(t[1], 4), util::fmt_double(t[2], 4),
                     bench::fmt_speedup(t[0], t[1]),
                     bench::fmt_speedup(t[2], t[1])});
    }
    bench::emit(cli, table);
    std::printf("\n");
  }
  std::printf("paper shape: RMA ahead of both NSR and NCL (25-35%%, up to "
              "2-3x over NSR).\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
