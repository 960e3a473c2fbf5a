// Fig 4b: weak scaling on Graph500 R-MAT graphs (paper: scales 21-24 on
// 512-4K processes, 1.2-3x speedup for RMA and NCL over NSR).
#include "common.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", 0));
  const auto ranks_list = cli.get_int_list("ranks", "16,32,64,128");
  const int base_scale = 12 + scale;

  std::printf("== Fig 4b: weak scaling, Graph500 R-MAT scales %d-%d ==\n\n",
              base_scale, base_scale + static_cast<int>(ranks_list.size()) - 1);
  util::Table table({"p", "rmat scale", "|E|", "NSR(s)", "RMA(s)", "NCL(s)",
                     "NSR/RMA", "NSR/NCL"});
  int step = 0;
  for (const auto p64 : ranks_list) {
    const int p = static_cast<int>(p64);
    const int s = base_scale + step++;
    const auto g = gen::rmat(s, 16, 7);
    double t[3];
    int i = 0;
    for (const auto model : bench::kPaperModels) {
      t[i++] = bench::run_verified(g, p, model).seconds();
    }
    table.add_row({std::to_string(p), std::to_string(s),
                   util::fmt_si(static_cast<double>(g.nedges())),
                   util::fmt_double(t[0], 4), util::fmt_double(t[1], 4),
                   util::fmt_double(t[2], 4), bench::fmt_speedup(t[0], t[1]),
                   bench::fmt_speedup(t[0], t[2])});
  }
  bench::emit(cli, table);
  std::printf("\npaper shape: RMA/NCL 1.2-3x over NSR across the sweep.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
