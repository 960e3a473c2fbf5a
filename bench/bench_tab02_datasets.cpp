// Table II: the dataset inventory. Prints every registry entry with its
// built size and degree statistics (the paper lists |V| and |E| per input).
#include "common.hpp"

#include "mel/graph/stats.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", -2));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  std::printf("== Table II: synthetic stand-ins for the paper's datasets "
              "(scale %d) ==\n\n", scale);
  util::Table table({"category", "identifier", "|V|", "|E|", "dmax", "davg"});
  for (const auto& d : gen::table2_datasets(scale, seed)) {
    const auto g = d.build();
    const auto s = graph::degree_stats(g);
    table.add_row({d.category, d.id,
                   util::fmt_si(static_cast<double>(g.nverts())),
                   util::fmt_si(static_cast<double>(g.nedges())),
                   std::to_string(s.dmax), util::fmt_double(s.davg, 1)});
  }
  bench::emit(cli, table);
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
