// RCM reordering study (paper §V-C): show how Reverse Cuthill-McKee
// changes matrix bandwidth, the process topology, and per-model matching
// time under a 1D partition.
//
//   ./reordering [--verts 40000] [--ranks 64]
#include <cstdio>

#include "mel/gen/generators.hpp"
#include "mel/graph/stats.hpp"
#include "mel/match/driver.hpp"
#include "mel/order/rcm.hpp"
#include "mel/util/cli.hpp"
#include "mel/util/table.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto nverts = cli.get_int("verts", 40000);
  const int ranks = static_cast<int>(cli.get_int("ranks", 64));

  // A banded matrix whose ids were scrambled: the worst case RCM fixes.
  const graph::Csr banded = gen::banded(nverts, 16, nverts / 96, 7);
  const graph::Csr scrambled = banded.permuted(order::random_order(nverts, 3));
  const graph::Csr recovered = scrambled.permuted(order::rcm(scrambled));

  util::Table bw({"graph", "bandwidth", "|Ep|", "dmax", "davg"});
  for (const auto& [name, g] :
       {std::pair<const char*, const graph::Csr&>{"original", banded},
        {"scrambled", scrambled},
        {"RCM(scrambled)", recovered}}) {
    const graph::DistGraph dg(g, ranks);
    const auto s = graph::process_graph_stats(dg);
    bw.add_row({name, std::to_string(g.bandwidth()), std::to_string(s.ep_edges),
                std::to_string(s.dmax), util::fmt_double(s.davg, 1)});
  }
  std::printf("%s\n", bw.to_string().c_str());

  util::Table timing({"graph", "NSR(s)", "RMA(s)", "NCL(s)"});
  for (const auto& [name, g] :
       {std::pair<const char*, const graph::Csr&>{"scrambled", scrambled},
        {"RCM(scrambled)", recovered}}) {
    std::vector<std::string> row{name};
    for (const auto model :
         {match::Model::kNsr, match::Model::kRma, match::Model::kNcl}) {
      row.push_back(util::fmt_double(match::run_match(g, ranks, model).seconds(), 4));
    }
    timing.add_row(std::move(row));
  }
  std::printf("%s", timing.to_string().c_str());
  std::printf("\nspy plot of the RCM-recovered matrix:\n%s",
              graph::render_spy(recovered, 40).c_str());
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
