// Distributed Jones-Plassmann coloring on the same simulated machine —
// the second non-matching application of the owner-computes substrate.
//
//   ./coloring [--verts 20000] [--edges 120000] [--ranks 32]
#include <cstdio>

#include "mel/color/color.hpp"
#include "mel/gen/generators.hpp"
#include "mel/util/cli.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto nverts = cli.get_int("verts", 20000);
  const auto nedges = cli.get_int("edges", 120000);
  const int ranks = static_cast<int>(cli.get_int("ranks", 32));

  const graph::Csr g = gen::erdos_renyi(nverts, nedges, 11);
  std::printf("graph: |V|=%lld |E|=%lld, max degree %lld\n",
              static_cast<long long>(g.nverts()),
              static_cast<long long>(g.nedges()),
              static_cast<long long>(g.max_degree()));

  const auto serial = color::serial_jp_coloring(g);
  std::printf("serial Jones-Plassmann: %lld colors\n",
              static_cast<long long>(color::color_count(serial)));

  for (const auto model : {match::Model::kNsr, match::Model::kNcl}) {
    const auto run = color::run_coloring(g, ranks, model);
    const bool proper = color::is_proper_coloring(g, run.colors);
    const bool identical = run.colors == serial;
    std::printf("%s (p=%d): %lld colors, %lld rounds, simulated %.4fs, "
                "proper=%s identical-to-serial=%s\n",
                match::model_name(model), ranks,
                static_cast<long long>(color::color_count(run.colors)),
                static_cast<long long>(run.rounds), sim::to_seconds(run.time),
                proper ? "yes" : "no", identical ? "yes" : "no");
    if (!proper || !identical) return 1;
  }
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
