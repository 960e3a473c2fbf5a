// Quickstart: build a graph, compute a half-approximate weighted matching
// serially and on a simulated 8-rank MPI machine, and verify both.
//
//   ./quickstart [--verts 4000] [--edges 24000] [--ranks 8] [--model NCL]
#include <cstdio>

#include "mel/gen/generators.hpp"
#include "mel/match/driver.hpp"
#include "mel/match/verify.hpp"
#include "mel/util/cli.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto nverts = cli.get_int("verts", 4000);
  const auto nedges = cli.get_int("edges", 24000);
  const int ranks = static_cast<int>(cli.get_int("ranks", 8));
  const auto model = match::parse_model(cli.get("model", "NCL"));

  // 1. A random weighted graph (any mel::gen generator works here).
  const graph::Csr g = gen::erdos_renyi(nverts, nedges, /*seed=*/42);
  std::printf("graph: %lld vertices, %lld edges\n",
              static_cast<long long>(g.nverts()),
              static_cast<long long>(g.nedges()));

  // 2. Serial locally-dominant half-approximate matching.
  const match::Matching serial = match::serial_half_approx(g);
  std::printf("serial:      weight=%.3f  |M|=%lld\n", serial.weight,
              static_cast<long long>(serial.cardinality));

  // 3. The same computation on a simulated distributed-memory machine.
  const match::RunResult run = match::run_match(g, ranks, model);
  std::printf("%s (p=%d): weight=%.3f  |M|=%lld  simulated time=%.4fs\n",
              match::model_name(model), ranks, run.matching.weight,
              static_cast<long long>(run.matching.cardinality), run.seconds());

  // 4. Verify: valid, maximal, and identical to the serial matching (the
  //    strict edge order makes the locally-dominant matching unique).
  const bool valid = match::is_valid_matching(g, run.matching.mate);
  const bool maximal = match::is_maximal_matching(g, run.matching.mate);
  const bool identical = run.matching.mate == serial.mate;
  std::printf("valid=%s maximal=%s identical-to-serial=%s\n",
              valid ? "yes" : "no", maximal ? "yes" : "no",
              identical ? "yes" : "no");
  return (valid && maximal && identical) ? 0 : 1;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
