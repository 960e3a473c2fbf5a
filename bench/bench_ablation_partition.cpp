// Ablation (the paper's stated future work, §VII): does a more careful 1D
// distribution recover the performance RCM reordering left on the table?
// Compares vertex-balanced blocks against edge-balanced blocks on the
// RCM-reordered inputs of §V-C and on a hub-heavy power-law graph, where
// vertex blocks concentrate hub adjacency on few ranks.
#include "common.hpp"

#include "mel/graph/stats.hpp"
#include "mel/match/verify.hpp"
#include "mel/order/rcm.hpp"

using namespace mel;

namespace {

double run_with(const graph::Csr& g, const graph::Distribution& dist,
                match::Model model) {
  const graph::DistGraph dg(g, dist);
  auto run = match::run_match(dg, model);
  if (!match::is_valid_matching(g, run.matching.mate)) std::abort();
  return run.seconds();
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", 0));
  const int ranks = static_cast<int>(cli.get_int("ranks", 64));

  struct Inst {
    std::string name;
    graph::Csr g;
  };
  std::vector<Inst> instances;
  {
    const graph::VertexId n = graph::VertexId{1} << (15 + scale);
    auto banded = gen::banded(n, 38, n / 64, 5);
    auto scrambled = banded.permuted(order::random_order(n, 17));
    instances.push_back(
        {"Cage15-like (RCM)", scrambled.permuted(order::rcm(scrambled))});
    instances.push_back(
        {"Orkut-like", gen::chung_lu(n, n * 30, 2.4, 1)});
  }

  std::printf("== Ablation: vertex-balanced vs edge-balanced 1D partition, "
              "p=%d ==\n\n", ranks);
  util::Table table({"graph", "partition", "|E'|max/|E'|avg", "NSR(s)",
                     "RMA(s)", "NCL(s)"});
  for (const auto& inst : instances) {
    const graph::Distribution naive(inst.g.nverts(), ranks);
    const graph::Distribution balanced =
        graph::edge_balanced_partition(inst.g, ranks);
    for (const auto& [label, dist] :
         {std::pair<const char*, const graph::Distribution&>{"vertex-bal",
                                                             naive},
          {"edge-bal", balanced}}) {
      const graph::DistGraph dg(inst.g, dist);
      const auto ep = graph::edge_prime_stats(dg);
      table.add_row(
          {inst.name, label,
           util::fmt_double(static_cast<double>(ep.max) / ep.avg, 2),
           util::fmt_double(run_with(inst.g, dist, match::Model::kNsr), 4),
           util::fmt_double(run_with(inst.g, dist, match::Model::kRma), 4),
           util::fmt_double(run_with(inst.g, dist, match::Model::kNcl), 4)});
    }
  }
  bench::emit(cli, table);
  std::printf("\nreading: balancing adjacency entries instead of vertices "
              "removes the straggler rank that a 1D split of reordered or "
              "hub-heavy inputs creates.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
