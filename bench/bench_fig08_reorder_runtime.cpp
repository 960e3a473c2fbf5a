// Fig 8: matching runtime on original vs RCM-reordered graphs, all four
// implementations (NSR, RMA, NCL, MBP), at two process counts. Paper:
// NCL gains most from reordering (2-5x over NSR); NSR itself can get
// slower on reordered inputs; MBP trails everything.
#include "common.hpp"

#include "mel/order/rcm.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", 0));
  const auto ranks_list = cli.get_int_list("ranks", "64,128");

  struct Inst {
    std::string name;
    graph::Csr g;
  };
  const graph::VertexId n1 = graph::VertexId{1} << (15 + scale);
  const graph::VertexId side = 24 << (scale > 0 ? scale / 3 : 0);
  std::vector<Inst> instances;
  instances.push_back({"Cage15-like", gen::banded(n1, 38, n1 / 64, 5)});
  instances.push_back({"HV15R-like", gen::stencil3d(side, side, side, 0.9, 5)});

  const std::vector<match::Model> models = {match::Model::kNsr,
                                            match::Model::kRma,
                                            match::Model::kNcl,
                                            match::Model::kMbp};

  for (const auto p64 : ranks_list) {
    const int p = static_cast<int>(p64);
    std::printf("== Fig 8: original vs RCM on %d processes ==\n\n", p);
    util::Table table({"graph", "NSR(s)", "RMA(s)", "NCL(s)", "MBP(s)",
                       "NSR/NCL"});
    for (const auto& inst : instances) {
      const auto scrambled =
          inst.g.permuted(order::random_order(inst.g.nverts(), 17));
      const auto rcm = scrambled.permuted(order::rcm(scrambled));
      for (const auto& [label, g] : {std::pair<std::string, const graph::Csr&>{
                                         inst.name, scrambled},
                                     {inst.name + "(RCM)", rcm}}) {
        std::vector<double> t;
        for (const auto model : models) {
          t.push_back(bench::run_verified(g, p, model).seconds());
        }
        table.add_row({label, util::fmt_double(t[0], 4),
                       util::fmt_double(t[1], 4), util::fmt_double(t[2], 4),
                       util::fmt_double(t[3], 4),
                       bench::fmt_speedup(t[0], t[2])});
      }
    }
    bench::emit(cli, table);
    std::printf("\n");
  }
  std::printf("paper shape: NCL 2-5x over NSR after RCM; NSR 1.2-2x over "
              "MBP; NCL/RMA 2.5-7x over MBP.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
