// Table VII: for every input family, the best speedup over the Send-Recv
// baseline and which version achieved it, searched over process counts.
#include "common.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv, {"scale", "ranks", "csv"});
  const int scale = static_cast<int>(cli.get_int("scale", -2));
  const auto ranks_list = cli.get_int_list("ranks", "32,64");

  std::printf("== Table VII: best speedup over NSR per input ==\n\n");
  util::Table table({"category", "identifier", "best speedup", "version",
                     "at p"});
  for (const auto& d : gen::table2_datasets(scale, 1)) {
    const auto g = d.build();
    double best = 0.0;
    const char* best_version = "-";
    int best_p = 0;
    for (const auto p64 : ranks_list) {
      const int p = static_cast<int>(p64);
      const double nsr = bench::run_verified(g, p, match::Model::kNsr).seconds();
      for (const auto model : {match::Model::kRma, match::Model::kNcl}) {
        const double t = bench::run_verified(g, p, model).seconds();
        if (nsr / t > best) {
          best = nsr / t;
          best_version = match::model_name(model);
          best_p = p;
        }
      }
    }
    table.add_row({d.category, d.id, util::fmt_double(best, 2) + "x",
                   best_version, std::to_string(best_p)});
  }
  bench::emit(cli, table);
  std::printf("\npaper shape: best speedups of 1.4-6x; NCL wins on bounded "
              "neighborhoods (RGG, DNA, CFD), RMA on k-mer and several "
              "R-MAT/social inputs.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
