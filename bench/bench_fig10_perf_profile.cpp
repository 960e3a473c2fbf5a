// Fig 10: Dolan-Moré performance profiles of NSR, RMA and NCL over a pool
// of (input, process-count) combinations. Paper: RMA is the most
// consistent, NCL close behind, NSR up to 6x off but competitive on ~10%
// of instances.
#include "common.hpp"

#include "mel/perf/profile.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", -3));
  const auto ranks_list = cli.get_int_list("ranks", "16,32,64");

  const auto datasets = gen::table2_datasets(scale, 1);
  std::vector<std::vector<double>> times(3);
  int instances = 0;
  for (const auto& d : datasets) {
    const auto g = d.build();
    for (const auto p64 : ranks_list) {
      const int p = static_cast<int>(p64);
      int i = 0;
      for (const auto model : bench::kPaperModels) {
        times[i++].push_back(bench::run_verified(g, p, model).seconds());
      }
      ++instances;
    }
  }
  std::printf("== Fig 10: performance profiles over %d (input, p) "
              "combinations ==\n\n",
              instances);
  const auto curves = perf::performance_profile(
      {"NSR", "RMA", "NCL"}, times, perf::tau_grid(8.0, 1.25));
  std::printf("%s", perf::render_profiles(curves).c_str());
  std::printf("\ncolumns are the fraction of instances each scheme solves "
              "within a factor tau of the per-instance best.\n");
  std::printf("paper shape: RMA hugs the top (most consistent), NCL close; "
              "NSR reaches 1.0 only at large tau, competitive on ~10%% of "
              "instances at tau=1.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
