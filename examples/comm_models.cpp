// Compare the three MPI communication models (plus the MatchBox-P-style
// baseline) on one input — a miniature of the paper's core experiment.
//
//   ./comm_models [--dataset Orkut-like] [--scale -2] [--ranks 64]
//
// Dataset ids come from the Table II registry (see bench_tab02_datasets).
#include <cstdio>

#include "mel/gen/registry.hpp"
#include "mel/match/driver.hpp"
#include "mel/match/verify.hpp"
#include "mel/perf/energy.hpp"
#include "mel/util/cli.hpp"
#include "mel/util/table.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv, {"dataset", "scale", "ranks"});
  const std::string id = cli.get("dataset", "Orkut-like");
  const int scale = static_cast<int>(cli.get_int("scale", -2));
  const int ranks = static_cast<int>(cli.get_int("ranks", 64));

  const auto dataset = gen::find_dataset(id, scale);
  const graph::Csr g = dataset.build();
  std::printf("%s (%s): |V|=%lld |E|=%lld, p=%d\n\n", dataset.id.c_str(),
              dataset.category.c_str(), static_cast<long long>(g.nverts()),
              static_cast<long long>(g.nedges()), ranks);

  const graph::DistGraph dg(g, ranks);
  util::Table table({"model", "time(s)", "speedup", "msgs", "colls",
                     "mem MB/proc", "energy kJ", "comp%", "MPI%"});
  double base_time = 0.0;
  for (const auto model : {match::Model::kNsr, match::Model::kRma,
                           match::Model::kNcl, match::Model::kMbp}) {
    auto run = match::run_match(dg, model);
    run.matching.weight = match::matching_weight(g, run.matching.mate);
    if (!match::is_valid_matching(g, run.matching.mate)) {
      std::fprintf(stderr, "invalid matching from %s!\n",
                   match::model_name(model));
      return 1;
    }
    if (model == match::Model::kNsr) base_time = run.seconds();
    const auto energy = perf::energy_report(run, net::Params{});
    const auto memory = perf::memory_report(run);
    table.add_row({match::model_name(model), util::fmt_double(run.seconds(), 4),
                   util::fmt_double(base_time / run.seconds(), 2) + "x",
                   util::fmt_si(static_cast<double>(run.totals.isends +
                                                    run.totals.puts)),
                   util::fmt_si(static_cast<double>(run.totals.neighbor_colls +
                                                    run.totals.allreduces)),
                   util::fmt_double(perf::memory_report(run).avg_mb_per_rank(), 1),
                   util::fmt_double(energy.node_energy_kj, 4),
                   util::fmt_double(energy.comp_pct, 1),
                   util::fmt_double(energy.mpi_pct, 1)});
    (void)memory;
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nspeedup is relative to the nonblocking Send-Recv baseline (NSR).\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
