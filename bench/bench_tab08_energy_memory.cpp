// Table VIII: memory per process, node energy/power, compute/MPI split,
// and energy-delay product for the three models on three inputs
// (social-network stand-in, stochastic block partition, HV15R-like).
#include "common.hpp"

#include "mel/perf/energy.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv, {"ranks", "scale", "csv"});
  const int scale = static_cast<int>(cli.get_int("scale", 0));
  const int ranks = static_cast<int>(cli.get_int("ranks", 128));

  struct Inst {
    std::string name;
    graph::Csr g;
  };
  const graph::VertexId side = 24 << (scale > 0 ? scale / 3 : 0);
  std::vector<Inst> instances;
  {
    const graph::VertexId n = graph::VertexId{1} << (16 + scale);
    instances.push_back({"Friendster-like", gen::chung_lu(n, n * 27, 2.35, 3)});
  }
  {
    const graph::VertexId n = graph::VertexId{1} << (15 + scale);
    instances.push_back({"HILO SBP", gen::stochastic_block(n, n * 24, 32, 0.6, 1)});
  }
  instances.push_back({"HV15R-like", gen::stencil3d(side, side, side, 0.9, 5)});

  std::printf("== Table VIII: power/energy and memory on %d processes ==\n\n",
              ranks);
  const net::Params np;
  for (const auto& inst : instances) {
    std::printf("--- %s (|E|=%s) ---\n", inst.name.c_str(),
                util::fmt_si(static_cast<double>(inst.g.nedges())).c_str());
    util::Table table({"ver", "mem MB/proc", "node eng (kJ)", "node pwr (kW)",
                       "comp%", "MPI%", "EDP"});
    for (const auto model : bench::kPaperModels) {
      const auto run = bench::run_verified(inst.g, ranks, model);
      const auto energy = perf::energy_report(run, np);
      const auto memory = perf::memory_report(run);
      char edp[32];
      std::snprintf(edp, sizeof edp, "%.3e", energy.edp);
      table.add_row({match::model_name(model),
                     util::fmt_double(memory.avg_mb_per_rank(), 1),
                     util::fmt_double(energy.node_energy_kj, 4),
                     util::fmt_double(energy.node_power_kw, 3),
                     util::fmt_double(energy.comp_pct, 1),
                     util::fmt_double(energy.mpi_pct, 1), edp});
    }
    bench::emit(cli, table);
    std::printf("\n");
  }
  std::printf("paper shape: NCL uses the least memory (1.03-2.3x below NSR, "
              "9-27%% below RMA); NSR burns ~4x the energy of RMA/NCL on the "
              "social input; RMA/NCL spend a larger share in MPI (global "
              "exit reduction); NCL has the best EDP overall.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
