// Replay-vs-full-sim cross-check for the what-if engine (`meltrace
// replay`), two modes:
//
//   --mode speedup (default): record one traced run on the fig04 RGG
//     weak-scaling config (512 ranks by default), then price a perturbed
//     parameter set twice — once by re-running the full simulator, once
//     by replaying the recorded trace — and report the host wall-clock
//     ratio. The acceptance bar is the replay itself (re-pricing the
//     already-built DAG) >= 20x faster than the full run; trace parse +
//     DAG build is reported separately because it is paid once per trace
//     and amortizes across a what-if sweep (see --mode crossover, which
//     prices 10 parameter points from 2 ingestions). A miss prints a
//     warning rather than failing, since shared CI hosts are noisy.
//     Default model is NCL: fig04's strongest backend, and the only
//     family whose 512-rank trace fits comfortably in the in-memory
//     recorder (an NSR trace at p=512 is tens of GB).
//
//   --mode crossover: the capacity-planning use case from EXPERIMENTS.md.
//     Record two backends' traces once at the calibrated network, then
//     sweep one net::Params field (--param, canonical names/aliases as
//     in `meltrace replay --set`) and compare the replay-predicted
//     totals against full-sim measured totals at every point — including
//     where the predicted winner flips.
//
// Flags: --ranks P, --verts-per-rank N, --scale S, --model M (speedup
// mode), --model-a/--model-b, --gen rmat|rgg, --ranks-per-node K,
// --param NAME, --values list (crossover sweep), --csv.
#include "common.hpp"

#include <chrono>
#include <cmath>

#include "mel/net/params_io.hpp"
#include "mel/obs/recorder.hpp"
#include "mel/obs/replay.hpp"

using namespace mel;

namespace {

class WallTimer {
 public:
  // mellint: allow(wallclock) — host-side benchmark timing; measures the
  // simulator/replayer themselves, never feeds simulated state.
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    // mellint: allow(wallclock) — host-side benchmark timing (see ctor).
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  // mellint: allow(wallclock) — host-side benchmark timing (see ctor).
  std::chrono::steady_clock::time_point start_;
};

/// One traced run -> self-contained trace text (what melsim --trace
/// writes), plus the recorded total for sanity prints.
struct TracedRun {
  std::string trace;
  sim::Time total = 0;
};

TracedRun record(const graph::Csr& g, int ranks, match::Model model,
                 int ranks_per_node) {
  obs::Recorder rec;
  match::RunConfig cfg;
  cfg.net.ranks_per_node = ranks_per_node;
  cfg.tracer = &rec;
  rec.set_run_info("match", match::model_name(model), ranks, 1);
  rec.set_net_params(cfg.net);
  const auto run = match::run_match(g, ranks, model, cfg);
  rec.set_run_result(run.time, run.trace_hash, run.sim_events);
  return {rec.to_chrome_json(), run.time};
}

int run_speedup(const util::Cli& cli) {
  const int ranks = static_cast<int>(cli.get_int("ranks", 512));
  const int scale = static_cast<int>(cli.get_int("scale", 0));
  const auto verts_per_rank = cli.get_int("verts-per-rank", 8192) << scale;
  const auto model = match::parse_model(cli.get("model", "NCL"));
  const graph::VertexId n = verts_per_rank * ranks;

  std::printf("== replay vs full-sim: what-if pricing, fig04 RGG, p=%d ==\n\n",
              ranks);
  const auto g =
      gen::random_geometric(n, gen::rgg_radius_for_degree(n, 24.0), 1);
  std::printf("input: |V|=%lld |E|=%lld model=%s\n",
              static_cast<long long>(g.nverts()),
              static_cast<long long>(g.nedges()), match::model_name(model));

  const TracedRun traced = record(g, ranks, model, net::Params{}.ranks_per_node);
  std::printf("recorded: %lld ns virtual, %zu trace bytes\n",
              static_cast<long long>(traced.total), traced.trace.size());

  // The what-if: double the inter-node latency.
  match::RunConfig perturbed_cfg;
  perturbed_cfg.net.alpha_inter *= 2;

  const WallTimer full_timer;
  const auto full = match::run_match(g, ranks, model, perturbed_cfg);
  const double full_s = full_timer.seconds();

  const WallTimer ingest_timer;
  const obs::Replayer rp(obs::load_replay_trace_text(traced.trace));
  const double ingest_s = ingest_timer.seconds();

  const WallTimer replay_timer;
  const obs::ReplayResult predicted = rp.replay(perturbed_cfg.net);
  const double replay_s = replay_timer.seconds();

  const double ratio = replay_s > 0 ? full_s / replay_s : 0.0;
  const double e2e = ingest_s + replay_s > 0 ? full_s / (ingest_s + replay_s)
                                             : 0.0;
  util::Table table({"pricing path", "wall (s)", "virtual total (ns)"});
  table.add_row({"full simulation", util::fmt_double(full_s, 3),
                 std::to_string(full.time)});
  table.add_row({"trace ingest (parse+DAG, once per trace)",
                 util::fmt_double(ingest_s, 3), "-"});
  table.add_row({"what-if replay (re-price)", util::fmt_double(replay_s, 3),
                 std::to_string(predicted.total_ns)});
  bench::emit(cli, table);
  std::printf("\nreplay speedup: %.1fx (acceptance bar: >= 20x); "
              "%.1fx including one-time ingest\n",
              ratio, e2e);
  const double err =
      full.time > 0
          ? 100.0 * static_cast<double>(predicted.total_ns - full.time) /
                static_cast<double>(full.time)
          : 0.0;
  std::printf("predicted vs measured what-if total: %+.2f%%\n", err);
  if (ratio < 20.0) {
    std::printf("WARNING: replay speedup below the 20x acceptance bar\n");
  }
  return 0;
}

int run_crossover(const util::Cli& cli) {
  const int ranks = static_cast<int>(cli.get_int("ranks", 64));
  const int scale = static_cast<int>(cli.get_int("scale", 0));
  const auto verts_per_rank = cli.get_int("verts-per-rank", 2048) << scale;
  // Small nodes (4 ranks) put real traffic on the inter-node links; with
  // the default 32-rank nodes a 64-rank run has only two nodes and the
  // inter-node alpha barely touches either backend's critical path.
  const int rpn = static_cast<int>(cli.get_int("ranks-per-node", 4));
  // Sweep axis: any canonical net::Params field or alias (the same names
  // `meltrace replay --set` takes), L_inter by default.
  const std::string param =
      net::canonical_param_name(cli.get("param", "L_inter"));
  if (param.empty()) {
    std::fprintf(stderr, "unknown net param for --param\n");
    return 2;
  }
  const auto values =
      cli.get_int_list("values", "1400,5600,22400,89600,358400");
  const graph::VertexId n = verts_per_rank * ranks;

  const auto model_a = match::parse_model(cli.get("model-a", "NSR"));
  const auto model_b = match::parse_model(cli.get("model-b", "NSR-AGG"));
  const char* na = match::model_name(model_a);
  const char* nb = match::model_name(model_b);

  std::printf("== replay-predicted vs measured: %s / %s crossover ==\n\n", na,
              nb);
  // R-MAT by default (the fig04b family): its cross-rank fan-out gives
  // the node-aware relay something to aggregate. On RGG nearly every
  // process edge is rank r <-> r+1 — mostly intra-node — so NSR-HIER's
  // extra leader hop never pays for itself at any latency.
  const std::string gname = cli.get("gen", "rmat");
  const auto g = gname == "rgg"
                     ? gen::random_geometric(
                           n, gen::rgg_radius_for_degree(n, 24.0), 1)
                     : gen::rmat(static_cast<int>(std::lround(
                                     std::log2(static_cast<double>(n)))),
                                 16, 7);
  std::printf("input: %s |V|=%lld |E|=%lld p=%d ranks/node=%d (traces "
              "recorded once at alpha_inter=%lld)\n\n",
              gname.c_str(), static_cast<long long>(g.nverts()),
              static_cast<long long>(g.nedges()), ranks, rpn,
              static_cast<long long>(net::Params{}.alpha_inter));

  const obs::Replayer ra(
      obs::load_replay_trace_text(record(g, ranks, model_a, rpn).trace));
  const obs::Replayer rb(
      obs::load_replay_trace_text(record(g, ranks, model_b, rpn).trace));

  util::Table table({param, std::string(na) + " pred (ns)",
                     std::string(nb) + " pred (ns)", "pred winner",
                     std::string(na) + " meas (ns)",
                     std::string(nb) + " meas (ns)", "meas winner"});
  for (const auto v64 : values) {
    net::Params p;
    p.ranks_per_node = rpn;
    net::set_param(p, param, static_cast<double>(v64));
    const sim::Time pa = ra.replay(p).total_ns;
    const sim::Time pb = rb.replay(p).total_ns;

    match::RunConfig cfg;
    cfg.net.ranks_per_node = rpn;
    net::set_param(cfg.net, param, static_cast<double>(v64));
    const sim::Time ma = match::run_match(g, ranks, model_a, cfg).time;
    const sim::Time mb = match::run_match(g, ranks, model_b, cfg).time;

    table.add_row({std::to_string(v64), std::to_string(pa), std::to_string(pb),
                   pa <= pb ? na : nb, std::to_string(ma), std::to_string(mb),
                   ma <= mb ? na : nb});
  }
  bench::emit(cli, table);
  std::printf(
      "\nshape: replay predicts each backend's trend from one trace per\n"
      "backend; the predicted winner flip should match the measured one.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const std::string mode = cli.get("mode", "speedup");
  if (mode == "crossover") return run_crossover(cli);
  if (mode != "speedup") {
    std::fprintf(stderr, "unknown --mode %s (speedup|crossover)\n",
                 mode.c_str());
    return 2;
  }
  return run_speedup(cli);
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
