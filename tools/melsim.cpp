// melsim — run any algorithm x input x communication model combination on
// the simulated machine from the command line.
//
//   melsim --algo match --model NCL --ranks 64 --dataset Orkut-like
//   melsim --algo match --model RMA --ranks 32 --mtx path/to/graph.mtx
//   melsim --algo bfs   --model NSR --ranks 16 --gen rmat --gen-scale 14
//   melsim --algo match --model NSR --fault-loss 0.05 --fault-crash 2@40000000
//
// Run `melsim --help` for the full option list. Unknown options and
// malformed values are rejected (exit 2) instead of silently ignored.
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "mel/bfs/bfs.hpp"
#include "mel/color/color.hpp"
#include "mel/gen/registry.hpp"
#include "mel/graph/io.hpp"
#include "mel/graph/stats.hpp"
#include "mel/match/driver.hpp"
#include "mel/match/verify.hpp"
#include "mel/obs/emit.hpp"
#include "mel/obs/recorder.hpp"
#include "mel/order/rcm.hpp"
#include "mel/perf/energy.hpp"
#include "mel/prof/prof.hpp"
#include "mel/perf/report.hpp"
#include "mel/util/cli.hpp"

using namespace mel;

namespace {

struct Flag {
  const char* name;  // without the leading "--"
  const char* arg;   // metavar, or "" for boolean flags
  const char* help;
};

// Every option melsim understands. --help prints this table and anything
// not in it is rejected up front, so a typo'd knob can never silently run
// the unperturbed configuration.
constexpr Flag kFlags[] = {
    {"help", "", "print this option list and exit"},
    {"algo", "match|bfs|color",
     "algorithm to run (default match); bfs and color run on NSR or NCL"},
    {"model",
     "NSR|RMA|NCL|MBP|NSR-AGG|RMA-FENCE|NCL-NB|NSR-HIER|NCL-PERSIST|RMA-PART",
     "communication model (default NCL)"},
    {"ranks", "P", "simulated MPI ranks (default 64)"},
    {"dataset", "ID", "build a Table II dataset by id"},
    {"scale", "N", "dataset scale override"},
    {"mtx", "FILE", "load a Matrix Market graph"},
    {"bin", "FILE", "load a binary .melg graph"},
    {"gen", "rmat|rgg|er|ba|ws|sbp|chunglu", "synthetic generator"},
    {"verts", "N", "generator vertex count"},
    {"edges", "M", "generator edge count"},
    {"gen-scale", "N", "rmat scale (default 14)"},
    {"seed", "S", "generator seed (default 1)"},
    {"root", "V", "bfs root vertex (default 0)"},
    {"rcm", "", "apply RCM reordering first"},
    {"edge-balance", "", "edge-balanced 1D partition (match only)"},
    {"trace", "FILE",
     "write a Chrome/Perfetto trace (spans, message flows, counter tracks)"},
    {"metrics-jsonl", "FILE",
     "write machine-readable telemetry records (schema mel.metrics/1)"},
    {"sample-interval", "NS",
     "gauge sampling period in virtual ns for --trace/--metrics-jsonl "
     "counter tracks (positive integer, default 100000)"},
    {"matrix", "FILE", "write the comm matrix (bytes) as CSV"},
    {"csv", "", "machine-readable one-line summary"},
    {"chaos-seed", "S", "fault-injection seed (default 1)"},
    {"chaos-jitter", "F", "per-message latency jitter fraction"},
    {"chaos-stragglers", "K", "number of slowed ranks"},
    {"chaos-straggler-slow", "X", "compute slowdown factor for stragglers"},
    {"chaos-coll-skew", "NS", "max per-rank collective entry skew (ns)"},
    {"fault-loss", "P", "per-copy wire loss probability (needs mel::ft)"},
    {"fault-dup", "P", "per-copy wire duplication probability"},
    {"fault-corrupt", "P", "per-copy payload corruption probability"},
    {"fault-crash", "R@NS[,R@NS...]",
     "fail-stop crash of rank R at virtual time NS"},
    {"ft", "", "force the reliable ack/retransmit transport on"},
    {"ft-retry-max", "K", "max retransmits before giving up (default 16)"},
    {"ft-checkpoint-ns", "N",
     "checkpoint interval for crash recovery, in virtual ns (0=off)"},
    {"ft-recovery", "shrink|rollback",
     "crash recovery strategy: ULFM shrink-and-continue on live survivor "
     "state (default) or rollback to the last checkpoint"},
    {"threads", "T",
     "host threads for the sharded event engine (1-1024, default 1); "
     "results are bit-identical at any value"},
    {"intra-node-params", "L,O,G",
     "intra-node LogGP overrides: latency ns, send/recv overhead ns, "
     "inverse bandwidth ns/byte (defaults equal the inter-node values)"},
    {"watchdog-horizon", "NS", "abort if virtual time exceeds NS (0=off)"},
    {"host-profile", "",
     "measure host wall time per substrate subsystem; print a table"},
    {"host-profile-json", "FILE",
     "like --host-profile but write the breakdown as JSON to FILE"},
};

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: melsim [--option value ...]\n"
               "run one algorithm x input x communication model combination "
               "on the simulated machine.\n\noptions:\n");
  for (const Flag& f : kFlags) {
    std::string left = std::string("--") + f.name;
    if (f.arg[0] != '\0') left += std::string(" ") + f.arg;
    std::fprintf(out, "  %-42s %s\n", left.c_str(), f.help);
  }
}

bool known_flag(const std::string& name) {
  for (const Flag& f : kFlags) {
    if (name == f.name) return true;
  }
  return false;
}

/// Check --algo, and that BFS and coloring get only what they implement:
/// the NSR or NCL model, and no crash recovery.
void check_algo(const std::string& algo, match::Model model,
                const util::Cli& cli) {
  if (algo == "match") return;
  if (algo != "bfs" && algo != "color") {
    throw std::invalid_argument("unknown --algo " + algo +
                                " (expected match, bfs or color)");
  }
  if (!match::supports_levels(model)) {
    throw std::invalid_argument("--algo " + algo +
                                " runs on --model NSR or NCL only, got " +
                                match::model_name(model));
  }
  for (const char* flag : {"fault-crash", "edge-balance"}) {
    if (cli.has(flag)) {
      throw std::invalid_argument(std::string("--") + flag +
                                  " applies to --algo match only");
    }
  }
}

/// Integer flag `name` (or `fallback` when absent), required to lie in
/// [lo, hi], which defaults to the range of T: an out-of-range value is a
/// usage error naming the flag, never one silently narrowed to fit.
template <class T = int>
T int_flag(const util::Cli& cli, const char* name, std::int64_t fallback,
           std::int64_t lo = std::numeric_limits<T>::min(),
           std::int64_t hi = std::numeric_limits<T>::max()) {
  const std::int64_t v = cli.get_int(name, fallback);
  if (v < lo || v > hi) {
    throw std::invalid_argument(std::string("--") + name +
                                ": must be between " + std::to_string(lo) +
                                " and " + std::to_string(hi) + ", got " +
                                std::to_string(v));
  }
  return static_cast<T>(v);
}

/// Parse --root: a vertex id, checked against |V| once the graph is
/// loaded. An out-of-range root would leave every vertex unreachable and
/// still compare equal to the serial BFS.
graph::VertexId parse_root(const std::string& text) {
  const auto v = util::parse_int(text);
  if (!v || *v < 0) {
    throw std::invalid_argument(
        "--root: expected a vertex id (non-negative integer), got \"" + text +
        "\"");
  }
  return *v;
}

/// Parse "R@NS[,R@NS...]" into scheduled fail-stop crashes, validating
/// each pair at parse time: the rank must exist in the job and the crash
/// time must be positive.
std::vector<chaos::Config::Crash> parse_crashes(const std::string& text,
                                                int ranks) {
  std::vector<chaos::Config::Crash> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string piece = text.substr(pos, comma - pos);
    const auto at = piece.find('@');
    const std::string_view view(piece);
    const auto rank = util::parse_int(view.substr(0, at));
    const auto time = at == std::string::npos
                          ? std::nullopt
                          : util::parse_int(view.substr(at + 1));
    if (!rank || !time) {
      throw std::invalid_argument(
          "--fault-crash: expected R@NS with integer R and NS, got \"" +
          piece + "\"");
    }
    if (*rank < 0 || *rank >= ranks) {
      throw std::invalid_argument("--fault-crash: rank " +
                                  std::to_string(*rank) +
                                  " out of range for --ranks " +
                                  std::to_string(ranks));
    }
    if (*time <= 0) {
      throw std::invalid_argument(
          "--fault-crash: crash time must be a positive virtual-ns value, "
          "got " + std::to_string(*time));
    }
    out.push_back({static_cast<sim::Rank>(*rank), *time});
    pos = comma + 1;
  }
  return out;
}

/// Parse --intra-node-params "L,O,G" into `net`: intra-node latency (ns,
/// > 0), send/recv software overhead (ns, >= 0), inverse bandwidth
/// (ns/byte, >= 0).
void parse_intra_node(const std::string& text, net::Params& net) {
  const auto bad = [&text](const char* why) {
    throw std::invalid_argument("--intra-node-params: " + std::string(why) +
                                ", got \"" + text + "\"");
  };
  const auto c1 = text.find(',');
  const auto c2 = c1 == std::string::npos ? c1 : text.find(',', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos ||
      text.find(',', c2 + 1) != std::string::npos) {
    bad("expected L,O,G");
  }
  const std::string_view view(text);
  const auto l = util::parse_int(view.substr(0, c1));
  const auto o = util::parse_int(view.substr(c1 + 1, c2 - c1 - 1));
  const auto g = util::parse_double(view.substr(c2 + 1));
  if (!l) bad("L must be an integer");
  if (!o) bad("O must be an integer");
  if (!g) bad("G must be a number");
  if (*l <= 0) bad("L (latency ns) must be positive");
  if (*o < 0) bad("O (overhead ns) must be >= 0");
  if (*g < 0.0) bad("G (ns/byte) must be >= 0");
  net.alpha_intra = *l;
  net.o_send_intra = *o;
  net.o_recv_intra = *o;
  net.beta_intra = *g;
}

/// Where the bytes of an output file go. A regular file, new or existing,
/// is written whole or not at all: into a temporary sibling first, renamed
/// over the path only after a checked close. Anything else (/dev/null,
/// /dev/full, a FIFO) is written in place, and never renamed over.
struct Destination {
  std::string path;  // symlinks resolved, so the rename replaces the file
  std::string temp;  // empty: written in place
  mode_t mode = 0;   // an existing file's permission bits, for the new one
};

Destination destination(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    return {path, path + ".tmp" + std::to_string(::getpid())};
  }
  if (!S_ISREG(st.st_mode)) return {path, ""};
  std::string real = path;
  if (char* resolved = ::realpath(path.c_str(), nullptr)) {
    real = resolved;
    std::free(resolved);
  }
  return {real, real + ".tmp" + std::to_string(::getpid()),
          st.st_mode & 07777};
}

[[noreturn]] void cannot_write(const char* flag, const std::string& path,
                               int err) {
  throw std::runtime_error(std::string("--") + flag + ": cannot write \"" +
                           path + "\": " + std::strerror(err));
}

/// Probe an output path for writability before the simulation runs: a bad
/// --trace/--metrics-jsonl/--matrix/--host-profile-json destination is a
/// usage error, not something to discover after minutes of simulated work.
/// The probe opens the path in append mode (leaving an existing file's
/// bytes alone) and removes the file again if the probe itself created it;
/// for a regular file it also creates and removes the temporary sibling.
void require_writable(const char* flag, const std::string& path) {
  const Destination dest = destination(path);
  for (const std::string& file : {path, dest.temp}) {
    if (file.empty()) continue;
    std::FILE* probe = std::fopen(file.c_str(), "rb");
    const bool existed = probe != nullptr;
    if (probe) std::fclose(probe);
    std::FILE* f = std::fopen(file.c_str(), "ab");
    if (!f) {
      throw std::invalid_argument(std::string("--") + flag +
                                  ": cannot write \"" + path +
                                  "\": " + std::strerror(errno));
    }
    std::fclose(f);
    if (!existed) std::remove(file.c_str());
  }
}

/// Write the output file of `--flag` whole: `write` streams the bytes into
/// an obs::Emitter. Open, every write and close are checked: a full device
/// often takes the buffered bytes and refuses only the flush at close, and
/// a run whose output was lost must not exit 0. On failure the temporary
/// is removed and the path is left as it was.
template <class Write>
void write_output(const char* flag, const std::string& path, Write write) {
  const Destination dest = destination(path);
  const std::string& file = dest.temp.empty() ? dest.path : dest.temp;
  std::FILE* f = std::fopen(file.c_str(), dest.temp.empty() ? "wb" : "wbx");
  if (f == nullptr) cannot_write(flag, path, errno);
  bool ok = false;
  try {
    obs::Emitter out(f);
    write(out);
    ok = out.flush();
  } catch (...) {
    std::fclose(f);
    if (!dest.temp.empty()) std::remove(file.c_str());
    throw;
  }
  int err = errno;
  if (std::fclose(f) != 0 && ok) {
    ok = false;
    err = errno;
  }
  if (ok && !dest.temp.empty()) {
    ok = (dest.mode == 0 || ::chmod(file.c_str(), dest.mode) == 0) &&
         std::rename(file.c_str(), dest.path.c_str()) == 0;
    err = errno;
  }
  if (!ok) {
    if (!dest.temp.empty()) std::remove(file.c_str());
    cannot_write(flag, path, err);
  }
}

void write_output(const char* flag, const std::string& path,
                  const std::string& text) {
  write_output(flag, path, [&text](obs::Emitter& out) { out << text; });
}

ft::Recovery parse_recovery(const std::string& name) {
  if (name == "shrink") return ft::Recovery::kShrink;
  if (name == "rollback") return ft::Recovery::kRollback;
  throw std::invalid_argument("unknown --ft-recovery: " + name +
                              " (expected shrink or rollback)");
}

/// Every RunConfig knob from the command line, checked before any graph
/// work: a malformed value is a usage error, not something to discover
/// after minutes of graph loading. The tracer is left to the caller.
match::RunConfig parse_config(const util::Cli& cli, int ranks) {
  match::RunConfig cfg;
  cfg.collect_matrix = cli.has("matrix");
  cfg.threads = int_flag(cli, "threads", 1, 1, 1024);
  cfg.sample_interval_ns = cli.get_int("sample-interval", 100000);
  if (cfg.sample_interval_ns < 1) {
    // A zero or negative period would make the sampler spin forever (or
    // never fire).
    throw std::invalid_argument(
        "--sample-interval: must be a positive ns period, got " +
        std::to_string(cfg.sample_interval_ns));
  }
  cfg.watchdog_horizon = int_flag<sim::Time>(cli, "watchdog-horizon", 0, 0);
  if (cli.has("intra-node-params")) {
    parse_intra_node(cli.get("intra-node-params", ""), cfg.net);
  }
  chaos::Config& chaos = cfg.net.chaos;
  chaos.seed = static_cast<std::uint64_t>(cli.get_int("chaos-seed", 1));
  chaos.latency_jitter = cli.get_double("chaos-jitter", 0.0);
  chaos.stragglers = int_flag(cli, "chaos-stragglers", 0, 0);
  chaos.straggler_slowdown = cli.get_double("chaos-straggler-slow", 1.0);
  chaos.collective_skew = cli.get_int("chaos-coll-skew", 0);
  chaos.loss = cli.get_double("fault-loss", 0.0);
  chaos.duplication = cli.get_double("fault-dup", 0.0);
  chaos.corruption = cli.get_double("fault-corrupt", 0.0);
  if (cli.has("fault-crash")) {
    chaos.crashes = parse_crashes(cli.get("fault-crash", ""), ranks);
  }
  cfg.ft.enabled = cli.get_bool("ft", false);
  cfg.ft.retry_max = int_flag(cli, "ft-retry-max", cfg.ft.retry_max, 0);
  cfg.ft.checkpoint_ns = cli.get_int("ft-checkpoint-ns", cfg.ft.checkpoint_ns);
  if (cli.has("ft-recovery")) {
    cfg.ft.recovery = parse_recovery(cli.get("ft-recovery", ""));
  }
  // The cost model's domain check (finite, in range, no overflowing
  // rates) is the Network's own; run it now rather than after the graph.
  (void)net::Network(ranks, cfg.net);
  return cfg;
}

graph::Csr load_graph(const util::Cli& cli) {
  if (cli.has("mtx")) return graph::read_matrix_market_file(cli.get("mtx", ""));
  if (cli.has("bin")) return graph::read_binary_file(cli.get("bin", ""));
  if (cli.has("dataset")) {
    return gen::find_dataset(cli.get("dataset", ""), int_flag(cli, "scale", 0),
                             static_cast<std::uint64_t>(cli.get_int("seed", 1)))
        .build();
  }
  const std::string kind = cli.get("gen", "rmat");
  const auto n = cli.get_int("verts", 1 << 15);
  const auto m = cli.get_int("edges", n * 16);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const int gscale = int_flag(cli, "gen-scale", 14, 1);
  if (kind == "rmat") return gen::rmat(gscale, 16, seed);
  if (kind == "rgg") {
    return gen::random_geometric(n, gen::rgg_radius_for_degree(n, 24.0), seed);
  }
  if (kind == "er") return gen::erdos_renyi(n, m, seed);
  if (kind == "ba") return gen::barabasi_albert(n, 8, seed);
  if (kind == "ws") return gen::watts_strogatz(n, 8, 0.1, seed);
  if (kind == "sbp") return gen::stochastic_block(n, n * 24, 32, 0.6, seed);
  if (kind == "chunglu") return gen::chung_lu(n, m, 2.3, seed);
  throw std::invalid_argument("unknown generator: " + kind);
}

int run(const util::Cli& cli) {
  const std::string algo = cli.get("algo", "match");
  const auto model = match::parse_model(cli.get("model", "NCL"));
  check_algo(algo, model, cli);
  const graph::VertexId root = parse_root(cli.get("root", "0"));
  const int ranks = int_flag(cli, "ranks", 64, 1);
  const bool csv = cli.get_bool("csv", false);
  match::RunConfig cfg = parse_config(cli, ranks);
  for (const char* flag :
       {"trace", "metrics-jsonl", "matrix", "host-profile-json"}) {
    if (cli.has(flag)) require_writable(flag, cli.get(flag, ""));
  }

  const bool host_profile =
      cli.get_bool("host-profile", false) || cli.has("host-profile-json");
  if (host_profile) prof::set_enabled(true);

  graph::Csr g = load_graph(cli);
  if (cli.get_bool("rcm", false)) g = g.permuted(order::rcm(g));
  if (algo == "bfs" && root >= g.nverts()) {
    throw std::invalid_argument("--root " + std::to_string(root) +
                                " is not a vertex of the " +
                                std::to_string(g.nverts()) + "-vertex input");
  }
  if (!csv) {
    std::printf("input: |V|=%lld |E|=%lld  algo=%s model=%s p=%d\n",
                static_cast<long long>(g.nverts()),
                static_cast<long long>(g.nedges()), algo.c_str(),
                match::model_name(model), ranks);
  }

  obs::Recorder recorder;
  const bool want_obs = cli.has("trace") || cli.has("metrics-jsonl");
  if (want_obs) {
    cfg.tracer = &recorder;
    recorder.set_run_info(algo, match::model_name(model), ranks,
                          static_cast<std::uint64_t>(cli.get_int("seed", 1)));
    // The embedded params must be exactly what the machine prices with, or
    // replay fidelity breaks.
    recorder.set_net_params(cfg.net);
  }

  // Each branch prints its own summary; the statistics every algorithm
  // reports are kept (sliced off the full result) for the outputs below.
  match::RunStats stats;
  bool ok = false;
  if (algo == "match") {
    match::RunResult run;
    if (cli.get_bool("edge-balance", false)) {
      const graph::DistGraph dg(g, graph::edge_balanced_partition(g, ranks));
      run = match::run_match(dg, model, cfg);
      run.matching.weight = match::matching_weight(g, run.matching.mate);
    } else {
      run = match::run_match(g, ranks, model, cfg);
    }
    ok = match::is_valid_matching(g, run.matching.mate);
    const auto energy = perf::energy_report(run, cfg.net);
    const auto memory = perf::memory_report(run);
    if (csv) {
      std::printf("match,%s,%d,%.6f,%.3f,%lld,%d,%.1f,%.4f\n",
                  match::model_name(model), ranks, run.seconds(),
                  run.matching.weight,
                  static_cast<long long>(run.matching.cardinality), ok,
                  memory.avg_mb_per_rank(), energy.node_energy_kj);
    } else {
      std::printf("%s\n", perf::run_summary(run).c_str());
      std::printf("valid=%s  mem=%.1f MB/proc  energy=%.4f kJ  comp%%=%.1f "
                  "MPI%%=%.1f\n",
                  ok ? "yes" : "NO", memory.avg_mb_per_rank(),
                  energy.node_energy_kj, energy.comp_pct, energy.mpi_pct);
      const auto& t = run.totals;
      if (t.retransmits != 0 || t.dropped != 0 || t.corrupt_detected != 0 ||
          t.dup_filtered != 0 || t.acks != 0) {
        std::printf("ft: retransmits=%llu dropped=%llu corrupt=%llu "
                    "dup_filtered=%llu acks=%llu\n",
                    static_cast<unsigned long long>(t.retransmits),
                    static_cast<unsigned long long>(t.dropped),
                    static_cast<unsigned long long>(t.corrupt_detected),
                    static_cast<unsigned long long>(t.dup_filtered),
                    static_cast<unsigned long long>(t.acks));
      }
      if (!run.failed_ranks.empty()) {
        std::string list;
        for (const auto r : run.failed_ranks) {
          if (!list.empty()) list += ",";
          list += std::to_string(r);
        }
        std::printf("faults: failed_ranks=[%s] recoveries=%d shrinks=%d  "
                    "(matching covers surviving ranks only)\n",
                    list.c_str(), run.recoveries, run.shrinks);
      }
    }
    stats = std::move(run);
  } else if (algo == "bfs") {
    bfs::BfsResult run = bfs::run_bfs(g, ranks, root, model, cfg);
    ok = run.dist == bfs::serial_bfs(g, root);
    std::printf("bfs,%s,%d,%.6f,levels=%lld,correct=%s\n",
                match::model_name(model), ranks, run.seconds(),
                static_cast<long long>(run.levels), ok ? "yes" : "NO");
    stats = std::move(run);
  } else {
    color::ColorResult run = color::run_coloring(g, ranks, model, cfg);
    ok = color::is_proper_coloring(g, run.colors);
    std::printf("color,%s,%d,%.6f,colors=%lld,rounds=%lld,proper=%s\n",
                match::model_name(model), ranks, run.seconds(),
                static_cast<long long>(color::color_count(run.colors)),
                static_cast<long long>(run.rounds), ok ? "yes" : "NO");
    stats = std::move(run);
  }
  if (want_obs) {
    recorder.set_run_result(stats.time, stats.trace_hash, stats.sim_events);
  }
  if (cli.has("matrix")) {
    write_output("matrix", cli.get("matrix", ""),
                 perf::matrix_csv(*stats.matrix, true));
  }
  if (!ok) return 1;

  if (cli.has("trace")) {
    write_output("trace", cli.get("trace", "trace.json"),
                 [&](obs::Emitter& out) { recorder.write_chrome(out); });
    if (!csv) {
      std::printf("trace: %zu spans, %zu flows, %zu samples -> %s\n",
                  recorder.spans().size(), recorder.flows().size(),
                  recorder.samples().size(),
                  cli.get("trace", "trace.json").c_str());
    }
  }
  if (cli.has("metrics-jsonl")) {
    write_output("metrics-jsonl", cli.get("metrics-jsonl", "metrics.jsonl"),
                 [&](obs::Emitter& out) { recorder.write_metrics(out); });
    if (!csv) {
      std::printf("metrics: %zu samples, %zu iterations -> %s\n",
                  recorder.samples().size(), recorder.iterations().size(),
                  cli.get("metrics-jsonl", "metrics.jsonl").c_str());
    }
  }
  if (host_profile) {
    if (cli.has("host-profile-json")) {
      const std::string path = cli.get("host-profile-json", "");
      write_output("host-profile-json", path, prof::report_json());
      if (!csv) std::printf("host profile -> %s\n", path.c_str());
    }
    if (cli.get_bool("host-profile", false)) {
      std::printf("%s", prof::report().c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.has("help")) {
    print_usage(stdout);
    return 0;
  }
  for (const std::string& name : cli.option_names()) {
    if (!known_flag(name)) {
      std::fprintf(stderr,
                   "melsim: unknown option --%s (run `%s --help` for the "
                   "full list)\n",
                   name.c_str(), cli.program().c_str());
      return 2;
    }
  }
  try {
    return run(cli);
  } catch (const std::invalid_argument& e) {
    // A bad flag value, caught before any graph work wherever it can be.
    std::fprintf(stderr, "melsim: %s (run `melsim --help` for the options)\n",
                 e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "melsim: %s\n", e.what());
    return 2;
  }
}
