// meltrace — offline analysis of melsim observability artifacts.
//
//   meltrace validate run.trace.json [--metrics run.metrics.jsonl]
//   meltrace summarize run.trace.json [--top K] [--json]
//   meltrace matrix run.trace.json
//   meltrace diff a.trace.json b.trace.json
//   meltrace replay run.trace.json [--set net.KEY=VALUE ...] [--json]
//   meltrace critical run.trace.json [--top K] [--json]
//
// `validate` exits nonzero on any schema violation or dangling flow id,
// so CI can pipe melsim output straight through it. `matrix` prints the
// comm matrix reconstructed from the trace's wire events in exactly the
// JSON `bench_fig02_comm_matrix --json` emits, making cross-checks a
// byte comparison.
//
// `replay` re-prices a self-contained (mel.trace/2) trace under
// substituted network parameters. With no --set it is a fidelity
// self-check: the replayed per-flow times and total must reproduce the
// recorded run bit-exactly (exit 1 otherwise), which is what the CI
// replay-fidelity gate runs. `critical` walks the replay DAG backward
// from the run end and attributes every nanosecond of the makespan to a
// cost class (compute, software overhead, wire latency/bandwidth, copy,
// ack-wait, barrier-wait).
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "mel/net/params_io.hpp"
#include "mel/obs/analysis.hpp"
#include "mel/obs/critical.hpp"
#include "mel/obs/emit.hpp"
#include "mel/obs/replay.hpp"
#include "mel/util/cli.hpp"

using namespace mel;

namespace {

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: meltrace <command> ...\n"
               "commands:\n"
               "  validate TRACE [--metrics FILE]   check trace (and metrics "
               "JSONL) schema; exit 1 on violations\n"
               "  summarize TRACE [--top K] [--json]  per-category/per-rank "
               "rollups, flow latencies, top-K longest ops\n"
               "  matrix TRACE                      comm matrix reconstructed "
               "from wire events, as canonical JSON\n"
               "  diff A B                          compare two traces "
               "(event counts, per-category time, flow volume)\n"
               "  replay TRACE [--set net.KEY=VALUE ...] [--json]\n"
               "                                    re-price the recorded run "
               "under substituted params;\n"
               "                                    no --set = fidelity "
               "self-check (exit 1 on mismatch)\n"
               "  critical TRACE [--top K] [--json]  critical-path cost "
               "attribution (compute / overhead /\n"
               "                                    latency / bandwidth / "
               "ack-wait / barrier-wait per rank)\n");
}

/// --top K: a positive integer, else a usage error (exit 2).
int parse_top(const std::string& value) {
  const auto k = util::parse_int(value);
  if (!k || *k <= 0 || *k > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("--top expects a positive integer, got '" +
                                value + "' (run `meltrace --help`)");
  }
  return static_cast<int>(*k);
}

int cmd_validate(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "meltrace validate: missing TRACE\n");
    return 2;
  }
  std::string metrics_path;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--metrics" && i + 1 < args.size()) {
      metrics_path = args[++i];
    } else {
      std::fprintf(stderr, "meltrace validate: unknown argument %s\n",
                   args[i].c_str());
      return 2;
    }
  }
  const obs::TraceStats stats = obs::analyze_trace_file(args[0]);
  int bad = 0;
  if (stats.errors.empty()) {
    std::printf("%s: OK (%llu events, %llu flow classes)\n", args[0].c_str(),
                static_cast<unsigned long long>(stats.events),
                static_cast<unsigned long long>(stats.flows_by_class.size()));
  } else {
    bad = 1;
    std::printf("%s: %zu violation(s)\n", args[0].c_str(),
                stats.errors.size());
    for (const auto& e : stats.errors) std::printf("  ! %s\n", e.c_str());
  }
  if (!metrics_path.empty()) {
    const auto errors = obs::validate_metrics_file(metrics_path);
    if (errors.empty()) {
      std::printf("%s: OK\n", metrics_path.c_str());
    } else {
      bad = 1;
      std::printf("%s: %zu violation(s)\n", metrics_path.c_str(),
                  errors.size());
      for (const auto& e : errors) std::printf("  ! %s\n", e.c_str());
    }
  }
  return bad;
}

int cmd_summarize(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "meltrace summarize: missing TRACE\n");
    return 2;
  }
  int top_k = 10;
  bool as_json = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--top" && i + 1 < args.size()) {
      top_k = parse_top(args[++i]);
    } else if (args[i] == "--json") {
      as_json = true;
    } else {
      std::fprintf(stderr, "meltrace summarize: unknown argument %s\n",
                   args[i].c_str());
      return 2;
    }
  }
  const obs::TraceStats stats = obs::analyze_trace_file(args[0], top_k);
  if (as_json) {
    std::printf("%s\n", obs::summarize_json(stats).c_str());
  } else {
    std::printf("%s", obs::summarize(stats).c_str());
  }
  return 0;
}

/// Split "net.KEY=VALUE" (the "net." prefix optional) into a canonical
/// field name + value; throws std::invalid_argument on malformed input
/// or an unknown name, which main() maps to exit 2.
void parse_set(const std::string& spec, std::string& name, double& value) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
    throw std::invalid_argument("--set expects KEY=VALUE, got '" + spec + "'");
  }
  std::string key = spec.substr(0, eq);
  if (key.rfind("net.", 0) == 0) key = key.substr(4);
  name = net::canonical_param_name(key);
  if (name.empty()) {
    throw std::invalid_argument("--set: unknown parameter '" + key + "'");
  }
  const std::string val = spec.substr(eq + 1);
  const auto parsed = util::parse_double(val);
  if (!parsed) {
    throw std::invalid_argument("--set: bad value '" + val + "' for " + key +
                                " (expected a finite number)");
  }
  value = *parsed;
}

std::string replay_json(const obs::ReplayTrace& trace, bool whatif,
                        const std::vector<std::pair<std::string, double>>& sets,
                        const net::Params& params, const obs::ReplayResult& r) {
  std::string out = "{\"schema\":\"mel.replay/1\",\"mode\":\"";
  out += whatif ? "whatif" : "fidelity";
  out += "\",\"algo\":\"" + obs::json_escape(trace.algo) + "\"";
  out += ",\"model\":\"" + obs::json_escape(trace.model) + "\"";
  out += ",\"nranks\":" + std::to_string(trace.nranks);
  out += ",\"seed\":" + std::to_string(trace.seed);
  out += ",\"config_digest\":\"" + obs::json_escape(trace.config_digest) + "\"";
  out += ",\"set\":{";
  for (std::size_t i = 0; i < sets.size(); ++i) {
    if (i) out += ",";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", sets[i].second);
    out += "\"" + sets[i].first + "\":" + buf;
  }
  out += "},\"params\":" + net::params_to_json(params);
  out += ",\"recorded_total_ns\":" + std::to_string(trace.run_time_ns);
  out += ",\"replayed_total_ns\":" + std::to_string(r.total_ns);
  out += ",\"digest\":" + std::to_string(r.digest);
  out += ",\"flows\":{";
  bool first = true;
  for (const auto& [cls, roll] : r.by_class) {
    if (!first) out += ",";
    first = false;
    out += "\"" + obs::json_escape(cls) + "\":{";
    out += "\"count\":" + std::to_string(roll.count);
    out += ",\"bytes\":" + std::to_string(roll.bytes);
    out += ",\"recorded_latency_ns\":" + std::to_string(roll.rec_latency_ns);
    out += ",\"replayed_latency_ns\":" + std::to_string(roll.new_latency_ns);
    out += "}";
  }
  out += "}}";
  return out;
}

int cmd_replay(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "meltrace replay: missing TRACE\n");
    return 2;
  }
  std::vector<std::pair<std::string, double>> sets;
  bool as_json = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--set" && i + 1 < args.size()) {
      std::string name;
      double value = 0;
      parse_set(args[++i], name, value);
      sets.emplace_back(name, value);
    } else if (args[i] == "--json") {
      as_json = true;
    } else {
      std::fprintf(stderr, "meltrace replay: unknown argument %s\n",
                   args[i].c_str());
      return 2;
    }
  }
  const obs::Replayer replayer(obs::load_replay_trace_file(args[0]));
  const obs::ReplayTrace& trace = replayer.trace();

  if (sets.empty()) {
    // Fidelity self-check: replay under the recorded parameters must
    // reproduce the recorded run bit-exactly.
    const auto errors = replayer.fidelity_errors();
    const obs::ReplayResult r = replayer.replay();
    if (!errors.empty()) {
      for (const auto& e : errors) {
        std::fprintf(stderr, "meltrace replay: %s\n", e.c_str());
      }
      std::fprintf(stderr, "meltrace replay: %s: fidelity FAILED\n",
                   args[0].c_str());
      return 1;
    }
    if (as_json) {
      std::printf("%s\n", replay_json(trace, false, sets, trace.net, r).c_str());
    } else {
      std::printf("%s: fidelity exact (%s %s, %d ranks, seed %llu)\n",
                  args[0].c_str(), trace.algo.c_str(), trace.model.c_str(),
                  trace.nranks, static_cast<unsigned long long>(trace.seed));
      std::printf("  recorded total: %lld ns\n",
                  static_cast<long long>(trace.run_time_ns));
      std::printf("  replayed total: %lld ns\n",
                  static_cast<long long>(r.total_ns));
      std::printf("  flows replayed: %zu\n", r.flow_end.size());
    }
    return 0;
  }

  net::Params params = trace.net;
  for (const auto& [name, value] : sets) {
    net::set_param(params, name, value);
  }
  const obs::ReplayResult r = replayer.replay(params);
  if (as_json) {
    std::printf("%s\n", replay_json(trace, true, sets, params, r).c_str());
    return 0;
  }
  std::printf("%s: what-if replay (%s %s, %d ranks, seed %llu)\n",
              args[0].c_str(), trace.algo.c_str(), trace.model.c_str(),
              trace.nranks, static_cast<unsigned long long>(trace.seed));
  for (const auto& [name, value] : sets) {
    std::printf("  set %s = %.17g\n", name.c_str(), value);
  }
  const long long rec = trace.run_time_ns;
  const long long rep = r.total_ns;
  std::printf("  recorded total: %lld ns\n", rec);
  std::printf("  replayed total: %lld ns", rep);
  if (rec > 0) {
    std::printf(" (%+.2f%%)",
                100.0 * static_cast<double>(rep - rec) /
                    static_cast<double>(rec));
  }
  std::printf("\n");
  if (!r.by_class.empty()) {
    std::printf(
        "  flows (class, count, bytes, recorded->replayed latency ns):\n");
    for (const auto& [cls, roll] : r.by_class) {
      std::printf("    %s  %llu  %llu  %lld -> %lld\n", cls.c_str(),
                  static_cast<unsigned long long>(roll.count),
                  static_cast<unsigned long long>(roll.bytes),
                  static_cast<long long>(roll.rec_latency_ns),
                  static_cast<long long>(roll.new_latency_ns));
    }
  }
  return 0;
}

int cmd_critical(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "meltrace critical: missing TRACE\n");
    return 2;
  }
  int top_k = 10;
  bool as_json = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--top" && i + 1 < args.size()) {
      top_k = parse_top(args[++i]);
    } else if (args[i] == "--json") {
      as_json = true;
    } else {
      std::fprintf(stderr, "meltrace critical: unknown argument %s\n",
                   args[i].c_str());
      return 2;
    }
  }
  const obs::Replayer replayer(obs::load_replay_trace_file(args[0]));
  const obs::CriticalPath cp = obs::critical_path(replayer);
  if (as_json) {
    std::printf("%s\n",
                obs::critical_json(cp, replayer.trace(), top_k).c_str());
  } else {
    std::printf("%s", obs::critical_text(cp, replayer.trace(), top_k).c_str());
  }
  return 0;
}

int cmd_matrix(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::fprintf(stderr, "meltrace matrix: expected exactly one TRACE\n");
    return 2;
  }
  const obs::TraceStats stats = obs::analyze_trace_file(args[0]);
  obs::Emitter out(stdout);
  obs::write_matrix_json(out, stats);
  out << '\n';
  if (!out.flush()) throw std::runtime_error("cannot write the matrix");
  return 0;
}

int cmd_diff(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    std::fprintf(stderr, "meltrace diff: expected exactly two traces\n");
    return 2;
  }
  const obs::TraceStats a = obs::analyze_trace_file(args[0]);
  const obs::TraceStats b = obs::analyze_trace_file(args[1]);
  std::printf("%s", obs::diff(a, b, args[0], args[1]).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "help" || cmd == "--help") {
      print_usage(stdout);
      return 0;
    }
    if (cmd == "validate") return cmd_validate(args);
    if (cmd == "summarize") return cmd_summarize(args);
    if (cmd == "matrix") return cmd_matrix(args);
    if (cmd == "diff") return cmd_diff(args);
    if (cmd == "replay") return cmd_replay(args);
    if (cmd == "critical") return cmd_critical(args);
    std::fprintf(stderr, "meltrace: unknown command %s\n", cmd.c_str());
    print_usage(stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "meltrace: %s\n", e.what());
    return 2;
  }
}
