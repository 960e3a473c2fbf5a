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
#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
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

/// A subcommand's TRACE and the flags it takes after it.
struct Options {
  std::string trace;
  int top = 10;
  bool json = false;
  std::string metrics;
  std::vector<std::pair<std::string, double>> sets;  // --set, canonical
};

/// Read `args` as TRACE followed by flags `cmd` takes, out of --top K,
/// --json, --metrics FILE and --set KEY=VALUE. Prints the usage error
/// and returns false on anything else.
bool parse_options(const char* cmd, const std::vector<std::string>& args,
                   std::initializer_list<std::string_view> takes,
                   Options& o) {
  if (args.empty()) {
    std::fprintf(stderr, "meltrace %s: missing TRACE\n", cmd);
    return false;
  }
  o.trace = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const bool known =
        std::find(takes.begin(), takes.end(), flag) != takes.end();
    const bool valued = i + 1 < args.size();
    if (known && flag == "--json") {
      o.json = true;
    } else if (known && valued && flag == "--top") {
      const auto k = util::parse_int(args[++i]);
      if (!k || *k <= 0 || *k > std::numeric_limits<int>::max()) {
        throw std::invalid_argument("--top expects a positive integer, got '" +
                                    args[i] + "' (run `meltrace --help`)");
      }
      o.top = static_cast<int>(*k);
    } else if (known && valued && flag == "--metrics") {
      o.metrics = args[++i];
    } else if (known && valued && flag == "--set") {
      auto& [name, value] = o.sets.emplace_back();
      parse_set(args[++i], name, value);
    } else {
      std::fprintf(stderr, "meltrace %s: unknown argument %s\n", cmd,
                   flag.c_str());
      return false;
    }
  }
  return true;
}

int cmd_validate(const std::vector<std::string>& args) {
  Options o;
  if (!parse_options("validate", args, {"--metrics"}, o)) return 2;
  const obs::TraceStats stats = obs::analyze_trace_file(o.trace);
  int bad = 0;
  if (stats.errors.empty()) {
    std::printf("%s: OK (%llu events, %llu flow classes)\n", o.trace.c_str(),
                static_cast<unsigned long long>(stats.events),
                static_cast<unsigned long long>(stats.flows_by_class.size()));
  } else {
    bad = 1;
    std::printf("%s: %zu violation(s)\n", o.trace.c_str(),
                stats.errors.size());
    for (const auto& e : stats.errors) std::printf("  ! %s\n", e.c_str());
  }
  if (!o.metrics.empty()) {
    const auto errors = obs::validate_metrics_file(o.metrics);
    if (errors.empty()) {
      std::printf("%s: OK\n", o.metrics.c_str());
    } else {
      bad = 1;
      std::printf("%s: %zu violation(s)\n", o.metrics.c_str(),
                  errors.size());
      for (const auto& e : errors) std::printf("  ! %s\n", e.c_str());
    }
  }
  return bad;
}

int cmd_summarize(const std::vector<std::string>& args) {
  Options o;
  if (!parse_options("summarize", args, {"--top", "--json"}, o)) return 2;
  const obs::TraceStats stats = obs::analyze_trace_file(o.trace, o.top);
  std::fputs((o.json ? obs::summarize_json(stats) + "\n"
                     : obs::summarize(stats)).c_str(),
             stdout);
  return 0;
}

/// `replay --json`: the mel.replay/1 document, and a newline.
void print_replay_json(const obs::ReplayTrace& trace, bool whatif,
                       const std::vector<std::pair<std::string, double>>& sets,
                       const net::Params& params, const obs::ReplayResult& r) {
  obs::Emitter out(stdout);
  out << "{\"schema\":\"mel.replay/1\",\"mode\":\""
      << (whatif ? "whatif" : "fidelity") << "\",\"algo\":\""
      << obs::JsonText{trace.algo} << "\",\"model\":\""
      << obs::JsonText{trace.model} << "\",\"nranks\":" << trace.nranks
      << ",\"seed\":" << trace.seed << ",\"config_digest\":\""
      << obs::JsonText{trace.config_digest} << "\",\"set\":{";
  for (std::size_t i = 0; i < sets.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", sets[i].second);
    out << (i > 0 ? ",\"" : "\"") << sets[i].first << "\":" << value;
  }
  out << "},\"params\":" << net::params_to_json(params)
      << ",\"recorded_total_ns\":" << trace.run_time_ns
      << ",\"replayed_total_ns\":" << r.total_ns << ",\"digest\":" << r.digest
      << ",\"flows\":{";
  bool first = true;
  for (const auto& [cls, roll] : r.by_class) {
    out << (first ? "\"" : ",\"") << obs::JsonText{cls} << "\":{\"count\":"
        << roll.count << ",\"bytes\":" << roll.bytes
        << ",\"recorded_latency_ns\":" << roll.rec_latency_ns
        << ",\"replayed_latency_ns\":" << roll.new_latency_ns << '}';
    first = false;
  }
  out << "}}\n";
  if (!out.flush()) throw std::runtime_error("cannot write the replay");
}

int cmd_replay(const std::vector<std::string>& args) {
  Options o;
  if (!parse_options("replay", args, {"--set", "--json"}, o)) return 2;
  const obs::Replayer replayer(obs::load_replay_trace_file(o.trace));
  const obs::ReplayTrace& trace = replayer.trace();
  // No --set: the fidelity self-check, where replay under the recorded
  // parameters must reproduce the recorded run bit-exactly.
  const bool whatif = !o.sets.empty();
  if (!whatif) {
    const auto errors = replayer.fidelity_errors();
    for (const auto& e : errors) {
      std::fprintf(stderr, "meltrace replay: %s\n", e.c_str());
    }
    if (!errors.empty()) {
      std::fprintf(stderr, "meltrace replay: %s: fidelity FAILED\n",
                   o.trace.c_str());
      return 1;
    }
  }
  net::Params params = trace.net;
  for (const auto& [name, value] : o.sets) {
    net::set_param(params, name, value);
  }
  const obs::ReplayResult r = replayer.replay(params);
  if (o.json) {
    print_replay_json(trace, whatif, o.sets, params, r);
    return 0;
  }
  std::printf("%s: %s (%s %s, %d ranks, seed %llu)\n", o.trace.c_str(),
              whatif ? "what-if replay" : "fidelity exact", trace.algo.c_str(),
              trace.model.c_str(), trace.nranks,
              static_cast<unsigned long long>(trace.seed));
  for (const auto& [name, value] : o.sets) {
    std::printf("  set %s = %.17g\n", name.c_str(), value);
  }
  const long long rec = trace.run_time_ns;
  const long long rep = r.total_ns;
  std::printf("  recorded total: %lld ns\n", rec);
  std::printf("  replayed total: %lld ns", rep);
  if (whatif && rec > 0) {
    std::printf(" (%+.2f%%)",
                100.0 * static_cast<double>(rep - rec) /
                    static_cast<double>(rec));
  }
  std::printf("\n");
  if (!whatif) {
    std::printf("  flows replayed: %zu\n", r.flow_end.size());
  } else if (!r.by_class.empty()) {
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
  Options o;
  if (!parse_options("critical", args, {"--top", "--json"}, o)) return 2;
  const obs::Replayer replayer(obs::load_replay_trace_file(o.trace));
  const obs::CriticalPath cp = obs::critical_path(replayer);
  std::fputs((o.json ? obs::critical_json(cp, replayer.trace(), o.top) + "\n"
                     : obs::critical_text(cp, replayer.trace(), o.top)).c_str(),
             stdout);
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
