// mel_e2e — one process of the end-to-end benchmark (see README.md).
//
//   mel_e2e --workload NAME --seed S --work DIR [--traced] [--record]
//
// Runs one repetition of one workload, or with --traced its per-layer pass,
// and prints one JSON object on stdout. trace-replay runs as two processes:
// --record writes the trace into DIR, the second process replays it.
//
//   phases   every timed phase of the process, in order, in seconds. Set-up
//            phases sum to setup_s, measured phases to wall_s; the rest
//            (reference computation, checks, teardown) is timed too, so the
//            phases cover the whole process and run.py can prove it.
//   metrics  name -> value for everything this process measured; run.py
//            holds the unit of each name.
//   samples  name -> list for what one process measures several times:
//            wall_s per repetition, reprice_s per what-if point.
//   ops      every checked operation with its verdict and fingerprint (trace
//            hash, virtual time, weight, digest). run.py compares the
//            fingerprints with pins.json.
//
// All timing is host wall time (steady_clock) around calls into public
// functions of the libraries and around the melcheck binary; nothing inside
// src/ or tools/ is instrumented beyond the existing mel::prof sections.
#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mel/bfs/bfs.hpp"
#include "mel/color/color.hpp"
#include "mel/gen/generators.hpp"
#include "mel/graph/dist.hpp"
#include "mel/match/driver.hpp"
#include "mel/match/verify.hpp"
#include "mel/obs/analysis.hpp"
#include "mel/obs/critical.hpp"
#include "mel/obs/recorder.hpp"
#include "mel/obs/replay.hpp"
#include "mel/prof/prof.hpp"
#include "mel/util/buffer.hpp"
#include "mel/util/cli.hpp"

extern char** environ;

namespace {

using namespace mel;
using match::Model;
using sim::Rank;

constexpr Model kAllModels[] = {
    Model::kNsr,      Model::kRma,        Model::kNcl,     Model::kMbp,
    Model::kNsrAgg,   Model::kRmaFence,   Model::kNclNb,   Model::kNsrHier,
    Model::kNclPersist, Model::kRmaPart,
};

// -- Workload sizes ----------------------------------------------------------
// One repetition takes 2-5 s on a 4-core host: long enough that start-up
// and timer effects vanish, short enough that a 20-second run holds
// several repetitions to take the median of.
constexpr int kRggRanks = 512;
constexpr double kRggDegree = 24.0;
constexpr int kRggThreads = 4;
constexpr graph::VertexId kNsrVerts = 120'000;
constexpr graph::VertexId kNclVerts = 524'288;  // 1024 per rank
// NCL simulates in a fraction of its set-up time, so each process times
// several runs on one distribution.
constexpr int kNclRepeats = 4;

constexpr int kRmatScale = 14;
constexpr int kRmatEdgeFactor = 8;
constexpr int kRmatRanks = 64;

constexpr int kCheckSchedules = 70;  // one full 10-backend x 7-class grid
constexpr int kCheckRanks = 16;
constexpr graph::VertexId kCheckVerts = 5'000;
constexpr graph::EdgeId kCheckEdges = 25'000;
constexpr double kCheckWireFault = 0.06;

constexpr graph::VertexId kTraceVerts = 6'000;
constexpr int kTraceRanks = 512;
constexpr int kRepricePoints = 16;

// -- Timing ------------------------------------------------------------------

double now_s() {
  // mellint: allow(wallclock) — host-side benchmark timing; measures the
  // simulator and its tools from outside, never feeds simulated state.
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

double peak_rss_mb(int who) {
  struct rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// JSON object fields: key -> JSON literal.
using Fields = std::vector<std::pair<std::string, std::string>>;

std::string object(const Fields& fields) {
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out += ',';
    out += quoted(key);
    out += ':';
    out += value;
  }
  out += '}';
  return out;
}

std::string array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const auto& item : items) {
    if (out.size() > 1) out += ',';
    out += item;
  }
  out += ']';
  return out;
}

enum class Kind { kSetup, kMeasured, kOther };

/// Everything one process reports. Phases accumulate by name in first-seen
/// order.
class Report {
 public:
  template <class F>
  auto phase(const std::string& name, Kind kind, F&& fn) {
    const double t0 = now_s();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      fn();
      add_phase(name, kind, now_s() - t0);
    } else {
      auto result = fn();
      add_phase(name, kind, now_s() - t0);
      return result;
    }
  }

  /// Seconds accumulated under `name` so far (0 if never entered).
  double seconds(const std::string& name) const {
    for (const auto& p : phases_) {
      if (p.name == name) return p.seconds;
    }
    return 0.0;
  }
  /// Seconds of every phase whose name starts with `prefix`.
  double sum(const std::string& prefix) const {
    double s = 0.0;
    for (const auto& p : phases_) {
      if (p.name.starts_with(prefix)) s += p.seconds;
    }
    return s;
  }
  /// Seconds of every phase of one kind.
  double total(Kind kind) const {
    double s = 0.0;
    for (const auto& p : phases_) {
      if (p.kind == kind) s += p.seconds;
    }
    return s;
  }

  void metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }
  /// Close one repetition of the measured section: the measured seconds
  /// since the previous call become one wall_s sample.
  void end_repetition() {
    const double measured = total(Kind::kMeasured);
    sample("wall_s", measured - measured_mark_);
    measured_mark_ = measured;
  }
  /// Median of the samples recorded under `name` (0 when there are none).
  double median(const std::string& name) const {
    for (const auto& [n, values] : samples_) {
      if (n != name) continue;
      std::vector<double> v = values;
      std::sort(v.begin(), v.end());
      const std::size_t mid = v.size() / 2;
      return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
    }
    return 0.0;
  }
  void sample(const std::string& name, double value) {
    for (auto& s : samples_) {
      if (s.first == name) {
        s.second.push_back(value);
        return;
      }
    }
    samples_.push_back({name, {value}});
  }
  void op(const std::string& name, bool ok, const std::string& why,
          Fields pin = {}) {
    ops_.push_back({name, ok, why, std::move(pin)});
  }

  std::string json(const std::string& workload, std::uint64_t seed,
                   bool traced, double rss_mb) const {
    Fields phases;
    for (const auto& p : phases_) phases.emplace_back(p.name, num(p.seconds));
    Fields metrics = {{"setup_s", num(total(Kind::kSetup))},
                      {"wall_s", num(median("wall_s"))},
                      {"peak_rss_mb", num(rss_mb)}};
    for (const auto& [name, value] : metrics_) {
      metrics.emplace_back(name, num(value));
    }
    Fields samples;
    for (const auto& [name, values] : samples_) {
      std::vector<std::string> items;
      for (const double v : values) items.push_back(num(v));
      samples.emplace_back(name, array(items));
    }
    std::vector<std::string> ops;
    for (const auto& o : ops_) {
      ops.push_back(object({{"name", quoted(o.name)},
                            {"ok", o.ok ? "true" : "false"},
                            {"why", quoted(o.why)},
                            {"pin", object(o.pin)}}));
    }
    return object({{"workload", quoted(workload)},
                   {"seed", std::to_string(seed)},
                   {"traced", traced ? "true" : "false"},
                   {"compiler", quoted(MEL_E2E_COMPILER)},
                   {"phases", object(phases)},
                   {"metrics", object(metrics)},
                   {"samples", object(samples)},
                   {"ops", array(ops)}});
  }

 private:
  struct Phase {
    std::string name;
    Kind kind;
    double seconds;
  };
  struct Op {
    std::string name;
    bool ok;
    std::string why;
    Fields pin;  // fingerprint of the operation
  };

  void add_phase(const std::string& name, Kind kind, double s) {
    for (auto& p : phases_) {
      if (p.name == name) {
        p.seconds += s;
        return;
      }
    }
    phases_.push_back({name, kind, s});
  }

  std::vector<Phase> phases_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::vector<double>>> samples_;
  double measured_mark_ = 0.0;
  std::vector<Op> ops_;
};

/// Return freed heap and pooled message buffers to the OS, so the next
/// timed run starts from the cold heap a fresh melsim process has and the
/// order of runs in one process does not bias their times.
void release_heap(Report& r) {
  r.phase("release_heap", Kind::kOther, [] {
    util::Buffer::trim_pool();
    malloc_trim(0);
  });
}

// -- mel::prof snapshots -----------------------------------------------------

struct ProfSnap {
  prof::Stats s[prof::kSectionCount];
  const prof::Stats& operator[](prof::Section sec) const {
    return s[static_cast<int>(sec)];
  }
};

/// Run `fn` with mel::prof enabled and return the section totals it made.
template <class F>
ProfSnap profiled(F&& fn) {
  prof::reset();
  prof::set_enabled(true);
  fn();
  prof::set_enabled(false);
  ProfSnap snap;
  for (int i = 0; i < prof::kSectionCount; ++i) {
    snap.s[i] = prof::section_stats(static_cast<prof::Section>(i));
  }
  return snap;
}

/// runtime.* / mpi.* / ft.transport_* from one profiled pass and the
/// counters of the runs it made.
void layer_metrics(Report& r, const ProfSnap& p, const mpi::CommCounters& c) {
  using prof::Section;
  const auto ns = [&p](Section s) { return static_cast<double>(p[s].ns); };
  const auto calls = [&p](Section s) {
    return static_cast<double>(p[s].calls);
  };
  const double mpi_ns = ns(Section::kP2P) + ns(Section::kRma) +
                        ns(Section::kNeighbor) + ns(Section::kGlobalColl);
  r.metric("runtime.event_loop_ns", ns(Section::kEventLoop));
  r.metric("runtime.event_loop_self_ns",
           ns(Section::kEventLoop) - mpi_ns - ns(Section::kTransport));
  r.metric("mpi.p2p_ns", ns(Section::kP2P));
  r.metric("mpi.p2p_calls", calls(Section::kP2P));
  r.metric("mpi.rma_ns", ns(Section::kRma));
  r.metric("mpi.rma_calls", calls(Section::kRma));
  r.metric("mpi.neighbor_ns", ns(Section::kNeighbor));
  r.metric("mpi.neighbor_calls", calls(Section::kNeighbor));
  r.metric("mpi.global_coll_ns", ns(Section::kGlobalColl));
  r.metric("mpi.global_coll_calls", calls(Section::kGlobalColl));
  r.metric("ft.transport_ns", ns(Section::kTransport));
  r.metric("ft.transport_calls", calls(Section::kTransport));
  const auto messages = static_cast<double>(c.isends + c.puts +
                                            c.neighbor_colls);
  r.metric("mpi.isends", static_cast<double>(c.isends));
  r.metric("mpi.puts", static_cast<double>(c.puts));
  r.metric("mpi.neighbor_colls", static_cast<double>(c.neighbor_colls));
  r.metric("mpi.bytes",
           static_cast<double>(c.bytes_sent + c.bytes_put + c.bytes_coll));
  r.metric("mpi.ns_per_message", messages > 0 ? mpi_ns / messages : 0.0);
  r.metric("mpi.probe_hit_ratio",
           c.iprobes > 0 ? static_cast<double>(c.recvs) /
                               static_cast<double>(c.iprobes)
                         : 0.0);
}

// -- Checks ------------------------------------------------------------------

Fields match_pin(const graph::Csr& g, const match::RunResult& run) {
  return {{"trace_hash", quoted(hex64(run.trace_hash))},
          {"time_ns", std::to_string(run.time)},
          {"weight", num(match::matching_weight(g, run.matching.mate))}};
}

/// The matching is valid and equal to the serial locally-dominant one.
void check_matching(Report& r, const std::string& name, const graph::Csr& g,
                    const match::RunResult& run,
                    const match::Matching& serial) {
  std::string why;
  if (!match::is_valid_matching(g, run.matching.mate)) {
    why = "invalid matching";
  } else if (run.matching.mate != serial.mate) {
    why = "differs from serial_half_approx";
  }
  r.op(name, why.empty(), why, match_pin(g, run));
}

// -- Child processes ---------------------------------------------------------

/// Spawn argv[0] with stdout redirected to `out_path`, wait for it and
/// return its exit code. Its peak RSS shows in getrusage(RUSAGE_CHILDREN).
int run_child(const std::vector<std::string>& args,
              const std::string& out_path) {
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = 0;
  const int err =
      posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (err != 0) {
    throw std::runtime_error("cannot spawn " + args[0] + " > " + out_path +
                             ": " + std::strerror(err));
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) {
    throw std::runtime_error("waitpid failed for " + args[0]);
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

// -- Workloads ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string work;
  bool traced = false;
};

void gen_metrics(Report& r, const graph::Csr& g) {
  r.metric("gen.s", r.seconds("gen"));
  r.metric("graph.distribute_s", r.seconds("distribute"));
  r.metric("graph.edges", static_cast<double>(g.nedges()));
}

/// nsr-rgg-t4 / ncl-rgg-t4: a 512-rank matching on an RGG with the sharded
/// engine at 4 threads, `repeats` times on one distribution. The traced
/// pass re-runs it at 1 thread, untraced (shard speedup, same trace hash
/// required) and profiled.
void rgg_workload(Report& r, const Args& a, Model model, graph::VertexId verts,
                  int repeats) {
  auto g = r.phase("gen", Kind::kSetup, [&] {
    return std::make_unique<graph::Csr>(gen::random_geometric(
        verts, gen::rgg_radius_for_degree(verts, kRggDegree), a.seed));
  });
  auto dg = r.phase("distribute", Kind::kSetup, [&] {
    return std::make_unique<graph::DistGraph>(*g, kRggRanks);
  });
  match::RunConfig cfg;
  cfg.threads = kRggThreads;
  match::RunResult run;
  for (int i = 0; i < repeats; ++i) {
    release_heap(r);
    run = r.phase("simulate", Kind::kMeasured,
                  [&] { return match::run_match(*dg, model, cfg); });
    r.end_repetition();
  }
  const std::string name = std::string("match.") + match::model_name(model);
  match::RunResult t1;
  ProfSnap snap;
  if (a.traced) {
    match::RunConfig seq;
    release_heap(r);
    t1 = r.phase("simulate_t1", Kind::kOther,
                 [&] { return match::run_match(*dg, model, seq); });
    match::RunResult traced;
    release_heap(r);
    snap = r.phase("simulate_t1_traced", Kind::kOther, [&] {
      return profiled([&] { traced = match::run_match(*dg, model, seq); });
    });
    const bool same =
        t1.trace_hash == run.trace_hash && traced.trace_hash == run.trace_hash;
    r.op(name + ".threads", same,
         same ? "" : "trace_hash differs between 1 and 4 threads",
         {{"trace_hash_t1", quoted(hex64(t1.trace_hash))},
          {"trace_hash_t4", quoted(hex64(run.trace_hash))}});
  }
  const auto serial = r.phase("serial", Kind::kOther,
                              [&] { return match::serial_half_approx(*g); });
  r.phase("verify", Kind::kOther,
          [&] { check_matching(r, name, *g, run, serial); });

  if (a.traced) {
    const double wall = r.median("wall_s");
    const auto events = static_cast<double>(run.sim_events);
    r.metric("runtime.events", events);
    r.metric("runtime.ns_per_event", events > 0 ? wall * 1e9 / events : 0.0);
    r.metric("runtime.shard_speedup", r.seconds("simulate_t1") / wall);
    layer_metrics(r, snap, run.totals);
    r.metric("match.iterations", static_cast<double>(run.iterations));
    r.metric("match.serial_s", r.seconds("serial"));
    r.metric("match.sim_over_serial", wall / r.seconds("serial"));
    r.metric("match.verify_s", r.seconds("verify"));
    r.metric(name + ".wall_s", wall);
    r.metric(name + ".events", events);
    gen_metrics(r, *g);
    r.metric("trace_overhead",
             r.seconds("simulate_t1_traced") / r.seconds("simulate_t1"));
  }
  r.phase("teardown", Kind::kOther, [&] {
    run = {};
    t1 = {};
    dg.reset();
    g.reset();
  });
}

graph::VertexId max_degree_vertex(const graph::Csr& g) {
  graph::VertexId best = 0;
  for (graph::VertexId v = 1; v < g.nverts(); ++v) {
    if (g.degree(v) > g.degree(best)) best = v;
  }
  return best;
}

/// Results of one pass over all ten matchers plus BFS and coloring.
struct Sweep {
  std::vector<match::RunResult> matches;
  std::vector<bfs::BfsResult> bfs;
  std::vector<color::ColorResult> colors;
  mpi::CommCounters totals;
  std::uint64_t events = 0;
  std::uint64_t iterations = 0;
};

constexpr Model kAppModels[] = {Model::kNsr, Model::kNcl};

/// Every backend on one input, one phase per run named `tag` + run name.
Sweep run_sweep(Report& r, const std::string& tag, Kind kind,
                const graph::Csr& g, const graph::DistGraph& dg,
                graph::VertexId root) {
  Sweep s;
  for (const Model m : kAllModels) {
    const std::string name = tag + "match." + match::model_name(m);
    s.matches.push_back(
        r.phase(name, kind, [&] { return match::run_match(dg, m); }));
    s.totals += s.matches.back().totals;
    s.events += s.matches.back().sim_events;
    s.iterations = std::max(s.iterations, s.matches.back().iterations);
  }
  for (const Model m : kAppModels) {
    const std::string name = tag + "bfs." + match::model_name(m);
    s.bfs.push_back(r.phase(
        name, kind, [&] { return bfs::run_bfs(g, kRmatRanks, root, m); }));
    s.totals += s.bfs.back().totals;
  }
  for (const Model m : kAppModels) {
    const std::string name = tag + "color." + match::model_name(m);
    s.colors.push_back(r.phase(
        name, kind, [&] { return color::run_coloring(g, kRmatRanks, m); }));
    s.totals += s.colors.back().totals;
  }
  return s;
}

/// sweep-rmat: all ten matchers, then BFS and coloring under NSR and NCL,
/// on the sequential engine. The traced pass repeats the sweep profiled.
void sweep_workload(Report& r, const Args& a) {
  auto g = r.phase("gen", Kind::kSetup, [&] {
    return std::make_unique<graph::Csr>(
        gen::rmat(kRmatScale, kRmatEdgeFactor, a.seed));
  });
  const graph::VertexId root =
      r.phase("gen", Kind::kSetup, [&] { return max_degree_vertex(*g); });
  auto dg = r.phase("distribute", Kind::kSetup, [&] {
    return std::make_unique<graph::DistGraph>(*g, kRmatRanks);
  });
  release_heap(r);
  auto sweep = run_sweep(r, "", Kind::kMeasured, *g, *dg, root);
  r.end_repetition();
  ProfSnap snap;
  if (a.traced) {
    // The profiled repeat is not measured time: wall_s stays untraced.
    release_heap(r);
    snap = profiled(
        [&] { (void)run_sweep(r, "traced.", Kind::kOther, *g, *dg, root); });
  }
  const auto serial = r.phase("serial", Kind::kOther,
                              [&] { return match::serial_half_approx(*g); });
  const auto ref_dist = r.phase("serial_bfs", Kind::kOther,
                                [&] { return bfs::serial_bfs(*g, root); });
  r.phase("verify", Kind::kOther, [&] {
    for (std::size_t i = 0; i < sweep.matches.size(); ++i) {
      const std::string name =
          std::string("match.") + match::model_name(kAllModels[i]);
      check_matching(r, name, *g, sweep.matches[i], serial);
    }
    for (std::size_t i = 0; i < sweep.bfs.size(); ++i) {
      const auto& b = sweep.bfs[i];
      const bool ok = b.dist == ref_dist;
      r.op(std::string("bfs.") + match::model_name(kAppModels[i]), ok,
           ok ? "" : "distances differ from serial_bfs",
           {{"trace_hash", quoted(hex64(b.trace_hash))},
            {"time_ns", std::to_string(b.time)},
            {"levels", std::to_string(b.levels)}});
    }
    for (std::size_t i = 0; i < sweep.colors.size(); ++i) {
      const auto& c = sweep.colors[i];
      const bool ok = color::is_proper_coloring(*g, c.colors);
      r.op(std::string("color.") + match::model_name(kAppModels[i]), ok,
           ok ? "" : "coloring is not proper",
           {{"trace_hash", quoted(hex64(c.trace_hash))},
            {"time_ns", std::to_string(c.time)},
            {"colors", std::to_string(color::color_count(c.colors))}});
    }
  });

  if (a.traced) {
    const double match_wall = r.sum("match.");
    const auto events = static_cast<double>(sweep.events);
    r.metric("runtime.events", events);
    r.metric("runtime.ns_per_event",
             events > 0 ? match_wall * 1e9 / events : 0.0);
    layer_metrics(r, snap, sweep.totals);
    r.metric("match.iterations", static_cast<double>(sweep.iterations));
    r.metric("match.serial_s", r.seconds("serial"));
    r.metric("match.sim_over_serial", match_wall / r.seconds("serial"));
    r.metric("match.verify_s", r.seconds("verify"));
    for (std::size_t i = 0; i < sweep.matches.size(); ++i) {
      const std::string name =
          std::string("match.") + match::model_name(kAllModels[i]);
      r.metric(name + ".wall_s", r.seconds(name));
      r.metric(name + ".events",
               static_cast<double>(sweep.matches[i].sim_events));
    }
    for (const char* app : {"bfs.", "color."}) {
      for (const Model m : kAppModels) {
        const std::string name = app + std::string(match::model_name(m));
        r.metric(name + ".wall_s", r.seconds(name));
      }
    }
    gen_metrics(r, *g);
    r.metric("trace_overhead", r.sum("traced.") / r.total(Kind::kMeasured));
  }
  r.phase("teardown", Kind::kOther, [&] {
    sweep = {};
    dg.reset();
    g.reset();
  });
}

std::vector<std::string> melcheck_args(const Args& a, int schedules) {
  return {MEL_E2E_MELCHECK,
          "--schedules", std::to_string(schedules),
          "--ranks",     std::to_string(kCheckRanks),
          "--verts",     std::to_string(kCheckVerts),
          "--edges",     std::to_string(kCheckEdges),
          "--seed",      std::to_string(a.seed),
          "--json"};
}

struct FtPass {
  mpi::CommCounters totals;
  std::uint64_t events = 0;
  std::uint64_t iterations = 0;
  std::uint64_t wire_copies = 0;  // data copies + acks on the wire
  int recoveries = 0;
  int shrinks = 0;
};

/// The per-layer stand-in for melcheck, which cannot be instrumented from
/// outside: every backend on melcheck's graph once with all wire faults
/// and once with one crash at the fault-free run's midpoint. Only the
/// untagged pass is checked.
FtPass run_ft_pass(Report& r, const std::string& tag, const graph::Csr& g,
                   const graph::Distribution& dist,
                   const std::vector<match::RunResult>& clean,
                   const match::Matching& serial, std::uint64_t seed) {
  FtPass pass;
  const auto add = [&pass](const match::RunResult& run) {
    pass.totals += run.totals;
    pass.events += run.sim_events;
    pass.iterations = std::max(pass.iterations, run.iterations);
    pass.wire_copies += run.matrix->total_msgs();
    pass.recoveries += run.recoveries;
    pass.shrinks += run.shrinks;
  };
  for (std::size_t i = 0; i < std::size(kAllModels); ++i) {
    const Model m = kAllModels[i];
    const std::string name = std::string("ft.") + match::model_name(m);
    match::RunConfig wire;
    wire.collect_matrix = true;
    wire.net.chaos.seed = seed;
    wire.net.chaos.loss = kCheckWireFault;
    wire.net.chaos.duplication = kCheckWireFault;
    wire.net.chaos.corruption = kCheckWireFault;
    const auto lossy = r.phase(tag + name + ".wire", Kind::kOther, [&] {
      return match::run_match(g, kCheckRanks, m, wire);
    });
    add(lossy);
    if (tag.empty()) check_matching(r, name + ".wire", g, lossy, serial);

    match::RunConfig crash;
    crash.collect_matrix = true;
    crash.net.chaos.seed = seed;
    crash.net.chaos.crashes.push_back(
        {kCheckRanks / 2, std::max<sim::Time>(1, clean[i].time / 2)});
    const auto crashed = r.phase(tag + name + ".crash", Kind::kOther, [&] {
      return match::run_match(g, kCheckRanks, m, crash);
    });
    add(crashed);
    if (tag.empty()) {
      std::string why;
      if (!match::is_valid_matching(g, crashed.matching.mate)) {
        why = "invalid matching";
      }
      for (const Rank dead : crashed.failed_ranks) {
        for (auto v = dist.begin(dead); v < dist.end(dead); ++v) {
          if (crashed.matching.mate[v] != match::kNullVertex) {
            why = "vertex of failed rank is matched";
          }
        }
      }
      if (crashed.failed_ranks.empty()) why = "crash was not injected";
      r.op(name + ".crash", why.empty(), why, match_pin(g, crashed));
    }
  }
  return pass;
}

/// melcheck: the real binary, one full backend x fault-class grid. The
/// traced pass adds the in-process ft pass above.
void melcheck_workload(Report& r, const Args& a) {
  const std::string out =
      a.work + "/melcheck-" + std::to_string(a.seed) + ".jsonl";
  const auto base = r.phase("melcheck_baseline", Kind::kSetup, [&] {
    return run_child(melcheck_args(a, 0), "/dev/null");
  });
  const auto full = r.phase("melcheck", Kind::kMeasured, [&] {
    return run_child(melcheck_args(a, kCheckSchedules), out);
  });
  r.end_repetition();
  r.phase("verify", Kind::kOther, [&] {
    std::ifstream in(out);
    int lines = 0;
    int clean = 0;
    for (std::string line; std::getline(in, line);) {
      ++lines;
      if (line.find("\"ok\":true") != std::string::npos) ++clean;
    }
    std::string why;
    if (base != 0 || full != 0) {
      why = "melcheck exited " + std::to_string(base != 0 ? base : full);
    } else if (lines != kCheckSchedules || clean != kCheckSchedules) {
      why = std::to_string(clean) + "/" + std::to_string(lines) +
            " schedules clean";
    }
    r.op("melcheck", why.empty(), why, {{"sha256_of", quoted(out)}});
  });
  const double run_s = r.seconds("melcheck");
  r.metric("schedules_per_s", kCheckSchedules / run_s);

  if (a.traced) {
    const double base_s = r.seconds("melcheck_baseline");
    r.metric("melcheck.baseline_s", base_s);
    r.metric("melcheck.s_per_schedule", (run_s - base_s) / kCheckSchedules);
    auto g = r.phase("gen", Kind::kOther, [&] {
      return std::make_unique<graph::Csr>(
          gen::erdos_renyi(kCheckVerts, kCheckEdges, a.seed));
    });
    auto dg = r.phase("distribute", Kind::kOther, [&] {
      return std::make_unique<graph::DistGraph>(*g, kCheckRanks);
    });
    const auto serial = r.phase("serial", Kind::kOther,
                                [&] { return match::serial_half_approx(*g); });
    std::vector<match::RunResult> clean;
    r.phase("ft.clean", Kind::kOther, [&] {
      for (const Model m : kAllModels) {
        clean.push_back(match::run_match(*dg, m));
      }
    });
    release_heap(r);
    const FtPass pass =
        run_ft_pass(r, "", *g, dg->dist(), clean, serial, a.seed);
    release_heap(r);
    const ProfSnap snap = profiled([&] {
      (void)run_ft_pass(r, "traced.", *g, dg->dist(), clean, serial, a.seed);
    });
    const double faults_s = r.sum("ft.") - r.seconds("ft.clean");
    const auto events = static_cast<double>(pass.events);
    r.metric("runtime.events", events);
    r.metric("runtime.ns_per_event", faults_s * 1e9 / events);
    layer_metrics(r, snap, pass.totals);
    const auto& t = pass.totals;
    const auto data_copies = static_cast<double>(pass.wire_copies - t.acks);
    r.metric("ft.retransmits", static_cast<double>(t.retransmits));
    r.metric("ft.dropped", static_cast<double>(t.dropped));
    r.metric("ft.acks", static_cast<double>(t.acks));
    r.metric("ft.dup_filtered", static_cast<double>(t.dup_filtered));
    r.metric("ft.corrupt_detected", static_cast<double>(t.corrupt_detected));
    r.metric("ft.first_copy_ratio",
             (data_copies - static_cast<double>(t.retransmits)) / data_copies);
    r.metric("ft.recoveries", pass.recoveries);
    r.metric("ft.shrinks", pass.shrinks);
    r.metric("match.iterations", static_cast<double>(pass.iterations));
    r.metric("match.serial_s", r.seconds("serial"));
    gen_metrics(r, *g);
    r.metric("trace_overhead", r.sum("traced.") / faults_s);
    r.phase("teardown", Kind::kOther, [&] {
      clean.clear();
      dg.reset();
      g.reset();
    });
  }
}

std::uint64_t now_ns() {
  // mellint: allow(wallclock) — host-side timing of tracer hooks; never
  // feeds simulated state.
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
}

/// Forwards every hook to obs::Recorder and times it: the cost of
/// recording, seen from the machine's side of the Tracer interface.
/// Single-threaded, like the sequential engine it is attached to.
class TimedTracer final : public mpi::Tracer {
 public:
  explicit TimedTracer(mpi::Tracer& inner) : inner_(inner) {}

  std::uint64_t ns() const { return ns_; }
  std::uint64_t calls() const { return calls_; }

  void record(Rank rank, const char* category, sim::Time start,
              sim::Time end) override {
    timed([&] { inner_.record(rank, category, start, end); });
  }
  void instant(Rank rank, const char* name, sim::Time t,
               mpi::FlowId flow) override {
    timed([&] { inner_.instant(rank, name, t, flow); });
  }
  void flow_begin(mpi::FlowId flow, mpi::Channel channel, Rank src, Rank dst,
                  int tag, std::size_t bytes, sim::Time t) override {
    timed([&] { inner_.flow_begin(flow, channel, src, dst, tag, bytes, t); });
  }
  void flow_step(mpi::FlowId flow, Rank rank, sim::Time t) override {
    timed([&] { inner_.flow_step(flow, rank, t); });
  }
  void flow_end(mpi::FlowId flow, Rank rank, sim::Time t) override {
    timed([&] { inner_.flow_end(flow, rank, t); });
  }
  void wire(Rank src, Rank dst, std::size_t bytes, sim::Time t) override {
    timed([&] { inner_.wire(src, dst, bytes, t); });
  }
  void counter(Rank rank, const char* name, sim::Time t,
               std::uint64_t value) override {
    timed([&] { inner_.counter(rank, name, t, value); });
  }
  void iteration(Rank rank, std::uint64_t iter, std::int64_t active,
                 const mpi::CommCounters& c, sim::Time t) override {
    timed([&] { inner_.iteration(rank, iter, active, c, t); });
  }

 private:
  template <class F>
  void timed(F&& fn) {
    const std::uint64_t t0 = now_ns();
    fn();
    ns_ += now_ns() - t0;
    ++calls_;
  }

  mpi::Tracer& inner_;
  std::uint64_t ns_ = 0;
  std::uint64_t calls_ = 0;
};

constexpr double kMiB = 1024.0 * 1024.0;

std::string trace_path(const Args& a) {
  return a.work + "/trace-" + std::to_string(a.seed) + ".json";
}

/// trace-replay, set-up process: record one NSR run to a mel.trace/2 file.
/// It runs apart from the replay process so the replay's peak RSS is the
/// ingest's own.
void trace_record(Report& r, const Args& a) {
  auto g = r.phase("gen", Kind::kSetup, [&] {
    return std::make_unique<graph::Csr>(gen::random_geometric(
        kTraceVerts, gen::rgg_radius_for_degree(kTraceVerts, kRggDegree),
        a.seed));
  });
  auto dg = r.phase("distribute", Kind::kSetup, [&] {
    return std::make_unique<graph::DistGraph>(*g, kTraceRanks);
  });
  if (a.traced) {
    r.phase("simulate", Kind::kOther,
            [&] { (void)match::run_match(*dg, Model::kNsr); });
    release_heap(r);
  }
  auto rec = std::make_unique<obs::Recorder>();
  TimedTracer timed(*rec);
  match::RunConfig cfg;
  cfg.tracer = a.traced ? static_cast<mpi::Tracer*>(&timed) : rec.get();
  auto run = r.phase("record", Kind::kSetup, [&] {
    rec->set_run_info("match", match::model_name(Model::kNsr), kTraceRanks,
                      a.seed);
    rec->set_net_params(cfg.net);
    auto res = match::run_match(*dg, Model::kNsr, cfg);
    rec->set_run_result(res.time, res.trace_hash, res.sim_events);
    return res;
  });
  const auto bytes = r.phase("serialize", Kind::kSetup, [&] {
    const std::string text = rec->to_chrome_json();
    std::ofstream(trace_path(a), std::ios::binary) << text;
    return text.size();
  });
  const auto serial = r.phase("serial", Kind::kOther,
                              [&] { return match::serial_half_approx(*g); });
  r.phase("verify", Kind::kOther,
          [&] { check_matching(r, "match.NSR", *g, run, serial); });
  if (a.traced) {
    const double overhead = r.seconds("record") / r.seconds("simulate");
    r.metric("obs.record_overhead", overhead);
    r.metric("obs.record_ns", static_cast<double>(timed.ns()));
    r.metric("obs.record_calls", static_cast<double>(timed.calls()));
    r.metric("obs.serialize_s", r.seconds("serialize"));
    r.metric("obs.trace_mb", static_cast<double>(bytes) / kMiB);
    gen_metrics(r, *g);
    r.metric("trace_overhead", overhead);
  }
  r.phase("teardown", Kind::kOther, [&] {
    run = {};
    rec.reset();
    dg.reset();
    g.reset();
  });
}

/// trace-replay, measured process: what `meltrace validate`, `replay`
/// (fidelity plus a what-if sweep) and `critical` do with the file.
void trace_replay(Report& r, const Args& a) {
  const std::string path = trace_path(a);
  auto trace = r.phase("scan", Kind::kMeasured,
                       [&] { return obs::load_replay_trace_file(path); });
  const double ingest_rss = peak_rss_mb(RUSAGE_SELF);
  auto rp = r.phase("dag_build", Kind::kMeasured, [&] {
    return std::make_unique<obs::Replayer>(std::move(trace));
  });
  const auto fidelity = r.phase("fidelity", Kind::kMeasured,
                                [&] { return rp->fidelity_errors(); });
  // What-if sweep: inter-node latency from 1x to 4.75x the recorded value.
  // Point 0 re-prices under the recorded parameters; its digest is pinned.
  std::uint64_t digest = 0;
  for (int i = 0; i < kRepricePoints; ++i) {
    net::Params p = rp->trace().net;
    p.alpha_inter = p.alpha_inter * (4 + i) / 4;
    const double before = r.seconds("reprice");
    const auto res =
        r.phase("reprice", Kind::kMeasured, [&] { return rp->replay(p); });
    r.sample("reprice_s", r.seconds("reprice") - before);
    if (i == 0) digest = res.digest;
  }
  const auto cp = r.phase("critical", Kind::kMeasured,
                          [&] { return obs::critical_path(*rp); });
  const auto stats = r.phase("validate", Kind::kMeasured,
                             [&] { return obs::analyze_trace_file(path); });
  const double validate_rss = peak_rss_mb(RUSAGE_SELF);
  r.end_repetition();
  r.phase("verify", Kind::kOther, [&] {
    std::string why;
    if (!fidelity.empty()) {
      why = "replay fidelity: " + fidelity.front();
    } else if (!stats.errors.empty()) {
      why = "validation: " + stats.errors.front();
    } else if (cp.total_ns != rp->trace().run_time_ns) {
      why = "critical path does not sum to the run time";
    }
    r.op("replay", why.empty(), why,
         {{"replay_digest", quoted(hex64(digest))},
          {"validation_errors", std::to_string(stats.errors.size())}});
  });
  r.metric("replay_ingest_s", r.seconds("scan") + r.seconds("dag_build"));
  r.metric("validate_s", r.seconds("validate"));
  if (a.traced) {
    const double mb =
        static_cast<double>(std::filesystem::file_size(path)) / kMiB;
    r.metric("obs.scan_s", r.seconds("scan"));
    r.metric("obs.scan_mb_per_s", mb / r.seconds("scan"));
    r.metric("obs.dag_build_s", r.seconds("dag_build"));
    r.metric("obs.anchors", static_cast<double>(rp->anchors().size()));
    r.metric("obs.flows", static_cast<double>(rp->trace().flows.size()));
    r.metric("obs.fidelity_s", r.seconds("fidelity"));
    r.metric("obs.critical_s", r.seconds("critical"));
    r.metric("obs.validate_mb_per_s", mb / r.seconds("validate"));
    r.metric("obs.ingest_peak_rss_mb", ingest_rss);
    r.metric("obs.validate_peak_rss_mb", validate_rss);
  }
  r.phase("teardown", Kind::kOther, [&] { rp.reset(); });
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  for (const std::string& name : cli.option_names()) {
    if (name != "workload" && name != "seed" && name != "work" &&
        name != "traced" && name != "record") {
      std::fprintf(stderr, "mel_e2e: unknown option --%s\n", name.c_str());
      return 2;
    }
  }
  Args a;
  a.workload = cli.get("workload", "");
  a.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  a.work = cli.get("work", ".");
  a.traced = cli.has("traced");
  const bool record = cli.has("record");
  std::filesystem::create_directories(a.work);

  Report r;
  try {
    if (a.workload == "nsr-rgg-t4") {
      rgg_workload(r, a, Model::kNsr, kNsrVerts, 1);
    } else if (a.workload == "ncl-rgg-t4") {
      rgg_workload(r, a, Model::kNcl, kNclVerts, kNclRepeats);
    } else if (a.workload == "sweep-rmat") {
      sweep_workload(r, a);
    } else if (a.workload == "melcheck") {
      melcheck_workload(r, a);
    } else if (a.workload == "trace-replay") {
      if (record) {
        trace_record(r, a);
      } else {
        trace_replay(r, a);
      }
    } else {
      std::fprintf(stderr, "mel_e2e: unknown --workload '%s'\n",
                   a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    r.op("exception", false, e.what());
  }
  // Left to process exit, handing the heap back to the OS takes a tenth of
  // a second that no phase would account for.
  release_heap(r);
  const double rss = std::max(peak_rss_mb(RUSAGE_SELF),
                              peak_rss_mb(RUSAGE_CHILDREN));
  std::printf("%s\n", r.json(a.workload, a.seed, a.traced, rss).c_str());
  return 0;
}
