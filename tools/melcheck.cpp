// melcheck — systematic fault-space explorer for the matching substrate.
//
// Enumerates a seeded, deterministic sample of fault schedules
// (fault kind x injection point x backend x chaos seed), replays each on a
// small fixed graph, and checks the invariants the fault-tolerance layer
// promises:
//
//   1. the run completes (no escaped exception, audit included),
//   2. the matching is valid (symmetric, partners adjacent),
//   3. no vertex owned by a failed rank is matched,
//   4. the matching is maximal on the subgraph induced by surviving ranks,
//   5. without crashes, the weight is bit-identical to the fault-free
//      baseline of the same backend (wire faults are semantically invisible),
//   6. byte/put conservation holds (the driver's substrate audit runs on
//      every schedule and any violation surfaces as an exception).
//
// On a violation melcheck greedily minimizes the schedule — zeroing each
// wire-fault knob and dropping each crash while the violation persists —
// prints the minimized schedule as a melsim-compatible command line, and
// exits 1. Schedule derivation is a pure function of (--seed, index), so a
// run is bit-identically reproducible: the CI smoke job runs the same
// sweep twice and diffs the bytes.
//
// --plant-bug KIND sabotages every result after the run (unmatch a pair /
// resurrect a dead-rank vertex) so the violation path itself is testable:
// a melcheck build that cannot flag a planted bug must not gate CI.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "mel/gen/generators.hpp"
#include "mel/graph/dist.hpp"
#include "mel/match/backends.hpp"
#include "mel/match/driver.hpp"
#include "mel/match/verify.hpp"
#include "mel/util/cli.hpp"

namespace {

using mel::graph::Rank;
using mel::graph::VertexId;

struct Flag {
  const char* name;
  const char* arg;
  const char* help;
};

constexpr Flag kFlags[] = {
    {"help", "", "print this option list and exit"},
    {"seed", "S", "schedule-derivation seed (default 1)"},
    {"schedules", "N", "number of fault schedules to explore (default 64)"},
    {"ranks", "P", "simulated MPI ranks per schedule (default 6)"},
    {"verts", "N", "test-graph vertex count (default 240)"},
    {"edges", "M", "test-graph edge count (default 1200)"},
    {"models", "CSV",
     "comma-separated backend subset (default: all ten models)"},
    {"json", "", "machine-readable one-object-per-schedule JSONL on stdout"},
    {"plant-bug", "unmatch|resurrect",
     "sabotage every result post-run (self-test of the violation path)"},
};

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: melcheck [--option value ...]\n"
               "explore a seeded sample of the fault space (fault kind x "
               "injection point x\nbackend x seed) and check matching/"
               "substrate invariants on every schedule.\n"
               "exit 0: all schedules clean; exit 1: violation (minimized "
               "schedule printed);\nexit 2: usage error.\n\noptions:\n");
  for (const Flag& f : kFlags) {
    std::string left = std::string("--") + f.name;
    if (f.arg[0] != '\0') left += std::string(" ") + f.arg;
    std::fprintf(out, "  %-28s %s\n", left.c_str(), f.help);
  }
}

bool known_flag(const std::string& name) {
  for (const Flag& f : kFlags) {
    if (name == f.name) return true;
  }
  return false;
}

/// SplitMix64 — the schedule-derivation hash. Pure, so schedule i is the
/// same schedule on every run with the same --seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Every knob of one explored schedule. Derivation (from hash draws) and
/// replay are separate so minimization can mutate a copy and re-replay.
struct Schedule {
  std::size_t index = 0;
  mel::match::Model model = mel::match::Model::kNsr;
  std::uint64_t chaos_seed = 1;
  double loss = 0.0;
  double dup = 0.0;
  double corrupt = 0.0;
  std::vector<mel::chaos::Config::Crash> crashes;
  mel::sim::Time checkpoint_ns = 0;
  mel::ft::Recovery recovery = mel::ft::Recovery::kShrink;

  bool has_wire() const { return loss != 0.0 || dup != 0.0 || corrupt != 0.0; }

  /// Render as flags melsim accepts verbatim (the reproduction recipe
  /// printed with a violation). `verts`, `edges` and `seed` are the
  /// generator's requested inputs, not the built graph's deduplicated
  /// counts, so melsim rebuilds the very same graph.
  std::string melsim_flags(int ranks, VertexId verts, mel::graph::EdgeId edges,
                           std::uint64_t seed) const {
    char buf[512];
    int n = std::snprintf(buf, sizeof buf,
                          "--algo match --model %s --ranks %d --gen er "
                          "--verts %lld --edges %lld --seed %lld "
                          "--chaos-seed %llu",
                          mel::match::model_name(model), ranks,
                          static_cast<long long>(verts),
                          static_cast<long long>(edges),
                          // melsim reads --seed as a signed integer
                          static_cast<long long>(seed),
                          static_cast<unsigned long long>(chaos_seed));
    std::string out(buf, static_cast<std::size_t>(n));
    auto add = [&out, &buf](const char* fmt, auto... args) {
      const int k = std::snprintf(buf, sizeof buf, fmt, args...);
      out.append(buf, static_cast<std::size_t>(k));
    };
    if (loss != 0.0) add(" --fault-loss %.2f", loss);
    if (dup != 0.0) add(" --fault-dup %.2f", dup);
    if (corrupt != 0.0) add(" --fault-corrupt %.2f", corrupt);
    if (!crashes.empty()) {
      out += " --fault-crash ";
      for (std::size_t i = 0; i < crashes.size(); ++i) {
        add(i == 0 ? "%d@%lld" : ",%d@%lld", crashes[i].rank,
            static_cast<long long>(crashes[i].at));
      }
    }
    if (checkpoint_ns > 0) {
      add(" --ft-checkpoint-ns %lld", static_cast<long long>(checkpoint_ns));
    }
    add(" --ft-recovery %s",
        recovery == mel::ft::Recovery::kShrink ? "shrink" : "rollback");
    return out;
  }
};

/// One derivation of schedule `i`. Seven fault classes cycle so the sample
/// covers the whole kind x injection-point grid even at small N:
///   0 loss   1 dup   2 corrupt   3 all wire faults
///   4 one crash   5 two crashes   6 crash + all wire faults
Schedule derive(std::uint64_t seed, std::size_t i,
                const std::vector<mel::match::Model>& models, int ranks,
                mel::sim::Time baseline_time) {
  Schedule s;
  s.index = i;
  const std::uint64_t h0 = mix(seed ^ mix(static_cast<std::uint64_t>(i)));
  s.model = models[i % models.size()];
  s.chaos_seed = 1 + (mix(h0 ^ 1) % 97);
  const int cls = static_cast<int>(i / models.size()) % 7;
  // Rates quantized to {0.02, 0.04, 0.06, 0.08, 0.10}.
  auto rate = [&](std::uint64_t salt) {
    return 0.02 * static_cast<double>(1 + mix(h0 ^ salt) % 5);
  };
  if (cls == 0 || cls == 3 || cls == 6) s.loss = rate(2);
  if (cls == 1 || cls == 3 || cls == 6) s.dup = rate(3);
  if (cls == 2 || cls == 3 || cls == 6) s.corrupt = rate(4);
  const int ncrash = (cls == 4 || cls == 6) ? 1 : cls == 5 ? 2 : 0;
  for (int c = 0; c < ncrash; ++c) {
    mel::chaos::Config::Crash crash;
    crash.rank = static_cast<Rank>(mix(h0 ^ (16 + c)) % ranks);
    // Injection point: 1/8 .. 7/8 of the fault-free baseline runtime.
    const auto octile = 1 + mix(h0 ^ (32 + c)) % 7;
    crash.at = std::max<mel::sim::Time>(
        1, baseline_time * static_cast<mel::sim::Time>(octile) / 8);
    // Two crashes at distinct ranks (same-rank double crash is a no-op).
    if (c == 1 && crash.rank == s.crashes[0].rank) {
      crash.rank = static_cast<Rank>((crash.rank + 1) % ranks);
    }
    s.crashes.push_back(crash);
  }
  s.checkpoint_ns = (mix(h0 ^ 64) & 1) ? baseline_time / 8 : 0;
  s.recovery = (mix(h0 ^ 65) & 1) ? mel::ft::Recovery::kShrink
                                  : mel::ft::Recovery::kRollback;
  return s;
}

enum class PlantBug { kNone, kUnmatch, kResurrect };

PlantBug parse_plant_bug(const std::string& name) {
  if (name == "unmatch") return PlantBug::kUnmatch;
  if (name == "resurrect") return PlantBug::kResurrect;
  throw std::invalid_argument("unknown --plant-bug: " + name);
}

struct Verdict {
  bool ok = true;
  std::string violated;  // first violated invariant, named
  double weight = 0.0;
  int recoveries = 0;
  int shrinks = 0;
  std::vector<Rank> failed;
};

/// Replay one schedule and check every invariant. Never throws: an escaped
/// exception (audit failure, transport give-up, ...) is itself verdict
/// "exception: <what>".
Verdict replay(const Schedule& s, const mel::graph::Csr& g,
               const mel::graph::Distribution& dist, int ranks,
               const std::map<int, double>& baseline_weight, PlantBug bug) {
  using mel::match::kNullVertex;
  Verdict v;
  mel::match::RunConfig cfg;
  cfg.net.chaos.seed = s.chaos_seed;
  cfg.net.chaos.loss = s.loss;
  cfg.net.chaos.duplication = s.dup;
  cfg.net.chaos.corruption = s.corrupt;
  cfg.net.chaos.crashes = s.crashes;
  cfg.ft.checkpoint_ns = s.checkpoint_ns;
  cfg.ft.recovery = s.recovery;
  mel::match::RunResult run;
  try {
    run = mel::match::run_match(g, ranks, s.model, cfg);
  } catch (const std::exception& e) {
    v.ok = false;
    v.violated = std::string("exception: ") + e.what();
    return v;
  }
  auto& mate = run.matching.mate;
  if (bug == PlantBug::kUnmatch) {
    // Break one matched pair: the survivors' maximality check must notice.
    for (VertexId u = 0; u < g.nverts(); ++u) {
      if (mate[u] != kNullVertex) {
        mate[static_cast<std::size_t>(mate[u])] = kNullVertex;
        mate[u] = kNullVertex;
        break;
      }
    }
  } else if (bug == PlantBug::kResurrect && !run.failed_ranks.empty()) {
    // Match a dead rank's vertex to itself: validity must notice.
    const VertexId dead = dist.begin(run.failed_ranks.front());
    mate[static_cast<std::size_t>(dead)] = dead;
  }
  v.weight = mel::match::matching_weight(g, mate);
  v.recoveries = run.recoveries;
  v.shrinks = run.shrinks;
  v.failed = run.failed_ranks;
  std::vector<char> dead_rank(static_cast<std::size_t>(ranks), 0);
  for (const Rank r : run.failed_ranks) {
    dead_rank[static_cast<std::size_t>(r)] = 1;
  }
  auto dead = [&](VertexId x) {
    return dead_rank[static_cast<std::size_t>(dist.owner(x))] != 0;
  };
  if (!mel::match::is_valid_matching(g, mate)) {
    v.ok = false;
    v.violated = "invalid matching (asymmetric pair or non-adjacent partners)";
    return v;
  }
  for (VertexId u = 0; u < g.nverts(); ++u) {
    if (dead(u) && mate[u] != kNullVertex) {
      v.ok = false;
      v.violated = "vertex " + std::to_string(u) +
                   " owned by failed rank " + std::to_string(dist.owner(u)) +
                   " is matched";
      return v;
    }
  }
  for (VertexId u = 0; u < g.nverts(); ++u) {
    if (dead(u) || mate[u] != kNullVertex) continue;
    for (const auto& a : g.neighbors(u)) {
      if (a.w <= 0 || dead(a.to) || mate[a.to] != kNullVertex) continue;
      v.ok = false;
      v.violated = "not maximal on survivors: edge (" + std::to_string(u) +
                   "," + std::to_string(a.to) + ") joins two unmatched " +
                   "surviving vertices";
      return v;
    }
  }
  if (s.crashes.empty()) {
    const double base = baseline_weight.at(static_cast<int>(s.model));
    if (v.weight != base) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "weight %.17g != fault-free baseline %.17g "
                    "(wire faults must be semantically invisible)",
                    v.weight, base);
      v.ok = false;
      v.violated = msg;
      return v;
    }
  }
  return v;
}

/// Greedy delta-minimization: try zeroing each knob / dropping each crash;
/// keep any mutation under which the violation persists. The result is a
/// locally-minimal schedule that still fails — the debugging entry point.
Schedule minimize(Schedule s, const mel::graph::Csr& g,
                  const mel::graph::Distribution& dist, int ranks,
                  const std::map<int, double>& baseline_weight, PlantBug bug) {
  auto still_fails = [&](const Schedule& cand) {
    return !replay(cand, g, dist, ranks, baseline_weight, bug).ok;
  };
  for (std::size_t c = s.crashes.size(); c-- > 0;) {
    Schedule cand = s;
    cand.crashes.erase(cand.crashes.begin() + static_cast<std::ptrdiff_t>(c));
    if (still_fails(cand)) s = std::move(cand);
  }
  for (double Schedule::* knob :
       {&Schedule::loss, &Schedule::dup, &Schedule::corrupt}) {
    if (s.*knob == 0.0) continue;
    Schedule cand = s;
    cand.*knob = 0.0;
    if (still_fails(cand)) s = std::move(cand);
  }
  if (s.checkpoint_ns != 0) {
    Schedule cand = s;
    cand.checkpoint_ns = 0;
    if (still_fails(cand)) s = std::move(cand);
  }
  return s;
}

int run(const mel::util::Cli& cli) {
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto schedules_arg = cli.get_int("schedules", 64);
  const auto ranks_arg = cli.get_int("ranks", 6);
  const auto verts = static_cast<VertexId>(cli.get_int("verts", 240));
  const auto edges = static_cast<mel::graph::EdgeId>(
      cli.get_int("edges", 1200));
  const bool json = cli.has("json");
  const PlantBug bug = cli.has("plant-bug")
                           ? parse_plant_bug(cli.get("plant-bug", ""))
                           : PlantBug::kNone;
  if (schedules_arg < 0) {
    throw std::invalid_argument("--schedules: must be >= 0, got " +
                                std::to_string(schedules_arg));
  }
  const auto schedules = static_cast<std::size_t>(schedules_arg);
  if (ranks_arg < 2 || ranks_arg > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(
        "--ranks must be between 2 and " +
        std::to_string(std::numeric_limits<int>::max()) +
        " (a one-rank job has no fault space), got " +
        std::to_string(ranks_arg));
  }
  const int ranks = static_cast<int>(ranks_arg);
  std::vector<mel::match::Model> models;
  if (cli.has("models")) {
    const std::string text = cli.get("models", "");
    std::size_t pos = 0;
    while (pos <= text.size()) {
      auto comma = text.find(',', pos);
      if (comma == std::string::npos) comma = text.size();
      models.push_back(mel::match::parse_model(text.substr(pos, comma - pos)));
      pos = comma + 1;
    }
  } else {
    models.assign(std::begin(mel::match::kAllModels),
                  std::end(mel::match::kAllModels));
  }

  const auto g = mel::gen::erdos_renyi(verts, edges, seed);
  const mel::graph::DistGraph dg(g, ranks);
  const auto& dist = dg.dist();

  // Fault-free baselines, one per backend in play: the weight oracle for
  // crash-free schedules and the time scale for crash injection points.
  std::map<int, double> baseline_weight;
  mel::sim::Time baseline_time = 0;
  for (const auto m : models) {
    const auto clean = mel::match::run_match(g, ranks, m);
    baseline_weight[static_cast<int>(m)] = clean.matching.weight;
    baseline_time = std::max(baseline_time, clean.time);
  }

  if (!json) {
    std::printf("melcheck: %zu schedules, %d ranks, |V|=%lld |E|=%lld, "
                "%zu models, seed=%llu\n",
                schedules, ranks, static_cast<long long>(g.nverts()),
                static_cast<long long>(g.nedges()), models.size(),
                static_cast<unsigned long long>(seed));
  }
  std::size_t violations = 0;
  std::optional<Schedule> first_bad;
  std::string first_bad_why;
  for (std::size_t i = 0; i < schedules; ++i) {
    const Schedule s = derive(seed, i, models, ranks, baseline_time);
    const Verdict v = replay(s, g, dist, ranks, baseline_weight, bug);
    if (json) {
      std::printf(
          "{\"schedule\":%zu,\"model\":\"%s\",\"chaos_seed\":%llu,"
          "\"loss\":%.2f,\"dup\":%.2f,\"corrupt\":%.2f,\"crashes\":%zu,"
          "\"checkpoint_ns\":%lld,\"recovery\":\"%s\",\"ok\":%s,"
          "\"weight\":%.17g,\"recoveries\":%d,\"shrinks\":%d,"
          "\"violated\":\"%s\"}\n",
          i, mel::match::model_name(s.model),
          static_cast<unsigned long long>(s.chaos_seed), s.loss, s.dup,
          s.corrupt, s.crashes.size(),
          static_cast<long long>(s.checkpoint_ns),
          s.recovery == mel::ft::Recovery::kShrink ? "shrink" : "rollback",
          v.ok ? "true" : "false", v.weight, v.recoveries, v.shrinks,
          v.violated.c_str());
    }
    if (!v.ok) {
      ++violations;
      if (!json) {
        std::printf("VIOLATION schedule %zu [%s]: %s\n", i,
                    mel::match::model_name(s.model), v.violated.c_str());
      }
      if (!first_bad) {
        first_bad = s;
        first_bad_why = v.violated;
      }
    }
  }
  if (!json) {
    std::printf("melcheck: %zu/%zu schedules clean, %zu violations\n",
                schedules - violations, schedules, violations);
  }
  if (first_bad) {
    const Schedule m =
        minimize(*first_bad, g, dist, ranks, baseline_weight, bug);
    const Verdict mv = replay(m, g, dist, ranks, baseline_weight, bug);
    std::fprintf(stderr,
                 "melcheck: first violation (schedule %zu): %s\n"
                 "melcheck: minimized schedule still violating (%s):\n"
                 "melcheck:   melsim %s\n",
                 first_bad->index, first_bad_why.c_str(),
                 mv.ok ? "minimization raced — reporting original"
                       : mv.violated.c_str(),
                 (mv.ok ? *first_bad : m)
                     .melsim_flags(ranks, verts, edges, seed)
                     .c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const mel::util::Cli cli(argc, argv);
  if (cli.has("help")) {
    print_usage(stdout);
    return 0;
  }
  for (const std::string& name : cli.option_names()) {
    if (!known_flag(name)) {
      std::fprintf(stderr,
                   "melcheck: unknown option --%s (run `melcheck --help` "
                   "for the list)\n",
                   name.c_str());
      return 2;
    }
  }
  try {
    return run(cli);
  } catch (const std::invalid_argument& e) {
    // A bad flag value.
    std::fprintf(stderr,
                 "melcheck: %s (run `melcheck --help` for the options)\n",
                 e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "melcheck: %s\n", e.what());
    return 2;
  }
}
