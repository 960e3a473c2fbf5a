// Google-benchmark microbenchmarks of the simulation substrate itself:
// host-side throughput of the event loop, point-to-point messaging,
// neighborhood collectives, and the end-to-end matcher. These guard
// against host-performance regressions (the table/figure benches above
// measure *simulated* time; these measure wall time per simulated op).
//
// Two modes:
//   bench_micro_substrate [gbench flags]   - interactive google-benchmark
//   bench_micro_substrate --json FILE      - machine-readable suite: fixed
//       workloads (event loop, 1K-rank ring exchange, 1K-rank neighborhood
//       collective, one end-to-end match per backend) emitting events/sec,
//       messages/sec, host wall seconds and peak RSS as JSON. CI uploads
//       this as BENCH_substrate.json and compares events/sec against the
//       committed floor in bench/substrate_floor.json.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "mel/mpi/machine.hpp"

using namespace mel;

namespace {

void BM_EventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s(1);
    const int n = static_cast<int>(state.range(0));
    int sink = 0;
    for (int i = 0; i < n; ++i) {
      s.schedule_for(0, i, [&sink] { ++sink; });
    }
    struct Noop {
      static sim::RankTask make() { co_return; }
    };
    s.spawn(0, Noop::make());
    s.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventLoop)->Arg(1 << 10)->Arg(1 << 14);

sim::RankTask pingpong(mpi::Comm& c, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    if (c.rank() == 0) {
      c.isend_pod<int>(1, 0, i);
      (void)co_await c.recv(1, 0);
    } else {
      (void)co_await c.recv(0, 0);
      c.isend_pod<int>(0, 0, i);
    }
  }
  co_return;
}

void BM_PingPong(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s(2);
    mpi::Machine m(s, net::Network(2, net::Params{}));
    for (sim::Rank r = 0; r < 2; ++r) s.spawn(r, pingpong(m.comm(r), rounds));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_PingPong)->Arg(1 << 10);

sim::RankTask ncl_rounds(mpi::Comm& c, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    std::vector<std::int64_t> vals(c.neighbors().size(), i);
    (void)co_await c.neighbor_alltoall_i64(vals);
  }
  co_return;
}

void BM_NeighborAlltoall(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s(p);
    net::Params np;
    mpi::Machine m(s, net::Network(p, np));
    std::vector<std::vector<sim::Rank>> topo(p);
    for (sim::Rank r = 0; r < p; ++r) {
      for (sim::Rank x = 0; x < p; ++x) {
        if (x != r) topo[r].push_back(x);
      }
    }
    m.set_topology(std::move(topo));
    for (sim::Rank r = 0; r < p; ++r) s.spawn(r, ncl_rounds(m.comm(r), 32));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 32 * p);
}
BENCHMARK(BM_NeighborAlltoall)->Arg(8)->Arg(32);

void BM_SerialMatch(benchmark::State& state) {
  const auto g = gen::rmat(static_cast<int>(state.range(0)), 16, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(match::serial_half_approx(g).weight);
  }
  state.SetItemsProcessed(state.iterations() * g.nedges());
}
BENCHMARK(BM_SerialMatch)->Arg(12)->Arg(14);

void BM_DistMatchEndToEnd(benchmark::State& state) {
  const auto g = gen::rmat(12, 16, 7);
  const auto model = static_cast<match::Model>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(match::run_match(g, 32, model).time);
  }
  state.SetItemsProcessed(state.iterations() * g.nedges());
}
BENCHMARK(BM_DistMatchEndToEnd)
    ->Arg(static_cast<int>(match::Model::kNsr))
    ->Arg(static_cast<int>(match::Model::kRma))
    ->Arg(static_cast<int>(match::Model::kNcl));

// ---------------------------------------------------------------------------
// --json suite: fixed workloads, machine-readable output
// ---------------------------------------------------------------------------

struct SuiteRow {
  std::string name;
  std::uint64_t events = 0;    // simulator events executed
  std::uint64_t messages = 0;  // application-level messages moved
  double wall_s = 0.0;         // host wall time
};

std::size_t peak_rss_bytes() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
}

class WallTimer {
 public:
  // mellint: allow(wallclock) — host-side benchmark timing; measures the
  // simulator itself, never feeds simulated state.
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

sim::RankTask ring_exchange(mpi::Comm& c, int rounds) {
  const int p = c.size();
  const sim::Rank next = (c.rank() + 1) % p;
  const sim::Rank prev = (c.rank() + p - 1) % p;
  for (int i = 0; i < rounds; ++i) {
    c.isend_pod<std::int64_t>(next, 0, i);
    (void)co_await c.recv(prev, 0);
  }
  co_return;
}

/// Pure event-queue throughput: one rank, a large batch of pre-scheduled
/// closure events (the shape Simulator::schedule_for sees from every wake).
SuiteRow suite_event_loop() {
  constexpr int kEvents = 1 << 18;
  SuiteRow row;
  row.name = "event_loop";
  sim::Simulator s(1);
  std::uint64_t sink = 0;
  for (int i = 0; i < kEvents; ++i) {
    // 4-way same-timestamp batches
    s.schedule_for(0, i / 4, [&sink] { ++sink; });
  }
  struct Noop {
    static sim::RankTask make() { co_return; }
  };
  s.spawn(0, Noop::make());
  const WallTimer t;
  s.run();
  row.wall_s = t.seconds();
  benchmark::DoNotOptimize(sink);
  row.events = s.events_executed();
  return row;
}

/// 1K simulated ranks exchanging point-to-point messages around a ring —
/// the headline events/sec workload the perf floor tracks.
SuiteRow suite_ring_1k() {
  constexpr int kRanks = 1024;
  constexpr int kRounds = 48;
  SuiteRow row;
  row.name = "ring_1k";
  sim::Simulator s(kRanks);
  mpi::Machine m(s, net::Network(kRanks, net::Params{}));
  for (sim::Rank r = 0; r < kRanks; ++r) {
    s.spawn(r, ring_exchange(m.comm(r), kRounds));
  }
  const WallTimer t;
  s.run();
  row.wall_s = t.seconds();
  row.events = s.events_executed();
  row.messages = static_cast<std::uint64_t>(kRanks) * kRounds;
  return row;
}

/// 1K simulated ranks in a ring process topology exchanging neighborhood
/// collectives (2 neighbors each).
SuiteRow suite_neighbor_1k() {
  constexpr int kRanks = 1024;
  constexpr int kRounds = 32;
  SuiteRow row;
  row.name = "neighbor_1k";
  sim::Simulator s(kRanks);
  mpi::Machine m(s, net::Network(kRanks, net::Params{}));
  std::vector<std::vector<sim::Rank>> topo(kRanks);
  for (sim::Rank r = 0; r < kRanks; ++r) {
    topo[r] = {(r + 1) % kRanks, (r + kRanks - 1) % kRanks};
  }
  m.set_topology(std::move(topo));
  for (sim::Rank r = 0; r < kRanks; ++r) {
    s.spawn(r, ncl_rounds(m.comm(r), kRounds));
  }
  const WallTimer t;
  s.run();
  row.wall_s = t.seconds();
  row.events = s.events_executed();
  row.messages = static_cast<std::uint64_t>(kRanks) * kRounds * 2;
  return row;
}

/// The ring workload again on the sharded engine (--threads 4): tracks
/// the threaded run loop's host throughput. On a multi-core host
/// events/sec should approach ring_1k x cores; on a single-core box the
/// row records the sharding overhead instead (see substrate_floor.json —
/// this row only ever warns).
SuiteRow suite_ring_1k_threaded() {
  constexpr int kRanks = 1024;
  constexpr int kRounds = 48;
  SuiteRow row;
  row.name = "ring_1k_t4";
  sim::Simulator s(kRanks);
  s.set_threads(4);
  mpi::Machine m(s, net::Network(kRanks, net::Params{}));
  for (sim::Rank r = 0; r < kRanks; ++r) {
    s.spawn(r, ring_exchange(m.comm(r), kRounds));
  }
  const WallTimer t;
  s.run();
  row.wall_s = t.seconds();
  row.events = s.events_executed();
  row.messages = static_cast<std::uint64_t>(kRanks) * kRounds;
  return row;
}

/// End-to-end 512-rank RGG matching at a given thread count — the
/// strong-scaling headline pair for the sharded engine. CI records both
/// rows; EXPERIMENTS.md derives the speedup column from their wall times.
SuiteRow suite_match_rgg512(int threads) {
  const auto g = gen::random_geometric(
      60'000, gen::rgg_radius_for_degree(60'000, 24.0), 7);
  SuiteRow row;
  row.name = "match_NSR_rgg512";
  if (threads != 1) row.name += "_t" + std::to_string(threads);
  match::RunConfig cfg;
  cfg.threads = threads;
  const WallTimer t;
  const auto r = match::run_match(g, 512, match::Model::kNsr, cfg);
  row.wall_s = t.seconds();
  row.events = r.sim_events;
  row.messages = r.totals.isends + r.totals.puts + r.totals.neighbor_colls;
  benchmark::DoNotOptimize(r.matching.cardinality);
  return row;
}

/// One end-to-end matching run per backend on a fixed R-MAT input.
SuiteRow suite_match(match::Model model) {
  const auto g = gen::rmat(10, 8, 7);
  SuiteRow row;
  row.name = std::string("match_") + match::model_name(model);
  const WallTimer t;
  const auto r = match::run_match(g, 64, model, {});
  row.wall_s = t.seconds();
  row.events = r.sim_events;
  row.messages = r.totals.isends + r.totals.puts + r.totals.neighbor_colls;
  benchmark::DoNotOptimize(r.matching.cardinality);
  return row;
}

int run_json_suite(const char* path) {
  std::vector<SuiteRow> rows;
  rows.push_back(suite_event_loop());
  rows.push_back(suite_ring_1k());
  rows.push_back(suite_ring_1k_threaded());
  rows.push_back(suite_neighbor_1k());
  rows.push_back(suite_match_rgg512(1));
  rows.push_back(suite_match_rgg512(8));
  for (const auto model :
       {match::Model::kNsr, match::Model::kRma, match::Model::kNcl,
        match::Model::kMbp, match::Model::kNsrAgg, match::Model::kRmaFence,
        match::Model::kNclNb}) {
    rows.push_back(suite_match(model));
  }

  std::FILE* f = std::strcmp(path, "-") == 0 ? stdout : std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro_substrate: cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const double eps = r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s
                                    : 0.0;
    const double mps = r.wall_s > 0
                           ? static_cast<double>(r.messages) / r.wall_s
                           : 0.0;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %llu, "
                 "\"messages\": %llu, \"wall_s\": %.6f, "
                 "\"events_per_sec\": %.1f, \"messages_per_sec\": %.1f}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.events),
                 static_cast<unsigned long long>(r.messages), r.wall_s, eps,
                 mps, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"peak_rss_bytes\": %zu\n}\n", peak_rss_bytes());
  if (f != stdout) std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: bench_micro_substrate --json FILE\n");
        return 1;
      }
      return run_json_suite(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
