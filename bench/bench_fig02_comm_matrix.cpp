// Fig 2: communication matrices (Send-Recv invocation counts) of the
// Send-Recv matching baseline vs Graph500-style BFS on an R-MAT graph.
// The paper's point: matching talks everywhere (dense, irregular), BFS is
// burstier and sparser — so matching is the harsher test of a
// communication model.
#include "common.hpp"

#include "mel/bfs/bfs.hpp"
#include "mel/obs/analysis.hpp"
#include "mel/perf/report.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv, {"ranks", "scale", "json", "csv"});
  const int scale = static_cast<int>(cli.get_int("scale", 0));
  const int ranks = static_cast<int>(cli.get_int("ranks", 64));
  const int rmat_scale = 13 + scale;

  const auto g = gen::rmat(rmat_scale, 16, 7);
  std::printf("== Fig 2: MPI call-count matrices, R-MAT scale %d (|E|=%s), "
              "p=%d ==\n\n",
              rmat_scale, util::fmt_si(static_cast<double>(g.nedges())).c_str(),
              ranks);

  match::RunConfig cfg;
  cfg.collect_matrix = true;

  const auto match_run = bench::run_verified(g, ranks, match::Model::kNsr, cfg);
  const auto bfs_run = bfs::run_bfs(g, ranks, 0, match::Model::kNsr, cfg);

  auto describe = [&](const char* name, const mpi::CommMatrix& m) {
    std::printf("--- %s ---\n", name);
    std::printf("total msgs=%s  nonzero (src,dst) pairs=%llu of %d\n",
                util::fmt_si(static_cast<double>(m.total_msgs())).c_str(),
                static_cast<unsigned long long>(m.nonzero_pairs()),
                m.nranks() * (m.nranks() - 1));
    std::printf("%s\n", perf::matrix_heatmap(m, /*bytes=*/false).c_str());
  };
  describe("half-approx matching (NSR), MPI call counts", *match_run.matrix);
  describe("Graph500-style BFS (NSR), MPI call counts", *bfs_run.matrix);

  std::printf("matching msgs / BFS msgs = %.2f\n",
              static_cast<double>(match_run.matrix->total_msgs()) /
                  static_cast<double>(bfs_run.matrix->total_msgs()));
  if (cli.get_bool("csv", false)) {
    std::printf("\n# matching matrix CSV\n%s",
                perf::matrix_csv(*match_run.matrix, false).c_str());
    std::printf("\n# bfs matrix CSV\n%s",
                perf::matrix_csv(*bfs_run.matrix, false).c_str());
  }
  if (cli.get_bool("json", false)) {
    // Canonical serialization shared with `meltrace matrix`, so the
    // trace-reconstruction cross-check is exact byte equality.
    std::printf("\n# matching matrix JSON\n%s\n",
                obs::matrix_json(*match_run.matrix).c_str());
    std::printf("\n# bfs matrix JSON\n%s\n",
                obs::matrix_json(*bfs_run.matrix).c_str());
  }
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
