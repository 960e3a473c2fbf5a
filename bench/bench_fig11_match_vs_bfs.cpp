// Fig 11: communication volume in bytes, half-approx matching vs Graph500
// BFS, on the same R-MAT input. The paper's point: matching's traffic is
// dynamic and unpredictable vs BFS's few synchronized waves, so results
// from BFS-centric studies of MPI-3 features don't transfer.
#include "common.hpp"

#include "mel/bfs/bfs.hpp"
#include "mel/perf/report.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv, {"scale", "ranks"});
  const int scale = static_cast<int>(cli.get_int("scale", 0));
  const int ranks = static_cast<int>(cli.get_int("ranks", 64));
  const int rmat_scale = 14 + scale;

  const auto g = gen::rmat(rmat_scale, 16, 7);
  std::printf("== Fig 11: byte-volume matrices, R-MAT scale %d (|E|=%s), "
              "p=%d ==\n\n",
              rmat_scale, util::fmt_si(static_cast<double>(g.nedges())).c_str(),
              ranks);
  match::RunConfig cfg;
  cfg.collect_matrix = true;

  const auto match_run = bench::run_verified(g, ranks, match::Model::kNsr, cfg);
  const auto bfs_run = bfs::run_bfs(g, ranks, 0, match::Model::kNsr, cfg);

  std::printf("--- matching (NSR): total=%s ---\n%s\n",
              util::fmt_bytes(static_cast<double>(match_run.matrix->total_bytes()))
                  .c_str(),
              perf::matrix_heatmap(*match_run.matrix, true).c_str());
  std::printf("--- BFS (NSR): total=%s, levels=%lld ---\n%s\n",
              util::fmt_bytes(static_cast<double>(bfs_run.matrix->total_bytes()))
                  .c_str(),
              static_cast<long long>(bfs_run.levels),
              perf::matrix_heatmap(*bfs_run.matrix, true).c_str());
  std::printf("matching bytes / BFS bytes = %.2f; matching rounds are "
              "data-dependent, BFS finishes in %lld levels.\n",
              static_cast<double>(match_run.matrix->total_bytes()) /
                  static_cast<double>(bfs_run.matrix->total_bytes()),
              static_cast<long long>(bfs_run.levels));
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
