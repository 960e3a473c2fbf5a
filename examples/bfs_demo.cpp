// The owner-computes substrate is not matching-specific: distributed BFS
// (the paper's Graph500 comparator) runs on the same simulated machine.
//
//   ./bfs_demo [--scale 12] [--ranks 32] [--root 0]
#include <cstdio>

#include "mel/bfs/bfs.hpp"
#include "mel/gen/generators.hpp"
#include "mel/util/cli.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv, {"scale", "ranks", "root"});
  const int scale = static_cast<int>(cli.get_int("scale", 12));
  const int ranks = static_cast<int>(cli.get_int("ranks", 32));
  const auto root = cli.get_int("root", 0);
  if (scale < 1 || scale > 24) {
    std::fprintf(stderr, "--scale is the R-MAT scale (1..24), got %d\n", scale);
    return 2;
  }

  const graph::Csr g = gen::rmat(scale, 16, /*seed=*/5);
  std::printf("R-MAT scale %d: |V|=%lld |E|=%lld, p=%d, root=%lld\n", scale,
              static_cast<long long>(g.nverts()),
              static_cast<long long>(g.nedges()), ranks,
              static_cast<long long>(root));

  const auto serial = bfs::serial_bfs(g, root);
  std::int64_t reached = 0, max_level = 0;
  for (const auto d : serial) {
    if (d >= 0) {
      ++reached;
      max_level = std::max(max_level, d);
    }
  }
  std::printf("serial: reached %lld vertices, eccentricity %lld\n",
              static_cast<long long>(reached),
              static_cast<long long>(max_level));

  for (const auto model : {match::Model::kNsr, match::Model::kNcl}) {
    const auto run = bfs::run_bfs(g, ranks, root, model);
    const bool ok = run.dist == serial;
    std::printf("%s: simulated time=%.4fs, levels=%lld, matches serial: %s\n",
                match::model_name(model), sim::to_seconds(run.time),
                static_cast<long long>(run.levels), ok ? "yes" : "NO");
    if (!ok) return 1;
  }
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
