// Fig 7: adjacency-matrix spy plots of the original and RCM-reordered
// graphs (Cage15-like banded and HV15R-like stencil stand-ins), plus the
// bandwidth each ordering achieves.
#include "common.hpp"

#include "mel/graph/stats.hpp"
#include "mel/order/rcm.hpp"

using namespace mel;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", 0));
  const int cells = static_cast<int>(cli.get_int("cells", 36));

  struct Inst {
    std::string name;
    graph::Csr g;
  };
  const graph::VertexId n1 = graph::VertexId{1} << (15 + scale);
  const graph::VertexId side = 24 << (scale > 0 ? scale / 3 : 0);
  std::vector<Inst> instances;
  // The paper's inputs arrive in application order; to show RCM doing
  // real work we also scramble them first (worst case placement).
  instances.push_back({"Cage15-like", gen::banded(n1, 38, n1 / 64, 5)});
  instances.push_back({"HV15R-like", gen::stencil3d(side, side, side, 0.9, 5)});

  std::printf("== Fig 7: adjacency spy plots, original vs RCM ==\n\n");
  for (const auto& inst : instances) {
    const auto scrambled =
        inst.g.permuted(order::random_order(inst.g.nverts(), 17));
    const auto rcm = scrambled.permuted(order::rcm(scrambled));
    std::printf("--- %s: |V|=%s |E|=%s ---\n", inst.name.c_str(),
                util::fmt_si(static_cast<double>(inst.g.nverts())).c_str(),
                util::fmt_si(static_cast<double>(inst.g.nedges())).c_str());
    std::printf("bandwidth: natural=%lld  scrambled=%lld  RCM=%lld\n\n",
                static_cast<long long>(inst.g.bandwidth()),
                static_cast<long long>(scrambled.bandwidth()),
                static_cast<long long>(rcm.bandwidth()));
    std::printf("original (natural order):\n%s\n",
                graph::render_spy(inst.g, cells).c_str());
    std::printf("RCM reordered (from scrambled):\n%s\n",
                graph::render_spy(rcm, cells).c_str());
  }
  std::printf("paper shape: RCM concentrates nonzeros near the diagonal.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
