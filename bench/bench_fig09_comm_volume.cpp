// Fig 9: total message-volume (bytes) communication matrices for the
// HV15R-like input, original vs RCM-reordered, under the Send-Recv
// baseline. RCM narrows traffic toward the diagonal but the block
// structure along it can imbalance load.
//
// A second section compares comm volume across backend families on a
// multi-node RGG: where NSR-HIER moves bytes from the inter-node to the
// intra-node links, and what NCL-PERSIST's schedule reuse buys over NCL-NB.
#include "common.hpp"

#include "mel/net/network.hpp"
#include "mel/order/rcm.hpp"
#include "mel/perf/report.hpp"

using namespace mel;

namespace {

/// Bytes split by node placement (default: 32 ranks/node).
std::pair<std::uint64_t, std::uint64_t> node_split(const mpi::CommMatrix& m) {
  const int rpn = net::Params{}.ranks_per_node;
  std::pair<std::uint64_t, std::uint64_t> split{0, 0};  // {inter, intra}
  for (int s = 0; s < m.nranks(); ++s) {
    for (int d = 0; d < m.nranks(); ++d) {
      (s / rpn == d / rpn ? split.second : split.first) += m.bytes(s, d);
    }
  }
  return split;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv, {"scale", "ranks", "cmp-ranks", "csv"});
  const int scale = static_cast<int>(cli.get_int("scale", 0));
  const int ranks = static_cast<int>(cli.get_int("ranks", 64));
  const graph::VertexId side = 24 << (scale > 0 ? scale / 3 : 0);

  const auto natural = gen::stencil3d(side, side, side, 0.9, 5);
  const auto scrambled =
      natural.permuted(order::random_order(natural.nverts(), 17));
  const auto rcm = scrambled.permuted(order::rcm(scrambled));

  std::printf("== Fig 9: communication volume (bytes), HV15R-like, p=%d ==\n\n",
              ranks);
  match::RunConfig cfg;
  cfg.collect_matrix = true;
  for (const auto& [label, g] :
       {std::pair<const char*, const graph::Csr&>{"original (scrambled)",
                                                  scrambled},
        {"RCM reordered", rcm}}) {
    const auto run = bench::run_verified(g, ranks, match::Model::kNsr, cfg);
    std::printf("--- %s: total bytes=%s, nonzero pairs=%llu ---\n", label,
                util::fmt_bytes(static_cast<double>(run.matrix->total_bytes()))
                    .c_str(),
                static_cast<unsigned long long>(run.matrix->nonzero_pairs()));
    std::printf("%s\n", perf::matrix_heatmap(*run.matrix, true).c_str());
    if (cli.get_bool("csv", false)) {
      std::printf("%s\n", perf::matrix_csv(*run.matrix, true).c_str());
    }
  }
  std::printf("paper shape: reordering pulls traffic toward the diagonal "
              "(fewer, nearer partners).\n\n");

  // -- Backend comparison: where the bytes go -------------------------------
  const int cmp_ranks = static_cast<int>(cli.get_int("cmp-ranks", 128));
  const graph::VertexId n = graph::VertexId{4096} << scale;
  const auto rgg =
      gen::random_geometric(n, gen::rgg_radius_for_degree(n, 24.0), 1);
  std::printf("== comm volume by backend, RGG |V|=%lld, p=%d (%d ranks/node) ==\n\n",
              static_cast<long long>(n), cmp_ranks,
              net::Params{}.ranks_per_node);
  util::Table table(
      {"model", "time(s)", "total bytes", "inter-node", "intra-node"});
  for (const auto model :
       {match::Model::kNsrAgg, match::Model::kNsrHier, match::Model::kNclNb,
        match::Model::kNclPersist, match::Model::kRma, match::Model::kRmaPart}) {
    const auto run = bench::run_verified(rgg, cmp_ranks, model, cfg);
    const auto [inter, intra] = node_split(*run.matrix);
    table.add_row(
        {match::model_name(model), util::fmt_double(run.seconds(), 4),
         util::fmt_bytes(static_cast<double>(run.matrix->total_bytes())),
         util::fmt_bytes(static_cast<double>(inter)),
         util::fmt_bytes(static_cast<double>(intra))});
  }
  bench::emit(cli, table);
  std::printf(
      "\nreading: NSR-HIER combines remote-node records through node\n"
      "leaders — inter-node bytes drop below NSR-AGG's while the relay\n"
      "adds cheap intra-node hops. NCL-PERSIST moves no extra bytes; its\n"
      "win over NCL-NB is pure per-round setup (schedule built once).\n"
      "RMA-PART trades RMA's per-round count collective for ordered\n"
      "partition publishes inside the data stream.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  return util::usage_error(argv[0], e);
}
