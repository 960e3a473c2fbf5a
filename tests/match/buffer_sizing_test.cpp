// Regression pins for the backend byte-size computations.
//
// rma_window_bytes / rma_fence_window_bytes / backend_buffer_bytes all
// start from "2 records per shared ghost edge". The doubling must happen in
// std::size_t: `2 * total_ghost_edges` evaluated in a 32-bit intermediate
// wraps for any graph with more than 2^30 ghost edges, and a wrapped window
// size would silently truncate every region that follows it. The synthetic
// LocalGraph below puts total_ghost_edges past the 32-bit boundary without
// materializing any adjacency, so the test stays O(1) in memory.
#include <gtest/gtest.h>

#include "mel/match/backends.hpp"

namespace mel::match {
namespace {

// 2^31 + 3 ghost edges: doubling this in any 32-bit type wraps negative.
constexpr std::int64_t kHugeGhosts = (std::int64_t{1} << 31) + 3;

graph::LocalGraph huge_ghost_graph() {
  graph::LocalGraph lg;
  lg.rank = 0;
  lg.vbegin = 0;
  lg.vend = 0;
  lg.neighbor_ranks = {1, 2};
  lg.ghost_counts = {kHugeGhosts - 5, 5};
  lg.total_ghost_edges = kHugeGhosts;
  return lg;
}

TEST(BufferSizing, WindowBytesSurvive32BitOverflow) {
  const auto lg = huge_ghost_graph();
  const std::size_t expected_data =
      2 * static_cast<std::size_t>(kHugeGhosts) * sizeof(WireMsg);
  EXPECT_EQ(rma_window_bytes(lg), expected_data);
  EXPECT_EQ(rma_fence_window_bytes(lg),
            expected_data + 2 * sizeof(std::int64_t));
  // The exact value, to catch a wrap that happens to stay positive:
  // 2 * (2^31 + 3) * 24 = 103079215248.
  EXPECT_EQ(rma_window_bytes(lg), std::size_t{103079215248});
}

TEST(BufferSizing, StagingBytesSurvive32BitOverflow) {
  const auto lg = huge_ghost_graph();
  const std::size_t two_per_ghost =
      2 * static_cast<std::size_t>(kHugeGhosts) * sizeof(WireMsg);
  EXPECT_EQ(backend_buffer_bytes(Model::kMbp, lg), 2 * two_per_ghost);
  EXPECT_EQ(backend_buffer_bytes(Model::kNcl, lg),
            two_per_ghost / 2 + two_per_ghost / 4);
  EXPECT_EQ(backend_buffer_bytes(Model::kNsrAgg, lg), two_per_ghost / 2);
  EXPECT_EQ(backend_buffer_bytes(Model::kNsrHier, lg),
            two_per_ghost / 2 + two_per_ghost / 4);
  // Every model's staging estimate must be non-negative and far below the
  // wrapped-32-bit values (which would land near 2^64 after the implicit
  // sign extension).
  for (const Model m :
       {Model::kNsr, Model::kRma, Model::kNcl, Model::kMbp, Model::kNsrAgg,
        Model::kRmaFence, Model::kNclNb, Model::kNsrHier, Model::kNclPersist,
        Model::kRmaPart}) {
    EXPECT_LT(backend_buffer_bytes(m, lg), std::size_t{1} << 40)
        << model_name(m);
  }
}

}  // namespace
}  // namespace mel::match
