#include "mel/net/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>

#include "mel/net/params_io.hpp"

namespace mel::net {
namespace {

Params small_params() {
  Params p;
  p.ranks_per_node = 4;
  return p;
}

TEST(Network, NodePlacement) {
  Network n(16, small_params());
  EXPECT_EQ(n.nnodes(), 4);
  EXPECT_EQ(n.node_of(0), 0);
  EXPECT_EQ(n.node_of(3), 0);
  EXPECT_EQ(n.node_of(4), 1);
  EXPECT_EQ(n.node_of(15), 3);
  EXPECT_TRUE(n.same_node(0, 3));
  EXPECT_FALSE(n.same_node(3, 4));
}

TEST(Network, PartialLastNode) {
  Network n(10, small_params());
  EXPECT_EQ(n.nnodes(), 3);
}

TEST(Network, RejectsBadArgs) {
  EXPECT_THROW(Network(0, small_params()), std::invalid_argument);
  Params p = small_params();
  p.ranks_per_node = 0;
  EXPECT_THROW(Network(4, p), std::invalid_argument);
}

/// The Network rejects `p` with an std::invalid_argument naming `what`.
void expect_rejected(const Params& p, const std::string& what) {
  try {
    Network n(4, p);
    ADD_FAILURE() << "expected a rejection naming '" << what << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(Network, RejectsParamsOutsideTheCostModelDomain) {
  struct Case {
    std::function<void(Params&)> mutate;
    const char* what;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const Case cases[] = {
      {[](Params& p) { p.beta_intra = std::nan(""); },
       "beta_intra must be finite"},
      {[inf](Params& p) { p.beta_inter = inf; }, "beta_inter must be finite"},
      {[](Params& p) { p.beta_intra = 1e300; },
       "beta_intra must be at most net::kMaxRateNs"},
      {[](Params& p) { p.beta_intra = 1e12; },
       "beta_intra must be at most net::kMaxRateNs"},
      {[](Params& p) { p.beta_inter = -0.1; },
       "beta_inter must be non-negative"},
      {[](Params& p) { p.copy_per_byte = 2'000'000; },
       "copy_per_byte must be at most"},
      {[](Params& p) { p.copy_per_kib = 2'000'000; },
       "copy_per_kib must be at most"},
      {[](Params& p) { p.alpha_intra = 0; }, "alpha_intra must be positive"},
      {[](Params& p) { p.o_send = -1; }, "o_send must be non-negative"},
  };
  for (const Case& c : cases) {
    Params p = small_params();
    c.mutate(p);
    expect_rejected(p, c.what);
  }
}

TEST(Network, RateCapKeepsOneTransferInsideTime) {
  // At the cap, a 1 TiB transfer still prices to a positive Time.
  Params p = small_params();
  p.beta_inter = kMaxRateNs;
  p.copy_per_kib = static_cast<sim::Time>(kMaxRateNs);
  const Network n(16, p);
  const std::size_t tib = std::size_t{1} << 40;
  EXPECT_GT(n.transfer_time(0, 5, tib), 0);
  EXPECT_LT(n.transfer_time(0, 5, tib), sim::Time{1} << 60);
  EXPECT_GT(n.copy_time(tib), 0);
}

TEST(ParamsIo, SetParamRejectsValuesItsFieldCannotHold) {
  Params p;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(set_param(p, "alpha_inter", 1e300), std::invalid_argument);
  EXPECT_THROW(set_param(p, "o_send", inf), std::invalid_argument);
  EXPECT_THROW(set_param(p, "o_send", std::nan("")), std::invalid_argument);
  EXPECT_THROW(set_param(p, "ranks_per_node", 3e9), std::invalid_argument);
  EXPECT_THROW(set_param(p, "o_send", 1.5), std::invalid_argument);
  EXPECT_EQ(p.alpha_inter, Params{}.alpha_inter);
  // The domain is the Network's: set_param stores a negative rate, and
  // the first pass that prices with it refuses it.
  set_param(p, "beta_inter", -1.0);
  EXPECT_EQ(p.beta_inter, -1.0);
  EXPECT_THROW(Network(4, p), std::invalid_argument);
}

TEST(Network, IntraCheaperThanInter) {
  Network n(16, small_params());
  EXPECT_LT(n.transfer_time(0, 1, 64), n.transfer_time(0, 5, 64));
}

TEST(Network, TransferScalesWithBytes) {
  Network n(16, small_params());
  const auto small = n.transfer_time(0, 5, 8);
  const auto big = n.transfer_time(0, 5, 1 << 20);
  EXPECT_GT(big, small);
  // The large-message delta should be dominated by the bandwidth term.
  const auto& p = n.params();
  EXPECT_NEAR(static_cast<double>(big - small),
              (static_cast<double>((1 << 20) - 8)) * p.beta_inter,
              1e3);
}

// Pins the self-send pricing bugfix: loopback traffic uses the same
// shared-memory transport as any node-local pair, so src == dst must cost
// exactly what a same-node transfer costs. (An earlier revision halved both
// the latency and bandwidth terms for self sends, which no measurement
// justified and which silently rewarded backends that happened to message
// themselves.)
TEST(Network, SelfSendPricedAsPlainIntraNodeTransfer) {
  Network n(16, small_params());
  EXPECT_EQ(n.transfer_time(3, 3, 64), n.transfer_time(0, 1, 64));
  EXPECT_EQ(n.transfer_time(0, 0, 0), n.params().alpha_intra);
  const auto& p = n.params();
  EXPECT_EQ(n.transfer_time(7, 7, 4096),
            p.alpha_intra + static_cast<sim::Time>(4096 * p.beta_intra));
}

TEST(Network, CollectiveEntryGrowsWithNeighbors) {
  Network n(16, small_params());
  EXPECT_LT(n.collective_entry(1), n.collective_entry(15));
  const auto& p = n.params();
  EXPECT_EQ(n.collective_entry(0), p.o_coll_base);
  EXPECT_EQ(n.collective_entry(10), p.o_coll_base + 10 * p.o_coll_per_neighbor);
}

TEST(Network, ReductionTimeIsLogP) {
  Params p = small_params();
  Network n16(16, p), n256(256, p);
  EXPECT_EQ(n16.reduction_time(), 4 * p.o_reduce_hop);
  EXPECT_EQ(n256.reduction_time(), 8 * p.o_reduce_hop);
  Network n1(1, p);
  EXPECT_EQ(n1.reduction_time(), p.o_reduce_hop);
}

TEST(Network, CopyTimeMonotone) {
  Network n(4, small_params());
  EXPECT_LE(n.copy_time(0), n.copy_time(1024));
  EXPECT_LT(n.copy_time(1024), n.copy_time(1024 * 1024));
}

}  // namespace
}  // namespace mel::net
