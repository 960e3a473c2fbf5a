// Network and software-overhead cost model (LogGP flavored).
//
// The parameters below are calibrated to look like NERSC Cori's Haswell
// partition (Cray Aries, dragonfly, 32 ranks/node, cray-mpich) at the level
// of fidelity the paper's comparisons depend on:
//   * a per-message software overhead on the sender and receiver (dominant
//     for MPI_Isend/MPI_Recv of tiny messages — this is what makes the
//     unaggregated Send-Recv baseline lose),
//   * a cheaper per-operation cost for RDMA Put descriptor posting,
//   * latency/bandwidth terms that distinguish intra-node from inter-node
//     traffic given a ranks-per-node placement,
//   * per-call and per-neighbor costs for (neighborhood) collectives — the
//     per-neighbor term is what makes dense process topologies hurt NCL,
//   * log(p) stages for global reductions/barriers.
// Absolute values are order-of-magnitude realistic; every bench can
// override them, and an ablation bench sweeps them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mel/chaos/chaos.hpp"
#include "mel/sim/time.hpp"

namespace mel::net {

using sim::Rank;
using sim::Time;

struct Params {
  /// Process placement: consecutive ranks fill a node (Cori: 32).
  int ranks_per_node = 32;

  /// One-way message latency (wire + injection), ns.
  Time alpha_intra = 600;
  Time alpha_inter = 1400;

  /// Inverse bandwidth, ns per byte (intra ~ 20 GB/s, inter ~ 10 GB/s).
  double beta_intra = 0.05;
  double beta_inter = 0.10;

  /// Two-sided software overheads per call, ns.
  Time o_send = 400;    // MPI_Isend: match queue + descriptor + tag handling
  Time o_recv = 350;    // MPI_Recv of an already-arrived message
  Time o_iprobe = 150;  // MPI_Iprobe poll
  Time o_ack = 120;     // transport-level ack post (mel::ft; NIC-side work)

  /// Intra-node variants of the two-sided overheads, used when sender and
  /// receiver share a node (shared-memory transport: no NIC descriptor,
  /// cheaper matching). Default equal to the inter-node values so pinned
  /// traces are unchanged until a run opts in (melsim
  /// --intra-node-params) — the lever for NSR-HIER's leader hop, which
  /// funnels all intra-node traffic through one rank.
  Time o_send_intra = 400;
  Time o_recv_intra = 350;

  /// User-side per-message handling in the unaggregated Send-Recv path
  /// (tag decode, one-at-a-time dispatch). Charged as *compute*: this is
  /// what makes the paper's NSR runs compute-heavy in CrayPat profiles
  /// (Table VIII) while RMA/NCL amortize it over batches.
  Time nsr_handling_per_msg = 600;

  /// One-sided overheads per call, ns.
  Time o_put = 160;        // MPI_Put: RDMA descriptor post, no target software
  Time o_get = 220;        // no MPI_Get is simulated; kept in trace headers
  Time o_flush = 700;      // MPI_Win_flush_all fixed cost

  /// Collective overheads. The per-neighbor term models the pairwise
  /// exchange a dist-graph neighborhood collective degenerates to: setup
  /// plus matching cost per peer, in addition to the wire term summed in
  /// the Machine. This is the lever that reproduces the paper's NCL
  /// collapse on dense process topologies (Fig 4c, Fig 6).
  Time o_coll_base = 900;          // per collective call, fixed
  Time o_coll_per_neighbor = 400;  // per topology neighbor per call
  Time o_reduce_hop = 1100;        // per log2(p) stage of allreduce/barrier

  /// Per-start overhead of a *persistent* neighborhood collective
  /// (MPI_Neighbor_alltoallv_init + MPI_Start flavored): the schedule —
  /// peer list, slice offsets, matching state — was built once at init
  /// time (which pays the full collective_entry), so each start only
  /// re-arms it. This is the MPI-4 persistence win the MPI Advance work
  /// measures on irregular workloads.
  Time o_coll_persistent_start = 250;

  /// Local work model (charged by the graph algorithms, not the network).
  /// Calibrated so compute per adjacency entry sits in the tens of ns
  /// (pointer-chasing on DDR4), giving communication-to-compute ratios in
  /// the paper's bands at our (scaled-down) problem sizes.
  Time compute_per_edge = 35;    // per adjacency-list entry touched
  Time compute_per_vertex = 60;  // per vertex processed
  Time copy_per_byte = 0;        // staging copy cost, ns/byte (ns resolution:
                                 // use copy_per_kib for sub-ns rates)
  Time copy_per_kib = 300;       // staging copy cost per KiB (≈3.4 GB/s memcpy)

  /// Deterministic fault injection (latency jitter, stragglers, collective
  /// skew); off by default. See mel/chaos/chaos.hpp.
  chaos::Config chaos{};
};

/// The largest per-byte rate (beta_intra, beta_inter, copy_per_byte) or
/// per-KiB rate (copy_per_kib) a Network accepts, in ns: a millisecond,
/// ten million times the calibrated beta_inter. At this cap the rate term
/// of one transfer of up to kMaxTransferBytes stays below 2^60 ns, so it
/// fits in Time.
inline constexpr double kMaxRateNs = 1e6;

/// The largest transfer, in bytes, priceable under kMaxRateNs: 1 TiB.
/// Trace replay drops a recorded flow that claims more.
inline constexpr std::uint64_t kMaxTransferBytes = std::uint64_t{1} << 40;

/// Maps ranks to nodes and prices individual transfers. Stateless aside
/// from the parameter set; all methods are pure.
class Network {
 public:
  /// Checks the cost model's domain, for every simulation, replay and
  /// critical-path pass: each named Params field is finite and
  /// non-negative, ranks_per_node and both alpha_* are positive, and no
  /// rate exceeds kMaxRateNs. Throws std::invalid_argument naming the
  /// first field that breaks a rule.
  Network(int nranks, const Params& params);

  const Params& params() const { return params_; }
  int nranks() const { return nranks_; }
  int nnodes() const { return nnodes_; }

  int node_of(Rank r) const { return r / params_.ranks_per_node; }
  bool same_node(Rank a, Rank b) const { return node_of(a) == node_of(b); }

  /// Pure wire time for one transfer of `bytes` from src to dst
  /// (latency + size/bandwidth). Software overheads are charged separately
  /// by the MPI layer. A self send (src == dst) is priced exactly like any
  /// other intra-node transfer: loopback traffic traverses the same
  /// shared-memory transport as node-local peers, so it pays the full
  /// alpha_intra + bytes * beta_intra — no undocumented discount.
  Time transfer_time(Rank src, Rank dst, std::size_t bytes) const;

  /// Per-call sender/receiver software overhead for a two-sided transfer
  /// from src to dst: the intra-node variant when the pair shares a node,
  /// the standard (inter-node) one otherwise. Identical to o_send / o_recv
  /// under default parameters.
  Time send_overhead(Rank src, Rank dst) const {
    return same_node(src, dst) ? params_.o_send_intra : params_.o_send;
  }
  Time recv_overhead(Rank src, Rank dst) const {
    return same_node(src, dst) ? params_.o_recv_intra : params_.o_recv;
  }

  /// Cost of entering a collective with `neighbors` peers.
  Time collective_entry(int neighbors) const;

  /// Completion cost of a dissemination-style global collective over p ranks.
  Time reduction_time() const;

  /// Staging-copy cost of `bytes` through a local buffer.
  Time copy_time(std::size_t bytes) const;

 private:
  int nranks_;
  int nnodes_;
  Params params_;
};

}  // namespace mel::net
