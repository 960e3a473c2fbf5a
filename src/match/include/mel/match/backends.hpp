// The ten communication models for distributed half-approx matching. The
// paper's four (Table I) map onto the record-exchange layer
// (exchange.hpp) as:
//
//             | Push                    | Evoke                    | Process
//   ----------+-------------------------+--------------------------+-----------------
//   NSR       | MPI_Isend               | MPI_Iprobe               | MPI_Recv (one at a time)
//   RMA       | MPI_Put                 | MPI_Win_flush_all +      | read local window
//             |                         | MPI_Neighbor_alltoall    |
//   NCL       | append to send buffer   | MPI_Neighbor_alltoall +  | read recv buffer
//             |                         | MPI_Neighbor_alltoallv   |
//   MBP       | as NSR, with MatchBox-P's heavier per-message bookkeeping
//
// One matcher loop drives one rank's LocalMatcher over any of them. RMA and
// NCL additionally run a global MPI_Allreduce on the active ghost-edge
// count each iteration — the exit criterion the paper calls out as their
// extra communication cost; NSR exits on its local count alone (sound, see
// engine.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "mel/match/engine.hpp"
#include "mel/mpi/comm.hpp"
#include "mel/sim/task.hpp"

namespace mel::match {

/// Communication models. The first four are the paper's; the next three
/// implement its explicitly-flagged alternatives:
///   kNsrAgg   - Send-Recv with per-neighbor message aggregation (the
///               optimization the paper notes its baseline lacks),
///   kRmaFence - active-target RMA (MPI_Win_fence epochs, the style the
///               paper contrasts with its passive-target choice),
///   kNclNb    - nonblocking neighborhood collectives (the Kandalla et
///               al. direction cited in related work).
/// The last three exploit node topology and modern-MPI persistence /
/// partitioning (the MPI Advance / Träff schedule-reuse directions):
///   kNsrHier    - two-level Send-Recv: records for ranks on a remote node
///                 travel combined through that node's leader rank and are
///                 relayed over the cheap intra-node links,
///   kNclPersist - persistent neighborhood alltoallv: the exchange
///                 schedule is built once and re-armed every round,
///   kRmaPart    - partitioned puts: data lands in pready-delimited
///                 partitions the target consumes as they complete.
enum class Model {
  kNsr,
  kRma,
  kNcl,
  kMbp,
  kNsrAgg,
  kRmaFence,
  kNclNb,
  kNsrHier,
  kNclPersist,
  kRmaPart,
};

/// All ten models, in enum order.
inline constexpr Model kAllModels[] = {
    Model::kNsr,    Model::kRma,      Model::kNcl,   Model::kMbp,
    Model::kNsrAgg, Model::kRmaFence, Model::kNclNb, Model::kNsrHier,
    Model::kNclPersist, Model::kRmaPart,
};

const char* model_name(Model m);

/// The model model_name(m) names; std::invalid_argument("unknown model:
/// NAME") for anything else.
Model parse_model(const std::string& name);

/// Bytes of communication buffer a rank needs under each model (beyond
/// what the Machine accounts automatically); used for Table VIII.
std::size_t backend_buffer_bytes(Model m, const graph::LocalGraph& lg);

/// Window size (bytes) rank r needs for the RMA backend: one region of
/// 2 * ghost_count records per process neighbor (paper Fig 1).
std::size_t rma_window_bytes(const graph::LocalGraph& lg);

/// Window bytes for the fence and partitioned variants: the RMA layout
/// plus one cumulative count slot per process neighbor.
std::size_t rma_fence_window_bytes(const graph::LocalGraph& lg);

/// One rank of half-approx matching under model `m`. `window_id` names the
/// window the driver allocated for the one-sided models (ignored by the
/// others). On completion `mate_out` holds one global partner id (or
/// kNullVertex) per owned vertex, and `iterations_out` the number of
/// exchange rounds (RMA/NCL families), processed messages (NSR/MBP) or sent
/// batches (NSR-AGG/NSR-HIER). While the rank runs, `*live` points at its
/// LocalMatcher (see its constructor).
sim::RankTask match_rank(Model m, mpi::Comm& comm, const graph::LocalGraph& lg,
                         const graph::Distribution& dist, int window_id,
                         std::span<VertexId> mate_out,
                         std::uint64_t* iterations_out,
                         const LocalMatcher** live);

}  // namespace mel::match
