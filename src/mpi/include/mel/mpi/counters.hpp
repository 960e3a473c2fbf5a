// Communication accounting: per-rank operation counters and global
// (src, dst) communication matrices, mirroring what the paper collected
// with TAU and CrayPat.
#pragma once

#include <cstdint>
#include <vector>

#include "mel/sim/time.hpp"

namespace mel::mpi {

/// Per-rank counts of every primitive the simulated MPI offers.
struct CommCounters {
  std::uint64_t isends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t iprobes = 0;
  std::uint64_t puts = 0;
  std::uint64_t flushes = 0;
  std::uint64_t fences = 0;
  std::uint64_t neighbor_colls = 0;
  std::uint64_t allreduces = 0;
  std::uint64_t barriers = 0;

  /// Reliable-transport (mel::ft) events; all zero when ft is off. These
  /// are what prices reliability: every retransmit and ack also lands in
  /// comm_ns through the cost model.
  std::uint64_t retransmits = 0;       // sender re-posted an unacked segment
  std::uint64_t dropped = 0;           // wire copies (data or ack) lost
  std::uint64_t corrupt_detected = 0;  // copies dropped on CRC mismatch
  std::uint64_t dup_filtered = 0;      // already-seen copies filtered
  std::uint64_t acks = 0;              // acknowledgements sent
  std::uint64_t sends_failed = 0;      // isends aborted: peer already failed

  std::uint64_t bytes_sent = 0;      // p2p payload bytes
  std::uint64_t bytes_put = 0;       // one-sided payload bytes
  std::uint64_t bytes_coll = 0;      // neighborhood-collective payload bytes

  /// Virtual time this rank spent inside communication calls vs in
  /// explicitly charged local computation (drives the paper's Comp%/MPI%).
  /// comm_ns is every clock advance an MPI call causes, a split-phase or
  /// persistent neighborhood begin included, plus reliable-transport work.
  sim::Time comm_ns = 0;
  sim::Time compute_ns = 0;

  CommCounters& operator+=(const CommCounters& o);
};

/// Dense (src, dst) matrices of message counts and bytes; what Figs 2, 9
/// and 11 plot. Kept as flat row-major vectors (p <= a few thousand here).
class CommMatrix {
 public:
  explicit CommMatrix(int nranks)
      : n_(nranks),
        msgs_(static_cast<std::size_t>(nranks) * nranks, 0),
        bytes_(static_cast<std::size_t>(nranks) * nranks, 0) {}

  void record(int src, int dst, std::uint64_t bytes) {
    const auto idx = static_cast<std::size_t>(src) * n_ + dst;
    msgs_[idx] += 1;
    bytes_[idx] += bytes;
  }

  int nranks() const { return n_; }
  std::uint64_t msgs(int src, int dst) const {
    return msgs_[static_cast<std::size_t>(src) * n_ + dst];
  }
  std::uint64_t bytes(int src, int dst) const {
    return bytes_[static_cast<std::size_t>(src) * n_ + dst];
  }

  std::uint64_t total_msgs() const;
  std::uint64_t total_bytes() const;
  /// Number of (src,dst) pairs with nonzero traffic.
  std::uint64_t nonzero_pairs() const;

 private:
  int n_;
  std::vector<std::uint64_t> msgs_;
  std::vector<std::uint64_t> bytes_;
};

}  // namespace mel::mpi
