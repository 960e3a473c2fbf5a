// Critical-path cost attribution over a recorded trace — `meltrace
// critical`. Walks the replay DAG backward from the run end, at each
// anchor following the in-edge that actually gated it (the local rank
// chain when the rank was busy, the wire / delivery-order / collective
// edge when the rank sat idle waiting), and splits every path segment
// into cost classes:
//
//   compute       — overlap with recorded compute spans
//   o-send        — send-side software overhead (o_send, o_put,
//                   collective entry)
//   o-recv        — receive-side software overhead
//   latency       — wire alpha terms
//   bandwidth     — wire bytes * beta terms
//   copy          — staging copies through local buffers
//   ack-wait      — wire residual of ft-repaired flows (retransmit and
//                   recovery delay beyond the clean-wire model)
//   barrier-wait  — overlap with barrier/allreduce/fence/flush
//                   spans (global re-synchronization)
//   other         — unattributed residual (scheduler skew, delivery
//                   floors, mailbox wait)
//
// The segment durations telescope: they sum exactly to the recorded
// total virtual time, so the per-class shares are a complete, overlap-
// free decomposition of the run's end-to-end makespan.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mel/obs/replay.hpp"

namespace mel::obs {

struct CriticalPath {
  enum Class : int {
    kCompute = 0,
    kOSend,
    kORecv,
    kLatency,
    kBandwidth,
    kCopy,
    kAckWait,
    kBarrierWait,
    kOther,
    kClassCount,
  };
  static const char* class_name(int c);

  struct Segment {
    Rank rank = -1;
    Time start = 0;  // recorded time on the segment's gating timeline
    Time end = 0;
    std::array<Time, kClassCount> parts{};
    std::string what;  // short human label ("wire p2p 3->7", "local", ...)

    Time duration() const { return end - start; }
    /// Largest part; kOther when the segment is empty.
    int dominant() const;
  };

  Time total_ns = 0;  // recorded run total == sum of segment durations
  std::array<Time, kClassCount> by_class{};
  std::map<Rank, std::array<Time, kClassCount>> by_rank;
  std::vector<Segment> segments;  // walk order: run end -> run start
};

/// Extract the critical path from a built replayer (recorded schedule).
CriticalPath critical_path(const Replayer& replayer);

/// Human-readable report; `top_k` bounds the per-segment listing.
std::string critical_text(const CriticalPath& cp, const ReplayTrace& trace,
                          int top_k);
/// Deterministic integer-only JSON (schema mel.critical/1); `top_k`
/// bounds the segments array.
std::string critical_json(const CriticalPath& cp, const ReplayTrace& trace,
                          int top_k);

}  // namespace mel::obs
