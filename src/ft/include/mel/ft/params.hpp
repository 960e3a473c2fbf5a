// Knobs for the reliable point-to-point transport (mel::ft) and the match
// driver's checkpoint/recovery machinery.
#pragma once

#include <stdexcept>
#include <string>

#include "mel/sim/time.hpp"

namespace mel::ft {

using sim::Time;

/// Thrown by the transport on unrecoverable protocol failures (a live
/// peer that never acknowledges within retry_max retransmissions).
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(std::string what)
      : std::runtime_error(std::move(what)) {}
};

/// How the match driver continues after a run loses ranks to crashes.
enum class Recovery {
  /// ULFM shrink-and-continue: read the survivors' *live* state at abort
  /// time, keep mutually-recorded matched pairs, and resume
  /// locally-dominant rounds on the induced surviving subgraph — no
  /// rollback to an earlier checkpoint. Falls back to kRollback when the
  /// live frontier is unrecoverable (a surviving unfinished rank has no
  /// live matcher).
  kShrink,
  /// Roll back to the last periodic checkpoint (the PR 2 path) and
  /// re-match from there.
  kRollback,
};

struct Params {
  /// Build the ack/retransmit transport even on a fault-free wire. The
  /// Machine builds it anyway whenever the chaos config carries wire
  /// faults (loss/duplication/corruption) or crashes.
  bool enabled = false;

  /// Maximum retransmissions per segment (not counting the first copy).
  /// Exceeding it with a live destination is a TransportError; with a
  /// failed destination the segment is quietly abandoned.
  int retry_max = 16;

  /// Virtual-time interval between driver-level checkpoints of per-rank
  /// matching state (0 = no checkpoints; shrink recovery still works off
  /// the live survivor state, and rollback recovery re-matches the whole
  /// surviving subgraph from scratch).
  Time checkpoint_ns = 0;

  /// Crash-recovery strategy (see Recovery). Shrink-and-continue by
  /// default: fresher than any checkpoint and checkpoint-free runs stay
  /// recoverable.
  Recovery recovery = Recovery::kShrink;

  /// Reject out-of-range knobs with named errors.
  void validate() const {
    if (retry_max < 0 || retry_max > 64) {
      throw std::invalid_argument(
          "ft: retry_max must be in [0, 64] (got " +
          std::to_string(retry_max) + ")");
    }
    if (checkpoint_ns < 0) {
      throw std::invalid_argument("ft: checkpoint_ns must be >= 0");
    }
  }
};

}  // namespace mel::ft
