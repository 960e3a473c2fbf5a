// Deterministic fault injection for the simulated MPI substrate.
//
// The chaos engine perturbs a run's *timing* without ever touching its
// *semantics*: per-message latency jitter (which reorders messages exactly
// as far as MPI allows — non-overtaking is preserved per (src, dst, tag)
// channel by the Machine), straggler-rank compute slowdown, and bounded
// skew added at collective entry. Every perturbation is a pure function of
// the chaos seed and the operation's identity, so a chaotic run is itself
// bit-reproducible: same seed, same schedule.
//
// The point (see EXPERIMENTS.md "Beyond the paper"): the paper's backend
// rankings are bands, not knife edges, and the computed matching is the
// unique locally-dominant fixed point under *any* MPI-legal schedule. The
// chaos sweep tests assert exactly that.
#pragma once

#include <cstdint>
#include <vector>

#include "mel/sim/time.hpp"

namespace mel::chaos {

using sim::Rank;
using sim::Time;

/// Knobs for one chaotic run. All default to "off"; a default Config is a
/// no-op and the Machine skips the engine entirely.
struct Config {
  /// Seed for every deterministic draw the engine makes.
  std::uint64_t seed = 1;

  /// Max extra wire latency per message, as a fraction of the unperturbed
  /// wire time (0.25 = up to +25%). Drawn per message; different messages
  /// on one (src, dst) channel jitter independently, so messages with
  /// different tags may overtake each other — the MPI-legal reordering.
  double latency_jitter = 0.0;

  /// Number of ranks (chosen deterministically from the seed) whose
  /// explicitly charged compute runs `straggler_slowdown` times slower,
  /// modelling a hot/throttled node.
  int stragglers = 0;
  double straggler_slowdown = 1.0;

  /// Max extra delay charged when a rank enters a collective (neighbor,
  /// global, or fence), in ns. Models OS noise at synchronization points.
  Time collective_skew = 0;

  /// Per-copy wire fault probabilities for every message, put and
  /// collective slice. Unlike the timing knobs above these *do* destroy
  /// messages, so any nonzero value makes the Machine build the reliable
  /// transport (mel::ft) below the MPI layer. Each probability is drawn
  /// independently per wire copy (original send or retransmit) as a pure
  /// function of (seed, channel, sequence, attempt).
  double loss = 0.0;         ///< copy silently dropped by the network
  double duplication = 0.0;  ///< copy delivered twice
  double corruption = 0.0;   ///< one payload byte flipped in transit

  /// A scheduled fail-stop rank crash: at virtual time `at` the rank stops
  /// executing forever (its coroutine is never resumed again). A crash
  /// schedule makes the Machine build the reliable transport, which stops
  /// retransmitting to the dead rank. Survivors that send to it get
  /// mpi::RankFailedError; the match driver then recovers host-side, from
  /// the survivors' live state or the last checkpoint.
  struct Crash {
    Rank rank = -1;
    Time at = 0;
  };
  std::vector<Crash> crashes;

  bool enabled() const {
    // Deliberately != rather than >: a negative knob is a config error, and
    // treating it as "on" routes it into the Engine ctor, which rejects it
    // with a named message instead of silently running unperturbed.
    return latency_jitter != 0.0 || collective_skew != 0 ||
           (stragglers != 0 && straggler_slowdown != 1.0) || loss != 0.0 ||
           duplication != 0.0 || corruption != 0.0 || !crashes.empty();
  }

  /// True if any message-destroying knob is set (loss/dup/corruption);
  /// these are the faults that demand the reliable transport.
  bool wire_faults() const {
    return loss != 0.0 || duplication != 0.0 || corruption != 0.0;
  }
};

/// Pack a (src, dst, tag) channel id into one key, 21 bits each. Chaos
/// fates and the reliable transport's timers hash it, so the packing is
/// part of every seeded schedule. Ranks are bounded by the machine size;
/// send tags by mpi::kTagUb, and the transport's synthetic tags by 2^21.
inline std::uint64_t channel_key(Rank src, Rank dst, int tag) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 42) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 21) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag) & 0x1fffff);
}

/// Deterministic perturbation source. One per Machine. Every draw is a pure
/// function of the seed and its arguments, so shards may share the engine;
/// the per-channel draw counters live with the callers' per-channel state.
class Engine {
 public:
  Engine(const Config& config, int nranks);

  const Config& config() const { return cfg_; }

  /// Extra wire time for the `n`-th jittered message on (src, dst, tag),
  /// given its unperturbed wire time. The caller counts `n` per channel.
  Time transfer_jitter(Rank src, Rank dst, int tag, std::uint64_t n,
                       Time wire) const;

  /// Compute charge after straggler scaling (identity for healthy ranks).
  Time perturb_compute(Rank rank, Time dt) const;

  bool is_straggler(Rank rank) const {
    return straggler_[static_cast<std::size_t>(rank)] != 0;
  }

  /// Bounded extra delay for rank's `seq`-th collective of kind `kind`
  /// (an arbitrary small integer distinguishing neighbor/global/fence).
  Time collective_skew(Rank rank, int kind, std::uint64_t seq) const;

  // -- Wire-fate draws (consumed by the mel::ft reliable transport) --------
  // Each is a pure function of (seed, channel, seq, attempt): the same
  // copy of the same message meets the same fate on every run.

  /// Data copy `attempt` of channel message `seq` is lost in transit.
  bool wire_lost(Rank src, Rank dst, int tag, std::uint64_t seq,
                 int attempt) const;
  /// Data copy arrives with one payload byte flipped.
  bool wire_corrupted(Rank src, Rank dst, int tag, std::uint64_t seq,
                      int attempt) const;
  /// Data copy is delivered twice by the network.
  bool wire_duplicated(Rank src, Rank dst, int tag, std::uint64_t seq,
                       int attempt) const;
  /// The `ack_no`-th acknowledgement on the channel is lost (acks share
  /// the data loss probability).
  bool ack_lost(Rank src, Rank dst, int tag, std::uint64_t seq,
                std::uint64_t ack_no) const;

 private:
  /// Uniform double in [0, 1) from a 64-bit hash input.
  static double unit(std::uint64_t h);

  /// One seeded Bernoulli draw, salted by fault kind.
  bool fate(std::uint64_t salt, Rank src, Rank dst, int tag, std::uint64_t seq,
            std::uint64_t attempt, double p) const;

  Config cfg_;
  int nranks_;
  std::vector<char> straggler_;  // per rank
};

}  // namespace mel::chaos
