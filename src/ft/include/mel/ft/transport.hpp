// Reliable point-to-point transport over a lossy simulated network.
//
// Sits between mpi::Machine::isend and message delivery, below the MPI
// semantics layer — the shape of the transport-level reliability work MPI
// Advance layers above stock MPI. Per (src, dst, tag) channel it provides:
//
//   * sequence numbers and a receiver reorder buffer, so the MPI layer
//     keeps its per-channel non-overtaking guarantee even when the wire
//     drops, duplicates, or reorders copies;
//   * a CRC-32 checksum per segment (mel::util::crc32); corrupted copies
//     are detected and dropped, then repaired by retransmission;
//   * positive acknowledgements with retransmit timers: exponential
//     backoff plus deterministic jitter, capped at retry_max retries.
//
// Every copy (data or ack) is priced through the LogGP cost model and the
// per-rank CommCounters (retransmits / dropped / corrupt_detected /
// dup_filtered / acks), so the overhead of reliability is measurable per
// communication model. Crashed destinations stop retransmission: segments
// to a failed rank are abandoned and reported to the host.
//
// The transport owns no MPI state. It talks to the Machine through the
// narrow Host interface below (delivery, counting, pricing, failure
// queries), which keeps the dependency one-way: mel_mpi links mel_ft.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "mel/chaos/chaos.hpp"
#include "mel/ft/params.hpp"
#include "mel/net/network.hpp"
#include "mel/sim/simulator.hpp"
#include "mel/util/buffer.hpp"

namespace mel::ft {

using sim::Rank;
using sim::Time;

/// Transport events the host tallies into its per-rank counters.
enum class Stat {
  kRetransmit,      // sender re-sent an unacknowledged segment
  kDropped,         // a wire copy (data or ack) was lost by the network
  kCorruptDetected, // receiver dropped a copy on checksum mismatch
  kDupFiltered,     // receiver filtered an already-seen segment
  kAck,             // receiver sent an acknowledgement
};

/// Observability flow id threaded from the MPI layer through the transport
/// so retransmits/acks/abandonments land on the originating message's flow
/// (mirrors mpi::FlowId; duplicated to keep the dependency one-way).
using FlowId = std::uint32_t;

/// Callbacks into the MPI layer (implemented by mpi::Machine).
class Host {
 public:
  virtual ~Host() = default;

  /// Hand one reliable, in-order segment to the MPI layer: schedule its
  /// mailbox delivery at `arrive_at` and settle in-flight accounting.
  virtual void ft_deliver(Rank src, Rank dst, int tag, util::Buffer payload,
                          Time sent_at, Time arrive_at, FlowId flow) = 0;

  /// Tally one transport event on `rank`'s counters at virtual time `t`;
  /// `flow` identifies the segment's message flow (0 = ack-timer cleanup
  /// and other events with no single owning segment).
  virtual void ft_count(Rank rank, Stat stat, FlowId flow, Time t) = 0;

  /// Price `ns` of NIC/progress-engine work (retransmit posts, ack sends)
  /// into `rank`'s communication time.
  virtual void ft_price(Rank rank, Time ns) = 0;

  /// A segment posted by `src` was abandoned because its destination
  /// failed; the host settles conservation and in-flight accounting.
  virtual void ft_abandoned(Rank src, std::size_t payload_bytes,
                            FlowId flow) = 0;

  /// ULFM-style failure query.
  virtual bool ft_rank_failed(Rank rank) const = 0;

  /// Record one wire copy in the (src, dst) communication matrix.
  virtual void ft_record_wire(Rank src, Rank dst, std::size_t bytes) = 0;
};

class Transport {
 public:
  /// Wire framing: the MPI envelope every copy carries, the transport's
  /// own header (seq + crc + flags), and the fixed ack segment size.
  static constexpr std::size_t kEnvelopeBytes = 16;
  static constexpr std::size_t kFtHeaderBytes = 16;
  static constexpr std::size_t kAckBytes = kEnvelopeBytes + 8;

  /// Synthetic tag spaces for one-sided traffic routed through the
  /// transport. chaos::channel_key packs tags into 21 bits and the MPI
  /// layer rejects send tags above mpi::kTagUb (2^20 - 1), so the high
  /// bits keep RMA windows and neighborhood collective slices on channels
  /// (and chaos fate streams) of their own: kRmaTagBase + window id for
  /// puts, kCollTag for every collective slice on a given (src, dst) pair.
  static constexpr int kRmaTagBase = 1 << 20;
  static constexpr int kCollTag = (1 << 20) | (1 << 19);

  /// Retransmission timeout of a segment's first copy, ns. Later timeouts
  /// back off exponentially (kRtoBase * kRtoBackoff^attempt) with a
  /// deterministic per-segment jitter of up to +kRtoJitter (a fraction),
  /// so competing retransmit timers decorrelate.
  static constexpr Time kRtoBase = 25'000;
  static constexpr double kRtoBackoff = 2.0;
  static constexpr double kRtoJitter = 0.25;

  /// `chaos` may be null (reliable wire: the transport still sequences,
  /// acks, and prices, but nothing is ever lost). `params` must already
  /// pass Params::validate(). All references must outlive the transport.
  Transport(Host& host, sim::Simulator& sim, const net::Network& net,
            chaos::Engine* chaos, const Params& params);
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Accept one payload from the MPI layer at the sender's current clock;
  /// the transport guarantees exactly-once in-order delivery per channel
  /// (or abandonment if the destination fails). `flow` is the message's
  /// observability flow id (0 when untraced).
  void send(Rank src, Rank dst, int tag, std::span<const std::byte> data,
            FlowId flow = 0);

  /// Run one one-sided segment (RMA put / collective slice) through the
  /// sequence/CRC/ack-retransmit machinery and return when its data lands
  /// at the target. One-sided traffic keeps no receiver-side payload
  /// state, and every chaos fate is a pure function of
  /// (seed, channel, seq, attempt) — so the whole retransmit/ack timeline
  /// is computed eagerly at issue time, bit-identical to an event-driven
  /// replay, while counters/prices/wire records are scheduled at their
  /// proper virtual times. The ack is issued at the target's window layer
  /// on every intact copy (duplicates filtered and re-acked), which is
  /// what preserves one-sided completion semantics: the origin's
  /// completion time is the landing of the first intact copy, pushed
  /// forward only by the per-channel in-order floor. Throws TransportError
  /// past retry_max with a live destination; a segment issued to (or
  /// from) an already-failed rank is abandoned with no wire activity.
  Time send_segment(Rank src, Rank dst, int tag, std::size_t payload_bytes,
                    FlowId flow, Time start);

  /// Failure notification: abandon unacknowledged segments to the dead
  /// rank and discard its reorder buffers; stops retransmission.
  void on_rank_failed(Rank rank);

  /// True when no segment is unacknowledged and no reorder buffer holds
  /// data — the finalize-audit condition for fault-free runs.
  bool idle() const;

  /// Unacknowledged segments across all channels (diagnostics).
  std::uint64_t pending_segments() const;

  /// Unacknowledged segments posted by one sender rank (the per-rank
  /// retransmit-queue gauge sampled by the observability layer).
  std::uint64_t pending_segments_from(Rank src) const;

  /// Test hook: preseed a channel's sender/receiver sequence counters
  /// (reorder-window behaviour near the sequence-number limit).
  void preseed_channel_for_test(Rank src, Rank dst, int tag,
                                std::uint64_t seq);

  /// Test hook: the retransmit deadline offset for a given attempt
  /// (exercises the backoff-exponent cap without a retransmit storm).
  Time rto_for_test(Rank src, Rank dst, int tag, std::uint64_t seq,
                    int attempt);

 private:
  struct Pending {
    util::Buffer payload;
    std::uint32_t crc = 0;
    Time first_posted = 0;
    int attempts = 0;  // copies sent so far
    FlowId flow = 0;
  };
  struct HeldSeg {
    util::Buffer payload;
    Time sent_at = 0;
    FlowId flow = 0;
  };
  struct Channel {
    Rank src = -1;
    Rank dst = -1;
    int tag = 0;
    std::uint64_t next_seq = 0;      // sender side
    std::uint64_t next_deliver = 0;  // receiver side
    std::uint64_t acks_sent = 0;
    std::uint64_t jitter_draws = 0;  // chaos jitter draws on this channel
    Time last_deliver = -1;
    std::map<std::uint64_t, Pending> pending;  // sender: unacked segments
    std::map<std::uint64_t, HeldSeg> held;     // receiver: reorder buffer
  };

  /// Where copy `n` of a segment goes: lost, or landing at `at`, corrupted
  /// or intact, plus a network duplicate at `dup_at` when that is >= 0.
  struct CopyFate {
    Time at = -1;
    Time dup_at = -1;
    bool corrupt = false;
    bool lost() const { return at < 0; }
  };

  // Each wire copy and each ack is posted and decided here, for both
  // timelines: send() acts on them as events run, send_segment up front.
  /// Post copy `n` at `t`: a repeat counts a retransmit and prices another
  /// o_send; every copy is a wire record.
  void post_copy(const Channel& ch, int n, std::size_t wire_bytes,
                 FlowId flow, Time t);
  /// Copy `n` of segment `seq`, posted at `t`. Not lost, it takes the
  /// channel's next jitter draw.
  CopyFate copy_fate(Channel& ch, std::uint64_t seq, int n,
                     std::size_t wire_bytes, Time t);
  /// Post an ack from the receiver at `t`: count, o_ack price, wire record.
  void post_ack(const Channel& ch, FlowId flow, Time t);
  /// The channel's next ack of segment `seq`, sent at `t`: when it reaches
  /// the sender, or -1 when it is lost.
  Time ack_fate(Channel& ch, std::uint64_t seq, Time t);

  Channel& channel(Rank src, Rank dst, int tag);
  void attempt(Channel& ch, std::uint64_t seq, Time t);
  void arrive(Channel& ch, std::uint64_t seq, util::Buffer payload,
              std::uint32_t crc, bool corrupt, Time t, Time sent_at,
              FlowId flow);
  void send_ack(Channel& ch, std::uint64_t seq, Time t, FlowId flow);
  void abandon(Channel& ch, std::uint64_t seq);
  Time rto(const Channel& ch, std::uint64_t seq, int attempt) const;

  Host& host_;
  sim::Simulator& sim_;
  const net::Network& net_;
  chaos::Engine* chaos_;  // null = reliable wire
  Params params_;
  std::map<std::uint64_t, Channel> channels_;  // stable nodes; never erased
};

}  // namespace mel::ft
