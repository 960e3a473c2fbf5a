#include "mel/ft/transport.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "mel/prof/prof.hpp"
#include "mel/util/crc32.hpp"
#include "mel/util/rng.hpp"

namespace mel::ft {

namespace {

double unit(std::uint64_t h) {
  return static_cast<double>(util::hash64(h) >> 11) * 0x1.0p-53;
}

}  // namespace

Transport::Transport(Host& host, sim::Simulator& sim, const net::Network& net,
                     chaos::Engine* chaos, const Params& params)
    : host_(host), sim_(sim), net_(net), chaos_(chaos), params_(params) {}

Transport::Channel& Transport::channel(Rank src, Rank dst, int tag) {
  auto& ch = channels_[chaos::channel_key(src, dst, tag)];
  if (ch.src < 0) {
    ch.src = src;
    ch.dst = dst;
    ch.tag = tag;
  }
  return ch;
}

void Transport::send(Rank src, Rank dst, int tag,
                     std::span<const std::byte> data, FlowId flow) {
  const prof::ScopedTimer pt(prof::Section::kTransport);
  Channel& ch = channel(src, dst, tag);
  const std::uint64_t seq = ch.next_seq++;
  Pending pe;
  // The single copy this payload pays under the transport: every wire
  // copy, the retransmit queue and final delivery share the block.
  pe.payload = util::Buffer::copy_of(data);
  pe.crc = util::crc32(data);
  pe.first_posted = sim_.rank_now(src);
  pe.flow = flow;
  ch.pending.emplace(seq, std::move(pe));
  attempt(ch, seq, sim_.rank_now(src));
}

Time Transport::send_segment(Rank src, Rank dst, int tag,
                             std::size_t payload_bytes, FlowId flow,
                             Time start) {
  const prof::ScopedTimer pt(prof::Section::kTransport);
  Channel& ch = channel(src, dst, tag);
  const std::uint64_t seq = ch.next_seq++;
  ch.next_deliver = ch.next_seq;  // delivered exactly once, in order, below
  const std::size_t wire_bytes = payload_bytes + kEnvelopeBytes + kFtHeaderBytes;
  const auto floored = [&](Time raw) {
    const Time at = std::max(raw, ch.last_deliver + 1);
    ch.last_deliver = at;
    return at;
  };
  if (host_.ft_rank_failed(dst) || host_.ft_rank_failed(src)) {
    // Abandoned at issue: no wire activity, and the dead target never
    // observes the landing; the nominal time only keeps completion math
    // monotone at the origin.
    return floored(start + net_.transfer_time(src, dst, wire_bytes));
  }

  // Both endpoints are live: replay the full retransmit/ack timeline
  // eagerly (see the header comment — fate draws are pure, so this is
  // bit-identical to an event-driven replay). `t` walks the sender's
  // copy-post times, `acked_at` is the earliest time an ack reaches the
  // sender and cancels its timer, `raw_deliver` the landing of the first
  // intact copy.
  Time raw_deliver = -1;
  Time acked_at = -1;
  Time t = start;
  for (int n = 0;; ++n) {
    if (acked_at >= 0 && t >= acked_at) break;  // timer finds the seq acked
    if (n > params_.retry_max) {
      std::ostringstream os;
      os << "ft: one-sided segment seq=" << seq << " on channel (" << src
         << " -> " << dst << ", tag=" << tag << ") unacknowledged after "
         << (params_.retry_max + 1) << " copies (retry_max="
         << params_.retry_max << ") with a live destination";
      throw TransportError(os.str());
    }
    sim_.schedule_for(src, t, [this, &ch, n, wire_bytes, flow, t] {
      post_copy(ch, n, wire_bytes, flow, t);
    });
    const CopyFate fate = copy_fate(ch, seq, n, wire_bytes, t);
    if (fate.lost()) {
      sim_.schedule_for(src, t, [this, src, flow, t] {
        host_.ft_count(src, Stat::kDropped, flow, t);
      });
    } else {
      for (const Time arrive_at : {fate.at, fate.dup_at}) {
        if (arrive_at < 0) continue;
        if (fate.corrupt) {
          // The CRC catches the flip at the target's window layer; no
          // ack, so the sender's timer repairs it.
          sim_.schedule_for(dst, arrive_at, [this, dst, flow, arrive_at] {
            host_.ft_count(dst, Stat::kCorruptDetected, flow, arrive_at);
          });
          continue;
        }
        const bool first_good = raw_deliver < 0;
        if (first_good) raw_deliver = arrive_at;
        // The target's window layer acks every intact copy; duplicates
        // are filtered but re-acked (a lost ack must not stall the
        // sender's timer forever).
        sim_.schedule_for(
            dst, arrive_at, [this, &ch, flow, arrive_at, first_good] {
              if (!first_good) {
                host_.ft_count(ch.dst, Stat::kDupFiltered, flow, arrive_at);
              }
              post_ack(ch, flow, arrive_at);
            });
        const Time back = ack_fate(ch, seq, arrive_at);
        if (back < 0) {
          sim_.schedule_for(dst, arrive_at, [this, dst, flow, arrive_at] {
            host_.ft_count(dst, Stat::kDropped, flow, arrive_at);
          });
        } else if (acked_at < 0 || back < acked_at) {
          acked_at = back;
        }
      }
    }
    t += rto(ch, seq, n);
  }
  return floored(raw_deliver);
}

void Transport::preseed_channel_for_test(Rank src, Rank dst, int tag,
                                         std::uint64_t seq) {
  Channel& ch = channel(src, dst, tag);
  ch.next_seq = seq;
  ch.next_deliver = seq;
}

Time Transport::rto_for_test(Rank src, Rank dst, int tag, std::uint64_t seq,
                             int attempt) {
  return rto(channel(src, dst, tag), seq, attempt);
}

Time Transport::rto(const Channel& ch, std::uint64_t seq, int attempt) const {
  // Exponential backoff with a capped exponent (the cap only matters past
  // retry_max anyway) and deterministic decorrelating jitter.
  const int e = std::min(attempt, 16);
  double v = static_cast<double>(kRtoBase) *
             std::pow(kRtoBackoff, static_cast<double>(e));
  const std::uint64_t h = util::hash_combine(
      chaos::channel_key(ch.src, ch.dst, ch.tag) ^ 0x5bf03635ull,
      util::hash_combine(seq, static_cast<std::uint64_t>(attempt)));
  v *= 1.0 + kRtoJitter * unit(h);
  return static_cast<Time>(v);
}

// -- One wire copy and one ack, on both timelines ----------------------------

void Transport::post_copy(const Channel& ch, int n, std::size_t wire_bytes,
                          FlowId flow, Time t) {
  if (n > 0) {
    // A retransmission costs another o_send of NIC work and another wire
    // copy — this is where reliability shows up in the cost model.
    host_.ft_count(ch.src, Stat::kRetransmit, flow, t);
    host_.ft_price(ch.src, net_.params().o_send);
  }
  host_.ft_record_wire(ch.src, ch.dst, wire_bytes);
}

Transport::CopyFate Transport::copy_fate(Channel& ch, std::uint64_t seq, int n,
                                         std::size_t wire_bytes, Time t) {
  CopyFate fate;
  if (chaos_ != nullptr && chaos_->wire_lost(ch.src, ch.dst, ch.tag, seq, n)) {
    return fate;
  }
  fate.corrupt = chaos_ != nullptr &&
                 chaos_->wire_corrupted(ch.src, ch.dst, ch.tag, seq, n);
  Time wire = net_.transfer_time(ch.src, ch.dst, wire_bytes);
  if (chaos_ != nullptr) {
    wire += chaos_->transfer_jitter(ch.src, ch.dst, ch.tag, ch.jitter_draws++,
                                    wire);
  }
  fate.at = t + wire;
  if (chaos_ != nullptr &&
      chaos_->wire_duplicated(ch.src, ch.dst, ch.tag, seq, n)) {
    // The network delivers a second, bit-identical copy a little later.
    fate.dup_at = fate.at + wire / 2 + 1;
  }
  return fate;
}

void Transport::post_ack(const Channel& ch, FlowId flow, Time t) {
  host_.ft_count(ch.dst, Stat::kAck, flow, t);
  host_.ft_price(ch.dst, net_.params().o_ack);
  host_.ft_record_wire(ch.dst, ch.src, kAckBytes);
}

Time Transport::ack_fate(Channel& ch, std::uint64_t seq, Time t) {
  const std::uint64_t ack_no = ch.acks_sent++;
  if (chaos_ != nullptr &&
      chaos_->ack_lost(ch.src, ch.dst, ch.tag, seq, ack_no)) {
    return -1;
  }
  return t + net_.transfer_time(ch.dst, ch.src, kAckBytes);
}

void Transport::abandon(Channel& ch, std::uint64_t seq) {
  auto it = ch.pending.find(seq);
  if (it == ch.pending.end()) return;
  host_.ft_abandoned(ch.src, it->second.payload.size(), it->second.flow);
  ch.pending.erase(it);
}

void Transport::attempt(Channel& ch, std::uint64_t seq, Time t) {
  auto it = ch.pending.find(seq);
  if (it == ch.pending.end()) return;  // acknowledged in the meantime
  if (host_.ft_rank_failed(ch.dst) || host_.ft_rank_failed(ch.src)) {
    // Dead destination (nothing to deliver to) or dead sender (a lost
    // copy can never be retransmitted): stop and settle the accounting.
    abandon(ch, seq);
    return;
  }
  Pending& pe = it->second;
  const int n = pe.attempts++;
  const std::size_t wire_bytes =
      pe.payload.size() + kEnvelopeBytes + kFtHeaderBytes;
  post_copy(ch, n, wire_bytes, pe.flow, t);
  const CopyFate fate = copy_fate(ch, seq, n, wire_bytes, t);
  if (fate.lost()) {
    host_.ft_count(ch.src, Stat::kDropped, pe.flow, t);
  } else {
    for (const Time when : {fate.at, fate.dup_at}) {
      if (when < 0) continue;
      sim_.schedule_for(ch.dst, when, [this, &ch, seq, corrupt = fate.corrupt,
                                       when, payload = pe.payload, crc = pe.crc,
                                       sent_at = pe.first_posted,
                                       flow = pe.flow]() mutable {
        arrive(ch, seq, std::move(payload), crc, corrupt, when, sent_at, flow);
      });
    }
  }

  const Time deadline = t + rto(ch, seq, n);
  if (n >= params_.retry_max) {
    // Out of retries: when this timer fires with the segment still
    // unacknowledged, a dead peer means abandonment, a live one a bug or
    // an absurd loss rate — surface it by name either way.
    sim_.schedule_for(ch.src, deadline, [this, &ch, seq, n] {
      if (ch.pending.find(seq) == ch.pending.end()) return;
      if (host_.ft_rank_failed(ch.dst) || host_.ft_rank_failed(ch.src)) {
        abandon(ch, seq);
        return;
      }
      std::ostringstream os;
      os << "ft: segment seq=" << seq << " on channel (" << ch.src << " -> "
         << ch.dst << ", tag=" << ch.tag << ") unacknowledged after "
         << (n + 1) << " copies (retry_max=" << params_.retry_max
         << ") with a live destination";
      throw TransportError(os.str());
    });
  } else {
    sim_.schedule_for(ch.src, deadline, [this, &ch, seq, deadline] {
      attempt(ch, seq, deadline);
    });
  }
}

void Transport::arrive(Channel& ch, std::uint64_t seq, util::Buffer payload,
                       std::uint32_t crc, bool corrupt, Time t, Time sent_at,
                       FlowId flow) {
  const prof::ScopedTimer pt(prof::Section::kTransport);
  if (host_.ft_rank_failed(ch.dst)) return;  // dead NIC; sender will abandon
  if (corrupt) {
    // Materialize the fault — flip one byte — and let the checksum do the
    // detecting. CRC-32 catches every single-byte error, so a corrupted
    // copy never sneaks through; the from_bytes size validation in the
    // MPI layer is the backstop for framing-level damage. Copy-on-write:
    // the sender's retransmit queue still holds this block and must keep
    // the pristine bytes for the repair copy.
    if (!payload.empty()) {
      const auto pos = static_cast<std::size_t>(
          util::hash_combine(seq, static_cast<std::uint64_t>(ch.tag)) %
          payload.size());
      if (!payload.unique()) payload = payload.clone();
      payload.mutable_data()[pos] ^= std::byte{0x40};
    }
    if (payload.empty() || util::crc32(payload) != crc) {
      host_.ft_count(ch.dst, Stat::kCorruptDetected, flow, t);
      return;  // no ack: the sender's timer repairs it
    }
  }
  if (seq < ch.next_deliver || ch.held.find(seq) != ch.held.end()) {
    // Already seen (network duplicate, or a retransmit racing a lost
    // ack): filter it and re-ack so the sender's timer stops.
    host_.ft_count(ch.dst, Stat::kDupFiltered, flow, t);
    send_ack(ch, seq, t, flow);
    return;
  }
  ch.held.emplace(seq, HeldSeg{std::move(payload), sent_at, flow});
  send_ack(ch, seq, t, flow);
  // Release every now-in-order segment to the MPI layer. Strictly
  // increasing arrival stamps per channel preserve MPI non-overtaking.
  while (true) {
    auto it = ch.held.find(ch.next_deliver);
    if (it == ch.held.end()) break;
    const Time at = std::max(t, ch.last_deliver + 1);
    host_.ft_deliver(ch.src, ch.dst, ch.tag, std::move(it->second.payload),
                     it->second.sent_at, at, it->second.flow);
    ch.last_deliver = at;
    ch.held.erase(it);
    ++ch.next_deliver;
  }
}

void Transport::send_ack(Channel& ch, std::uint64_t seq, Time t, FlowId flow) {
  post_ack(ch, flow, t);
  const Time back = ack_fate(ch, seq, t);
  if (back < 0) {
    host_.ft_count(ch.dst, Stat::kDropped, flow, t);
    return;  // the sender retransmits; the receiver dedups
  }
  sim_.schedule_for(ch.src, back, [this, &ch, seq] { ch.pending.erase(seq); });
}

void Transport::on_rank_failed(Rank rank) {
  for (auto& [key, ch] : channels_) {
    if (ch.dst != rank) continue;
    while (!ch.pending.empty()) abandon(ch, ch.pending.begin()->first);
    ch.held.clear();
  }
}

bool Transport::idle() const {
  for (const auto& [key, ch] : channels_) {
    if (!ch.pending.empty() || !ch.held.empty()) return false;
  }
  return true;
}

std::uint64_t Transport::pending_segments() const {
  std::uint64_t n = 0;
  for (const auto& [key, ch] : channels_) n += ch.pending.size();
  return n;
}

std::uint64_t Transport::pending_segments_from(Rank src) const {
  std::uint64_t n = 0;
  for (const auto& [key, ch] : channels_) {
    if (ch.src == src) n += ch.pending.size();
  }
  return n;
}

}  // namespace mel::ft
