// Message types and POD (de)serialization helpers for the simulated MPI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mel/sim/time.hpp"
#include "mel/util/buffer.hpp"

namespace mel::mpi {

using sim::Rank;
using sim::Time;

/// Wildcard source for recv/iprobe matching (MPI_ANY_SOURCE).
inline constexpr Rank kAnySource = -1;
/// Wildcard tag for recv/iprobe matching (MPI_ANY_TAG).
inline constexpr int kAnyTag = -1;
/// Largest tag a send may carry (MPI_TAG_UB); send tags lie in
/// [0, kTagUb]. Above it sit the reliable transport's RMA and collective
/// channels, and past 2^21 a tag would alias in the 21-bit channel key.
inline constexpr int kTagUb = (1 << 20) - 1;

/// Per-message wire header bytes added to the payload when pricing and
/// accounting transfers (envelope: src, tag, size).
inline constexpr std::size_t kHeaderBytes = 16;

/// A point-to-point message in flight or in a mailbox. The payload is a
/// ref-counted buffer: moving a Message between the wire, the
/// retransmit queue and a mailbox never copies bytes (copying the payload
/// happens exactly once, at isend).
struct Message {
  Rank src = -1;
  Rank dst = -1;
  int tag = 0;
  /// Observability flow id (fills the existing padding hole — keeping the
  /// struct at 40 bytes matters: the isend delivery closure must stay
  /// within the EventFn inline buffer for the steady-allocation guarantee).
  std::uint32_t flow = 0;
  util::Buffer data;
  Time sent_at = 0;
  Time arrived_at = 0;
};
static_assert(sizeof(Message) == 40, "flow id must live in Message padding");

/// What MPI_Iprobe reveals about a pending message.
struct Envelope {
  Rank src = -1;
  int tag = 0;
  std::size_t bytes = 0;
};

/// One received neighborhood-collective slice: a view into the sender's
/// block, which it holds by refcount, so receiving copies no bytes.
class SliceView {
 public:
  SliceView() = default;

  std::size_t size() const { return size_; }
  operator std::span<const std::byte>() const {
    return block_.span().subspan(offset_, size_);
  }

 private:
  friend class PackedSlices;
  SliceView(util::Buffer block, std::uint32_t offset, std::uint32_t size)
      : block_(std::move(block)), offset_(offset), size_(size) {}

  util::Buffer block_;
  std::uint32_t offset_ = 0;
  std::uint32_t size_ = 0;
};

/// The payload of one neighborhood-collective call, in MPI's (sendbuf,
/// sdispls) shape: slice k, meant for the caller's k-th topology neighbor,
/// is bytes [offset(k), offset(k) + size(k)) of one refcounted block. The
/// offsets are prefix sums of per-slice byte counts, so the slices tile
/// the block. They are 32-bit, which keeps a received view at 16 bytes, so
/// a call carries at most kMaxBytes; more throws std::length_error before
/// anything is allocated.
class PackedSlices {
 public:
  static constexpr std::size_t kMaxBytes =
      std::numeric_limits<std::uint32_t>::max();

  /// No slices: the payload of a rank without neighbors.
  PackedSlices() = default;

  /// Slice k holds `bytes[k]` bytes, in one fresh block that the caller
  /// fills through writable() before the call.
  explicit PackedSlices(std::span<const std::size_t> bytes)
      : ends_(bytes.size()) {
    std::size_t end = 0;
    for (std::size_t k = 0; k < bytes.size(); ++k) {
      if (bytes[k] > kMaxBytes - end) throw too_large();
      ends_[k] = static_cast<std::uint32_t>(end += bytes[k]);
    }
    block_ = util::Buffer::alloc(end);
  }

  /// One record per slice: slice k holds values[k].
  template <class T>
    requires std::is_trivially_copyable_v<T>
  static PackedSlices of_records(std::span<const T> values) {
    if (values.size() > kMaxBytes / sizeof(T)) throw too_large();
    PackedSlices packed;
    packed.ends_.resize(values.size());
    for (std::size_t k = 0; k < values.size(); ++k) {
      packed.ends_[k] = static_cast<std::uint32_t>((k + 1) * sizeof(T));
    }
    packed.block_ = util::Buffer::copy_of(std::as_bytes(values));
    return packed;
  }

  std::size_t count() const { return ends_.size(); }
  std::size_t offset(std::size_t k) const { return k ? ends_[k - 1] : 0; }
  std::size_t size(std::size_t k) const { return ends_[k] - offset(k); }
  /// Payload bytes over every slice.
  std::size_t bytes() const { return block_.size(); }

  /// Slice k, writable while this is the block's only holder.
  std::span<std::byte> writable(std::size_t k) {
    return std::span(block_.mutable_data(), block_.size())
        .subspan(offset(k), size(k));
  }
  /// Slice k as a view that shares the block.
  SliceView view(std::size_t k) const {
    return SliceView(block_, static_cast<std::uint32_t>(offset(k)),
                     static_cast<std::uint32_t>(size(k)));
  }

 private:
  static std::length_error too_large() {
    return std::length_error("PackedSlices: one neighborhood call carries "
                             "more than " + std::to_string(kMaxBytes) +
                             " bytes");
  }

  util::Buffer block_;
  std::vector<std::uint32_t> ends_;  // ends_[k]: one past slice k's last byte
};

/// Serialize a trivially-copyable record into a fresh byte vector.
template <class T>
  requires std::is_trivially_copyable_v<T>
std::vector<std::byte> to_bytes(const T& value) {
  std::vector<std::byte> out(sizeof(T));
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}

/// View a trivially-copyable record as bytes (no copy; lifetime of `value`).
template <class T>
  requires std::is_trivially_copyable_v<T>
std::span<const std::byte> bytes_of(const T& value) {
  return std::as_bytes(std::span<const T, 1>(&value, 1));
}

/// Thrown when a received buffer cannot hold the record(s) a protocol
/// tries to decode from it — a framing bug or memory corruption, never a
/// tolerable condition, so deserialization fails loudly instead of reading
/// out of bounds or silently truncating.
class DeserializeError : public std::runtime_error {
 public:
  explicit DeserializeError(std::string what)
      : std::runtime_error(std::move(what)) {}
};

/// Deserialize a trivially-copyable record from bytes. The buffer must
/// hold exactly one record: every protocol in this codebase sends single
/// PODs in their own messages or slices, so any other size is a bug.
template <class T>
  requires std::is_trivially_copyable_v<T>
T from_bytes(std::span<const std::byte> data) {
  if (data.size() != sizeof(T)) {
    throw DeserializeError(
        "from_bytes: buffer holds " + std::to_string(data.size()) +
        " byte(s) but the record needs exactly " + std::to_string(sizeof(T)) +
        (data.size() < sizeof(T) ? " (truncated message)"
                                 : " (oversized message)"));
  }
  T value;
  std::memcpy(&value, data.data(), sizeof(T));
  return value;
}

/// Deserialize the i-th record of a packed array of records.
template <class T>
  requires std::is_trivially_copyable_v<T>
T nth_record(std::span<const std::byte> data, std::size_t i) {
  if ((i + 1) * sizeof(T) > data.size()) {
    throw DeserializeError(
        "nth_record: record " + std::to_string(i) + " ends at byte " +
        std::to_string((i + 1) * sizeof(T)) + " but the buffer holds only " +
        std::to_string(data.size()) + " (truncated message)");
  }
  T value;
  std::memcpy(&value, data.data() + i * sizeof(T), sizeof(T));
  return value;
}

/// Number of packed records of type T in a byte span. The span must be an
/// exact multiple of the record size.
template <class T>
std::size_t record_count(std::span<const std::byte> data) {
  if (data.size() % sizeof(T) != 0) {
    throw DeserializeError(
        "record_count: buffer of " + std::to_string(data.size()) +
        " byte(s) is not a whole number of " + std::to_string(sizeof(T)) +
        "-byte records (" + std::to_string(data.size() % sizeof(T)) +
        " trailing byte(s))");
  }
  return data.size() / sizeof(T);
}

}  // namespace mel::mpi
