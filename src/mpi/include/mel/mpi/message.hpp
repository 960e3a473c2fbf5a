// Message types and POD (de)serialization helpers for the simulated MPI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
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
/// ref-counted pooled buffer: moving a Message between the wire, the
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
