// Virtual time for the discrete-event simulation. Integer nanoseconds keep
// event ordering exact and runs bit-reproducible (no floating-point drift).
#pragma once

#include <cstdint>

namespace mel::sim {

/// Virtual time in nanoseconds since simulation start.
using Time = std::int64_t;

/// A simulated MPI rank id.
using Rank = std::int32_t;

constexpr Time kNanosecond = 1;
constexpr Time kMicrosecond = 1000;
constexpr Time kMillisecond = 1000 * kMicrosecond;
constexpr Time kSecond = 1000 * kMillisecond;

/// Convert virtual time to seconds for reporting.
constexpr double to_seconds(Time t) noexcept {
  return static_cast<double>(t) * 1e-9;
}

}  // namespace mel::sim
