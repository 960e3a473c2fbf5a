// Host-time self-profiler for the simulation substrate.
//
// Answers "where does the *host* spend wall time while simulating?" —
// distinct from mel::perf (which builds performance profiles over
// *simulated* metrics). Scoped RAII timers accumulate per-subsystem call
// counts and nanoseconds into a process-global table; everything is
// compiled in but gated on a single bool so the disabled cost is one
// predictable branch per scope. The table is not per thread: the sharded
// engine's workers add into the same relaxed atomics, so at threads > 1 a
// section sums every shard's time and can exceed the wall time.
//
// Enable with prof::set_enabled(true) (melsim: --host-profile), run, then
// render report() / report_json(). Sections nest (kEventLoop wraps the
// whole run, subsystem sections run inside it), so the table shows
// inclusive times; event-loop self time = kEventLoop minus the others.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace mel::prof {

enum class Section : int {
  kEventLoop = 0,  // Simulator::run, inclusive
  kP2P,            // isend + delivery + receive matching
  kRma,            // put / get / fence
  kNeighbor,       // neighborhood-collective begin/complete
  kGlobalColl,     // allreduce-style global collectives
  kTransport,      // reliable-transport send/arrive/ack (FT runs only)
};
constexpr int kSectionCount = 6;

const char* section_name(Section s);

void set_enabled(bool on);
bool enabled();

/// Zero all counters (does not change enabled()).
void reset();

struct Stats {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};
Stats section_stats(Section s);

/// Aligned human-readable table of all sections with nonzero calls.
std::string report();

/// {"host_profile": {"<section>": {"calls": N, "ns": N}, ...}}
std::string report_json();

namespace detail {
// mellint: allow(global-cache) — host-profiler master switch, flipped once
// by melsim before the run and read-only after; never influences simulated
// state. Atomic so the sharded engine's worker threads can read it without
// a race (relaxed: a stale read merely misses one sample).
inline std::atomic<bool> g_enabled{false};
void record(Section s, std::uint64_t ns);
std::uint64_t now_ns();
}  // namespace detail

/// Accumulates the scope's wall time into `s` when profiling is enabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(Section s) noexcept
      : armed_(detail::g_enabled.load(std::memory_order_relaxed)),
        section_(s) {
    if (armed_) start_ = detail::now_ns();
  }
  ~ScopedTimer() {
    if (armed_) detail::record(section_, detail::now_ns() - start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  bool armed_;
  Section section_;
  std::uint64_t start_ = 0;
};

}  // namespace mel::prof
