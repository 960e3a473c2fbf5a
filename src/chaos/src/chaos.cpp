#include "mel/chaos/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "mel/util/rng.hpp"

namespace mel::chaos {

Engine::Engine(const Config& config, int nranks)
    : cfg_(config), nranks_(nranks), straggler_(static_cast<std::size_t>(nranks), 0) {
  if (nranks <= 0) throw std::invalid_argument("chaos::Engine: nranks must be > 0");
  if (cfg_.latency_jitter < 0.0) {
    throw std::invalid_argument("chaos: latency_jitter must be >= 0");
  }
  if (cfg_.stragglers < 0) {
    throw std::invalid_argument("chaos: stragglers must be >= 0");
  }
  if (cfg_.straggler_slowdown <= 0.0) {
    throw std::invalid_argument("chaos: straggler_slowdown must be > 0");
  }
  if (cfg_.collective_skew < 0) {
    throw std::invalid_argument("chaos: collective_skew must be >= 0");
  }
  if (cfg_.loss < 0.0 || cfg_.loss >= 1.0) {
    throw std::invalid_argument(
        "chaos: loss probability must be in [0, 1) — at 1.0 no copy ever "
        "arrives and the transport cannot terminate");
  }
  if (cfg_.corruption < 0.0 || cfg_.corruption >= 1.0) {
    throw std::invalid_argument(
        "chaos: corruption probability must be in [0, 1) — at 1.0 every "
        "copy fails its checksum and the transport cannot terminate");
  }
  if (cfg_.duplication < 0.0 || cfg_.duplication > 1.0) {
    throw std::invalid_argument(
        "chaos: duplication probability must be in [0, 1]");
  }
  {
    std::vector<char> seen(static_cast<std::size_t>(nranks), 0);
    for (const Config::Crash& c : cfg_.crashes) {
      if (c.rank < 0 || c.rank >= nranks) {
        throw std::invalid_argument(
            "chaos: crash rank " + std::to_string(c.rank) +
            " outside the valid range [0, " + std::to_string(nranks) + ")");
      }
      if (c.at <= 0) {
        throw std::invalid_argument(
            "chaos: crash time must be > 0 ns (rank " +
            std::to_string(c.rank) + " scheduled at " + std::to_string(c.at) +
            ")");
      }
      if (seen[static_cast<std::size_t>(c.rank)] != 0) {
        throw std::invalid_argument("chaos: rank " + std::to_string(c.rank) +
                                    " scheduled to crash more than once");
      }
      seen[static_cast<std::size_t>(c.rank)] = 1;
    }
    if (static_cast<int>(cfg_.crashes.size()) >= nranks) {
      throw std::invalid_argument(
          "chaos: every rank is scheduled to crash; at least one must "
          "survive to recover");
    }
  }
  // Choose the straggler set deterministically: the `stragglers` ranks with
  // the smallest seed-keyed hash. Every seed picks a different set.
  const int k = std::min(cfg_.stragglers, nranks);
  if (k > 0) {
    std::vector<Rank> order(static_cast<std::size_t>(nranks));
    for (Rank r = 0; r < nranks; ++r) order[static_cast<std::size_t>(r)] = r;
    std::sort(order.begin(), order.end(), [this](Rank a, Rank b) {
      const auto ha = util::hash_combine(cfg_.seed, static_cast<std::uint64_t>(a));
      const auto hb = util::hash_combine(cfg_.seed, static_cast<std::uint64_t>(b));
      return ha != hb ? ha < hb : a < b;
    });
    for (int i = 0; i < k; ++i) straggler_[static_cast<std::size_t>(order[i])] = 1;
  }
}

double Engine::unit(std::uint64_t h) {
  return static_cast<double>(util::hash64(h) >> 11) * 0x1.0p-53;
}

Time Engine::transfer_jitter(Rank src, Rank dst, int tag, std::uint64_t n,
                             Time wire) const {
  if (cfg_.latency_jitter <= 0.0) return 0;
  const std::uint64_t key = channel_key(src, dst, tag);
  const double u = unit(util::hash_combine(cfg_.seed ^ key, n));
  return static_cast<Time>(static_cast<double>(wire) * cfg_.latency_jitter * u);
}

Time Engine::perturb_compute(Rank rank, Time dt) const {
  if (!is_straggler(rank)) return dt;
  return static_cast<Time>(
      std::llround(static_cast<double>(dt) * cfg_.straggler_slowdown));
}

bool Engine::fate(std::uint64_t salt, Rank src, Rank dst, int tag,
                  std::uint64_t seq, std::uint64_t attempt, double p) const {
  if (p <= 0.0) return false;
  const std::uint64_t h = util::hash_combine(
      cfg_.seed ^ (salt << 58),
      util::hash_combine(channel_key(src, dst, tag),
                         util::hash_combine(seq, attempt)));
  return unit(h) < p;
}

bool Engine::wire_lost(Rank src, Rank dst, int tag, std::uint64_t seq,
                       int attempt) const {
  return fate(1, src, dst, tag, seq, static_cast<std::uint64_t>(attempt),
              cfg_.loss);
}

bool Engine::wire_corrupted(Rank src, Rank dst, int tag, std::uint64_t seq,
                            int attempt) const {
  return fate(2, src, dst, tag, seq, static_cast<std::uint64_t>(attempt),
              cfg_.corruption);
}

bool Engine::wire_duplicated(Rank src, Rank dst, int tag, std::uint64_t seq,
                             int attempt) const {
  return fate(3, src, dst, tag, seq, static_cast<std::uint64_t>(attempt),
              cfg_.duplication);
}

bool Engine::ack_lost(Rank src, Rank dst, int tag, std::uint64_t seq,
                      std::uint64_t ack_no) const {
  return fate(4, src, dst, tag, seq, ack_no, cfg_.loss);
}

Time Engine::collective_skew(Rank rank, int kind, std::uint64_t seq) const {
  if (cfg_.collective_skew <= 0) return 0;
  const std::uint64_t h = util::hash_combine(
      cfg_.seed ^ (static_cast<std::uint64_t>(kind) << 56),
      util::hash_combine(static_cast<std::uint64_t>(rank), seq));
  return static_cast<Time>(static_cast<double>(cfg_.collective_skew) * unit(h));
}

}  // namespace mel::chaos
