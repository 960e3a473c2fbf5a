// Property tests for the event queue: every workload is run against a
// reference priority_queue and must pop the exact same (time, sequence)
// order — the same contract the determinism pin test freezes at the
// application level.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "mel/sim/event_queue.hpp"
#include "mel/util/rng.hpp"

namespace {

using namespace mel;
using sim::EventFn;
using sim::EventQueue;
using sim::Time;

struct Key {
  Time t;
  std::uint64_t seq;
  bool operator>(const Key& o) const {
    return t != o.t ? t > o.t : seq > o.seq;
  }
  bool operator==(const Key& o) const { return t == o.t && seq == o.seq; }
};

/// Reference model: the old binary heap with explicit sequence numbers.
class RefQueue {
 public:
  void push(Time t) { heap_.push(Key{t, next_seq_++}); }
  void push_keyed(Time t, std::uint64_t seq) { heap_.push(Key{t, seq}); }
  bool empty() const { return heap_.empty(); }
  Key pop() {
    Key k = heap_.top();
    heap_.pop();
    return k;
  }

 private:
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Push the same time into both queues; pops must agree exactly.
struct Pair {
  EventQueue q;
  RefQueue ref;

  void push(Time t) {
    q.push(t, [] {});
    ref.push(t);
  }
  void push_keyed(Time t, std::uint64_t seq) {
    q.push_keyed(t, seq, [] {});
    ref.push_keyed(t, seq);
  }
  void pop_and_check() {
    ASSERT_FALSE(q.empty());
    const Key want = ref.pop();
    const auto& top = q.peek();
    ASSERT_EQ(top.t, want.t);
    ASSERT_EQ(top.seq, want.seq);
    auto ev = q.pop();
    ASSERT_EQ(ev.t, want.t);
    ASSERT_EQ(ev.seq, want.seq);
  }
  void drain() {
    while (!ref.empty()) pop_and_check();
    ASSERT_TRUE(q.empty());
  }
};

TEST(EventQueue, MonotonePushPop) {
  Pair p;
  for (Time t = 0; t < 1000; ++t) p.push(t * 3);
  p.drain();
}

TEST(EventQueue, SameTimestampBatchesAreFifo) {
  Pair p;
  for (int i = 0; i < 4096; ++i) p.push(i / 16);  // 16-wide batches
  p.drain();
}

TEST(EventQueue, PastTimePushesDuringDrain) {
  Pair p;
  for (Time t = 0; t < 64; ++t) p.push(100 + t);
  for (int i = 0; i < 32; ++i) p.pop_and_check();
  // Earlier than everything still queued (but >= popped times, as the
  // simulator guarantees via clock monotonicity — and even without that
  // guarantee the queue orders them correctly).
  p.push(5);
  p.push(110);
  p.push(7);
  p.drain();
}

TEST(EventQueue, FarFutureTimesPopInOrder) {
  Pair p;
  // Times far apart: 2^30 and 2^40 ns beside near ones.
  p.push(1);
  p.push(Time{1} << 40);
  p.push(Time{1} << 30);
  p.push(2);
  p.drain();
  // Time advanced a long way; keep going.
  p.push((Time{1} << 40) + 3);
  p.push((Time{1} << 40) + 1);
  p.drain();
}

TEST(EventQueue, RandomizedInterleavedAgainstReferenceHeap) {
  util::Xoshiro256 rng(0xfeedULL);
  for (int round = 0; round < 8; ++round) {
    Pair p;
    Time watermark = 0;  // max popped time, like the simulator's now_
    int live = 0;
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t r = rng();
      if (live == 0 || (r & 3) != 0) {
        // Mix of near-future, same-time, and far-future pushes relative
        // to the current watermark (events never land in the popped past
        // in the simulator, but the queue handles it anyway; exercise
        // a few of those too).
        Time t;
        switch ((r >> 2) & 7) {
          case 0: t = watermark; break;                          // now
          case 1: t = watermark + ((r >> 8) & 1023); break;        // ~1 us
          case 2: t = watermark + ((r >> 8) & 0xfffff); break;     // ~1 ms
          case 3: t = watermark + ((r >> 8) & 0xffffffff); break;  // ~4 s
          case 4: t = watermark > 100 ? watermark - 50 : 0; break; // past
          default: t = watermark + ((r >> 8) & 4095); break;
        }
        p.push(t);
        ++live;
      } else {
        const Key want_peek{p.q.peek().t, p.q.peek().seq};
        p.pop_and_check();
        watermark = std::max(watermark, want_peek.t);
        --live;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    p.drain();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EventQueue, KeyedPushesInterleaveWithCountedOnes) {
  // The sharded engine pushes merged events under their global sequence
  // and intra-window events under provisional ones from 2^63 (the
  // simulator's kProvBase), beside the queue's own counted pushes. Keys
  // stay unique; pops follow (time, seq) across all three, including
  // ties in time between them.
  constexpr std::uint64_t kProvBase = std::uint64_t{1} << 63;
  util::Xoshiro256 rng(0xc0ffeeULL);
  Pair p;
  p.push_keyed(0, std::numeric_limits<std::uint64_t>::max());
  p.push_keyed(0, kProvBase);
  std::uint64_t global = std::uint64_t{1} << 32;  // above every counted seq
  std::uint64_t prov = kProvBase + 1;
  std::uint64_t counted = 0;
  Time watermark = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t r = rng();
    if (p.q.empty() || (r & 3) != 0) {
      // 64 distinct times ahead of the watermark: most pushes tie with
      // others from another source.
      const Time t = watermark + static_cast<Time>((r >> 4) & 63);
      switch ((r >> 2) & 3) {
        case 0:
          p.push_keyed(t, global);
          global += 3;
          break;
        case 1:
          p.push_keyed(t, prov++);
          break;
        default:
          p.push(t);
          ++counted;
          break;
      }
    } else {
      watermark = p.q.peek().t;
      p.pop_and_check();
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(p.q.seqs_issued(), counted);
  p.drain();
}

TEST(EventQueue, EventFnSmallBufferAndHeapFallback) {
  // Inline: trivially copyable small closure.
  int hits = 0;
  EventFn small([&hits] { ++hits; });
  small(0);
  EXPECT_EQ(hits, 1);

  // Inline, non-trivial: owns a heap resource, must destruct exactly once.
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    EventFn own([t = std::move(token), &hits] { hits += *t; });
    EventFn moved = std::move(own);
    moved(0);
    EXPECT_EQ(hits, 8);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());

  // Heap fallback: closure larger than the inline buffer.
  struct Big {
    std::uint64_t pad[12];
  };
  Big big{};
  big.pad[11] = 42;
  std::uint64_t out = 0;
  {
    EventFn fat([big, &out] { out = big.pad[11]; });
    static_assert(sizeof(big) + sizeof(&out) > EventFn::kInlineBytes);
    EventFn moved = std::move(fat);
    moved(0);
  }
  EXPECT_EQ(out, 42u);

  // Time-taking callables receive the event time.
  Time seen = -1;
  EventFn timed([&seen](Time t) { seen = t; });
  timed(123);
  EXPECT_EQ(seen, 123);
}

TEST(EventQueue, HotPathClosuresFitInline) {
  // The substrate's hot-path closures must stay within the small buffer —
  // a capture added carelessly would silently reintroduce a per-event
  // allocation. Mirror the shapes used by wake/deliver/put.
  struct WakeShape {
    void* sim;
    struct {
      std::int32_t rank;
      void* handle;
    } parked;
  };
  static_assert(sizeof(WakeShape) <= EventFn::kInlineBytes);
}

}  // namespace
