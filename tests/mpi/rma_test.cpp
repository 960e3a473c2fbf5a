#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "world_fixture.hpp"

namespace mel::test {
namespace {

using mpi::Comm;
using sim::RankTask;

TEST(Rma, PutLandsAfterFlushAndBarrier) {
  World w(2);
  const int win = w.machine.allocate_window({64, 64});
  std::int64_t seen = -1;
  auto body = [&, win](Comm& c) -> RankTask {
    auto window = c.window(win);
    if (c.rank() == 0) {
      const std::int64_t value = 1234;
      window.put(1, 0, mpi::bytes_of(value));
      co_await window.flush_all();
    }
    co_await c.barrier();
    if (c.rank() == 1) {
      seen = mpi::from_bytes<std::int64_t>(window.local().subspan(0, 8));
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(seen, 1234);
}

TEST(Rma, PutAtOffset) {
  World w(2);
  const int win = w.machine.allocate_window({256, 256});
  std::int64_t a = 0, b = 0;
  auto body = [&, win](Comm& c) -> RankTask {
    auto window = c.window(win);
    if (c.rank() == 0) {
      window.put(1, 0, mpi::bytes_of<std::int64_t>(11));
      window.put(1, 128, mpi::bytes_of<std::int64_t>(22));
      co_await window.flush_all();
    }
    co_await c.barrier();
    if (c.rank() == 1) {
      a = mpi::from_bytes<std::int64_t>(window.local().subspan(0, 8));
      b = mpi::from_bytes<std::int64_t>(window.local().subspan(128, 8));
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(a, 11);
  EXPECT_EQ(b, 22);
}

TEST(Rma, PutRecordsTypedHelper) {
  World w(2);
  const int win = w.machine.allocate_window({64, 64});
  std::int32_t v2 = 0;
  auto body = [&, win](Comm& c) -> RankTask {
    auto window = c.window(win);
    if (c.rank() == 0) {
      const std::int32_t vals[] = {5, 6, 7};
      window.put_records<std::int32_t>(1, 1, std::span<const std::int32_t>(vals));
      co_await window.flush_all();
    }
    co_await c.barrier();
    if (c.rank() == 1) {
      v2 = mpi::from_bytes<std::int32_t>(window.local().subspan(8, 4));
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(v2, 6);  // vals[1] lands at record offset 2
}

TEST(Rma, FlushAdvancesClockPastTransfer) {
  World w(2);
  const int win = w.machine.allocate_window({1 << 21, 1 << 21});
  sim::Time after_flush = 0;
  auto body = [&, win](Comm& c) -> RankTask {
    auto window = c.window(win);
    if (c.rank() == 0) {
      std::vector<std::byte> big(1 << 20);
      window.put(1, 0, big);
      co_await window.flush_all();
      after_flush = c.now();
    }
    co_await c.barrier();
    co_return;
  };
  w.spawn_all(body);
  w.run();
  // 1 MiB over the (intra-node: ranks 0 and 1 share a node here) beta must
  // dominate fixed overheads.
  const auto& p = w.machine.network().params();
  EXPECT_GT(after_flush,
            static_cast<sim::Time>((1 << 20) * p.beta_intra * 0.9));
}

TEST(Rma, FlushWithNoPutsIsCheap) {
  World w(2);
  const int win = w.machine.allocate_window({16, 16});
  sim::Time after = 0;
  auto body = [&, win](Comm& c) -> RankTask {
    auto window = c.window(win);
    co_await window.flush_all();
    if (c.rank() == 0) after = c.now();
    co_return;
  };
  w.spawn_all(body);
  w.run();
  const auto& p = w.machine.network().params();
  EXPECT_EQ(after, p.o_flush);
}

TEST(Rma, PutPastEndThrows) {
  // Each put lands outside the 8-byte window: past its end, at a byte
  // offset whose sum with the length wraps, and at a record offset whose
  // byte offset wraps to 0.
  const std::vector<std::function<void(mpi::Window&)>> puts = {
      [](mpi::Window& win) {
        win.put(1, 4, mpi::bytes_of<std::int64_t>(1));  // 4+8 > 8
      },
      [](mpi::Window& win) {
        win.put(1, SIZE_MAX - 3, mpi::bytes_of<std::int64_t>(1));
      },
      [](mpi::Window& win) {
        const std::int64_t one = 1;
        win.put_records(1, std::size_t{1} << 61,
                        std::span<const std::int64_t>(&one, 1));
      },
  };
  for (std::size_t i = 0; i < puts.size(); ++i) {
    World w(2);
    const int win = w.machine.allocate_window({8, 8});
    auto body = [&, win](Comm& c) -> RankTask {
      if (c.rank() == 0) {
        auto window = c.window(win);
        puts[i](window);
      }
      co_return;
    };
    w.spawn_all(body);
    EXPECT_THROW(w.run(), std::out_of_range) << "put " << i;
  }
}

TEST(Rma, WindowMemoryAccounted) {
  World w(2);
  (void)w.machine.allocate_window({1000, 2000});
  EXPECT_EQ(w.machine.buffer_bytes(0), 1000u);
  EXPECT_EQ(w.machine.buffer_bytes(1), 2000u);
}

TEST(Rma, MultipleWindowsIndependent) {
  World w(2);
  const int w1 = w.machine.allocate_window({32, 32});
  const int w2 = w.machine.allocate_window({32, 32});
  std::int64_t from_w1 = 0, from_w2 = 0;
  auto body = [&](Comm& c) -> RankTask {
    auto win1 = c.window(w1);
    auto win2 = c.window(w2);
    if (c.rank() == 0) {
      win1.put(1, 0, mpi::bytes_of<std::int64_t>(111));
      win2.put(1, 0, mpi::bytes_of<std::int64_t>(222));
      co_await win1.flush_all();
      co_await win2.flush_all();
    }
    co_await c.barrier();
    if (c.rank() == 1) {
      from_w1 = mpi::from_bytes<std::int64_t>(win1.local().subspan(0, 8));
      from_w2 = mpi::from_bytes<std::int64_t>(win2.local().subspan(0, 8));
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(from_w1, 111);
  EXPECT_EQ(from_w2, 222);
}

TEST(Rma, CountersTrackPuts) {
  World w(2);
  const int win = w.machine.allocate_window({64, 64});
  auto body = [&, win](Comm& c) -> RankTask {
    auto window = c.window(win);
    if (c.rank() == 0) {
      window.put(1, 0, mpi::bytes_of<std::int64_t>(1));
      window.put(1, 8, mpi::bytes_of<std::int64_t>(2));
      co_await window.flush_all();
    }
    co_await c.barrier();
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(w.machine.counters(0).puts, 2u);
  EXPECT_EQ(w.machine.counters(0).bytes_put, 16u);
  EXPECT_EQ(w.machine.counters(0).flushes, 1u);
  const auto matrix = w.machine.take_matrix();
  EXPECT_EQ(matrix->msgs(0, 1), 2u);
}

TEST(Rma, OriginPollsItsOwnWindow) {
  // The paper's RMA scheme has targets poll their local window for data.
  World w(2);
  const int win = w.machine.allocate_window({16, 16});
  std::int64_t polled = 0;
  auto body = [&, win](Comm& c) -> RankTask {
    auto window = c.window(win);
    if (c.rank() == 0) {
      window.put(1, 0, mpi::bytes_of<std::int64_t>(99));
      co_await window.flush_all();
      c.isend_pod<int>(1, 0, 1);  // tell target data is there
    } else {
      (void)co_await c.recv(0, 0);
      polled = mpi::from_bytes<std::int64_t>(window.local().subspan(0, 8));
    }
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(polled, 99);
}

TEST(Rma, FenceMakesPutsVisibleEverywhere) {
  World w(4);
  const int win = w.machine.allocate_window({64, 64, 64, 64});
  std::vector<std::int64_t> seen(4, -1);
  auto body = [&, win](Comm& c) -> RankTask {
    auto window = c.window(win);
    // Everyone puts its rank into its right neighbor's window.
    const sim::Rank dst = (c.rank() + 1) % c.size();
    window.put(dst, 0, mpi::bytes_of<std::int64_t>(c.rank()));
    co_await window.fence();
    seen[c.rank()] = mpi::from_bytes<std::int64_t>(window.local().subspan(0, 8));
    co_return;
  };
  w.spawn_all(body);
  w.run();
  for (int r = 0; r < 4; ++r) EXPECT_EQ(seen[r], (r + 3) % 4);
}

TEST(Rma, FenceSynchronizesClocks) {
  World w(3);
  const int win = w.machine.allocate_window({8, 8, 8});
  std::vector<sim::Time> after(3, 0);
  auto body = [&, win](Comm& c) -> RankTask {
    c.compute(c.rank() * 20 * sim::kMicrosecond);
    auto window = c.window(win);
    co_await window.fence();
    after[c.rank()] = c.now();
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(after[0], after[1]);
  EXPECT_EQ(after[1], after[2]);
  EXPECT_GT(after[0], 40 * sim::kMicrosecond);
}

TEST(Rma, FenceMissingParticipantDeadlocks) {
  World w(2);
  const int win = w.machine.allocate_window({8, 8});
  auto body = [&, win](Comm& c) -> RankTask {
    if (c.rank() == 0) {
      auto window = c.window(win);
      co_await window.fence();
    }
    co_return;
  };
  w.spawn_all(body);
  EXPECT_THROW(w.run(), sim::DeadlockError);
}

TEST(Rma, FenceCountsTracked) {
  World w(2);
  const int win = w.machine.allocate_window({8, 8});
  auto body = [&, win](Comm& c) -> RankTask {
    auto window = c.window(win);
    co_await window.fence();
    co_await window.fence();
    co_return;
  };
  w.spawn_all(body);
  w.run();
  EXPECT_EQ(w.machine.counters(0).fences, 2u);
}

}  // namespace
}  // namespace mel::test
