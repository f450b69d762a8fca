#include "src/common/morsel_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/mutex.h"

namespace skadi {
namespace {

// Every morsel of [0, total) is visited exactly once, and the countdown
// continuation (RunRegion's Event) releases the caller only after every
// helper finished — missed updates here would show as holes in `hits`.
TEST(MorselPoolTest, ParallelForCoversEveryRowExactlyOnce) {
  MorselPool pool(4);
  constexpr int64_t kTotal = 100'000;
  std::vector<std::atomic<int>> hits(kTotal);
  pool.ParallelFor(kTotal, 1024, 8, [&hits](int64_t, int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int64_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "row " << i;
  }
}

TEST(MorselPoolTest, ParallelChunksPartitionExactly) {
  MorselPool pool(4);
  constexpr int64_t kTotal = 9'999;
  std::atomic<int64_t> covered{0};
  std::atomic<int> calls{0};
  pool.ParallelChunks(kTotal, 4, [&](int chunk, int64_t begin, int64_t end) {
    EXPECT_GE(chunk, 0);
    EXPECT_LT(begin, end);
    covered.fetch_add(end - begin);
    calls.fetch_add(1);
  });
  EXPECT_EQ(covered.load(), kTotal);
  EXPECT_LE(calls.load(), 4);
}

// ParallelFor gives each morsel index its own fixed range, so per-morsel
// outputs can be put back in morsel order; the last morsel is the short one.
TEST(MorselPoolTest, MorselIndexDeterminesItsRange) {
  MorselPool pool(3);
  constexpr int64_t kTotal = 10'500;
  constexpr int64_t kRows = 1'000;
  constexpr int64_t kMorsels = 11;
  std::vector<std::atomic<int>> seen(kMorsels);
  std::atomic<int> wrong_range{0};
  pool.ParallelFor(kTotal, kRows, 4, [&](int64_t m, int64_t begin, int64_t end) {
    if (m < 0 || m >= kMorsels || begin != m * kRows ||
        end != std::min(kTotal, begin + kRows)) {
      wrong_range.fetch_add(1);
      return;
    }
    seen[static_cast<size_t>(m)].fetch_add(1);
  });
  EXPECT_EQ(wrong_range.load(), 0);
  for (int64_t m = 0; m < kMorsels; ++m) {
    EXPECT_EQ(seen[static_cast<size_t>(m)].load(), 1) << "morsel " << m;
  }
}

// Chunk ranges depend only on the chunk index and the chunk count, and the
// count is capped at the helpers plus the caller.
TEST(MorselPoolTest, ChunkRangesAreFixedAndCountIsCappedByHelpers) {
  auto ranges = [](MorselPool& pool, int64_t total, int num_chunks) {
    Mutex mu;
    std::vector<std::pair<int64_t, int64_t>> by_chunk(
        static_cast<size_t>(num_chunks), {-1, -1});
    pool.ParallelChunks(total, num_chunks, [&](int chunk, int64_t begin, int64_t end) {
      MutexLock lock(mu);
      by_chunk[static_cast<size_t>(chunk)] = {begin, end};
    });
    return by_chunk;
  };
  using Ranges = std::vector<std::pair<int64_t, int64_t>>;
  MorselPool three_helpers(3);
  EXPECT_EQ(ranges(three_helpers, 10, 4), (Ranges{{0, 3}, {3, 6}, {6, 9}, {9, 10}}));
  MorselPool one_helper(1);
  EXPECT_EQ(ranges(one_helper, 10, 4), (Ranges{{0, 5}, {5, 10}, {-1, -1}, {-1, -1}}));
}

// A pool with no helpers still covers the whole range, every morsel and chunk
// on the calling thread, however many threads the call asks for.
TEST(MorselPoolTest, NoHelpersRunsEverythingOnTheCaller) {
  MorselPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_caller{0};
  std::atomic<int64_t> covered{0};
  auto record = [&](int64_t begin, int64_t end) {
    if (std::this_thread::get_id() != caller) {
      off_caller.fetch_add(1);
    }
    covered.fetch_add(end - begin);
  };
  pool.ParallelFor(10'000, 100, 8,
                   [&](int64_t, int64_t begin, int64_t end) { record(begin, end); });
  pool.ParallelChunks(10'000, 8, [&](int, int64_t begin, int64_t end) { record(begin, end); });
  EXPECT_EQ(off_caller.load(), 0);
  EXPECT_EQ(covered.load(), 20'000);
}

// Several threads run regions on one pool at once, as kernels on different
// raylet workers share Global(). No caller waits on another's work, so every
// region completes with its own full sum.
TEST(MorselPoolTest, ConcurrentCallersShareOnePool) {
  MorselPool pool(2);
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  std::atomic<int> wrong_sums{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &wrong_sums] {
      for (int round = 0; round < kRounds; ++round) {
        std::atomic<int64_t> sum{0};
        pool.ParallelFor(10'000, 256, 3, [&sum](int64_t, int64_t begin, int64_t end) {
          sum.fetch_add(end - begin, std::memory_order_relaxed);
        });
        if (sum.load() != 10'000) {
          wrong_sums.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) {
    t.join();
  }
  EXPECT_EQ(wrong_sums.load(), 0);
}

// Repeated small regions through the shared pool: the countdown must reach
// zero every time (a lost decrement would hang the BlockingWait, surfacing
// as a test timeout rather than a wrong value).
TEST(MorselPoolTest, RepeatedRegionsAllComplete) {
  MorselPool& pool = MorselPool::Global();
  for (int round = 0; round < 200; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(1'000, 64, 8, [&sum](int64_t, int64_t begin, int64_t end) {
      sum.fetch_add(end - begin, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 1'000);
  }
}

// The helpers really run a region's chunks: every chunk waits (bounded at
// 2 s) until a second thread has entered, so a region that fell back to
// running inline would time out and record a single thread id.
TEST(MorselPoolTest, HelpersRunChunksOnOtherThreads) {
  MorselPool pool(3);
  Mutex mu;
  std::vector<std::thread::id> ids;
  auto distinct = [&] {
    MutexLock lock(mu);
    return ids.size();
  };
  pool.ParallelChunks(4, 4, [&](int, int64_t, int64_t) {
    {
      MutexLock lock(mu);
      const std::thread::id self = std::this_thread::get_id();
      if (std::find(ids.begin(), ids.end(), self) == ids.end()) {
        ids.push_back(self);
      }
    }
    const int64_t deadline = NowNanos() + 2'000'000'000;
    while (distinct() < 2 && NowNanos() < deadline) {
      std::this_thread::yield();
    }
  });
  EXPECT_GE(distinct(), 2u);
}

}  // namespace
}  // namespace skadi
