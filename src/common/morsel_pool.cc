#include "src/common/morsel_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "src/common/event.h"

namespace skadi {

MorselPool& MorselPool::Global() {
  static MorselPool* pool = new MorselPool(  // lint:allow naked-new (intentionally leaked process-wide singleton; avoids shutdown-order races with worker threads)
      std::max<size_t>(4, std::thread::hardware_concurrency()));
  return *pool;
}

// Region completion as a countdown continuation: `outstanding` counts the
// caller plus every accepted helper; whoever decrements it to zero fires the
// Event. The region state is shared_ptr-owned by each worker, so helpers
// that outlive an early-returning caller (impossible today, but the
// ownership rule is what makes that safe) never touch freed memory.
void MorselPool::RunRegion(int helpers, const std::function<void()>& work) {
  if (helpers <= 0) {
    work();
    return;
  }
  struct Region {
    std::atomic<int> outstanding;
    Event done;
  };
  auto region = std::make_shared<Region>();
  // +1 is the caller's own share, held until its inline drain finishes —
  // guaranteeing the Event cannot fire before every worker is accounted.
  region->outstanding.store(helpers + 1, std::memory_order_relaxed);
  auto finish_one = [](const std::shared_ptr<Region>& r) {
    if (r->outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      r->done.Set();
    }
  };
  int submitted = 0;
  for (int i = 0; i < helpers; ++i) {
    // analyze:lifetime frame outlives every helper: region->done.BlockingWait() below
    bool accepted = pool_.Post([region, finish_one, &work] {
      work();
      finish_one(region);
    });
    if (!accepted) {
      break;  // pool shut down: the caller will drain every morsel itself
    }
    ++submitted;
  }
  // Credit back helpers the pool never accepted.
  region->outstanding.fetch_sub(helpers - submitted, std::memory_order_acq_rel);
  // The caller participates: it drains morsels alongside the helpers, so a
  // busy pool degrades to inline execution instead of blocking.
  work();
  finish_one(region);
  // Usually already set (the caller tends to finish last); otherwise this is
  // the blocking boundary for straggling helpers.
  region->done.BlockingWait();
}

void MorselPool::ParallelFor(
    int64_t total, int64_t morsel_rows, int num_threads,
    const std::function<void(int64_t morsel, int64_t begin, int64_t end)>& fn) {
  if (total <= 0) {
    return;
  }
  morsel_rows = std::max<int64_t>(1, morsel_rows);
  const int64_t num_morsels = (total + morsel_rows - 1) / morsel_rows;
  const int workers = static_cast<int>(std::min<int64_t>(
      std::max(1, num_threads), std::min<int64_t>(num_morsels, 1 + pool_.num_threads())));
  if (workers <= 1 || num_morsels == 1) {
    for (int64_t m = 0; m < num_morsels; ++m) {
      int64_t begin = m * morsel_rows;
      fn(m, begin, std::min(total, begin + morsel_rows));
    }
    return;
  }
  auto cursor = std::make_shared<std::atomic<int64_t>>(0);
  auto work = [cursor, num_morsels, morsel_rows, total, &fn] {
    while (true) {
      int64_t m = cursor->fetch_add(1, std::memory_order_relaxed);
      if (m >= num_morsels) {
        return;
      }
      int64_t begin = m * morsel_rows;
      fn(m, begin, std::min(total, begin + morsel_rows));
    }
  };
  RunRegion(workers - 1, work);
}

void MorselPool::ParallelChunks(
    int64_t total, int num_chunks,
    const std::function<void(int chunk, int64_t begin, int64_t end)>& fn) {
  if (total <= 0) {
    return;
  }
  const int chunks = static_cast<int>(std::min<int64_t>(
      std::max(1, num_chunks), std::min<int64_t>(total, 1 + pool_.num_threads())));
  if (chunks <= 1) {
    fn(0, 0, total);
    return;
  }
  const int64_t per_chunk = (total + chunks - 1) / chunks;
  // Chunk indices are claimed dynamically but ranges are static, so results
  // merged in chunk order do not depend on which worker ran which chunk.
  auto cursor = std::make_shared<std::atomic<int>>(0);
  auto work = [cursor, chunks, per_chunk, total, &fn] {
    while (true) {
      int c = cursor->fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) {
        return;
      }
      int64_t begin = static_cast<int64_t>(c) * per_chunk;
      fn(c, begin, std::min(total, begin + per_chunk));
    }
  };
  RunRegion(chunks - 1, work);
}

}  // namespace skadi
