// Morsel-driven intra-task parallelism (Leis et al., SIGMOD '14).
//
// A MorselPool runs a kernel's inner loop over a large row range by splitting
// it into fixed-size morsels and letting a bounded set of workers (helpers
// posted to the pool's own Reactor plus the calling thread) claim morsels
// from a shared cursor. Kernels keep thread-local partial state (e.g. a
// per-worker hash table for group-by) and merge the partials afterwards.
//
// Two execution shapes:
//   ParallelFor    — dynamic morsel claiming; fn receives the morsel index so
//                    per-morsel outputs can be reassembled in morsel order,
//                    which makes results independent of scheduling.
//   ParallelChunks — static contiguous chunks, one worker each; fn receives
//                    the chunk index, so chunk-local state merged in chunk
//                    order is deterministic for a fixed chunk count.
//
// The process-wide Global() pool is shared by every kernel invocation; a
// caller never blocks on another caller's work (workers only drain morsels,
// they never wait), so nesting kernels across raylet worker threads cannot
// deadlock.
#ifndef SRC_COMMON_MORSEL_POOL_H_
#define SRC_COMMON_MORSEL_POOL_H_

#include <cstdint>
#include <functional>

#include "src/common/reactor.h"

namespace skadi {

class MorselPool {
 public:
  static constexpr int64_t kDefaultMorselRows = 64 * 1024;

  explicit MorselPool(size_t num_helper_threads) { pool_.Start(num_helper_threads); }

  // Process-wide pool used by the compute kernels. Sized to cover at least 4
  // helper workers so morsel paths exercise real concurrency (and TSan sees
  // the merge path) even on small machines.
  static MorselPool& Global();

  // Runs fn(morsel_index, begin, end) for every morsel of [0, total), using
  // up to `num_threads` workers including the calling thread. Blocks until
  // all morsels are processed. fn must be safe to call concurrently and must
  // not throw. num_threads <= 1 (or a single morsel) runs inline.
  void ParallelFor(int64_t total, int64_t morsel_rows, int num_threads,
                   const std::function<void(int64_t morsel, int64_t begin, int64_t end)>& fn);

  // Splits [0, total) into at most `num_chunks` contiguous chunks and runs
  // fn(chunk, begin, end) once per chunk, one worker each (the caller runs
  // chunk 0). Blocks until every chunk completes.
  void ParallelChunks(int64_t total, int num_chunks,
                      const std::function<void(int chunk, int64_t begin, int64_t end)>& fn);

 private:
  // Posts `helpers` jobs running `work` and waits (after running `work`
  // inline once) until all of them finish. Region completion is a countdown
  // continuation: the last worker to finish fires a one-shot Event (see
  // RunRegion), so the wait is a single Event::BlockingWait at the blocking
  // boundary instead of a condvar loop — and usually a no-op, since the
  // caller drains morsels alongside the helpers and often finishes last.
  void RunRegion(int helpers, const std::function<void()>& work);

  Reactor pool_{"morsel-pool"};
};

}  // namespace skadi

#endif  // SRC_COMMON_MORSEL_POOL_H_
