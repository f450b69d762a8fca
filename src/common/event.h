// skadi::Event — one-shot completion token, used with the Reactor
// (src/common/reactor.h) and on its own (MorselPool's region countdown).
//
// A waiter registers continuations with OnSet instead of blocking; Set fires
// them exactly once. BlockingWait is the thread-parking shim for the legacy
// blocking API shape — prefer Reactor::BlockOn where a reactor exists, which
// drives the loop instead of parking when the caller is a driver.
//
// Thread-safe. Destroying an Event with unfired continuations drops them
// without running them (the destruction-while-pending rule): shims must own
// the Event via shared_ptr captured by every continuation that touches it.
// Lock-order position: Event::mu_ is terminal — no other skadi lock is ever
// acquired while it is held (continuations run unlocked), so Set is safe to
// call while holding any subsystem lock.
#ifndef SRC_COMMON_EVENT_H_
#define SRC_COMMON_EVENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/mutex.h"

namespace skadi {

// A unit of deferred work. Continuations must not block a reactor driver
// thread; blocking boundary shims go through Reactor::BlockOn.
using Continuation = std::function<void()>;

class Event {
 public:
  Event() = default;
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  // Registers `fn` to run when the event fires. If the event is already set,
  // `fn` runs inline before OnSet returns. Continuations run on whichever
  // thread calls Set (callers wanting a specific executor post from `fn`).
  void OnSet(Continuation fn);

  // Fires the event: runs registered continuations (inline, unlocked) and
  // wakes BlockingWait callers. Idempotent — later calls are no-ops, so
  // continuations run at most once.
  void Set();

  bool is_set() const { return set_.load(std::memory_order_acquire); }

  // Parks the calling thread until the event fires or `deadline_nanos`
  // (NowNanos scale; < 0 = wait forever) passes. Returns is_set().
  bool BlockingWait(int64_t deadline_nanos = -1);

 private:
  mutable Mutex mu_;
  CondVar cv_;
  std::atomic<bool> set_{false};
  std::vector<Continuation> waiters_ GUARDED_BY(mu_);
};

}  // namespace skadi

#endif  // SRC_COMMON_EVENT_H_
