// skadi::Reactor — the one event loop and worker-thread abstraction.
//
// One Reactor multiplexes an arbitrary number of logical waits over a small,
// bounded set of driver threads:
//
//   * a FIFO ready-queue of continuations (Post),
//   * a hashed timer wheel (ScheduleAfter / Cancel) for delayed completions —
//     Get timeouts and the lost-object recovery backoff,
//   * one-shot Event completion tokens that a waiter registers a continuation
//     on instead of parking an OS thread.
//
// The control plane (fabric, raylet workers) and the data plane's morsel
// helpers (MorselPool) all run on Reactors.
//
// Blocking is confined to the boundary: Reactor::RunOne (a driver's blocking
// dequeue) and Event::BlockingWait / Reactor::BlockOn (the compatibility shim
// under the blocking public APIs). Everything between — readiness pushes,
// timer completions, continuation hops — is non-blocking, which is what lets
// one node carry 100k+ outstanding futures (see bench/bench_reactor.cc).
//
// Continuation lifetime rules (DESIGN.md §11):
//   * a continuation runs at most once, and never with a reactor or event
//     lock held;
//   * continuations own their state via captured shared_ptrs — the reactor
//     only owns the std::function until it runs or is dropped;
//   * Shutdown drains the ready-queue (queued work runs) but drops pending
//     timers; ~Event drops registered continuations without running them.
//
// Lock-order position: Reactor::mu_ and Event::mu_ are terminal. No other
// skadi lock is ever acquired while they are held (continuations and timer
// bodies run unlocked), so Post/ScheduleAfter/Event::Set are safe to call
// while holding any subsystem lock.
//
// Observability (DESIGN.md §12): every queued continuation carries the
// poster's trace context, re-installed around the dispatch — that is how one
// causal span tree survives Post/ScheduleAfter hops. WireMetrics attaches
// dispatch counters, dispatch-latency and timer-lag histograms, and a
// ready-depth gauge; unwired reactors skip all clock reads on the hot path.
#ifndef SRC_COMMON_REACTOR_H_
#define SRC_COMMON_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/event.h"
#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/trace.h"

namespace skadi {

// Handle for a scheduled timer. 0 is never a valid id.
using TimerId = uint64_t;

// The event loop: ready-queue + hashed timer wheel + driver thread pool.
class Reactor {
 public:
  struct Options {
    // Timer wheel granularity. Due timers fire on the next tick boundary, so
    // this bounds timer precision; the ready-queue is tick-free.
    int64_t tick_nanos = 1'000'000;  // 1 ms
    // Wheel slots; deadlines hash to slot (deadline / tick) % slots and far
    // deadlines are revisited (cheaply) once per rotation.
    size_t slots = 256;
  };

  explicit Reactor(const char* name = "reactor");
  Reactor(const char* name, Options options);
  ~Reactor();  // Shutdown()

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // --- submission (non-blocking; safe under any subsystem lock) ---

  // Enqueues `fn` for a driver. Returns false (dropping fn) after Shutdown.
  bool Post(Continuation fn);

  // Runs `fn` once `delay_nanos` have elapsed, at the first tick boundary
  // after its deadline (so within a tick of it when a driver is free).
  // Returns the timer's id for Cancel; 0 after Shutdown.
  TimerId ScheduleAfter(int64_t delay_nanos, Continuation fn);

  // Cancels a pending timer. True iff the timer existed and had not fired
  // (its continuation will never run).
  bool Cancel(TimerId id);

  // --- driver threads ---

  // Spawns `n` driver threads running Run().
  void Start(size_t n);
  void Grow(size_t n) { Start(n); }
  // Asks `n` drivers to retire after their current item (never below one
  // running driver). Retired threads are joined at Shutdown; num_threads()
  // reflects the logical size immediately.
  void Shrink(size_t n);
  size_t num_threads() const { return num_threads_.load(std::memory_order_relaxed); }

  // --- driving (the blocking boundary) ---

  // Runs queued continuations and due timers until Shutdown; honors Shrink.
  void Run();

  // Runs exactly one continuation (posted or due timer), blocking while the
  // reactor is idle. Returns false once the reactor is shut down and the
  // ready-queue is drained. This is the worker-dequeue primitive.
  bool RunOne();

  // Non-blocking: runs everything currently ready or due, returns the count.
  size_t PollOnce();

  // Blocks until `event` fires or `deadline_nanos` (< 0 = forever) passes;
  // returns event.is_set(). The drain-loop shim: when the calling thread is
  // one of this reactor's drivers — or the reactor has no drivers at all —
  // the caller drives the loop itself while it waits, so blocking public
  // APIs keep working with no dedicated reactor thread and a driver-thread
  // continuation may block on work the same reactor must complete.
  bool BlockOn(Event& event, int64_t deadline_nanos = -1);

  // --- introspection ---

  size_t ready_count() const;
  size_t pending_timers() const;

  // Cached metric handles for the dispatch hot path. Any pointer may be null
  // (that signal is skipped); all-null (the default) additionally skips the
  // per-item clock reads, so an unwired reactor pays nothing.
  struct MetricsHooks {
    Counter* dispatches = nullptr;        // continuations + timers run
    Histogram* dispatch_nanos = nullptr;  // enqueue → dispatch latency
    Histogram* timer_lag_nanos = nullptr; // fire time − deadline
    Gauge* ready_depth = nullptr;         // ready-queue depth after dequeue
  };

  // Attaches metric handles (e.g. the fabric.reactor.* or raylet.reactor.*
  // families). Safe while drivers run; the handles must outlive the reactor.
  void WireMetrics(const MetricsHooks& hooks);

  // Stops accepting work, drains the ready-queue, drops pending timers,
  // joins drivers. Idempotent.
  void Shutdown();

 private:
  // A queued continuation plus its causal baggage: the trace context active
  // when it was posted (re-installed around the dispatch) and the enqueue
  // timestamp for the dispatch-latency histogram (0 when metrics are
  // unwired — no clock read on the unobserved path).
  struct ReadyEntry {
    Continuation fn;
    trace::Context ctx;
    int64_t enqueue_nanos = 0;
  };
  struct TimerEntry {
    int64_t deadline;
    Continuation fn;
    trace::Context ctx;
  };
  enum class WaitResult { kRan, kTimedOut, kStopped };

  // Runs one item, waiting no later than `wait_deadline_nanos` (< 0 = no
  // bound) for work to appear.
  WaitResult RunOneBounded(int64_t wait_deadline_nanos);
  // Moves due-timer continuations onto the ready queue. Returns the wake-up
  // deadline for the next pending tick (INT64_MAX if no timers).
  int64_t AdvanceTimersLocked(int64_t now) REQUIRES(mu_);
  bool ShouldRetire();

  const char* name_;
  const Options options_;

  mutable Mutex mu_;
  CondVar cv_;
  bool stopped_ GUARDED_BY(mu_) = false;
  MetricsHooks hooks_ GUARDED_BY(mu_);
  std::deque<ReadyEntry> ready_ GUARDED_BY(mu_);
  // Slots hold timer ids; an id with no `timers_` entry was cancelled and is
  // dropped when its slot is next visited.
  std::vector<std::vector<TimerId>> wheel_ GUARDED_BY(mu_);
  std::unordered_map<TimerId, TimerEntry> timers_ GUARDED_BY(mu_);
  // The last tick whose slot has been visited; only fully elapsed ticks are.
  int64_t last_tick_ GUARDED_BY(mu_);
  TimerId next_timer_id_ GUARDED_BY(mu_) = 1;

  Mutex threads_mu_;
  std::vector<std::thread> threads_ GUARDED_BY(threads_mu_);
  std::atomic<size_t> num_threads_{0};
  std::atomic<size_t> retire_requests_{0};

  // Liveness gate for continuations the reactor registers on caller-owned
  // Events (BlockOn's wake-up shim). Those continuations hold only a
  // weak_ptr<AliveGate>: if the event outlives the reactor and fires later,
  // the wake-up locks nothing and returns. ~Reactor expires the gate and
  // waits out any wake-up already mid-run.
  struct AliveGate {
    Reactor* self;
  };
  std::shared_ptr<AliveGate> alive_gate_ =
      std::make_shared<AliveGate>(AliveGate{this});
};

}  // namespace skadi

#endif  // SRC_COMMON_REACTOR_H_
