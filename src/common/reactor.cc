#include "src/common/reactor.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace skadi {

namespace {
// Which reactor the current thread is driving (nested while a continuation
// runs). Lets BlockOn detect "I *am* the loop" and drain instead of parking.
thread_local Reactor* tls_current_reactor = nullptr;
}  // namespace

// --- Reactor ---
// (Event's implementation lives in src/common/event.cc.)

Reactor::Reactor(const char* name) : Reactor(name, Options()) {}

Reactor::Reactor(const char* name, Options options)
    : name_(name), options_(options) {
  MutexLock lock(mu_);
  wheel_.resize(std::max<size_t>(1, options_.slots));
  last_tick_ = NowNanos() / options_.tick_nanos - 1;
}

Reactor::~Reactor() {
  Shutdown();
  // BlockOn can leave its wake-up continuation registered on a caller-owned
  // Event that never fired (timeout / stopped exit). It holds only a weak
  // gate: expire the gate, then wait out a wake-up that already locked it.
  std::weak_ptr<AliveGate> gone = alive_gate_;
  alive_gate_.reset();
  while (!gone.expired()) {
    std::this_thread::yield();
  }
}

void Reactor::WireMetrics(const MetricsHooks& hooks) {
  MutexLock lock(mu_);
  hooks_ = hooks;
}

bool Reactor::Post(Continuation fn) {
  // The poster's trace context rides along and is re-installed around the
  // dispatch — the continuation-chain leg of causal span propagation.
  trace::Context ctx = trace::CurrentContext();
  {
    MutexLock lock(mu_);
    if (stopped_) {
      return false;
    }
    const int64_t enqueue =
        hooks_.dispatch_nanos != nullptr ? NowNanos() : 0;
    ready_.push_back(ReadyEntry{std::move(fn), ctx, enqueue});
    cv_.NotifyOne();
  }
  return true;
}

TimerId Reactor::ScheduleAfter(int64_t delay_nanos, Continuation fn) {
  trace::Context ctx = trace::CurrentContext();
  MutexLock lock(mu_);
  if (stopped_) {
    return 0;
  }
  const TimerId id = next_timer_id_++;
  const int64_t deadline = NowNanos() + std::max<int64_t>(0, delay_nanos);
  wheel_[static_cast<size_t>(deadline / options_.tick_nanos) % wheel_.size()]
      .push_back(id);
  timers_[id] = TimerEntry{deadline, std::move(fn), ctx};
  // Wake a driver so its wait deadline accounts for the new timer.
  cv_.NotifyOne();
  return id;
}

bool Reactor::Cancel(TimerId id) {
  MutexLock lock(mu_);
  // The wheel slot entry is dropped lazily when its slot is next visited;
  // erasing the map entry is enough.
  return timers_.erase(id) > 0;
}

int64_t Reactor::AdvanceTimersLocked(int64_t now) {
  // Only fully elapsed ticks are visited: a slot visited while its tick is
  // still running would keep a timer due later in that tick for a whole
  // extra rotation.
  const int64_t tick = now / options_.tick_nanos;
  if (timers_.empty()) {
    last_tick_ = tick - 1;
    return std::numeric_limits<int64_t>::max();
  }
  // Visit every slot the hand passed since the last advance (capped at one
  // full rotation — further laps revisit the same slots).
  const int64_t laps = std::min<int64_t>(tick - 1 - last_tick_,
                                         static_cast<int64_t>(wheel_.size()));
  for (int64_t i = 1; i <= laps; ++i) {
    auto& slot =
        wheel_[static_cast<size_t>(last_tick_ + i) % wheel_.size()];
    for (size_t j = 0; j < slot.size();) {
      auto it = timers_.find(slot[j]);
      if (it == timers_.end()) {
        // Cancelled; drop the stale slot entry.
        slot[j] = slot.back();
        slot.pop_back();
        continue;
      }
      if (it->second.deadline <= now) {
        if (hooks_.timer_lag_nanos != nullptr) {
          // Wheel-granularity lag: how far past its deadline the timer fired.
          hooks_.timer_lag_nanos->Record(now - it->second.deadline);
        }
        const int64_t enqueue = hooks_.dispatch_nanos != nullptr ? now : 0;
        ready_.push_back(
            ReadyEntry{std::move(it->second.fn), it->second.ctx, enqueue});
        timers_.erase(it);
        slot[j] = slot.back();
        slot.pop_back();
        continue;
      }
      ++j;  // multi-rotation deadline: fires on a later lap
    }
  }
  last_tick_ = tick - 1;
  // With timers pending, wake at the next tick boundary (Netty-style coarse
  // cadence) rather than computing the exact min deadline.
  return timers_.empty() ? std::numeric_limits<int64_t>::max()
                         : (tick + 1) * options_.tick_nanos;
}

Reactor::WaitResult Reactor::RunOneBounded(int64_t wait_deadline_nanos) {
  ReadyEntry entry;
  MetricsHooks hooks;
  {
    MutexLock lock(mu_);
    for (;;) {
      const int64_t next_wake = AdvanceTimersLocked(NowNanos());
      if (!ready_.empty()) {
        entry = std::move(ready_.front());
        ready_.pop_front();
        hooks = hooks_;
        if (hooks.ready_depth != nullptr) {
          hooks.ready_depth->Set(static_cast<int64_t>(ready_.size()));
        }
        break;
      }
      if (stopped_) {
        return WaitResult::kStopped;
      }
      const int64_t now = NowNanos();
      if (wait_deadline_nanos >= 0 && now >= wait_deadline_nanos) {
        // Caller's wait budget is spent. Give due timers one last chance to
        // make something ready before reporting the timeout.
        AdvanceTimersLocked(now);
        if (ready_.empty()) {
          return WaitResult::kTimedOut;
        }
        continue;
      }
      int64_t wake = next_wake;
      if (wait_deadline_nanos >= 0) {
        wake = std::min(wake, wait_deadline_nanos);
      }
      if (wake == std::numeric_limits<int64_t>::max()) {
        cv_.Wait(lock);
      } else if (now >= wake) {
        continue;  // a tick boundary passed; advance timers with fresh `now`
      } else {
        cv_.WaitFor(lock, std::chrono::nanoseconds(wake - now));
      }
    }
  }
  if (hooks.dispatches != nullptr) {
    hooks.dispatches->Increment();
  }
  if (hooks.dispatch_nanos != nullptr && entry.enqueue_nanos > 0) {
    hooks.dispatch_nanos->Record(NowNanos() - entry.enqueue_nanos);
  }
  Reactor* prev = tls_current_reactor;
  tls_current_reactor = this;
  {
    // Re-install the poster's trace context so spans opened inside the
    // continuation parent under the causal flow, not the driver thread.
    trace::ScopedContext adopt(entry.ctx);
    entry.fn();
  }
  tls_current_reactor = prev;
  return WaitResult::kRan;
}

bool Reactor::RunOne() {
  return RunOneBounded(/*wait_deadline_nanos=*/-1) == WaitResult::kRan;
}

size_t Reactor::PollOnce() {
  size_t ran = 0;
  const int64_t now = NowNanos();
  while (RunOneBounded(/*wait_deadline_nanos=*/now) == WaitResult::kRan) {
    ++ran;
  }
  return ran;
}

bool Reactor::ShouldRetire() {
  size_t pending = retire_requests_.load(std::memory_order_relaxed);
  while (pending > 0) {
    if (retire_requests_.compare_exchange_weak(pending, pending - 1,
                                               std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void Reactor::Run() {
  while (!ShouldRetire()) {
    if (!RunOne()) {
      return;
    }
  }
}

void Reactor::Start(size_t n) {
  MutexLock lock(threads_mu_);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { Run(); });
  }
  num_threads_.fetch_add(n, std::memory_order_relaxed);
}

void Reactor::Shrink(size_t n) {
  const size_t current = num_threads_.load(std::memory_order_relaxed);
  if (current <= 1) {
    return;
  }
  n = std::min(n, current - 1);
  // Logical size shrinks immediately; the surplus OS threads retire after
  // their next item (or park harmlessly until Shutdown joins them).
  num_threads_.fetch_sub(n, std::memory_order_relaxed);
  retire_requests_.fetch_add(n, std::memory_order_relaxed);
  MutexLock lock(mu_);
  cv_.NotifyAll();
}

bool Reactor::BlockOn(Event& event, int64_t deadline_nanos) {
  if (event.is_set()) {
    return true;
  }
  const bool is_driver = (tls_current_reactor == this);
  if (!is_driver && num_threads() > 0) {
    // Someone else drives the loop; just park this thread.
    return event.BlockingWait(deadline_nanos);
  }
  // Drain-loop shim: this thread is a driver of this reactor (a continuation
  // is blocking on downstream reactor work — parking would self-deadlock) or
  // the reactor has no drivers at all (blocking API with no reactor thread).
  // Drive the loop until the event fires. A posted no-op bounds the inner
  // wait so we re-check is_set promptly after cross-thread Sets. The event
  // is caller-owned and the continuation stays registered when we exit on
  // timeout or stop, so it wakes the reactor through a weak gate instead of
  // capturing `this` (DESIGN.md §14).
  std::weak_ptr<AliveGate> gate = alive_gate_;
  event.OnSet([gate] {
    std::shared_ptr<AliveGate> live = gate.lock();
    if (live != nullptr) {
      live->self->Post([] {});
    }
  });
  while (!event.is_set()) {
    const WaitResult r = RunOneBounded(deadline_nanos);
    if (r == WaitResult::kTimedOut) {
      break;
    }
    if (r == WaitResult::kStopped) {
      // Reactor shut down underneath the wait; fall back to parking.
      return event.BlockingWait(deadline_nanos);
    }
  }
  return event.is_set();
}

size_t Reactor::ready_count() const {
  MutexLock lock(mu_);
  return ready_.size();
}

size_t Reactor::pending_timers() const {
  MutexLock lock(mu_);
  return timers_.size();
}

void Reactor::Shutdown() {
  {
    MutexLock lock(mu_);
    stopped_ = true;
    // Pending timers are dropped (their continuations never run); queued
    // ready work still drains below.
    timers_.clear();
    for (auto& slot : wheel_) {
      slot.clear();
    }
    cv_.NotifyAll();
  }
  std::vector<std::thread> to_join;
  {
    MutexLock lock(threads_mu_);
    to_join.swap(threads_);
  }
  for (std::thread& t : to_join) {
    t.join();
  }
  num_threads_.store(0, std::memory_order_relaxed);
  // Drain any work the drivers didn't get to (or all of it, if no drivers).
  while (RunOneBounded(/*wait_deadline_nanos=*/0) == WaitResult::kRan) {
  }
}

}  // namespace skadi
