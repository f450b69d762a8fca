#include "src/common/reactor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/clock.h"

namespace skadi {
namespace {

constexpr int64_t kMs = 1'000'000;

// Drives `r` (no driver threads) until `pred` holds or `timeout` passes.
template <typename Pred>
bool DrainUntil(Reactor& r, Pred pred, int64_t timeout_nanos = 5'000 * kMs) {
  const int64_t deadline = NowNanos() + timeout_nanos;
  while (!pred()) {
    if (NowNanos() >= deadline) {
      return false;
    }
    r.PollOnce();
  }
  return true;
}

TEST(EventTest, OnSetAfterSetRunsInline) {
  Event ev;
  ev.Set();
  bool ran = false;
  ev.OnSet([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(EventTest, SetIsIdempotentAndContinuationsRunOnce) {
  Event ev;
  int runs = 0;
  ev.OnSet([&] { ++runs; });
  ev.Set();
  ev.Set();
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(ev.is_set());
}

TEST(EventTest, DestructionWhilePendingDropsContinuations) {
  auto counter = std::make_shared<std::atomic<int>>(0);
  {
    Event ev;
    ev.OnSet([counter] { counter->fetch_add(1); });
    // ev destroyed without Set: the continuation must be dropped, not run.
  }
  EXPECT_EQ(counter->load(), 0);
  // The shared_ptr capture was released with it.
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(EventTest, BlockingWaitCrossThreadWakeup) {
  Event ev;
  std::thread setter([&] { ev.Set(); });
  EXPECT_TRUE(ev.BlockingWait());
  setter.join();
}

TEST(EventTest, BlockingWaitDeadline) {
  Event ev;
  EXPECT_FALSE(ev.BlockingWait(NowNanos() + 20 * kMs));
}

TEST(ReactorTest, PostRunsInFifoOrder) {
  Reactor r("test");
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    r.Post([&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(r.ready_count(), 8u);
  EXPECT_EQ(r.PollOnce(), 8u);
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ReactorTest, TimersFireInDeadlineOrder) {
  Reactor r("test");
  std::vector<int> order;
  // Schedule out of order; both land within one wheel rotation.
  r.ScheduleAfter(30 * kMs, [&] { order.push_back(3); });
  r.ScheduleAfter(10 * kMs, [&] { order.push_back(1); });
  r.ScheduleAfter(20 * kMs, [&] { order.push_back(2); });
  EXPECT_EQ(r.pending_timers(), 3u);
  ASSERT_TRUE(DrainUntil(r, [&] { return order.size() == 3; }));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(r.pending_timers(), 0u);
}

TEST(ReactorTest, FarTimerBeyondOneRotationStillFires) {
  // 4 slots x 1ms tick = 4ms rotation; a 40ms timer wraps ten times.
  Reactor::Options opt;
  opt.slots = 4;
  Reactor r("test", opt);
  std::atomic<bool> fired{false};
  const int64_t start = NowNanos();
  r.ScheduleAfter(40 * kMs, [&] { fired = true; });
  ASSERT_TRUE(DrainUntil(r, [&] { return fired.load(); }));
  EXPECT_GE(NowNanos() - start, 40 * kMs);
}

TEST(ReactorTest, CancelPreventsFiring) {
  Reactor r("test");
  std::atomic<bool> fired{false};
  std::atomic<int> sibling_fires{0};
  const int64_t start = NowNanos();
  TimerId id = r.ScheduleAfter(10 * kMs, [&] { fired = true; });
  // Same delay, so the same wheel slot (barring a tick boundary between the
  // two calls): visiting it must drop the cancelled entry and still fire the
  // sibling, once.
  r.ScheduleAfter(10 * kMs, [&] { sibling_fires.fetch_add(1); });
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(r.Cancel(id));
  EXPECT_FALSE(r.Cancel(id));  // second cancel: already gone
  EXPECT_EQ(r.pending_timers(), 1u);
  ASSERT_TRUE(DrainUntil(r, [&] { return sibling_fires.load() > 0; }));
  // Within a tick or so of the deadline, not a wheel rotation (256 ms) late.
  EXPECT_LT(NowNanos() - start, 100 * kMs);
  // Drain well past the deadline; the cancelled continuation must never run.
  const int64_t until = NowNanos() + 30 * kMs;
  while (NowNanos() < until) {
    r.PollOnce();
  }
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(sibling_fires.load(), 1);
  EXPECT_EQ(r.pending_timers(), 0u);
}

// A timer that is cancelled after the hand has already lapped its slot a few
// times (4 slots: one rotation is 4 ms) is dropped on a later visit; its
// sibling in the same slot still fires once, no earlier than its deadline.
TEST(ReactorTest, CancelledMultiRotationTimerNeverFires) {
  Reactor::Options opt;
  opt.slots = 4;
  Reactor r("test", opt);
  std::atomic<bool> cancelled_fired{false};
  std::atomic<int> sibling_fires{0};
  const int64_t start = NowNanos();
  TimerId far = r.ScheduleAfter(200 * kMs, [&] { cancelled_fired = true; });
  r.ScheduleAfter(200 * kMs, [&] { sibling_fires.fetch_add(1); });
  DrainUntil(r, [&] { return NowNanos() - start >= 20 * kMs; });
  EXPECT_TRUE(r.Cancel(far));
  EXPECT_EQ(r.pending_timers(), 1u);
  ASSERT_TRUE(DrainUntil(r, [&] { return sibling_fires.load() > 0; }));
  EXPECT_GE(NowNanos() - start, 200 * kMs);
  const int64_t until = NowNanos() + 30 * kMs;
  while (NowNanos() < until) {
    r.PollOnce();
  }
  EXPECT_FALSE(cancelled_fired.load());
  EXPECT_EQ(sibling_fires.load(), 1);
  EXPECT_EQ(r.pending_timers(), 0u);
}

// A zero delay is due at once and a negative one is clamped to zero: both
// fire at the end of the current tick.
TEST(ReactorTest, ZeroAndNegativeDelayTimersFireOnTheNextTick) {
  Reactor r("test");
  std::atomic<int> fires{0};
  const int64_t start = NowNanos();
  EXPECT_NE(r.ScheduleAfter(0, [&] { fires.fetch_add(1); }), 0u);
  EXPECT_NE(r.ScheduleAfter(-50 * kMs, [&] { fires.fetch_add(1); }), 0u);
  ASSERT_TRUE(DrainUntil(r, [&] { return fires.load() == 2; }));
  EXPECT_LT(NowNanos() - start, 100 * kMs);
  EXPECT_EQ(r.pending_timers(), 0u);
}

// A timer body that schedules the next timer, as a retry backoff does each
// round: every link of the chain fires at or after its deadline and within a
// few ticks of it.
TEST(ReactorTest, TimerBodiesCanScheduleTheNextTimer) {
  Reactor r("test");
  r.Start(1);
  constexpr int kLinks = 5;
  std::atomic<int> fired{0};
  std::atomic<int> early{0};
  std::atomic<int> late{0};
  Event done;
  std::function<void()> arm = [&] {
    const int64_t deadline = NowNanos() + 5 * kMs;
    r.ScheduleAfter(5 * kMs, [&, deadline] {
      const int64_t lag = NowNanos() - deadline;
      if (lag < 0) {
        early.fetch_add(1);
      }
      if (lag >= 100 * kMs) {
        late.fetch_add(1);
      }
      if (fired.fetch_add(1) + 1 == kLinks) {
        done.Set();
      } else {
        arm();
      }
    });
  };
  arm();
  EXPECT_TRUE(done.BlockingWait(NowNanos() + 5'000 * kMs));
  r.Shutdown();
  EXPECT_EQ(fired.load(), kLinks);
  EXPECT_EQ(early.load(), 0);
  EXPECT_EQ(late.load(), 0);
}

// One driver, as the fabric's reactor has. A wheel that visits a slot while
// its tick is still running keeps a timer due later in that tick for a whole
// extra rotation; each of these timers must fire within a few ticks.
TEST(ReactorTest, TimersFireWithinATickOfTheirDeadline) {
  Reactor r("test");
  r.Start(1);
  for (int i = 0; i < 10; ++i) {
    auto fired_at = std::make_shared<std::atomic<int64_t>>(0);
    auto fired = std::make_shared<Event>();
    const int64_t deadline = NowNanos() + 10 * kMs;
    r.ScheduleAfter(10 * kMs, [fired_at, fired] {
      fired_at->store(NowNanos());
      fired->Set();
    });
    ASSERT_TRUE(fired->BlockingWait(NowNanos() + 5'000 * kMs)) << "timer " << i;
    EXPECT_GE(fired_at->load(), deadline) << "timer " << i;
    EXPECT_LT(fired_at->load() - deadline, 100 * kMs) << "timer " << i;
  }
  r.Shutdown();
}

TEST(ReactorTest, DriverThreadRunsPostedWork) {
  Reactor r("test");
  r.Start(2);
  EXPECT_EQ(r.num_threads(), 2u);
  Event done;
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    r.Post([&] {
      if (ran.fetch_add(1) + 1 == 100) {
        done.Set();
      }
    });
  }
  EXPECT_TRUE(done.BlockingWait(NowNanos() + 5'000 * kMs));
  EXPECT_EQ(ran.load(), 100);
  r.Shutdown();
  EXPECT_EQ(r.num_threads(), 0u);
}

// Posted work overlaps across drivers: each item waits (bounded at 2 s) until
// a second item has entered, so drivers that ran one item at a time would
// time out and record a peak of one.
TEST(ReactorTest, DriversRunPostedWorkConcurrently) {
  Reactor r("test");
  r.Start(4);
  constexpr int kItems = 4;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::atomic<int> finished{0};
  Event done;
  for (int i = 0; i < kItems; ++i) {
    r.Post([&] {
      const int now = concurrent.fetch_add(1) + 1;
      int old_peak = peak.load();
      while (now > old_peak && !peak.compare_exchange_weak(old_peak, now)) {
      }
      const int64_t deadline = NowNanos() + 2'000 * kMs;
      while (peak.load() < 2 && NowNanos() < deadline) {
        std::this_thread::yield();
      }
      concurrent.fetch_sub(1);
      if (finished.fetch_add(1) + 1 == kItems) {
        done.Set();
      }
    });
  }
  EXPECT_TRUE(done.BlockingWait(NowNanos() + 10'000 * kMs));
  EXPECT_GE(peak.load(), 2);
  r.Shutdown();
}

// The ready-queue is one FIFO: with a single driver, each producer's posts
// run in the order that producer made them, none lost or run twice.
TEST(ReactorTest, OneDriverRunsEachProducersPostsInOrder) {
  Reactor r("test");
  r.Start(1);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2'500;
  std::vector<int> next(kProducers, 0);  // touched only by the one driver
  std::atomic<int> out_of_order{0};
  std::atomic<int> ran{0};
  Event done;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        r.Post([&, p, i] {
          if (next[p] != i) {
            out_of_order.fetch_add(1);
          }
          next[p] = i + 1;
          if (ran.fetch_add(1) + 1 == kProducers * kPerProducer) {
            done.Set();
          }
        });
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_TRUE(done.BlockingWait(NowNanos() + 60'000 * kMs));
  r.Shutdown();
  EXPECT_EQ(out_of_order.load(), 0);
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next[p], kPerProducer) << "producer " << p;
  }
}

TEST(ReactorTest, BlockOnCrossThreadWakeup) {
  Reactor r("test");
  r.Start(1);
  auto ev = std::make_shared<Event>();
  // An external thread (not a driver) parks; a timer on the driver fires it.
  r.ScheduleAfter(5 * kMs, [ev] { ev->Set(); });
  EXPECT_TRUE(r.BlockOn(*ev));
  r.Shutdown();
}

TEST(ReactorTest, BlockOnFromDriverDrivesTheLoop) {
  // A continuation running ON the sole driver blocks on an event that only
  // later reactor work can set. Thread-per-wait would deadlock; the drain
  // shim must keep the loop moving.
  Reactor r("test");
  r.Start(1);
  Event outer;
  std::atomic<bool> nested_ok{false};
  r.Post([&] {
    auto inner = std::make_shared<Event>();
    r.ScheduleAfter(5 * kMs, [inner] { inner->Set(); });
    nested_ok = r.BlockOn(*inner);
    outer.Set();
  });
  EXPECT_TRUE(outer.BlockingWait(NowNanos() + 5'000 * kMs));
  EXPECT_TRUE(nested_ok.load());
  r.Shutdown();
}

TEST(ReactorTest, BlockOnWithNoDriversDrains) {
  Reactor r("test");
  auto ev = std::make_shared<Event>();
  r.ScheduleAfter(5 * kMs, [ev] { ev->Set(); });
  // No Start(): the caller itself must drive timers until the event fires.
  EXPECT_TRUE(r.BlockOn(*ev));
}

TEST(ReactorTest, BlockOnDeadline) {
  Reactor r("test");
  Event ev;
  EXPECT_FALSE(r.BlockOn(ev, NowNanos() + 20 * kMs));
}

// A BlockOn that exits on its deadline leaves its wake-up continuation on
// the caller-owned event, which here outlives the reactor. The wake-up holds
// only a weak gate (DESIGN.md §14): each iteration fires the event from
// another thread while ~Reactor expires the gate and waits out an in-flight
// wake-up, so ASan/TSan flag any touch of the freed reactor.
TEST(ReactorTest, EventOutlivingReactorAfterBlockOnTimeoutIsSafe) {
  for (int i = 0; i < 100; ++i) {
    Event ev;
    std::thread setter;
    {
      Reactor r("gate");
      EXPECT_FALSE(r.BlockOn(ev, NowNanos()));
      setter = std::thread([&ev] { ev.Set(); });
    }  // ~Reactor races the setter's wake-up
    setter.join();
    EXPECT_TRUE(ev.is_set());
  }
}

TEST(ReactorTest, GrowAndShrinkAdjustLogicalSize) {
  Reactor r("test");
  r.Start(1);
  r.Grow(3);
  EXPECT_EQ(r.num_threads(), 4u);
  r.Shrink(2);
  EXPECT_EQ(r.num_threads(), 2u);
  // Retired drivers are logically gone even while parked; surviving drivers
  // still run work.
  Event done;
  r.Post([&] { done.Set(); });
  EXPECT_TRUE(done.BlockingWait(NowNanos() + 5'000 * kMs));
  r.Shrink(10);  // floors at one running driver
  EXPECT_EQ(r.num_threads(), 1u);
  r.Shutdown();
  EXPECT_EQ(r.num_threads(), 0u);
}

TEST(ReactorTest, ShutdownDrainsReadyQueueButDropsTimers) {
  Reactor r("test");
  std::atomic<int> ran{0};
  std::atomic<bool> timer_ran{false};
  r.Post([&] { ran.fetch_add(1); });
  r.Post([&] { ran.fetch_add(1); });
  r.ScheduleAfter(3'600'000 * kMs, [&] { timer_ran = true; });  // 1h out
  r.Shutdown();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_FALSE(timer_ran.load());
  EXPECT_EQ(r.pending_timers(), 0u);
  // Post-shutdown submissions are rejected.
  EXPECT_FALSE(r.Post([] {}));
  EXPECT_EQ(r.ScheduleAfter(kMs, [] {}), 0u);
  r.Shutdown();  // idempotent
}

// Shutdown while the only driver is busy: the items queued behind it still
// run before Shutdown returns.
TEST(ReactorTest, ShutdownRunsWorkQueuedBehindABusyDriver) {
  Reactor r("test");
  r.Start(1);
  Event entered;
  Event release;
  std::atomic<int> ran{0};
  r.Post([&] {
    entered.Set();
    release.BlockingWait(NowNanos() + 5'000 * kMs);
  });
  EXPECT_TRUE(entered.BlockingWait(NowNanos() + 5'000 * kMs));
  for (int i = 0; i < 50; ++i) {
    r.Post([&] { ran.fetch_add(1); });
  }
  EXPECT_EQ(r.ready_count(), 50u);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    release.Set();
  });
  r.Shutdown();
  releaser.join();
  EXPECT_EQ(ran.load(), 50);
  EXPECT_EQ(r.ready_count(), 0u);
}

// Polling runs nothing, and returns at once, when nothing is queued and the
// only timer is not yet due.
TEST(ReactorTest, PollOnceRunsNothingWhenNothingIsDue) {
  Reactor r("test");
  EXPECT_EQ(r.PollOnce(), 0u);
  std::atomic<bool> fired{false};
  r.ScheduleAfter(3'600'000 * kMs, [&] { fired = true; });  // 1h out
  const int64_t start = NowNanos();
  EXPECT_EQ(r.PollOnce(), 0u);
  EXPECT_LT(NowNanos() - start, 1'000 * kMs);
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(r.pending_timers(), 1u);
  EXPECT_EQ(r.ready_count(), 0u);
}

// A thread parked in RunOne on an idle reactor is woken by Shutdown and
// reports the stop.
TEST(ReactorTest, ShutdownWakesAThreadParkedInRunOne) {
  Reactor r("test");
  std::atomic<bool> ran{true};
  Event returned;
  std::thread driver([&] {
    ran = r.RunOne();
    returned.Set();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(returned.is_set());
  r.Shutdown();
  EXPECT_TRUE(returned.BlockingWait(NowNanos() + 5'000 * kMs));
  driver.join();
  EXPECT_FALSE(ran.load());
}

TEST(ReactorTest, RunOneReturnsFalseAfterShutdown) {
  Reactor r("test");
  std::atomic<bool> got_false{false};
  std::thread driver([&] {
    while (r.RunOne()) {
    }
    got_false = true;
  });
  Event seen;
  r.Post([&] { seen.Set(); });
  EXPECT_TRUE(seen.BlockingWait(NowNanos() + 5'000 * kMs));
  r.Shutdown();
  driver.join();
  EXPECT_TRUE(got_false.load());
}

TEST(ReactorTest, StressManyOutstandingFutures) {
  // 100k outstanding Events resolved by wheel timers on a bounded driver
  // pool — the tentpole claim in miniature (the full version with latency
  // percentiles lives in bench/bench_reactor.cc).
  constexpr int kFutures = 100'000;
  Reactor r("stress");
  r.Start(2);
  auto remaining = std::make_shared<std::atomic<int>>(kFutures);
  Event all_done;
  std::vector<std::shared_ptr<Event>> events;
  events.reserve(kFutures);
  for (int i = 0; i < kFutures; ++i) {
    auto ev = std::make_shared<Event>();
    ev->OnSet([remaining, &all_done] {
      if (remaining->fetch_sub(1) == 1) {
        all_done.Set();
      }
    });
    events.push_back(ev);
    // Spread deadlines across ~64ms so every wheel slot gets traffic.
    r.ScheduleAfter((i % 64) * kMs, [ev] { ev->Set(); });
  }
  EXPECT_TRUE(all_done.BlockingWait(NowNanos() + 60'000 * kMs));
  EXPECT_EQ(remaining->load(), 0);
  for (const auto& ev : events) {
    EXPECT_TRUE(ev->is_set());
  }
  r.Shutdown();
}

TEST(ReactorTest, CrossThreadPostHammer) {
  // Many producers posting against a small driver pool; every continuation
  // must run exactly once.
  Reactor r("hammer");
  r.Start(3);
  static constexpr int kProducers = 8;
  static constexpr int kPerProducer = 2'000;
  auto count = std::make_shared<std::atomic<int>>(0);
  Event done;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        r.Post([count, &done] {
          if (count->fetch_add(1) + 1 == kProducers * kPerProducer) {
            done.Set();
          }
        });
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_TRUE(done.BlockingWait(NowNanos() + 60'000 * kMs));
  EXPECT_EQ(count->load(), kProducers * kPerProducer);
  r.Shutdown();
}

}  // namespace
}  // namespace skadi
