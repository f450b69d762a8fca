// Tests of the annotated Mutex, MutexLock and CondVar wrappers.
#include "src/common/mutex.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace skadi {
namespace {

using namespace std::chrono_literals;

// std::mutex::try_lock is undefined on a mutex the caller already holds, so
// every probe runs on a thread of its own. Returns whether the lock was free.
bool FreeElsewhere(Mutex& mu) {
  bool acquired = false;
  std::thread probe([&] {
    acquired = mu.TryLock();
    if (acquired) {
      mu.Unlock();
    }
  });
  probe.join();
  return acquired;
}

TEST(MutexTest, TryLockFailsWhileHeld) {
  Mutex mu;
  mu.Lock();
  EXPECT_FALSE(FreeElsewhere(mu));
  mu.Unlock();
  EXPECT_TRUE(FreeElsewhere(mu));
}

// Unlock/Lock drop the lock around a section; the destructor releases only
// what the scope still holds.
TEST(MutexTest, MutexLockDropsAndRetakesTheLock) {
  Mutex mu;
  {
    MutexLock lock(mu);
    EXPECT_FALSE(FreeElsewhere(mu));
    lock.Unlock();
    EXPECT_TRUE(FreeElsewhere(mu));
    lock.Lock();
    EXPECT_FALSE(FreeElsewhere(mu));
  }
  EXPECT_TRUE(FreeElsewhere(mu));
  {
    MutexLock lock(mu);
    lock.Unlock();
  }  // released early: the destructor must leave the mutex alone
  EXPECT_TRUE(FreeElsewhere(mu));
}

TEST(MutexTest, CondVarWaitForTimesOutHoldingTheLock) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  const auto start = std::chrono::steady_clock::now();
  // A spurious wakeup returns early with no_timeout: wait again.
  while (cv.WaitFor(lock, 20ms) == std::cv_status::no_timeout) {
  }
  EXPECT_GE(std::chrono::steady_clock::now() - start, 20ms);
  EXPECT_FALSE(FreeElsewhere(mu));
}

// NotifyAll wakes every waiter long before its deadline; each re-checks its
// condition under the lock.
TEST(MutexTest, CondVarNotifyAllWakesEveryWaiter) {
  constexpr int kWaiters = 3;
  Mutex mu;
  CondVar cv;
  int waiting = 0;
  bool open = false;
  int timed_out = 0;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(mu);
      ++waiting;
      cv.NotifyAll();
      while (!open) {
        if (cv.WaitUntil(lock, deadline) == std::cv_status::timeout) {
          ++timed_out;
          return;
        }
      }
    });
  }
  {
    MutexLock lock(mu);
    while (waiting < kWaiters) {
      cv.Wait(lock);
    }
    open = true;
  }
  cv.NotifyAll();
  for (std::thread& waiter : waiters) {
    waiter.join();
  }
  EXPECT_EQ(timed_out, 0);
}

}  // namespace
}  // namespace skadi
