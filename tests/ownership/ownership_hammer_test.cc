// Concurrency hammer for OwnershipTable: many threads drive the full record
// lifecycle against one table at once. Run under -DSKADI_SANITIZE=thread to
// turn any data race into a test failure; under the default build it still
// checks that concurrent mutation preserves the table's invariants.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/ownership/ownership_table.h"

namespace skadi {
namespace {

constexpr int kThreads = 8;
constexpr int kObjectsPerThread = 64;

TEST(OwnershipHammerTest, ConcurrentLifecycles) {
  OwnershipTable table(NodeId(1));
  std::atomic<int> ready_count{0};

  auto worker = [&](int tid) {
    NodeId location(100 + tid);
    for (int i = 0; i < kObjectsPerThread; ++i) {
      ObjectId id = ObjectId::Next();
      ASSERT_TRUE(table.RegisterObject(id, nullptr).ok());

      // Consumers registered while pending must be handed back by MarkReady.
      auto pre = table.RegisterConsumer(id, {TaskId::Next(), location, DeviceId()});
      ASSERT_TRUE(pre.ok());
      EXPECT_FALSE(*pre);  // still pending: caller must NOT push yet

      auto consumers = table.MarkReady(id, location, 64);
      ASSERT_TRUE(consumers.ok());
      EXPECT_EQ(consumers->size(), 1u);
      ready_count.fetch_add(1);

      ASSERT_TRUE(table.AddLocation(id, NodeId(200 + tid)).ok());

      auto reply = table.Resolve(id);
      ASSERT_TRUE(reply.ok());
      EXPECT_EQ(reply->state, ObjectState::kReady);
      ASSERT_TRUE(reply->location.has_value());

      // Ref-count churn: record survives until the final DecRef.
      ASSERT_TRUE(table.IncRef(id).ok());
      auto first = table.DecRef(id);
      ASSERT_TRUE(first.ok());
      EXPECT_FALSE(*first);
      auto last = table.DecRef(id);
      ASSERT_TRUE(last.ok());
      EXPECT_TRUE(*last);
      EXPECT_FALSE(table.Contains(id));
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(ready_count.load(), kThreads * kObjectsPerThread);
  EXPECT_EQ(table.size(), 0u);
}

TEST(OwnershipHammerTest, ConcurrentFailureAndRecovery) {
  OwnershipTable table(NodeId(1));
  const NodeId flaky(7);
  const NodeId stable(8);

  // Writers keep producing objects on the flaky node; one thread keeps
  // failing it; recoverers re-arm whatever went lost. The table must stay
  // internally consistent (every record pending, ready, or lost — never
  // ready with zero locations).
  std::atomic<bool> stop{false};
  std::atomic<int> produced{0};
  std::vector<ObjectId> ids(kThreads * kObjectsPerThread);

  auto producer = [&](int tid) {
    for (int i = 0; i < kObjectsPerThread; ++i) {
      ObjectId id = ObjectId::Next();
      ids[tid * kObjectsPerThread + i] = id;
      ASSERT_TRUE(table.RegisterObject(id, nullptr).ok());
      ASSERT_TRUE(table.MarkReady(id, flaky, 32).ok());
      produced.fetch_add(1);
    }
  };
  auto failer = [&] {
    while (!stop.load()) {
      std::vector<ObjectId> lost = table.OnNodeFailure(flaky);
      for (ObjectId id : lost) {
        // Concurrent DecRef/recovery may have removed or re-armed it; any
        // status outcome is fine, the table just must not corrupt itself.
        // analyze:allow status-propagation (any status is fine under the race)
        Status s = table.MarkPendingForReconstruction(id);
        if (s.ok()) {
          ASSERT_TRUE(table.MarkReady(id, stable, 32).ok());
        }
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(failer);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(producer, t);
  for (size_t t = 1; t < threads.size(); ++t) threads[t].join();
  stop.store(true);
  threads[0].join();

  EXPECT_EQ(produced.load(), kThreads * kObjectsPerThread);
  // Quiesced: every surviving record resolves without crashing, and ready
  // records report a location.
  int ready = 0, lost = 0;
  for (ObjectId id : ids) {
    if (!table.Contains(id)) continue;
    auto reply = table.Resolve(id);
    ASSERT_TRUE(reply.ok());
    if (reply->state == ObjectState::kReady) {
      EXPECT_TRUE(reply->location.has_value());
      ++ready;
    } else if (reply->state == ObjectState::kLost) {
      ++lost;
    }
  }
  EXPECT_EQ(ready + lost, kThreads * kObjectsPerThread);
}

// Watch/ready storm across shard counts: watcher threads race StateOrWatch
// against marker threads flipping objects ready. Every watcher that saw
// kPending (and therefore registered) must fire exactly once; watchers that
// saw a terminal state must not fire. Run at 1 shard (degenerate single-lock
// table) and 8 shards (default) so the sharded path and the baseline obey
// the same contract under TSan.
class ShardedWatchStormTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedWatchStormTest, WatchersFireExactlyOnce) {
  const int shards = GetParam();
  MetricsRegistry metrics;
  OwnershipTable table(NodeId(1), shards);
  table.set_metrics(&metrics);
  ASSERT_EQ(table.num_shards(), shards);

  constexpr int kObjects = 256;
  std::vector<ObjectId> ids;
  for (int i = 0; i < kObjects; ++i) {
    ObjectId id = ObjectId::Next();
    ids.push_back(id);
    ASSERT_TRUE(table.RegisterObject(id, nullptr).ok());
  }

  std::atomic<int> registered{0};  // watchers that saw kPending
  std::atomic<int> fired{0};       // watcher continuations actually run
  std::atomic<int> terminal{0};    // watchers that saw ready (dropped unrun)

  auto watcher = [&] {
    for (ObjectId id : ids) {
      auto state = table.StateOrWatch(id, [&fired] { fired.fetch_add(1); });
      ASSERT_TRUE(state.ok());
      if (*state == ObjectState::kPending) {
        registered.fetch_add(1);
      } else {
        ASSERT_EQ(*state, ObjectState::kReady);
        terminal.fetch_add(1);
      }
    }
  };
  auto marker = [&](int tid) {
    // Stripe the markers so every object is marked ready exactly once.
    for (int i = tid; i < kObjects; i += kThreads / 2) {
      ASSERT_TRUE(table.MarkReady(ids[static_cast<size_t>(i)], NodeId(9), 64).ok());
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads / 2; ++t) threads.emplace_back(watcher);
  for (int t = 0; t < kThreads / 2; ++t) threads.emplace_back(marker, t);
  for (auto& t : threads) t.join();

  // No reactor wired: watchers ran inline on the marking thread, so by join
  // time every registered watcher has fired — exactly once each.
  EXPECT_EQ(fired.load(), registered.load());
  EXPECT_EQ(registered.load() + terminal.load(), (kThreads / 2) * kObjects);

  // The contention meter is wired: under the single-lock table the storm
  // above virtually guarantees collisions; sharded it merely must not crash.
  int64_t waits = metrics.GetCounter("ownership.shard_lock_waits").value();
  EXPECT_GE(waits, 0);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedWatchStormTest,
                         ::testing::Values(1, 8));

}  // namespace
}  // namespace skadi
