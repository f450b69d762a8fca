// Unit tests of the push batcher: coalescing per (owner, destination) in
// Add order, size-threshold flush (max_batch 1 delivers every push inline),
// explicit FlushAll, and the batches/entries counters.
#include "src/net/push_batcher.h"

#include <gtest/gtest.h>

#include <vector>

namespace skadi {
namespace {

struct DeliveredBatch {
  NodeId owner;
  NodeId dst;
  std::vector<PushEntry> entries;
};

class PushBatcherTest : public ::testing::Test {
 protected:
  PushBatcher MakeBatcher(int max_batch) {
    return PushBatcher(
        [this](NodeId owner, NodeId dst, std::vector<PushEntry> entries) {
          delivered_.push_back({owner, dst, std::move(entries)});
        },
        max_batch);
  }

  static PushEntry Entry(NodeId dst) {
    return PushEntry{ObjectId::Next(), TaskId::Next(), dst};
  }

  std::vector<DeliveredBatch> delivered_;
};

TEST_F(PushBatcherTest, CoalescesPerDestinationUntilFlushAll) {
  PushBatcher batcher = MakeBatcher(/*max_batch=*/32);
  const NodeId owner(1), a(2), b(3);
  batcher.Add(owner, Entry(a));
  batcher.Add(owner, Entry(a));
  batcher.Add(owner, Entry(b));
  EXPECT_EQ(batcher.pending(), 3u);
  EXPECT_TRUE(delivered_.empty());  // below threshold

  batcher.FlushAll();
  EXPECT_EQ(batcher.pending(), 0u);
  ASSERT_EQ(delivered_.size(), 2u);  // one message per destination, not per push
  size_t total = 0;
  for (const DeliveredBatch& batch : delivered_) {
    EXPECT_EQ(batch.owner, owner);
    total += batch.entries.size();
  }
  EXPECT_EQ(total, 3u);
}

// Batches are keyed by (owner, destination): two owners pushing to one node
// send two messages, each from its own owner.
TEST_F(PushBatcherTest, BatchesAreKeyedByOwnerAndDestination) {
  PushBatcher batcher = MakeBatcher(/*max_batch=*/32);
  const NodeId owner_a(1), owner_b(2), dst(3);
  batcher.Add(owner_a, Entry(dst));
  batcher.Add(owner_b, Entry(dst));
  batcher.Add(owner_a, Entry(dst));
  batcher.FlushAll();
  ASSERT_EQ(delivered_.size(), 2u);
  size_t from_a = 0;
  size_t from_b = 0;
  for (const DeliveredBatch& batch : delivered_) {
    EXPECT_EQ(batch.dst, dst);
    (batch.owner == owner_a ? from_a : from_b) += batch.entries.size();
  }
  EXPECT_EQ(from_a, 2u);
  EXPECT_EQ(from_b, 1u);
}

// A batch carries its entries in Add order, the order the unbatched
// ablation would have sent them in.
TEST_F(PushBatcherTest, BatchKeepsEntriesInAddOrder) {
  PushBatcher batcher = MakeBatcher(/*max_batch=*/32);
  const NodeId owner(1), dst(2);
  std::vector<ObjectId> added;
  for (int i = 0; i < 5; ++i) {
    PushEntry entry = Entry(dst);
    added.push_back(entry.object);
    batcher.Add(owner, entry);
  }
  batcher.FlushAll();
  ASSERT_EQ(delivered_.size(), 1u);
  ASSERT_EQ(delivered_[0].entries.size(), added.size());
  for (size_t i = 0; i < added.size(); ++i) {
    EXPECT_EQ(delivered_[0].entries[i].object, added[i]);
  }
}

TEST_F(PushBatcherTest, SizeThresholdFlushesInline) {
  PushBatcher batcher = MakeBatcher(/*max_batch=*/2);
  const NodeId owner(1), dst(2);
  batcher.Add(owner, Entry(dst));
  EXPECT_TRUE(delivered_.empty());
  batcher.Add(owner, Entry(dst));  // hits max_batch: flushes on this call
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].entries.size(), 2u);
  EXPECT_EQ(batcher.pending(), 0u);

  // The threshold is per destination: a different dst keeps its own count.
  batcher.Add(owner, Entry(dst));
  batcher.Add(owner, Entry(NodeId(3)));
  EXPECT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(batcher.pending(), 2u);
  batcher.FlushAll();
  EXPECT_EQ(delivered_.size(), 3u);
}

// max_batch 1 is the runtime's unbatched ablation: every Add delivers its
// own one-entry batch inline, in Add order, and nothing is left pending.
TEST_F(PushBatcherTest, BatchOfOneDeliversEveryPushInline) {
  PushBatcher batcher = MakeBatcher(/*max_batch=*/1);
  const NodeId owner(1), dst(2);
  std::vector<ObjectId> added;
  for (int i = 0; i < 3; ++i) {
    PushEntry entry = Entry(dst);
    added.push_back(entry.object);
    batcher.Add(owner, entry);
    ASSERT_EQ(delivered_.size(), static_cast<size_t>(i + 1));
    EXPECT_EQ(batcher.pending(), 0u);
  }
  for (size_t i = 0; i < added.size(); ++i) {
    ASSERT_EQ(delivered_[i].entries.size(), 1u);
    EXPECT_EQ(delivered_[i].entries[0].object, added[i]);
  }
  batcher.FlushAll();
  EXPECT_EQ(delivered_.size(), 3u);
}

TEST_F(PushBatcherTest, CountsBatchesAndEntries) {
  PushBatcher batcher = MakeBatcher(/*max_batch=*/32);
  MetricsRegistry metrics;
  batcher.set_metrics(&metrics);
  const NodeId owner(1);
  for (int i = 0; i < 5; ++i) {
    batcher.Add(owner, Entry(NodeId(2)));
  }
  batcher.Add(owner, Entry(NodeId(3)));
  batcher.FlushAll();
  EXPECT_EQ(metrics.GetCounter("runtime.push_batches").value(), 2);
  EXPECT_EQ(metrics.GetCounter("runtime.push_batched_entries").value(), 6);
}

TEST_F(PushBatcherTest, FlushAllOnEmptyIsNoOp) {
  PushBatcher batcher = MakeBatcher(/*max_batch=*/32);
  batcher.FlushAll();
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(batcher.pending(), 0u);
}

}  // namespace
}  // namespace skadi
