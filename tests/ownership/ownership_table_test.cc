#include "src/ownership/ownership_table.h"

#include <atomic>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/runtime/task.h"

namespace skadi {
namespace {

class OwnershipTableTest : public ::testing::Test {
 protected:
  OwnershipTableTest() : owner_(NodeId::Next()), table_(owner_) {}

  ObjectId Register() {
    ObjectId id = ObjectId::Next();
    EXPECT_TRUE(table_.RegisterObject(id, nullptr).ok());
    return id;
  }

  NodeId owner_;
  OwnershipTable table_;
};

TEST_F(OwnershipTableTest, RegisterStartsPending) {
  ObjectId id = Register();
  auto reply = table_.Resolve(id);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->state, ObjectState::kPending);
  EXPECT_FALSE(reply->location.has_value());
}

TEST_F(OwnershipTableTest, DuplicateRegisterFails) {
  ObjectId id = Register();
  EXPECT_EQ(table_.RegisterObject(id, nullptr).code(), StatusCode::kAlreadyExists);
}

TEST_F(OwnershipTableTest, MarkReadyRecordsLocationAndDevice) {
  ObjectId id = Register();
  NodeId loc = NodeId::Next();
  DeviceId dev = DeviceId::Next();
  auto consumers = table_.MarkReady(id, loc, 512, dev, 0xBEEF);
  ASSERT_TRUE(consumers.ok());
  EXPECT_TRUE(consumers->empty());

  auto reply = table_.Resolve(id);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->state, ObjectState::kReady);
  EXPECT_EQ(*reply->location, loc);
  EXPECT_EQ(reply->size_bytes, 512);
  EXPECT_EQ(reply->device, dev);
  EXPECT_EQ(reply->device_handle, 0xBEEFu);
}

TEST_F(OwnershipTableTest, ResolveUnknownFails) {
  EXPECT_EQ(table_.Resolve(ObjectId::Next()).status().code(), StatusCode::kNotFound);
}

TEST_F(OwnershipTableTest, ConsumersRegisteredWhilePendingReturnedOnReady) {
  ObjectId id = Register();
  ConsumerRegistration c1{TaskId::Next(), NodeId::Next(), DeviceId::Next()};
  ConsumerRegistration c2{TaskId::Next(), NodeId::Next(), DeviceId::Next()};
  auto r1 = table_.RegisterConsumer(id, c1);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(*r1);  // pending: parked
  ASSERT_TRUE(table_.RegisterConsumer(id, c2).ok());

  auto consumers = table_.MarkReady(id, NodeId::Next(), 1);
  ASSERT_TRUE(consumers.ok());
  ASSERT_EQ(consumers->size(), 2u);
  EXPECT_EQ((*consumers)[0].task, c1.task);
  EXPECT_EQ((*consumers)[1].task, c2.task);
}

TEST_F(OwnershipTableTest, ConsumerAfterReadyPushesImmediately) {
  ObjectId id = Register();
  ASSERT_TRUE(table_.MarkReady(id, NodeId::Next(), 1).ok());
  auto r = table_.RegisterConsumer(id, {TaskId::Next(), NodeId::Next(), DeviceId::Next()});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST_F(OwnershipTableTest, NodeFailureMarksLastCopyLost) {
  ObjectId id = Register();
  NodeId loc = NodeId::Next();
  ASSERT_TRUE(table_.MarkReady(id, loc, 1).ok());
  auto lost = table_.OnNodeFailure(loc);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], id);
  EXPECT_EQ(table_.Resolve(id)->state, ObjectState::kLost);
}

TEST_F(OwnershipTableTest, ReplicaLocationSurvivesFailure) {
  ObjectId id = Register();
  NodeId loc1 = NodeId::Next();
  NodeId loc2 = NodeId::Next();
  ASSERT_TRUE(table_.MarkReady(id, loc1, 1).ok());
  ASSERT_TRUE(table_.AddLocation(id, loc2).ok());
  auto lost = table_.OnNodeFailure(loc1);
  EXPECT_TRUE(lost.empty());
  auto reply = table_.Resolve(id);
  EXPECT_EQ(reply->state, ObjectState::kReady);
  EXPECT_EQ(*reply->location, loc2);
}

TEST_F(OwnershipTableTest, ReconstructionReArmsLostObject) {
  ObjectId id = ObjectId::Next();
  auto producer = std::make_shared<const TaskSpec>();
  ASSERT_TRUE(table_.RegisterObject(id, producer).ok());
  NodeId loc = NodeId::Next();
  ASSERT_TRUE(table_.MarkReady(id, loc, 1).ok());
  table_.OnNodeFailure(loc);
  ASSERT_TRUE(table_.MarkPendingForReconstruction(id).ok());
  auto reply = table_.Resolve(id);
  EXPECT_EQ(reply->state, ObjectState::kPending);
  EXPECT_EQ(reply->producer, producer);  // the same lineage re-runs
}

TEST_F(OwnershipTableTest, ReconstructionRequiresLostState) {
  ObjectId id = Register();
  EXPECT_EQ(table_.MarkPendingForReconstruction(id).code(), StatusCode::kFailedPrecondition);
}

TEST_F(OwnershipTableTest, WaitReadyBlocksUntilMarkReady) {
  ObjectId id = Register();
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (void)table_.MarkReady(id, NodeId::Next(), 1);  // asserts don't work off-thread
  });
  auto state = table_.WaitReady(id, 2000);
  producer.join();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, ObjectState::kReady);
}

TEST_F(OwnershipTableTest, WaitReadyTimesOut) {
  ObjectId id = Register();
  auto state = table_.WaitReady(id, 20);
  EXPECT_EQ(state.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(OwnershipTableTest, WaitReadyWakesOnLoss) {
  ObjectId id = Register();
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(table_.MarkLost(id).ok());
  });
  auto state = table_.WaitReady(id, 2000);
  killer.join();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, ObjectState::kLost);
}

TEST_F(OwnershipTableTest, RefCountingRemovesAtZero) {
  ObjectId id = Register();
  ASSERT_TRUE(table_.IncRef(id).ok());  // count = 2
  auto first = table_.DecRef(id);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(*first);
  auto second = table_.DecRef(id);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(*second);
  EXPECT_FALSE(table_.Contains(id));
}

TEST_F(OwnershipTableTest, StateOrWatchReturnsStateWithoutWatcherWhenResolved) {
  ObjectId id = Register();
  ASSERT_TRUE(table_.MarkReady(id, NodeId::Next(), 1).ok());
  bool fired = false;
  auto state = table_.StateOrWatch(id, [&] { fired = true; });
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, ObjectState::kReady);
  // Non-pending: the watcher is dropped, never armed.
  EXPECT_FALSE(fired);
}

TEST_F(OwnershipTableTest, StateOrWatchUnknownObjectIsNotFound) {
  auto state = table_.StateOrWatch(ObjectId::Next(), [] {});
  EXPECT_EQ(state.status().code(), StatusCode::kNotFound);
}

TEST_F(OwnershipTableTest, StateOrWatchFiresOnceOnMarkReady) {
  ObjectId id = Register();
  int fires = 0;
  auto state = table_.StateOrWatch(id, [&] { ++fires; });
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, ObjectState::kPending);
  EXPECT_EQ(fires, 0);
  ASSERT_TRUE(table_.MarkReady(id, NodeId::Next(), 1).ok());
  EXPECT_EQ(fires, 1);
  // A later state change must not re-fire a consumed watcher.
  ASSERT_TRUE(table_.MarkLost(id).ok());
  EXPECT_EQ(fires, 1);
}

TEST_F(OwnershipTableTest, StateOrWatchFiresOnLossAndRelease) {
  ObjectId lost = Register();
  int lost_fires = 0;
  ASSERT_TRUE(table_.StateOrWatch(lost, [&] { ++lost_fires; }).ok());
  ASSERT_TRUE(table_.MarkLost(lost).ok());
  EXPECT_EQ(lost_fires, 1);

  ObjectId released = Register();
  int release_fires = 0;
  ASSERT_TRUE(table_.StateOrWatch(released, [&] { ++release_fires; }).ok());
  auto removed = table_.DecRef(released);
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(*removed);
  // Release fires watchers so parked waiters re-probe and see NotFound.
  EXPECT_EQ(release_fires, 1);
  EXPECT_EQ(table_.StateOrWatch(released, [] {}).status().code(),
            StatusCode::kNotFound);
}

// Watchers run inline on the thread that flips the state, whichever flip it
// is; a wired reactor (WaitReady's) does not change that.
TEST_F(OwnershipTableTest, WatchersRunOnTheThreadThatFlipsTheState) {
  Reactor reactor("test");
  table_.set_reactor(&reactor);
  const ObjectId ready = Register();
  const ObjectId lost = Register();
  const ObjectId released = Register();
  std::thread::id ran_on[3];
  for (int i = 0; i < 3; ++i) {
    const ObjectId id = i == 0 ? ready : i == 1 ? lost : released;
    ASSERT_TRUE(table_.StateOrWatch(id, [&ran_on, i] {
                        ran_on[i] = std::this_thread::get_id();
                      }).ok());
  }
  std::thread::id flipper;
  std::thread t([&] {
    flipper = std::this_thread::get_id();
    EXPECT_TRUE(table_.MarkReady(ready, NodeId::Next(), 1).ok());
    EXPECT_TRUE(table_.MarkLost(lost).ok());
    auto removed = table_.DecRef(released);
    EXPECT_TRUE(removed.ok() && *removed);
  });
  t.join();
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, flipper);
  }
  EXPECT_EQ(reactor.ready_count(), 0u);  // nothing was posted
}

TEST_F(OwnershipTableTest, ObjectsInStateFilters) {
  ObjectId pending = Register();
  ObjectId ready = Register();
  ASSERT_TRUE(table_.MarkReady(ready, NodeId::Next(), 1).ok());
  auto pendings = table_.ObjectsInState(ObjectState::kPending);
  auto readys = table_.ObjectsInState(ObjectState::kReady);
  ASSERT_EQ(pendings.size(), 1u);
  EXPECT_EQ(pendings[0], pending);
  ASSERT_EQ(readys.size(), 1u);
  EXPECT_EQ(readys[0], ready);
  EXPECT_EQ(table_.size(), 2u);
}

// Teardown race: destroy a table while half its watchers have fired and
// queued their continuations on a reactor (as GetOp's watcher posts its
// Step) and the other half are still registered. Queued continuations own
// their state via a captured shared_ptr (the DESIGN.md §14 idiom) so they
// may run after the table dies; never-fired watchers must be dropped
// without running. ASan flags any continuation that touches freed table
// state.
TEST_F(OwnershipTableTest, TeardownWithQueuedAndUnfiredWatchers) {
  Reactor reactor("teardown");
  auto fired = std::make_shared<std::atomic<int>>(0);
  {
    OwnershipTable table(NodeId::Next());
    for (int i = 0; i < 8; ++i) {
      ObjectId id = ObjectId::Next();
      ASSERT_TRUE(table.RegisterObject(id, nullptr).ok());
      ASSERT_TRUE(table
                      .StateOrWatch(id,
                                    [&reactor, fired] {
                                      reactor.Post([fired] { fired->fetch_add(1); });
                                    })
                      .ok());
      if (i % 2 == 0) {
        // The watcher runs here and queues its continuation on the reactor.
        ASSERT_TRUE(table.MarkReady(id, NodeId::Next(), 1).ok());
      }
    }
    EXPECT_EQ(fired->load(), 0);
  }  // table destroyed: 4 continuations queued on the reactor, 4 never fired
  const int64_t deadline = NowNanos() + 1'000'000'000;
  while (NowNanos() < deadline && fired->load() < 4) {
    reactor.PollOnce();
  }
  EXPECT_EQ(fired->load(), 4);  // queued ones run; dropped ones never do
}

}  // namespace
}  // namespace skadi
