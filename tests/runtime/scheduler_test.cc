// Unit tests of the centralized scheduler's placement policies, parking and
// gang logic, using a fake dispatch function that records targets and a
// standalone ownership table whose records gate the parked tasks.
#include "src/runtime/scheduler.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

namespace skadi {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : topo_(std::make_shared<Topology>()) {
    for (int i = 0; i < 4; ++i) {
      NodeInfo info;
      info.id = NodeId::Next();
      info.role = NodeRole::kServer;
      info.rack = i / 2;
      EXPECT_TRUE(topo_->AddNode(info).ok());
      node_ids_.push_back(info.id);
    }
    fabric_ = std::make_unique<Fabric>(topo_);
    cache_ = std::make_unique<CachingLayer>(fabric_.get());
    for (NodeId n : node_ids_) {
      cache_->RegisterStore(n, std::make_shared<LocalObjectStore>(DeviceId::Next(),
                                                                  1LL << 30));
    }
  }

  // Parks tasks on table_'s records (every ref's owner in these tests).
  Scheduler::WatchFn Watch() {
    return [this](const ObjectRef& ref, Continuation on_resolved) {
      return table_.StateOrWatch(ref.id, std::move(on_resolved));
    };
  }

  std::vector<SchedulableNode> Nodes(DeviceKind kind = DeviceKind::kCpu,
                                     int workers = 2) const {
    std::vector<SchedulableNode> nodes;
    for (NodeId n : node_ids_) {
      nodes.push_back(SchedulableNode{n, kind, NodeId(), workers});
    }
    return nodes;
  }

  std::unique_ptr<Scheduler> MakeScheduler(SchedulingPolicy policy,
                                           DeviceKind kind = DeviceKind::kCpu,
                                           int workers = 2) {
    return std::make_unique<Scheduler>(
        cache_.get(), &metrics_, policy, Nodes(kind, workers),
        [this](const TaskSpec& spec, NodeId target) {
          dispatched_.emplace_back(spec.id, target);
          return dispatch_result_;
        },
        Watch());
  }

  TaskSpec MakeTask(std::vector<TaskArg> args = {}) {
    TaskSpec spec;
    spec.id = TaskId::Next();
    spec.function = "f";
    spec.args = std::move(args);
    return spec;
  }

  // A pending record in table_.
  ObjectId Register() {
    ObjectId id = ObjectId::Next();
    EXPECT_TRUE(table_.RegisterObject(id, nullptr).ok());
    return id;
  }

  void MarkReady(ObjectId id, int64_t size = 1) {
    ASSERT_TRUE(table_.MarkReady(id, size).ok());
  }

  static TaskArg Arg(ObjectId id) { return TaskArg::Ref(ObjectRef{id, NodeId()}); }

  std::shared_ptr<Topology> topo_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<CachingLayer> cache_;
  MetricsRegistry metrics_;
  OwnershipTable table_{NodeId::Next()};
  std::vector<NodeId> node_ids_;
  std::vector<std::pair<TaskId, NodeId>> dispatched_;
  Status dispatch_result_ = Status::Ok();
};

TEST_F(SchedulerTest, RoundRobinCycles) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(scheduler->Submit(MakeTask()).ok());
  }
  ASSERT_EQ(dispatched_.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(dispatched_[static_cast<size_t>(i)].second,
              node_ids_[static_cast<size_t>(i) % 4]);
  }
}

TEST_F(SchedulerTest, LoadAwarePicksIdleNode) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kLoadAware);
  // Three tasks: all different nodes (load rises as tasks stay in flight).
  ASSERT_TRUE(scheduler->Submit(MakeTask()).ok());
  ASSERT_TRUE(scheduler->Submit(MakeTask()).ok());
  ASSERT_TRUE(scheduler->Submit(MakeTask()).ok());
  std::set<NodeId> targets;
  for (auto& [task, node] : dispatched_) {
    targets.insert(node);
  }
  EXPECT_EQ(targets.size(), 3u);
}

TEST_F(SchedulerTest, LoadRebalancesAfterFinish) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kLoadAware);
  TaskSpec first = MakeTask();
  TaskId first_id = first.id;
  ASSERT_TRUE(scheduler->Submit(std::move(first)).ok());
  NodeId first_node = dispatched_[0].second;
  scheduler->OnTaskFinished(first_id);
  EXPECT_EQ(scheduler->inflight_on(first_node), 0);
}

TEST_F(SchedulerTest, LocalityFollowsBytes) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kLocalityAware);
  // Put a big object on node 2, small on node 0.
  ObjectId big = Register();
  ObjectId small = Register();
  ASSERT_TRUE(cache_->Put(big, Buffer::Zeros(1024 * 1024), node_ids_[2]).ok());
  ASSERT_TRUE(cache_->Put(small, Buffer::Zeros(64), node_ids_[0]).ok());
  MarkReady(big, 1024 * 1024);
  MarkReady(small, 64);

  ASSERT_TRUE(scheduler->Submit(MakeTask({Arg(big), Arg(small)})).ok());
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0].second, node_ids_[2]);
}

TEST_F(SchedulerTest, PinnedNodeOverridesPolicy) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  TaskSpec spec = MakeTask();
  spec.pinned_node = node_ids_[3];
  ASSERT_TRUE(scheduler->Submit(std::move(spec)).ok());
  EXPECT_EQ(dispatched_[0].second, node_ids_[3]);
}

TEST_F(SchedulerTest, RequiredDeviceFiltersCandidates) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin, DeviceKind::kCpu);
  TaskSpec spec = MakeTask();
  spec.required_device = DeviceKind::kGpu;  // nothing matches
  ASSERT_TRUE(scheduler->Submit(std::move(spec)).ok());
  EXPECT_TRUE(dispatched_.empty());
  EXPECT_EQ(metrics_.GetCounter("scheduler.unschedulable").value(), 1);
}

TEST_F(SchedulerTest, ParksUntilDependencyReady) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  ObjectId dep = Register();
  ASSERT_TRUE(scheduler->Submit(MakeTask({Arg(dep)})).ok());
  EXPECT_TRUE(dispatched_.empty());
  EXPECT_EQ(scheduler->pending_tasks(), 1u);
  EXPECT_EQ(metrics_.GetCounter("scheduler.parked").value(), 1);
  MarkReady(dep);
  EXPECT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(scheduler->pending_tasks(), 0u);
  // A task on an already-ready argument is admitted at submit.
  ASSERT_TRUE(scheduler->Submit(MakeTask({Arg(dep)})).ok());
  EXPECT_EQ(dispatched_.size(), 2u);
  EXPECT_EQ(metrics_.GetCounter("scheduler.parked").value(), 1);
}

TEST_F(SchedulerTest, MultiDepTaskWaitsForAll) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  ObjectId a = Register();
  ObjectId b = Register();
  ASSERT_TRUE(scheduler->Submit(MakeTask({Arg(a), Arg(b)})).ok());
  MarkReady(a);
  EXPECT_TRUE(dispatched_.empty());
  MarkReady(b);
  EXPECT_EQ(dispatched_.size(), 1u);
}

// A released argument (its last reference dropped while the task waits)
// admits the task, which then fails at argument resolution instead of
// parking forever.
TEST_F(SchedulerTest, ReleasedArgumentAdmitsParkedTask) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  ObjectId dep = Register();
  ASSERT_TRUE(scheduler->Submit(MakeTask({Arg(dep)})).ok());
  EXPECT_TRUE(dispatched_.empty());
  auto removed = table_.DecRef(dep);
  ASSERT_TRUE(removed.ok());
  ASSERT_TRUE(*removed);
  EXPECT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(scheduler->pending_tasks(), 0u);
  // Submitted after the release: admitted at once.
  ASSERT_TRUE(scheduler->Submit(MakeTask({Arg(dep)})).ok());
  EXPECT_EQ(dispatched_.size(), 2u);
}

TEST_F(SchedulerTest, LostArgumentAdmitsParkedTask) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  ObjectId dep = Register();
  ObjectId other = Register();
  ASSERT_TRUE(scheduler->Submit(MakeTask({Arg(dep), Arg(other)})).ok());
  ASSERT_TRUE(table_.MarkLost(dep).ok());
  EXPECT_TRUE(dispatched_.empty());  // `other` is still pending
  ASSERT_TRUE(table_.MarkLost(other).ok());
  EXPECT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(scheduler->pending_tasks(), 0u);
}

TEST_F(SchedulerTest, GangMemberCountsOnlyOnceItsArgumentsResolve) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  ObjectId dep = Register();
  TaskSpec waiting = MakeTask({Arg(dep)});
  waiting.gang_group = "g";
  waiting.gang_size = 2;
  TaskSpec ready = MakeTask();
  ready.gang_group = "g";
  ready.gang_size = 2;
  ASSERT_TRUE(scheduler->Submit(std::move(waiting)).ok());
  ASSERT_TRUE(scheduler->Submit(std::move(ready)).ok());
  // Both submitted, but only one member is admitted: the gang waits.
  EXPECT_TRUE(dispatched_.empty());
  EXPECT_EQ(scheduler->pending_tasks(), 2u);
  EXPECT_EQ(metrics_.GetCounter("scheduler.gang_buffered").value(), 1);
  MarkReady(dep);
  EXPECT_EQ(dispatched_.size(), 2u);
  EXPECT_EQ(scheduler->pending_tasks(), 0u);
  EXPECT_EQ(metrics_.GetCounter("scheduler.gangs_dispatched").value(), 1);
}

TEST_F(SchedulerTest, GangHeldUntilComplete) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec = MakeTask();
    spec.gang_group = "g";
    spec.gang_size = 4;
    ASSERT_TRUE(scheduler->Submit(std::move(spec)).ok());
    EXPECT_TRUE(dispatched_.empty());
  }
  TaskSpec last = MakeTask();
  last.gang_group = "g";
  last.gang_size = 4;
  ASSERT_TRUE(scheduler->Submit(std::move(last)).ok());
  EXPECT_EQ(dispatched_.size(), 4u);
  EXPECT_EQ(metrics_.GetCounter("scheduler.gangs_dispatched").value(), 1);
}

TEST_F(SchedulerTest, GangWaitsForSlots) {
  // 4 nodes x 1 worker = 4 slots; occupy 2, gang of 4 must wait.
  auto scheduler = MakeScheduler(SchedulingPolicy::kLoadAware, DeviceKind::kCpu, 1);
  TaskSpec f1 = MakeTask();
  TaskSpec f2 = MakeTask();
  TaskId f1_id = f1.id;
  TaskId f2_id = f2.id;
  ASSERT_TRUE(scheduler->Submit(std::move(f1)).ok());
  ASSERT_TRUE(scheduler->Submit(std::move(f2)).ok());
  dispatched_.clear();

  for (int i = 0; i < 4; ++i) {
    TaskSpec spec = MakeTask();
    spec.gang_group = "spmd";
    spec.gang_size = 4;
    ASSERT_TRUE(scheduler->Submit(std::move(spec)).ok());
  }
  EXPECT_TRUE(dispatched_.empty());  // only 2 free slots

  scheduler->OnTaskFinished(f1_id);
  EXPECT_TRUE(dispatched_.empty());  // 3 free: still short
  scheduler->OnTaskFinished(f2_id);
  EXPECT_EQ(dispatched_.size(), 4u);  // all-or-nothing release
}

TEST_F(SchedulerTest, TwoGangsDispatchIndependently) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  for (const char* group : {"g1", "g2"}) {
    for (int i = 0; i < 2; ++i) {
      TaskSpec spec = MakeTask();
      spec.gang_group = group;
      spec.gang_size = 2;
      ASSERT_TRUE(scheduler->Submit(std::move(spec)).ok());
    }
  }
  EXPECT_EQ(dispatched_.size(), 4u);
  EXPECT_EQ(metrics_.GetCounter("scheduler.gangs_dispatched").value(), 2);
}

TEST_F(SchedulerTest, NodeFailureRedispatchesInflight) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  ASSERT_TRUE(scheduler->Submit(MakeTask()).ok());
  ASSERT_EQ(dispatched_.size(), 1u);
  NodeId victim = dispatched_[0].second;
  dispatched_.clear();
  scheduler->OnNodeFailure(victim);
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_NE(dispatched_[0].second, victim);
}

TEST_F(SchedulerTest, DispatchFailureRetriesElsewhere) {
  // First dispatch attempt fails; scheduler must drop the node and retry.
  int calls = 0;
  auto failing = std::make_unique<Scheduler>(
      cache_.get(), &metrics_, SchedulingPolicy::kRoundRobin, Nodes(),
      [this, &calls](const TaskSpec& spec, NodeId target) -> Status {
        ++calls;
        if (calls == 1) {
          return Status::Unavailable("node died");
        }
        dispatched_.emplace_back(spec.id, target);
        return Status::Ok();
      },
      Watch());
  ASSERT_TRUE(failing->Submit(MakeTask()).ok());
  EXPECT_EQ(calls, 2);
  ASSERT_EQ(dispatched_.size(), 1u);
}

// KillNode marks the raylet dead before OnNodeFailure sweeps the node's
// in-flight records, so a dispatch can fail after the sweep has already
// failed its attempt over. Only the sweep may place the task again.
TEST_F(SchedulerTest, FailedDispatchRacingNodeFailureRunsTaskOnce) {
  Scheduler* scheduler_ptr = nullptr;
  bool first = true;
  auto scheduler = std::make_unique<Scheduler>(
      cache_.get(), &metrics_, SchedulingPolicy::kRoundRobin, Nodes(),
      [&](const TaskSpec& spec, NodeId target) -> Status {
        if (first) {
          first = false;
          scheduler_ptr->OnNodeFailure(target);
          return Status::Unavailable("node died");
        }
        dispatched_.emplace_back(spec.id, target);
        return Status::Ok();
      },
      Watch());
  scheduler_ptr = scheduler.get();
  TaskSpec spec = MakeTask();
  const TaskId id = spec.id;
  ASSERT_TRUE(scheduler->Submit(std::move(spec)).ok());
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_NE(dispatched_[0].second, node_ids_[0]);
  EXPECT_EQ(metrics_.GetCounter("scheduler.failover_redispatches").value(), 1);

  scheduler->OnTaskFinished(id);
  for (NodeId n : node_ids_) {
    EXPECT_EQ(scheduler->inflight_on(n), 0) << n;
  }
}

// The scheduler stages nothing: a ready task is dispatched by the thread that
// submits it, and a parked one by the thread that resolves its last argument.
TEST_F(SchedulerTest, AdmittingThreadDispatches) {
  std::vector<std::thread::id> dispatchers;
  auto scheduler = std::make_unique<Scheduler>(
      cache_.get(), &metrics_, SchedulingPolicy::kRoundRobin, Nodes(),
      [&](const TaskSpec&, NodeId) {
        dispatchers.push_back(std::this_thread::get_id());
        return Status::Ok();
      },
      Watch());
  ASSERT_TRUE(scheduler->Submit(MakeTask()).ok());
  ASSERT_EQ(dispatchers.size(), 1u);
  EXPECT_EQ(dispatchers[0], std::this_thread::get_id());

  ObjectId dep = Register();
  ASSERT_TRUE(scheduler->Submit(MakeTask({Arg(dep)})).ok());
  EXPECT_EQ(dispatchers.size(), 1u);
  std::thread::id resolver_id;
  std::thread resolver([&] {
    resolver_id = std::this_thread::get_id();
    EXPECT_TRUE(table_.MarkReady(dep, 1).ok());
  });
  resolver.join();
  ASSERT_EQ(dispatchers.size(), 2u);
  EXPECT_EQ(dispatchers[1], resolver_id);
}

// The in-flight record exists before the dispatch function runs, and no
// scheduler lock is held while it does: a worker that finishes the task
// before dispatch returns frees its slot (and may release a gang) instead of
// deadlocking or leaving a record that nothing erases.
TEST_F(SchedulerTest, TaskFinishingBeforeDispatchReturnsFreesItsSlot) {
  Scheduler* scheduler_ptr = nullptr;
  std::vector<int64_t> inflight_during_dispatch;
  auto scheduler = std::make_unique<Scheduler>(
      cache_.get(), &metrics_, SchedulingPolicy::kLoadAware, Nodes(),
      [&](const TaskSpec& spec, NodeId target) {
        inflight_during_dispatch.push_back(scheduler_ptr->inflight_on(target));
        scheduler_ptr->OnTaskFinished(spec.id);
        dispatched_.emplace_back(spec.id, target);
        return Status::Ok();
      },
      Watch());
  scheduler_ptr = scheduler.get();
  ASSERT_TRUE(scheduler->Submit(MakeTask()).ok());
  for (int i = 0; i < 2; ++i) {
    TaskSpec spec = MakeTask();
    spec.gang_group = "g";
    spec.gang_size = 2;
    ASSERT_TRUE(scheduler->Submit(std::move(spec)).ok());
  }
  ASSERT_EQ(dispatched_.size(), 3u);
  EXPECT_EQ(inflight_during_dispatch, (std::vector<int64_t>{1, 1, 1}));
  EXPECT_EQ(metrics_.GetCounter("scheduler.gangs_dispatched").value(), 1);
  for (NodeId n : node_ids_) {
    EXPECT_EQ(scheduler->inflight_on(n), 0) << n;
  }
}

// OnTaskAborted places a task again only while its in-flight record names the
// aborting node. A repeated abort, or one whose attempt OnNodeFailure's sweep
// already failed over, changes nothing.
TEST_F(SchedulerTest, AbortRedispatchesOnlyTheLiveAttempt) {
  auto scheduler = MakeScheduler(SchedulingPolicy::kRoundRobin);
  const TaskSpec spec = MakeTask();
  ASSERT_TRUE(scheduler->Submit(spec).ok());
  ASSERT_EQ(dispatched_.size(), 1u);
  const NodeId first = dispatched_[0].second;

  scheduler->OnTaskAborted(spec, first);
  ASSERT_EQ(dispatched_.size(), 2u);
  const NodeId second = dispatched_[1].second;
  EXPECT_NE(second, first);
  EXPECT_EQ(metrics_.GetCounter("scheduler.abort_redispatches").value(), 1);
  EXPECT_EQ(scheduler->inflight_on(first), 0);
  EXPECT_EQ(scheduler->inflight_on(second), 1);

  scheduler->OnTaskAborted(spec, first);
  EXPECT_EQ(dispatched_.size(), 2u);
  EXPECT_EQ(scheduler->inflight_on(second), 1);

  scheduler->OnNodeFailure(second);
  ASSERT_EQ(dispatched_.size(), 3u);
  const NodeId third = dispatched_[2].second;
  EXPECT_NE(third, first);
  EXPECT_NE(third, second);
  scheduler->OnTaskAborted(spec, second);
  EXPECT_EQ(dispatched_.size(), 3u);
  EXPECT_EQ(metrics_.GetCounter("scheduler.abort_redispatches").value(), 1);
  EXPECT_EQ(scheduler->inflight_on(third), 1);

  scheduler->OnTaskFinished(spec.id);
  for (NodeId n : node_ids_) {
    EXPECT_EQ(scheduler->inflight_on(n), 0) << n;
  }
}

TEST_F(SchedulerTest, PolicyNamesResolve) {
  EXPECT_EQ(SchedulingPolicyName(SchedulingPolicy::kLocalityAware), "locality_aware");
  EXPECT_EQ(SchedulingPolicyName(SchedulingPolicy::kRandom), "random");
}

TEST_F(SchedulerTest, ConcurrentSubmitNoLossNoDoubleDispatch) {
  // TSan-targeted hammer: submitters and completions race on the per-node
  // in-flight counts and the sharded in-flight maps; every task must
  // dispatch exactly once.
  constexpr int kThreads = 4;
  constexpr int kTasksPerThread = 100;
  Mutex mu;
  std::unordered_map<TaskId, int> dispatch_count;
  std::vector<TaskId> completable;
  auto scheduler = std::make_unique<Scheduler>(
      cache_.get(), &metrics_, SchedulingPolicy::kLoadAware, Nodes(),
      [&](const TaskSpec& spec, NodeId) {
        MutexLock lock(mu);
        dispatch_count[spec.id] += 1;
        completable.push_back(spec.id);
        return Status::Ok();
      },
      Watch());

  std::atomic<bool> stop{false};
  std::thread completer([&] {
    // Completions race with submissions: each frees a slot that the
    // load-aware pick reads.
    while (!stop.load()) {
      std::vector<TaskId> batch;
      {
        MutexLock lock(mu);
        batch.swap(completable);
      }
      for (TaskId id : batch) {
        scheduler->OnTaskFinished(id);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kTasksPerThread; ++i) {
        ASSERT_TRUE(scheduler->Submit(MakeTask()).ok());
      }
    });
  }
  for (auto& t : submitters) {
    t.join();
  }
  stop.store(true);
  completer.join();

  MutexLock lock(mu);
  EXPECT_EQ(dispatch_count.size(),
            static_cast<size_t>(kThreads * kTasksPerThread));
  for (const auto& [id, count] : dispatch_count) {
    EXPECT_EQ(count, 1) << "task " << id << " dispatched " << count << " times";
  }
}

// TSan-targeted hammer for parking: submitters park tasks on shared objects
// while other threads mark those objects ready, so watchers fire during
// registration, after it, and not at all (already ready). Every task must
// be admitted and dispatched exactly once.
TEST_F(SchedulerTest, ConcurrentParkAndReadyDispatchesEachTaskOnce) {
  constexpr int kSubmitters = 4;
  constexpr int kTasksPerSubmitter = 200;
  constexpr int kMarkers = 2;
  constexpr int kObjects = 64;
  std::vector<ObjectId> objects;
  for (int i = 0; i < kObjects; ++i) {
    objects.push_back(Register());
  }
  Mutex mu;
  std::unordered_map<TaskId, int> dispatch_count;
  auto scheduler = std::make_unique<Scheduler>(
      cache_.get(), &metrics_, SchedulingPolicy::kRoundRobin, Nodes(),
      [&](const TaskSpec& spec, NodeId) {
        MutexLock lock(mu);
        dispatch_count[spec.id] += 1;
        return Status::Ok();
      },
      Watch());

  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTasksPerSubmitter; ++i) {
        const int k = t * kTasksPerSubmitter + i;
        ASSERT_TRUE(scheduler
                        ->Submit(MakeTask({Arg(objects[k % kObjects]),
                                           Arg(objects[(k * 7 + 3) % kObjects])}))
                        .ok());
      }
    });
  }
  for (int m = 0; m < kMarkers; ++m) {
    threads.emplace_back([&, m] {
      for (int i = m; i < kObjects; i += kMarkers) {
        ASSERT_TRUE(table_.MarkReady(objects[i], 1).ok());
        std::this_thread::yield();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  EXPECT_EQ(scheduler->pending_tasks(), 0u);
  MutexLock lock(mu);
  EXPECT_EQ(dispatch_count.size(),
            static_cast<size_t>(kSubmitters * kTasksPerSubmitter));
  for (const auto& [id, count] : dispatch_count) {
    EXPECT_EQ(count, 1) << "task " << id << " dispatched " << count << " times";
  }
}

}  // namespace
}  // namespace skadi
