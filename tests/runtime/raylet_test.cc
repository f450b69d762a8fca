// Unit tests of the raylet daemon in isolation (hand-wired callbacks, no
// scheduler/ownership above it).
#include "src/runtime/raylet.h"

#include <atomic>

#include <gtest/gtest.h>

#include "tests/runtime/runtime_test_util.h"

namespace skadi {
namespace {

class RayletTest : public ::testing::Test {
 protected:
  RayletTest() {
    node_.id = NodeId::Next();
    node_.role = NodeRole::kServer;
    node_.device = MakeCpuDevice("raylet-test");
    node_.store = std::make_shared<LocalObjectStore>(node_.device.id, 1 << 20);
    RegisterTestFunctions(registry_);
  }

  std::unique_ptr<Raylet> MakeRaylet(int workers = 2) {
    Raylet::Callbacks callbacks;
    callbacks.pin_arg = [this](const ObjectRef& ref, NodeId) {
      MutexLock lock(mu_);
      pinned_.push_back(ref.id);
      return true;
    };
    callbacks.complete = [this](const TaskSpec& spec, std::vector<Buffer> outputs) {
      MutexLock lock(mu_);
      completed_.emplace_back(spec.id, std::move(outputs));
      cv_.NotifyAll();
      return Status::Ok();
    };
    callbacks.fail = [this](const TaskSpec& spec, const Status& status, NodeId) {
      MutexLock lock(mu_);
      failed_.emplace_back(spec.id, status);
      cv_.NotifyAll();
    };
    return std::make_unique<Raylet>(node_, &clock_, callbacks, workers);
  }

  // A one-return spec carrying its registered body, as Submit would hand it
  // down.
  TaskSpec Task(const std::string& function, std::vector<TaskArg> args) {
    TaskSpec spec = Call(function, std::move(args));
    spec.id = TaskId::Next();
    auto body = registry_.Lookup(function);
    EXPECT_TRUE(body.ok()) << body.status().ToString();
    spec.body = body.ok() ? *body : nullptr;
    return spec;
  }

  // Hands over a task whose arguments are all by value, as the runtime's
  // landing would: one value per argument.
  static Status EnqueueValues(Raylet& raylet, const TaskSpec& spec) {
    std::vector<Buffer> args;
    for (const TaskArg& arg : spec.args) {
      args.push_back(arg.value());
    }
    return raylet.Enqueue(std::make_shared<const TaskSpec>(spec), std::move(args));
  }

  // Waits until `n` completions+failures accumulated.
  void AwaitOutcomes(size_t n, int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    MutexLock lock(mu_);
    while (completed_.size() + failed_.size() < n) {
      if (cv_.WaitUntil(lock, deadline) == std::cv_status::timeout) {
        break;
      }
    }
  }

  ClusterNode node_;
  FunctionRegistry registry_;
  VirtualClock clock_;
  Mutex mu_;
  CondVar cv_;
  std::vector<ObjectId> pinned_;
  std::vector<std::pair<TaskId, std::vector<Buffer>>> completed_;
  std::vector<std::pair<TaskId, Status>> failed_;
};

TEST_F(RayletTest, ExecutesValueTask) {
  auto raylet = MakeRaylet();
  TaskSpec spec = Task("inc_i64", {TaskArg::Value(I64Buffer(9))});
  ASSERT_TRUE(EnqueueValues(*raylet, spec).ok());
  AwaitOutcomes(1);
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(I64Of(completed_[0].second[0]), 10);
  EXPECT_EQ(raylet->tasks_executed(), 1);
}

// The runtime lands ref arguments before the raylet gets the task: the body
// runs on the values handed over, and only the ref arguments are pinned.
TEST_F(RayletTest, RunsBodyOnLandedRefArgs) {
  auto raylet = MakeRaylet();
  const ObjectId dep = ObjectId::Next();
  TaskSpec spec =
      Task("add_i64", {TaskArg::Ref({dep, NodeId::Next()}), TaskArg::Value(I64Buffer(1))});
  ASSERT_TRUE(raylet
                  ->Enqueue(std::make_shared<const TaskSpec>(spec),
                            {I64Buffer(41), I64Buffer(1)})
                  .ok());
  AwaitOutcomes(1);
  MutexLock lock(mu_);
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(I64Of(completed_[0].second[0]), 42);
  EXPECT_EQ(pinned_, std::vector<ObjectId>{dep});
}

TEST_F(RayletTest, WrongReturnCountFails) {
  auto raylet = MakeRaylet();
  TaskSpec spec = Task("echo", {TaskArg::Value(Buffer::FromString("x"))});
  spec.num_returns = 2;  // echo produces 1
  ASSERT_TRUE(EnqueueValues(*raylet, spec).ok());
  AwaitOutcomes(1);
  ASSERT_EQ(failed_.size(), 1u);
  EXPECT_EQ(failed_[0].second.code(), StatusCode::kInternal);
}

TEST_F(RayletTest, ChargesFixedComputeNanos) {
  auto raylet = MakeRaylet();
  TaskSpec spec = Task("echo", {TaskArg::Value(Buffer())});
  spec.fixed_compute_nanos = 123456;
  ASSERT_TRUE(EnqueueValues(*raylet, spec).ok());
  AwaitOutcomes(1);
  EXPECT_EQ(clock_.total_nanos(), 123456);
}

TEST_F(RayletTest, ChargesCostModelByDefault) {
  auto raylet = MakeRaylet();
  TaskSpec spec = Task("echo", {TaskArg::Value(Buffer::Zeros(1 << 20))});
  spec.op_class = OpClass::kScan;
  ASSERT_TRUE(EnqueueValues(*raylet, spec).ok());
  AwaitOutcomes(1);
  EXPECT_EQ(clock_.total_nanos(),
            CostModel::EstimateNanos(node_.device, OpClass::kScan, 1 << 20));
}

TEST_F(RayletTest, KilledRayletAbortsQueuedTasks) {
  auto raylet = MakeRaylet(1);
  // One long task occupies the worker, several queue behind it.
  ASSERT_TRUE(registry_.Register("block_20ms", [](TaskContext&, std::vector<Buffer>&)
                                       -> Result<std::vector<Buffer>> {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return std::vector<Buffer>{Buffer()};
  }).ok());
  TaskSpec blocker = Task("block_20ms", {});
  ASSERT_TRUE(EnqueueValues(*raylet, blocker).ok());
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec = Task("echo", {TaskArg::Value(Buffer())});
    ASSERT_TRUE(EnqueueValues(*raylet, spec).ok());
  }
  raylet->Kill();
  EXPECT_TRUE(raylet->dead());
  AwaitOutcomes(4);
  MutexLock lock(mu_);
  // Everything after the kill aborts; the blocker may complete or abort
  // depending on timing.
  EXPECT_GE(failed_.size(), 3u);
  for (auto& [task, status] : failed_) {
    EXPECT_EQ(status.code(), StatusCode::kAborted);
  }
  EXPECT_FALSE(EnqueueValues(*raylet, Task("echo", {})).ok());
}

TEST_F(RayletTest, WorkerGrowthIncreasesParallelism) {
  auto raylet = MakeRaylet(1);
  EXPECT_EQ(raylet->num_workers(), 1u);
  raylet->GrowWorkers(3);
  EXPECT_EQ(raylet->num_workers(), 4u);
  raylet->ShrinkWorkers(2);
  EXPECT_EQ(raylet->num_workers(), 2u);
}

TEST_F(RayletTest, ActorStatePersistsAcrossTasks) {
  // One worker: with several workers the actor serial mutex guarantees
  // mutual exclusion but neither run order nor completion-record order,
  // and this test asserts the accumulated state task by task.
  auto raylet = MakeRaylet(1);
  ASSERT_TRUE(registry_.Register("append_char", [](TaskContext& ctx, std::vector<Buffer>& args)
                                        -> Result<std::vector<Buffer>> {
    auto* s = static_cast<std::string*>(ctx.actor_state->get());
    s->append(args[0].AsStringView());
    return std::vector<Buffer>{Buffer::FromString(*s)};
  }).ok());
  ActorId actor = ActorId::Next();
  ASSERT_TRUE(raylet->CreateActor(actor, std::make_shared<std::string>()).ok());
  EXPECT_TRUE(raylet->HasActor(actor));
  EXPECT_EQ(raylet->CreateActor(actor, nullptr).code(), StatusCode::kAlreadyExists);

  for (const char* c : {"a", "b", "c"}) {
    TaskSpec spec = Task("append_char", {TaskArg::Value(Buffer::FromString(c))});
    spec.actor = actor;
    ASSERT_TRUE(EnqueueValues(*raylet, spec).ok());
  }
  AwaitOutcomes(3);
  MutexLock lock(mu_);
  ASSERT_EQ(completed_.size(), 3u);
  EXPECT_EQ(completed_[2].second[0].AsStringView(), "abc");
}

TEST_F(RayletTest, ActorTaskWithoutActorFails) {
  auto raylet = MakeRaylet();
  TaskSpec spec = Task("echo", {TaskArg::Value(Buffer())});
  spec.actor = ActorId::Next();
  ASSERT_TRUE(EnqueueValues(*raylet, spec).ok());
  AwaitOutcomes(1);
  ASSERT_EQ(failed_.size(), 1u);
  EXPECT_EQ(failed_[0].second.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace skadi
