// Integration tests of the stateful serverless runtime: the distributed task
// API, futures (pull + push), scheduling policies, actors, gang scheduling,
// autoscaling, and failure recovery.
#include "src/runtime/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "tests/runtime/runtime_test_util.h"

namespace skadi {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  void Build(RuntimeOptions options = {}, ClusterConfig config = DefaultConfig()) {
    // The runtime references the cluster from worker threads: tear the old
    // runtime down before replacing the cluster it points at.
    runtime_.reset();
    cluster_ = Cluster::Create(config);
    RegisterTestFunctions(registry_);
    runtime_ = std::make_unique<SkadiRuntime>(cluster_.get(), &registry_, options);
  }

  static ClusterConfig DefaultConfig() {
    ClusterConfig config;
    config.racks = 2;
    config.servers_per_rack = 2;
    config.workers_per_server = 2;
    return config;
  }

  std::unique_ptr<Cluster> cluster_;
  FunctionRegistry registry_;
  std::unique_ptr<SkadiRuntime> runtime_;
};

TEST_F(RuntimeTest, SubmitByValueAndGet) {
  Build();
  auto refs = runtime_->Submit(Call("echo", {TaskArg::Value(Buffer::FromString("hi"))}));
  ASSERT_TRUE(refs.ok());
  ASSERT_EQ(refs->size(), 1u);
  auto result = runtime_->Get((*refs)[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->AsStringView(), "hi");
}

TEST_F(RuntimeTest, PutThenGet) {
  Build();
  auto ref = runtime_->Put(Buffer::FromString("stored"));
  ASSERT_TRUE(ref.ok());
  auto result = runtime_->Get(*ref);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->AsStringView(), "stored");
}

TEST_F(RuntimeTest, ChainThroughFutures) {
  Build();
  auto a = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(1))}));
  ASSERT_TRUE(a.ok());
  auto b = runtime_->Submit(Call("inc_i64", {TaskArg::Ref((*a)[0])}));
  ASSERT_TRUE(b.ok());
  auto c = runtime_->Submit(Call("inc_i64", {TaskArg::Ref((*b)[0])}));
  ASSERT_TRUE(c.ok());
  auto result = runtime_->Get((*c)[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(I64Of(*result), 4);
}

TEST_F(RuntimeTest, FanOutFanIn) {
  Build();
  std::vector<TaskArg> leaves;
  for (int i = 1; i <= 8; ++i) {
    auto ref = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(i))}));
    ASSERT_TRUE(ref.ok());
    leaves.push_back(TaskArg::Ref((*ref)[0]));
  }
  auto total = runtime_->Submit(Call("sum_all", std::move(leaves)));
  ASSERT_TRUE(total.ok());
  auto result = runtime_->Get((*total)[0]);
  ASSERT_TRUE(result.ok());
  // sum of (i+1) for i=1..8 = 44.
  EXPECT_EQ(I64Of(*result), 44);
}

TEST_F(RuntimeTest, MixedValueAndRefArgs) {
  Build();
  auto a = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(10))}));
  ASSERT_TRUE(a.ok());
  auto sum = runtime_->Submit(
      Call("add_i64", {TaskArg::Ref((*a)[0]), TaskArg::Value(I64Buffer(5))}));
  ASSERT_TRUE(sum.ok());
  auto result = runtime_->Get((*sum)[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(I64Of(*result), 16);
}

TEST_F(RuntimeTest, UnknownFunctionRejectedAtSubmit) {
  Build();
  auto refs = runtime_->Submit(Call("nope", {}));
  EXPECT_EQ(refs.status().code(), StatusCode::kNotFound);
}

TEST_F(RuntimeTest, FailingTaskMarksOutputLost) {
  Build();
  auto refs = runtime_->Submit(Call("fail_always", {}));
  ASSERT_TRUE(refs.ok());
  auto result = runtime_->Get((*refs)[0], 300);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.tasks_failed").value(), 1);
}

TEST_F(RuntimeTest, WaitBlocksForAllRefs) {
  Build();
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 4; ++i) {
    auto r = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(i))}));
    ASSERT_TRUE(r.ok());
    refs.push_back((*r)[0]);
  }
  EXPECT_TRUE(runtime_->Wait(refs, 10000).ok());
  for (const ObjectRef& ref : refs) {
    EXPECT_TRUE(runtime_->Get(ref).ok());
  }
}

// Wait checks each ref's state before the clock: a zero budget passes
// resolved refs and fails a pending one promptly.
TEST_F(RuntimeTest, WaitWithZeroTimeoutPassesReadyRefs) {
  Build();
  std::vector<ObjectRef> ready;
  for (int i = 0; i < 4; ++i) {
    auto ref = runtime_->Put(I64Buffer(i));
    ASSERT_TRUE(ref.ok());
    ready.push_back(*ref);
  }
  EXPECT_TRUE(runtime_->Wait(ready, 0).ok());

  const ObjectId pending = ObjectId::Next();
  ASSERT_TRUE(runtime_->ownership(cluster_->head()).RegisterObject(pending, nullptr).ok());
  ready.push_back(ObjectRef{pending, cluster_->head()});
  const int64_t start = NowNanos();
  EXPECT_EQ(runtime_->Wait(ready, 0).code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(NowNanos() - start, 1'000'000'000);
}

// GetOp probes the owner record before it honours its deadline: a zero
// budget resolves a ready ref (local or remote) every time and fails a
// pending one at once.
TEST_F(RuntimeTest, GetWithZeroTimeoutReturnsReadyValue) {
  Build();
  auto put = runtime_->Put(I64Buffer(7));
  ASSERT_TRUE(put.ok());
  auto produced = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(41))}));
  ASSERT_TRUE(produced.ok());
  ASSERT_TRUE(runtime_->Wait({(*produced)[0]}, 10000).ok());
  const std::vector<ObjectRef> ready = {*put, (*produced)[0]};
  for (int i = 0; i < 1000; ++i) {
    auto value = runtime_->Get(ready[static_cast<size_t>(i % 2)], 0);
    ASSERT_TRUE(value.ok()) << "iteration " << i << ": " << value.status().ToString();
    EXPECT_EQ(I64Of(*value), i % 2 == 0 ? 7 : 42);
    auto values = runtime_->GetAll(ready, 0);
    ASSERT_TRUE(values.ok()) << "iteration " << i << ": " << values.status().ToString();
    EXPECT_EQ(I64Of((*values)[1]), 42);
  }

  const ObjectId pending = ObjectId::Next();
  ASSERT_TRUE(runtime_->ownership(cluster_->head()).RegisterObject(pending, nullptr).ok());
  const ObjectRef pending_ref{pending, cluster_->head()};
  const int64_t start = NowNanos();
  EXPECT_EQ(runtime_->Get(pending_ref, 0).status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(runtime_->GetAll({*put, pending_ref}, 0).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_LT(NowNanos() - start, 1'000'000'000);
}

TEST_F(RuntimeTest, ReleaseDeletesObject) {
  Build();
  auto ref = runtime_->Put(Buffer::FromString("temp"));
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(runtime_->Release(*ref).ok());
  EXPECT_FALSE(cluster_->cache().Exists(ref->id));
}

TEST_F(RuntimeTest, PullModeCountsPullResolutions) {
  RuntimeOptions options;
  options.futures = FutureProtocol::kPull;
  options.policy = SchedulingPolicy::kRoundRobin;  // force remote placements
  Build(options);
  auto a = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(0))}));
  auto b = runtime_->Submit(Call("inc_i64", {TaskArg::Ref((*a)[0])}));
  ASSERT_TRUE(runtime_->Get((*b)[0]).ok());
  // At least the consumer resolving a non-local producer output pulls.
  EXPECT_GE(runtime_->metrics().GetCounter("runtime.pull_resolutions").value() +
                runtime_->metrics().GetCounter("runtime.resolve_local_hits").value(),
            1);
}

TEST_F(RuntimeTest, PushModeDeliversBeforeConsumption) {
  RuntimeOptions options;
  options.futures = FutureProtocol::kPush;
  options.policy = SchedulingPolicy::kRoundRobin;
  Build(options);
  auto a = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(0))}));
  auto b = runtime_->Submit(Call("inc_i64", {TaskArg::Ref((*a)[0])}));
  auto result = runtime_->Get((*b)[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(I64Of(*result), 2);
  // The consumer's read of the pushed value was local.
  EXPECT_GE(runtime_->metrics().GetCounter("runtime.pushes").value(), 1);
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.pull_resolutions").value(), 0);
}

TEST_F(RuntimeTest, PushModeBatchesResolutionsPerDestination) {
  // A fan-in: sum_all consumes 8 upstream outputs, so its dispatch registers
  // 8 ready ref args at once. The batcher must coalesce those resolutions
  // per (owner, consumer-node) — one fabric message instead of 8 — while
  // every push still lands before consumption (pull count stays 0).
  RuntimeOptions options;
  options.futures = FutureProtocol::kPush;
  options.policy = SchedulingPolicy::kRoundRobin;
  Build(options);
  std::vector<TaskArg> leaves;
  for (int i = 0; i < 8; ++i) {
    auto ref = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(i))}));
    ASSERT_TRUE(ref.ok());
    leaves.push_back(TaskArg::Ref((*ref)[0]));
  }
  auto total = runtime_->Submit(Call("sum_all", std::move(leaves)));
  ASSERT_TRUE(total.ok());
  auto result = runtime_->Get((*total)[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(I64Of(*result), 36);  // sum of (i+1), i = 0..7

  int64_t batches = runtime_->metrics().GetCounter("runtime.push_batches").value();
  int64_t entries =
      runtime_->metrics().GetCounter("runtime.push_batched_entries").value();
  int64_t pushes = runtime_->metrics().GetCounter("runtime.pushes").value();
  EXPECT_GE(batches, 1);
  EXPECT_EQ(entries, pushes);  // every push went through the batcher
  EXPECT_GE(entries, 8);       // all 8 leaf outputs were pushed
  // All 8 resolutions share one owner and one destination: coalescing must
  // save control messages, i.e. strictly fewer batches than entries.
  EXPECT_LT(batches, entries);
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.pull_resolutions").value(), 0);
}

TEST_F(RuntimeTest, BatchingDisabledFallsBackToPerConsumerPushes) {
  RuntimeOptions options;
  options.futures = FutureProtocol::kPush;
  options.policy = SchedulingPolicy::kRoundRobin;
  options.batch_pushes = false;
  Build(options);
  auto a = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(0))}));
  auto b = runtime_->Submit(Call("inc_i64", {TaskArg::Ref((*a)[0])}));
  auto result = runtime_->Get((*b)[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(I64Of(*result), 2);
  EXPECT_GE(runtime_->metrics().GetCounter("runtime.pushes").value(), 1);
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.push_batches").value(), 0);
}

// With batching off every push is its own round trip. A four-ref fan-in whose
// arguments are all ready at dispatch sends one owner->consumer message with
// batching on and four without; both carry the same bytes and count the same
// pushes, and only the batched run counts batches.
TEST_F(RuntimeTest, UnbatchedPushesCostOneRoundTripEach) {
  struct Run {
    int64_t control_hops;
    int64_t control_messages;
    int64_t total_bytes;
    int64_t pushes;
    int64_t push_batches;
    int64_t push_batched_entries;
  };
  auto run = [this](bool batch_pushes) -> Run {
    RuntimeOptions options;
    options.futures = FutureProtocol::kPush;
    options.batch_pushes = batch_pushes;
    Build(options);
    std::vector<NodeId> workers;
    for (NodeId n : cluster_->ComputeNodes()) {
      if (n != cluster_->head()) {
        workers.push_back(n);
      }
    }
    EXPECT_GE(workers.size(), 2u);
    std::vector<ObjectRef> leaves;
    std::vector<TaskArg> args;
    for (int i = 0; i < 4; ++i) {
      TaskSpec leaf = Call("inc_i64", {TaskArg::Value(I64Buffer(i))});
      leaf.pinned_node = workers[0];
      auto ref = runtime_->Submit(std::move(leaf));
      EXPECT_TRUE(ref.ok());
      leaves.push_back((*ref)[0]);
      args.push_back(TaskArg::Ref((*ref)[0]));
    }
    EXPECT_TRUE(runtime_->Wait(leaves, 10000).ok());
    TaskSpec total = Call("sum_all", std::move(args));
    total.pinned_node = workers[1];
    auto ref = runtime_->Submit(std::move(total));
    EXPECT_TRUE(ref.ok());
    auto result = runtime_->Get((*ref)[0]);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(I64Of(*result), 10);  // sum of (i+1), i = 0..3
    MetricsRegistry& metrics = runtime_->metrics();
    return Run{runtime_->control_hops(),
               cluster_->fabric().metrics().GetCounter("fabric.control_messages").value(),
               cluster_->fabric().total_bytes(),
               metrics.GetCounter("runtime.pushes").value(),
               metrics.GetCounter("runtime.push_batches").value(),
               metrics.GetCounter("runtime.push_batched_entries").value()};
  };
  const Run batched = run(true);
  const Run unbatched = run(false);

  EXPECT_EQ(batched.pushes, 4);
  EXPECT_EQ(batched.push_batches, 1);
  EXPECT_EQ(batched.push_batched_entries, 4);
  EXPECT_EQ(unbatched.pushes, 4);
  EXPECT_EQ(unbatched.push_batches, 0);
  EXPECT_EQ(unbatched.push_batched_entries, 0);
  EXPECT_EQ(unbatched.control_hops - batched.control_hops, 3);
  EXPECT_EQ(unbatched.control_messages - batched.control_messages, 6);
  EXPECT_EQ(unbatched.total_bytes, batched.total_bytes);
}

// Polls `done` every millisecond until `limit`; true once it holds.
bool WaitUntil(const std::function<bool()>& done,
               std::chrono::seconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// The completion path queues a push per registered consumer of each output
// and must send it even when a later output fails to register. Here the
// lineage re-execution of a two-output task finds its second output already
// released: CompleteTask fails, yet the push queued for the consumer of the
// first output is delivered, and the consumer later reads that copy locally.
TEST_F(RuntimeTest, CompleteTaskErrorStillDeliversQueuedPushes) {
  RuntimeOptions options;
  options.futures = FutureProtocol::kPush;
  options.recovery = RecoveryMode::kLineage;
  Build(options);

  // Gates the test opens. gated_pair's first run returns at once and its
  // re-execution waits (recording where it runs); hold keeps a worker busy.
  // The tasks wait far longer than the test does, so no task finishes on its
  // own and flushes the batcher in the test's place; every exit from the test
  // body opens both gates, so teardown never waits on them.
  struct Gates {
    std::atomic<int> pair_runs{0};
    std::atomic<uint64_t> rerun_node{0};
    std::atomic<bool> pair_open{false};
    std::atomic<int> holding{0};
    std::atomic<bool> hold_open{false};
  };
  auto gates = std::make_shared<Gates>();
  struct OpenOnExit {
    std::shared_ptr<Gates> gates;
    ~OpenOnExit() {
      gates->pair_open.store(true);
      gates->hold_open.store(true);
    }
  } open_on_exit{gates};
  ASSERT_TRUE(registry_.Register("gated_pair", [gates](TaskContext& ctx, std::vector<Buffer>&)
                                     -> Result<std::vector<Buffer>> {
    if (gates->pair_runs.load() > 0) {
      gates->rerun_node.store(ctx.node.value());
      WaitUntil([&] { return gates->pair_open.load(); }, std::chrono::seconds(60));
    }
    gates->pair_runs.fetch_add(1);
    return std::vector<Buffer>{I64Buffer(1), I64Buffer(2)};
  }).ok());
  ASSERT_TRUE(registry_.Register("hold", [gates](TaskContext&, std::vector<Buffer>&)
                                     -> Result<std::vector<Buffer>> {
    gates->holding.fetch_add(1);
    WaitUntil([&] { return gates->hold_open.load(); }, std::chrono::seconds(60));
    return std::vector<Buffer>{I64Buffer(0)};
  }).ok());

  std::vector<NodeId> workers;
  for (NodeId n : cluster_->ComputeNodes()) {
    if (n != cluster_->head()) {
      workers.push_back(n);
    }
  }
  ASSERT_GE(workers.size(), 3u);
  const NodeId victim = workers[0];

  TaskSpec produce = Call("gated_pair", {});
  produce.num_returns = 2;
  produce.pinned_node = victim;
  auto outputs = runtime_->Submit(std::move(produce));
  ASSERT_TRUE(outputs.ok());
  ASSERT_EQ(outputs->size(), 2u);
  ASSERT_TRUE(runtime_->Wait(*outputs, 10000).ok());
  const ObjectRef first = (*outputs)[0];

  // Both outputs die with the victim and are re-armed; the re-execution
  // starts elsewhere and waits on its gate. Releasing the second output now
  // makes the re-execution's second MarkReady fail.
  ASSERT_TRUE(runtime_->KillNode(victim).ok());
  ASSERT_TRUE(WaitUntil([&] { return gates->rerun_node.load() != 0; }));
  ASSERT_TRUE(runtime_->Release((*outputs)[1]).ok());
  auto rearmed = runtime_->ownership(first.owner).Resolve(first.id);
  ASSERT_TRUE(rearmed.ok());
  ASSERT_EQ(rearmed->state, ObjectState::kPending);

  // The consumer goes to a third node whose workers are all held, so it is
  // dispatched (registering with the owner while the output is re-armed,
  // which puts its push on the completion path) but starts only later.
  const NodeId consumer_node =
      workers[1].value() != gates->rerun_node.load() ? workers[1] : workers[2];
  const int slots = cluster_->node(consumer_node)->default_workers;
  for (int i = 0; i < slots; ++i) {
    TaskSpec hold = Call("hold", {});
    hold.pinned_node = consumer_node;
    ASSERT_TRUE(runtime_->Submit(std::move(hold)).ok());
  }
  ASSERT_TRUE(WaitUntil([&] { return gates->holding.load() == slots; }));
  TaskSpec consume = Call("inc_i64", {TaskArg::Ref(first)});
  consume.pinned_node = consumer_node;
  auto consumed = runtime_->Submit(std::move(consume));
  ASSERT_TRUE(consumed.ok());

  gates->pair_open.store(true);
  MetricsRegistry& metrics = runtime_->metrics();
  ASSERT_TRUE(WaitUntil([&] {
    return metrics.GetCounter("runtime.pushes").value() >= 1 &&
           metrics.GetCounter("runtime.tasks_failed").value() >= 1;
  }));
  EXPECT_EQ(metrics.GetCounter("runtime.pushes").value(), 1);
  EXPECT_EQ(metrics.GetCounter("runtime.push_batches").value(), 1);
  EXPECT_EQ(metrics.GetCounter("runtime.push_batched_entries").value(), 1);

  gates->hold_open.store(true);
  auto result = runtime_->Get((*consumed)[0], 10000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(I64Of(*result), 2);
  EXPECT_EQ(metrics.GetCounter("runtime.push_misses").value(), 0);
  EXPECT_EQ(metrics.GetCounter("runtime.pull_resolutions").value(), 0);
}

TEST_F(RuntimeTest, GetAllGathersConcurrently) {
  Build();
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 6; ++i) {
    auto r = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(i))}));
    ASSERT_TRUE(r.ok());
    refs.push_back((*r)[0]);
  }
  auto buffers = runtime_->GetAll(refs);
  ASSERT_TRUE(buffers.ok());
  ASSERT_EQ(buffers->size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(I64Of((*buffers)[static_cast<size_t>(i)]), i + 1)
        << "results must be in input order";
  }
}

TEST_F(RuntimeTest, GetAllEmptyInputReturnsEmpty) {
  Build();
  auto buffers = runtime_->GetAll({});
  ASSERT_TRUE(buffers.ok());
  EXPECT_TRUE(buffers->empty());
}

TEST_F(RuntimeTest, GetAllPropagatesFirstFailure) {
  Build();
  auto good = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(1))}));
  ASSERT_TRUE(good.ok());
  auto bad = runtime_->Submit(Call("fail_always", {}));
  ASSERT_TRUE(bad.ok());
  auto buffers = runtime_->GetAll({(*good)[0], (*bad)[0]}, 2000);
  EXPECT_FALSE(buffers.ok());
}

// A continuation running on the control reactor's only driver may call the
// blocking Get: it must drive that reactor while it waits, because the
// watcher that resolves the nested future is posted to the same driver.
TEST_F(RuntimeTest, GetInsideGetAsyncContinuation) {
  Build();
  auto gated = [](std::shared_ptr<std::atomic<bool>> open, int64_t value) {
    return [open, value](TaskContext&, std::vector<Buffer>&) -> Result<std::vector<Buffer>> {
      while (!open->load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return std::vector<Buffer>{I64Buffer(value)};
    };
  };
  auto open_first = std::make_shared<std::atomic<bool>>(false);
  auto open_second = std::make_shared<std::atomic<bool>>(false);
  ASSERT_TRUE(registry_.Register("gated_first", gated(open_first, 1)).ok());
  ASSERT_TRUE(registry_.Register("gated_second", gated(open_second, 2)).ok());
  auto first = runtime_->Submit(Call("gated_first", {}));
  auto second = runtime_->Submit(Call("gated_second", {}));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  struct Nested {
    std::atomic<bool> entered{false};
    Result<Buffer> value{Status::Internal("nested Get never returned")};
    Event done;
  };
  auto nested = std::make_shared<Nested>();
  SkadiRuntime* runtime = runtime_.get();
  const ObjectRef second_ref = (*second)[0];
  // The first output is still pending, so the continuation runs later, in
  // the Step its ownership watcher posts to the control reactor.
  runtime_->GetAsync((*first)[0], [nested, runtime, second_ref](Result<Buffer> r) {
    nested->entered.store(true);
    nested->value = r.ok() ? runtime->Get(second_ref, 10000) : r;
    nested->done.Set();
  });
  open_first->store(true);
  for (int i = 0; i < 5000 && !nested->entered.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(nested->entered.load());
  // Release the second task only after the continuation has entered, so the
  // nested Get waits for it on the control reactor's driver.
  open_second->store(true);
  ASSERT_TRUE(nested->done.BlockingWait(NowNanos() + 20'000'000'000));
  ASSERT_TRUE(nested->value.ok()) << nested->value.status().ToString();
  EXPECT_EQ(I64Of(*nested->value), 2);
}

// The ownership watcher runs on the worker that completes the producer; the
// GetAsync continuation must still hop to the control reactor instead of
// running on that worker.
TEST_F(RuntimeTest, PendingGetAsyncContinuationRunsOnControlReactor) {
  Build();
  struct Probe {
    std::atomic<bool> open{false};
    std::thread::id control;
    std::thread::id producer;
    std::thread::id continuation;
    Event timed_out;
    Event done;
  };
  auto probe = std::make_shared<Probe>();
  // A Get deadline fires on the control reactor's one driver: learn its
  // thread from a Get on a record that never becomes ready.
  const ObjectId never = ObjectId::Next();
  ASSERT_TRUE(runtime_->ownership(cluster_->head()).RegisterObject(never, nullptr).ok());
  runtime_->GetAsync(
      ObjectRef{never, cluster_->head()},
      [probe](Result<Buffer> r) {
        EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
        probe->control = std::this_thread::get_id();
        probe->timed_out.Set();
      },
      /*timeout_ms=*/50);
  ASSERT_TRUE(probe->timed_out.BlockingWait(NowNanos() + 10'000'000'000));

  ASSERT_TRUE(registry_
                  .Register("gated_probe",
                            [probe](TaskContext&, std::vector<Buffer>&)
                                -> Result<std::vector<Buffer>> {
                              while (!probe->open.load()) {
                                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                              }
                              probe->producer = std::this_thread::get_id();
                              return std::vector<Buffer>{I64Buffer(7)};
                            })
                  .ok());
  auto refs = runtime_->Submit(Call("gated_probe", {}));
  ASSERT_TRUE(refs.ok());
  runtime_->GetAsync((*refs)[0], [probe](Result<Buffer> r) {
    EXPECT_TRUE(r.ok());
    probe->continuation = std::this_thread::get_id();
    probe->done.Set();
  });
  probe->open.store(true);
  ASSERT_TRUE(probe->done.BlockingWait(NowNanos() + 10'000'000'000));
  EXPECT_EQ(probe->continuation, probe->control);
  EXPECT_NE(probe->continuation, probe->producer);
}

TEST_F(RuntimeTest, LocalityPolicyPlacesComputeAtData) {
  RuntimeOptions options;
  options.policy = SchedulingPolicy::kLocalityAware;
  Build(options);

  // Park a large object on a non-head server, then run a dependent task.
  NodeId target;
  for (NodeId n : cluster_->ComputeNodes()) {
    if (n != cluster_->head()) {
      target = n;
      break;
    }
  }
  ObjectId big = ObjectId::Next();
  ASSERT_TRUE(cluster_->cache().Put(big, Buffer::Zeros(8 * 1024 * 1024), target).ok());
  ASSERT_TRUE(runtime_->ownership(cluster_->head()).RegisterObject(big, nullptr).ok());
  ASSERT_TRUE(runtime_->ownership(cluster_->head()).MarkReady(big, target, 8 * 1024 * 1024).ok());

  int64_t executed_before = runtime_->raylet(target)->tasks_executed();
  auto refs = runtime_->Submit(
      Call("echo", {TaskArg::Ref(ObjectRef{big, cluster_->head()})}));
  ASSERT_TRUE(refs.ok());
  ASSERT_TRUE(runtime_->Wait({(*refs)[0]}, 10000).ok());
  EXPECT_EQ(runtime_->raylet(target)->tasks_executed(), executed_before + 1);
}

TEST_F(RuntimeTest, RequiredDeviceRestrictsPlacement) {
  ClusterConfig config = DefaultConfig();
  config.device_complexes = 1;
  config.gpus_per_complex = 1;
  config.fpgas_per_complex = 0;
  Build({}, config);

  TaskSpec spec = Call("echo", {TaskArg::Value(Buffer::FromString("gpu!"))});
  spec.required_device = DeviceKind::kGpu;
  auto refs = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(refs.ok());
  ASSERT_TRUE(runtime_->Wait({(*refs)[0]}, 10000).ok());
  NodeId gpu = cluster_->NodesWithDevice(DeviceKind::kGpu)[0];
  EXPECT_EQ(runtime_->raylet(gpu)->tasks_executed(), 1);
}

TEST_F(RuntimeTest, PinnedNodeWins) {
  Build();
  NodeId target = cluster_->ComputeNodes().back();
  TaskSpec spec = Call("echo", {TaskArg::Value(Buffer::FromString("x"))});
  spec.pinned_node = target;
  auto refs = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(refs.ok());
  ASSERT_TRUE(runtime_->Wait({(*refs)[0]}, 10000).ok());
  EXPECT_EQ(runtime_->raylet(target)->tasks_executed(), 1);
}

TEST_F(RuntimeTest, GangDispatchesAtomically) {
  Build();
  // 4 servers x 2 workers = 8 slots; a gang of 4 fits.
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 4; ++i) {
    TaskSpec spec = Call("inc_i64", {TaskArg::Value(I64Buffer(i))});
    spec.gang_group = "spmd0";
    spec.gang_size = 4;
    auto r = runtime_->Submit(std::move(spec));
    ASSERT_TRUE(r.ok());
    refs.push_back((*r)[0]);
  }
  EXPECT_TRUE(runtime_->Wait(refs, 10000).ok());
  EXPECT_EQ(runtime_->metrics().GetCounter("scheduler.gangs_dispatched").value(), 1);
}

TEST_F(RuntimeTest, IncompleteGangStaysParked) {
  Build();
  TaskSpec spec = Call("inc_i64", {TaskArg::Value(I64Buffer(0))});
  spec.gang_group = "lonely";
  spec.gang_size = 3;
  auto r = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(runtime_->Wait({(*r)[0]}, 100).code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(runtime_->scheduler().pending_tasks(), 1u);
}

// A GetAsync nobody waits on, for an output that never becomes ready (an
// incomplete gang member stays parked): destroying the runtime runs its
// continuation exactly once, with kUnavailable, before the destructor
// returns.
TEST_F(RuntimeTest, DestroyingRuntimeFinishesAbandonedGetAsync) {
  Build();
  TaskSpec spec = Call("inc_i64", {TaskArg::Value(I64Buffer(0))});
  spec.gang_group = "lonely";
  spec.gang_size = 3;
  auto r = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(r.ok());
  auto calls = std::make_shared<std::atomic<int>>(0);
  auto code = std::make_shared<std::atomic<StatusCode>>(StatusCode::kOk);
  runtime_->GetAsync((*r)[0],
                     [calls, code](Result<Buffer> result) {
                       code->store(result.status().code());
                       calls->fetch_add(1);
                     },
                     /*timeout_ms=*/60000);
  EXPECT_EQ(calls->load(), 0);
  runtime_.reset();
  EXPECT_EQ(calls->load(), 1);
  EXPECT_EQ(code->load(), StatusCode::kUnavailable);
}

struct CounterState {
  int64_t value = 0;
};

TEST_F(RuntimeTest, ActorTasksMutateStateSerially) {
  Build();
  ASSERT_TRUE(registry_.Register("counter_add", [](TaskContext& ctx, std::vector<Buffer>& args)
                                        -> Result<std::vector<Buffer>> {
    auto* state = static_cast<CounterState*>(ctx.actor_state->get());
    state->value += I64Of(args[0]);
    return std::vector<Buffer>{I64Buffer(state->value)};
  }).ok());

  NodeId home = cluster_->ComputeNodes()[1];
  auto actor = runtime_->CreateActor(home, std::make_shared<CounterState>());
  ASSERT_TRUE(actor.ok());

  std::vector<ObjectRef> refs;
  for (int i = 0; i < 20; ++i) {
    auto r = runtime_->SubmitActorTask(*actor,
                                       Call("counter_add", {TaskArg::Value(I64Buffer(1))}));
    ASSERT_TRUE(r.ok());
    refs.push_back((*r)[0]);
  }
  ASSERT_TRUE(runtime_->Wait(refs, 10000).ok());
  // Serial execution: every intermediate value distinct, final == 20.
  auto last = runtime_->Get(refs.back());
  ASSERT_TRUE(last.ok());
  std::set<int64_t> seen;
  for (const ObjectRef& ref : refs) {
    auto v = runtime_->Get(ref);
    ASSERT_TRUE(v.ok());
    seen.insert(I64Of(*v));
  }
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_EQ(*seen.rbegin(), 20);
}

TEST_F(RuntimeTest, ActorOnDeadNodeUnknown) {
  Build();
  auto actor = runtime_->CreateActor(NodeId(777777), nullptr);
  EXPECT_EQ(actor.status().code(), StatusCode::kNotFound);
}

// Pins the exact control-plane accounting of a two-FPGA chain (produce on one
// FPGA, consume on the other, Get at the head) per generation and future
// protocol. Gen-1 detours every device message through the DPU, doubling the
// hops; push mode trades the consumer's pull round trip for one owner->
// consumer push, so all three Gen-2 rows charge the same.
TEST_F(RuntimeTest, Gen1RoutesDeviceControlThroughDpu) {
  struct Case {
    const char* name;
    RuntimeGeneration generation;
    FutureProtocol futures;
    bool batch_pushes;
    int64_t control_hops;
    int64_t control_messages;
    int64_t total_messages;
    int64_t total_bytes;
    int64_t modelled_nanos;
    int64_t pushes;
    int64_t push_batches;
  };
  const Case kCases[] = {
      {"gen1-pull", RuntimeGeneration::kGen1, FutureProtocol::kPull, true,
       10, 20, 22, 672, 390062, 0, 0},
      {"gen2-pull", RuntimeGeneration::kGen2, FutureProtocol::kPull, true,
       5, 10, 12, 344, 240031, 0, 0},
      {"gen2-push-batched", RuntimeGeneration::kGen2, FutureProtocol::kPush, true,
       5, 10, 12, 344, 240031, 1, 1},
      {"gen2-push-unbatched", RuntimeGeneration::kGen2, FutureProtocol::kPush, false,
       5, 10, 12, 344, 240031, 1, 0},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    ClusterConfig config = DefaultConfig();
    config.device_complexes = 1;
    config.gpus_per_complex = 0;
    config.fpgas_per_complex = 2;
    RuntimeOptions options;
    options.generation = c.generation;
    options.futures = c.futures;
    options.batch_pushes = c.batch_pushes;
    Build(options, config);

    auto fpgas = cluster_->NodesWithDevice(DeviceKind::kFpga);
    ASSERT_EQ(fpgas.size(), 2u);
    TaskSpec produce = Call("inc_i64", {TaskArg::Value(I64Buffer(1))});
    produce.pinned_node = fpgas[0];
    auto a = runtime_->Submit(std::move(produce));
    ASSERT_TRUE(a.ok());
    TaskSpec consume = Call("inc_i64", {TaskArg::Ref((*a)[0])});
    consume.pinned_node = fpgas[1];
    auto b = runtime_->Submit(std::move(consume));
    ASSERT_TRUE(b.ok());
    auto result = runtime_->Get((*b)[0]);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(I64Of(*result), 3);

    Fabric& fabric = cluster_->fabric();
    EXPECT_EQ(runtime_->control_hops(), c.control_hops);
    EXPECT_EQ(fabric.metrics().GetCounter("fabric.control_messages").value(),
              c.control_messages);
    EXPECT_EQ(fabric.total_messages(), c.total_messages);
    EXPECT_EQ(fabric.total_bytes(), c.total_bytes);
    EXPECT_EQ(fabric.clock().total_nanos(), c.modelled_nanos);
    EXPECT_EQ(runtime_->metrics().GetCounter("runtime.pushes").value(), c.pushes);
    EXPECT_EQ(runtime_->metrics().GetCounter("runtime.push_batches").value(),
              c.push_batches);
  }
}

TEST_F(RuntimeTest, AutoscalerGrowsUnderLoad) {
  RuntimeOptions options;
  options.autoscaler.enabled = true;
  options.autoscaler.min_workers = 1;
  options.autoscaler.max_workers = 8;
  options.autoscaler.tick_interval_ms = 2;
  ClusterConfig config;
  config.racks = 1;
  config.servers_per_rack = 1;
  config.workers_per_server = 1;
  Build(options, config);

  ASSERT_TRUE(registry_.Register("sleep_5ms", [](TaskContext&, std::vector<Buffer>&)
                                      -> Result<std::vector<Buffer>> {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return std::vector<Buffer>{Buffer()};
  }).ok());

  std::vector<ObjectRef> refs;
  for (int i = 0; i < 40; ++i) {
    auto r = runtime_->Submit(Call("sleep_5ms", {}));
    ASSERT_TRUE(r.ok());
    refs.push_back((*r)[0]);
  }
  ASSERT_TRUE(runtime_->Wait(refs, 30000).ok());
  EXPECT_GT(runtime_->autoscaler().scale_ups(), 0);
  EXPECT_GT(runtime_->autoscaler().worker_nanos(), 0);
}

TEST_F(RuntimeTest, LineageRecoveryReproducesLostObject) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kLineage;
  options.policy = SchedulingPolicy::kRoundRobin;
  Build(options);

  NodeId victim;
  for (NodeId n : cluster_->ComputeNodes()) {
    if (n != cluster_->head()) {
      victim = n;
      break;
    }
  }
  TaskSpec spec = Call("inc_i64", {TaskArg::Value(I64Buffer(41))});
  spec.pinned_node = victim;
  auto a = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(runtime_->Wait({(*a)[0]}, 10000).ok());

  auto locations = cluster_->cache().Locations((*a)[0].id);
  ASSERT_EQ(locations.size(), 1u);
  ASSERT_EQ(locations[0], victim);
  ASSERT_TRUE(runtime_->KillNode(victim).ok());

  auto result = runtime_->Get((*a)[0], 15000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(I64Of(*result), 42);
  EXPECT_GE(runtime_->metrics().GetCounter("runtime.lineage_reexecutions").value(), 1);
}

TEST_F(RuntimeTest, SpecBodyFreedWithItsLastReturn) {
  // The owner keeps a spec as lineage in its returns' records, so the body
  // (and what it captures) lives until the last return is released.
  Build();
  TaskSpec spec;
  spec.body = std::make_shared<const TaskFunction>(
      [](TaskContext&, std::vector<Buffer>&) -> Result<std::vector<Buffer>> {
        return std::vector<Buffer>{I64Buffer(1), I64Buffer(2)};
      });
  spec.num_returns = 2;
  std::weak_ptr<const TaskFunction> body = spec.body;
  auto refs = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(refs.ok()) << refs.status().ToString();
  auto values = runtime_->GetAll(*refs, 10000);
  ASSERT_TRUE(values.ok()) << values.status().ToString();
  EXPECT_EQ(I64Of((*values)[1]), 2);

  ASSERT_TRUE(runtime_->Release((*refs)[0]).ok());
  // The other return still holds it, and so can still be recovered.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(body.expired());
  ASSERT_TRUE(runtime_->Release((*refs)[1]).ok());
  // The raylet and the scheduler drop their copies just after completion.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!body.expired() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(body.expired());
}

TEST_F(RuntimeTest, RecoveryDisabledReportsDataLoss) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kNone;
  Build(options);

  NodeId victim;
  for (NodeId n : cluster_->ComputeNodes()) {
    if (n != cluster_->head()) {
      victim = n;
      break;
    }
  }
  TaskSpec spec = Call("inc_i64", {TaskArg::Value(I64Buffer(1))});
  spec.pinned_node = victim;
  auto a = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(runtime_->Wait({(*a)[0]}, 10000).ok());
  ASSERT_TRUE(runtime_->KillNode(victim).ok());
  auto result = runtime_->Get((*a)[0], 3000);
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

// Without recovery, a task chained on a failed task is admitted when its
// argument is marked lost and fails at argument landing, so a Get on its
// output fails well before the deadline.
TEST_F(RuntimeTest, ConsumerOfFailedTaskFailsFastWithoutRecovery) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kNone;
  Build(options);
  auto failed = runtime_->Submit(Call("fail_always", {}));
  ASSERT_TRUE(failed.ok());
  auto consumer = runtime_->Submit(Call("inc_i64", {TaskArg::Ref((*failed)[0])}));
  ASSERT_TRUE(consumer.ok());
  const int64_t start = NowNanos();
  auto result = runtime_->Get((*consumer)[0], 10000);
  EXPECT_FALSE(result.ok());
  EXPECT_LT(NowNanos() - start, 5'000'000'000);
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.tasks_failed").value(), 2);
  EXPECT_EQ(runtime_->scheduler().pending_tasks(), 0u);
}

// A task submitted after its argument's last reference was released is
// admitted (the released record reads NotFound) and fails at argument
// landing instead of parking forever.
TEST_F(RuntimeTest, ConsumerOfReleasedArgumentFailsFastWithoutRecovery) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kNone;
  Build(options);
  auto producer = runtime_->Submit(Call("inc_i64", {TaskArg::Value(I64Buffer(1))}));
  ASSERT_TRUE(producer.ok());
  const ObjectRef arg = (*producer)[0];
  ASSERT_TRUE(runtime_->Wait({arg}, 10000).ok());
  ASSERT_TRUE(runtime_->Release(arg).ok());
  auto consumer = runtime_->Submit(Call("inc_i64", {TaskArg::Ref(arg)}));
  ASSERT_TRUE(consumer.ok());
  const int64_t start = NowNanos();
  auto result = runtime_->Get((*consumer)[0], 10000);
  EXPECT_FALSE(result.ok());
  EXPECT_LT(NowNanos() - start, 5'000'000'000);
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.tasks_failed").value(), 1);
  EXPECT_EQ(runtime_->scheduler().pending_tasks(), 0u);
}

// A task whose argument is being rebuilt waits at dispatch, not on a worker.
// On a one-worker node, a ready task dispatched after it still runs, and the
// waiting task runs once the rebuilt value lands.
TEST_F(RuntimeTest, ArgumentAwaitingReconstructionHoldsNoWorker) {
  ClusterConfig config;
  config.racks = 1;
  config.servers_per_rack = 2;
  config.workers_per_server = 1;
  Build({}, config);
  const NodeId node = cluster_->ComputeNodes()[1];
  OwnershipTable& table = runtime_->ownership(cluster_->head());
  const ObjectId arg = ObjectId::Next();
  ASSERT_TRUE(table.RegisterObject(arg, nullptr).ok());

  TaskSpec consumer = Call("inc_i64", {TaskArg::Ref({arg, cluster_->head()})});
  consumer.pinned_node = node;
  auto waiting = runtime_->Submit(std::move(consumer));
  ASSERT_TRUE(waiting.ok());
  // Losing the argument admits the consumer. Re-arming it, as lineage
  // recovery does, leaves the consumer's landing waiting on the owner record.
  ASSERT_TRUE(table.MarkLost(arg).ok());
  ASSERT_TRUE(table.MarkPendingForReconstruction(arg).ok());

  TaskSpec ready = Call("inc_i64", {TaskArg::Value(I64Buffer(1))});
  ready.pinned_node = node;
  auto ran = runtime_->Submit(std::move(ready));
  ASSERT_TRUE(ran.ok());
  auto first = runtime_->Get((*ran)[0], 2000);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(I64Of(*first), 2);

  ASSERT_TRUE(cluster_->cache().Put(arg, I64Buffer(41), node).ok());
  ASSERT_TRUE(table.MarkReady(arg, node, 8).ok());
  auto rebuilt = runtime_->Get((*waiting)[0], 10000);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(I64Of(*rebuilt), 42);
}

// Under lineage recovery a terminally failed task's output is lost and never
// re-armed. A Get of it, and a consumer's landing, give up with DATA_LOSS
// after the lost-round cap (about 1 s) instead of waiting out the deadline.
TEST_F(RuntimeTest, GetOfTerminallyFailedOutputReportsDataLoss) {
  Build();
  auto failed = runtime_->Submit(Call("fail_always", {}));
  ASSERT_TRUE(failed.ok());
  auto consumer = runtime_->Submit(Call("inc_i64", {TaskArg::Ref((*failed)[0])}));
  ASSERT_TRUE(consumer.ok());
  const int64_t start = NowNanos();
  auto result = runtime_->Get((*failed)[0], 10000);
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << result.status().ToString();
  auto consumed = runtime_->Get((*consumer)[0], 10000);
  EXPECT_FALSE(consumed.ok());
  EXPECT_LT(NowNanos() - start, 5'000'000'000);
}

// The consumer's node dies while its argument awaits reconstruction, and then
// the value lands. The failover attempt runs the body; the stale landing on
// the dead node is refused and aborts without running it, and no in-flight
// slot is left behind.
TEST_F(RuntimeTest, NodeDeathWhileArgumentsLandRunsTaskOnce) {
  Build();
  const std::vector<NodeId> nodes = cluster_->ComputeNodes();
  const NodeId victim = nodes[1];
  OwnershipTable& table = runtime_->ownership(cluster_->head());
  const ObjectId arg = ObjectId::Next();
  ASSERT_TRUE(table.RegisterObject(arg, nullptr).ok());

  auto runs = std::make_shared<std::atomic<int>>(0);
  TaskSpec consumer = Call("count_inc", {TaskArg::Ref({arg, cluster_->head()})});
  consumer.body = std::make_shared<const TaskFunction>(
      [runs](TaskContext&, std::vector<Buffer>& args) -> Result<std::vector<Buffer>> {
        runs->fetch_add(1);
        return std::vector<Buffer>{I64Buffer(I64Of(args[0]) + 1)};
      });
  consumer.pinned_node = victim;
  auto out = runtime_->Submit(std::move(consumer));
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(table.MarkLost(arg).ok());
  ASSERT_TRUE(table.MarkPendingForReconstruction(arg).ok());
  ASSERT_TRUE(runtime_->KillNode(victim).ok());

  ASSERT_TRUE(cluster_->cache().Put(arg, I64Buffer(41), cluster_->head()).ok());
  ASSERT_TRUE(table.MarkReady(arg, cluster_->head(), 8).ok());
  auto result = runtime_->Get((*out)[0], 10000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(I64Of(*result), 42);

  // The stale attempt reports its abort, and the live one frees its slot.
  auto settled = [&] {
    for (NodeId n : nodes) {
      if (runtime_->scheduler().inflight_on(n) != 0) {
        return false;
      }
    }
    return runtime_->metrics().GetCounter("runtime.tasks_failed").value() >= 1;
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!settled() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(settled());
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.tasks_failed").value(), 1);
  EXPECT_EQ(runs->load(), 1);
}

// A failed landing is reported from the control reactor, so a long chain of
// parked dependents fails link by link. Reported inline, each link would fail
// the next one's landing on the same stack until the stack overflowed.
TEST_F(RuntimeTest, LongChainFailsWithoutRecursing) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kNone;
  Build(options);
  OwnershipTable& table = runtime_->ownership(cluster_->head());
  const ObjectId head = ObjectId::Next();
  ASSERT_TRUE(table.RegisterObject(head, nullptr).ok());
  ObjectRef last{head, cluster_->head()};
  for (int i = 0; i < 20000; ++i) {
    auto r = runtime_->Submit(Call("inc_i64", {TaskArg::Ref(last)}));
    ASSERT_TRUE(r.ok());
    last = (*r)[0];
  }
  ASSERT_TRUE(table.MarkLost(head).ok());
  EXPECT_EQ(runtime_->Get(last, 30000).status().code(), StatusCode::kDataLoss);
}

// Landing reads an argument already in the target's store without a control
// message, and pulls any other with the target->owner round trip. Both tasks
// pay the same dispatch and completion hops, so the pull costs one more.
TEST_F(RuntimeTest, LandingPullsOnlyArgumentsMissingOnTarget) {
  Build();
  const std::vector<NodeId> nodes = cluster_->ComputeNodes();
  auto value = runtime_->PutAt(I64Buffer(41), nodes[1]);
  ASSERT_TRUE(value.ok());
  MetricsRegistry& metrics = runtime_->metrics();
  auto hops_to_run_on = [&](NodeId node) -> int64_t {
    const int64_t before = runtime_->control_hops();
    TaskSpec spec = Call("inc_i64", {TaskArg::Ref(*value)});
    spec.pinned_node = node;
    auto out = runtime_->Submit(std::move(spec));
    EXPECT_TRUE(out.ok());
    auto result = runtime_->Get((*out)[0]);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(I64Of(*result), 42);
    return runtime_->control_hops() - before;
  };

  const int64_t local_hops = hops_to_run_on(nodes[1]);
  EXPECT_EQ(metrics.GetCounter("runtime.resolve_local_hits").value(), 1);
  EXPECT_EQ(metrics.GetCounter("runtime.pull_resolutions").value(), 0);
  const int64_t pulled_hops = hops_to_run_on(nodes[2]);
  EXPECT_EQ(metrics.GetCounter("runtime.resolve_local_hits").value(), 1);
  EXPECT_EQ(metrics.GetCounter("runtime.pull_resolutions").value(), 1);
  EXPECT_EQ(pulled_hops, local_hops + 1);
}

// In push mode an argument that is not ready when its consumer is dispatched
// has nothing to push yet. The landing counts a push miss and pulls the value
// once it is ready, with no push at all.
TEST_F(RuntimeTest, PushModeLandingPullsArgumentNotYetPushed) {
  RuntimeOptions options;
  options.futures = FutureProtocol::kPush;
  Build(options);
  const NodeId node = cluster_->ComputeNodes()[1];
  OwnershipTable& table = runtime_->ownership(cluster_->head());
  const ObjectId arg = ObjectId::Next();
  ASSERT_TRUE(table.RegisterObject(arg, nullptr).ok());

  TaskSpec consumer = Call("inc_i64", {TaskArg::Ref({arg, cluster_->head()})});
  consumer.pinned_node = node;
  auto out = runtime_->Submit(std::move(consumer));
  ASSERT_TRUE(out.ok());
  // Losing the argument admits the consumer; re-arming it leaves the
  // landing waiting on the owner record.
  ASSERT_TRUE(table.MarkLost(arg).ok());
  ASSERT_TRUE(table.MarkPendingForReconstruction(arg).ok());
  MetricsRegistry& metrics = runtime_->metrics();
  ASSERT_TRUE(WaitUntil([&] { return metrics.GetCounter("runtime.pull_resolutions").value() == 1; }));
  EXPECT_EQ(metrics.GetCounter("runtime.push_misses").value(), 1);

  // Ready without a push: the waiting landing fetches the value itself.
  ASSERT_TRUE(cluster_->cache().Put(arg, I64Buffer(41), cluster_->head()).ok());
  ASSERT_TRUE(table.MarkReady(arg, cluster_->head(), 8).ok());
  auto result = runtime_->Get((*out)[0], 10000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(I64Of(*result), 42);
  EXPECT_EQ(metrics.GetCounter("runtime.pushes").value(), 0);
}

// An object with no producing task (a Put, or a record registered straight
// into a table) cannot be rebuilt from lineage: losing its only copy counts
// it as unrecoverable and leaves it lost.
TEST_F(RuntimeTest, LostObjectsWithoutLineageCountAsUnrecoverable) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kLineage;
  Build(options);

  NodeId victim;
  for (NodeId n : cluster_->ComputeNodes()) {
    if (n != cluster_->head()) {
      victim = n;
      break;
    }
  }
  auto put = runtime_->PutAt(Buffer::FromString("only copy"), victim);
  ASSERT_TRUE(put.ok());
  OwnershipTable& table = runtime_->ownership(cluster_->head());
  const ObjectId registered = ObjectId::Next();
  ASSERT_TRUE(table.RegisterObject(registered, nullptr).ok());
  ASSERT_TRUE(table.MarkReady(registered, victim, 8).ok());

  ASSERT_TRUE(runtime_->KillNode(victim).ok());
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.unrecoverable_objects").value(), 2);
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.lineage_reexecutions").value(), 0);
  for (const ObjectRef& ref : {*put, ObjectRef{registered, cluster_->head()}}) {
    auto reply = runtime_->ownership(ref.owner).Resolve(ref.id);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->state, ObjectState::kLost);
  }
}

TEST_F(RuntimeTest, ReplicationSurvivesKillWithoutReexecution) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kNone;
  ClusterConfig config = DefaultConfig();
  config.caching.replication_factor = 2;
  Build(options, config);

  NodeId victim;
  for (NodeId n : cluster_->ComputeNodes()) {
    if (n != cluster_->head()) {
      victim = n;
      break;
    }
  }
  TaskSpec spec = Call("inc_i64", {TaskArg::Value(I64Buffer(1))});
  spec.pinned_node = victim;
  auto a = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(runtime_->Wait({(*a)[0]}, 10000).ok());
  ASSERT_TRUE(runtime_->KillNode(victim).ok());

  auto result = runtime_->Get((*a)[0], 5000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(I64Of(*result), 2);
  EXPECT_EQ(runtime_->metrics().GetCounter("runtime.lineage_reexecutions").value(), 0);
}

TEST_F(RuntimeTest, InFlightTasksFailOverToSurvivors) {
  RuntimeOptions options;
  options.recovery = RecoveryMode::kLineage;
  Build(options);

  ASSERT_TRUE(registry_.Register("slow_inc", [](TaskContext&, std::vector<Buffer>& args)
                                     -> Result<std::vector<Buffer>> {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return std::vector<Buffer>{I64Buffer(I64Of(args[0]) + 1)};
  }).ok());

  NodeId victim;
  for (NodeId n : cluster_->ComputeNodes()) {
    if (n != cluster_->head()) {
      victim = n;
      break;
    }
  }
  // Queue several slow tasks on the victim, then kill it mid-flight.
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 6; ++i) {
    TaskSpec spec = Call("slow_inc", {TaskArg::Value(I64Buffer(i))});
    spec.pinned_node = victim;
    auto r = runtime_->Submit(std::move(spec));
    ASSERT_TRUE(r.ok());
    refs.push_back((*r)[0]);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(runtime_->KillNode(victim).ok());

  // Redispatch sends pinned tasks nowhere (pin target dead) — they become
  // unschedulable; accept either recovery or explicit failure, but the
  // runtime must not hang.
  // analyze:allow status-propagation (either outcome is valid; only liveness matters)
  Status st = runtime_->Wait(refs, 5000);
  if (st.ok()) {
    for (const ObjectRef& ref : refs) {
      (void)runtime_->Get(ref, 1000);  // value may be lost mid-failover; only liveness matters
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace skadi
