#include "src/runtime/runtime.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "src/common/logging.h"
#include "src/common/metric_names.h"
#include "src/common/reactor.h"
#include "src/common/trace.h"

namespace skadi {

namespace {

// Positional countdown over n async results, shared by GetAll and the
// argument landing: each slot is filled once, and the fill that lands the
// count on zero hands every slot to `done`. Like Scheduler::Pending it starts
// with a +1 guard, which the caller drops (Release) once every fill has
// started, so fills that complete inline cannot finish the set early.
struct Gather {
  using Done = std::function<void(std::vector<Result<Buffer>>)>;

  Gather(size_t n, Done on_done)
      : results(n, Result<Buffer>(Status::Internal("slot never filled"))),
        remaining(n + 1),
        done(std::move(on_done)) {}

  void Fill(size_t i, Result<Buffer> result) {
    results[i] = std::move(result);
    Release();
  }

  void Release() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done(std::move(results));
    }
  }

  std::vector<Result<Buffer>> results;
  std::atomic<size_t> remaining;
  Done done;
};

}  // namespace

// Resolves one future for a reader node as a chain of continuations on the
// control reactor: a driver Get reads at the head, a landing argument at its
// task's target.
//
// Lifecycle: heap-allocated via shared_ptr; every registered continuation
// (ownership watcher, retry timer, deadline timer, cache fetch callback)
// captures the shared_ptr, so the op outlives any late firing. `done` runs
// exactly once (finished_ gate); the deadline timer is cancelled on early
// completion so a resolved op does not linger on the wheel for the full
// timeout.
//
// Threading: Steps form a single chain — each state arms exactly one
// wake-up (watcher while pending, timer while lost) and the next Step runs
// when it fires, so backoff_nanos_/lost_rounds_ need no lock. Only the
// deadline timer runs concurrently with the chain, and it touches nothing
// but the atomics. The ownership watcher runs on the thread that flips the
// object's state and only posts the next Step to the control reactor.
struct SkadiRuntime::GetOp : std::enable_shared_from_this<SkadiRuntime::GetOp> {
  static constexpr TimerId kTimerDone = ~TimerId{0};
  // Lost rounds (about 1 s of backoff) before the op gives up with
  // DATA_LOSS: lineage recovery re-arms a recoverable object well within
  // them, and an output whose producer failed for good is never re-armed.
  static constexpr int kMaxLostRounds = 64;

  GetOp(SkadiRuntime* rt, ObjectRef ref, NodeId reader, const char* span_name,
        int64_t timeout_ms, std::function<void(Result<Buffer>)> done)
      : rt_(rt),
        ref_(ref),
        reader_(reader),
        deadline_nanos_(NowNanos() + timeout_ms * 1'000'000),
        done_(std::move(done)),
        // The op's span opens here (under the caller's context) and closes
        // in Finish — which may run on another thread after watcher + timer
        // + fabric hops, exactly the case the SpanHandle shape exists for.
        span_(trace::BeginSpan(span_name, trace::CurrentContext())) {}

  Reactor& reactor() { return rt_->control_; }

  void Start() {
    auto self = shared_from_this();
    rt_->RegisterOp(self);
    // The first probe runs before the deadline timer exists, so a 0-delay
    // timer cannot fail a ref that is already ready.
    Step();
    if (finished_.load(std::memory_order_acquire)) {
      return;
    }
    TimerId t = reactor().ScheduleAfter(
        std::max<int64_t>(deadline_nanos_ - NowNanos(), 0),
        [self] { self->OnDeadline(); });
    if (t != 0) {
      TimerId expected = 0;
      if (!deadline_timer_.compare_exchange_strong(expected, t)) {
        reactor().Cancel(t);  // finished before the timer id landed
      }
    }
    // A stopped reactor (runtime tear-down race) returns t == 0: no deadline
    // timer, but Step's inline deadline check, the lost-round cap and, for
    // a Get, the caller's bounded BlockOn still guarantee termination.
  }

  void Step() {
    // Each Step hop (watcher fire, backoff timer, inline probe) re-enters
    // under the op's span so retries and nested fetches stay in the tree.
    trace::ScopedContext adopt(span_.ctx);
    for (;;) {
      if (finished_.load(std::memory_order_acquire)) {
        return;
      }
      if (NowNanos() >= deadline_nanos_) {
        // Out of budget: a ready ref still resolves, and nothing else waits
        // (no watcher is armed).
        Result<OwnershipTable::ResolveReply> probe =
            rt_->ownership(ref_.owner).Resolve(ref_.id);
        if (probe.ok() && probe->state == ObjectState::kReady) {
          Fetch();
        } else {
          OnDeadline();
        }
        return;
      }
      auto self = shared_from_this();
      Result<ObjectState> state =
          rt_->ownership(ref_.owner).StateOrWatch(ref_.id, [self] { self->Resume(); });
      if (!state.ok()) {
        Finish(state.status());
        return;
      }
      switch (*state) {
        case ObjectState::kPending:
          return;  // watcher armed; MarkReady/MarkLost/DecRef re-enters Step
        case ObjectState::kReady:
          Fetch();
          return;
        case ObjectState::kLost: {
          if (rt_->options_.recovery == RecoveryMode::kNone) {
            Finish(Status::DataLoss("object " + ref_.ToString() + " lost"));
            return;
          }
          if (++lost_rounds_ >= kMaxLostRounds) {
            Finish(Status::DataLoss("object " + ref_.ToString() + " unrecoverable"));
            return;
          }
          // Lineage recovery re-arms the object to pending; retry on a wheel
          // timer with capped exponential backoff (was a sleep_for loop).
          rt_->metrics().GetCounter(names::kRuntimeLostRetries).Increment();
          trace::Instant(names::kSpanRuntimeLostRetry, backoff_nanos_,
                         "backoff_nanos");
          const int64_t delay = backoff_nanos_;
          backoff_nanos_ = std::min<int64_t>(backoff_nanos_ * 2, 16'000'000);
          if (reactor().ScheduleAfter(delay, [self] { self->Step(); }) != 0) {
            return;
          }
          continue;  // reactor stopped: re-probe inline, bounded by deadline
        }
      }
      return;
    }
  }

  // The watcher's hop: the next Step runs on the control reactor, or inline
  // once the reactor has stopped.
  void Resume() {
    auto self = shared_from_this();
    if (!reactor().Post([self] { self->Step(); })) {
      Step();
    }
  }

  void Fetch() {
    // The reader's control round trip to the owner (free when the reader is
    // the owner), then the transfer.
    rt_->ControlMessage(reader_, ref_.owner);
    auto self = shared_from_this();
    // Called under Step's ScopedContext, so the cache's own span parents
    // under this op; the completion re-adopts in Finish.
    rt_->cluster_->cache().GetAsync(
        ref_.id, reader_, /*cache_locally=*/false,
        [self](Result<Buffer> fetched) { self->Finish(std::move(fetched)); });
  }

  void OnDeadline() {
    Finish(Status::DeadlineExceeded("resolving " + ref_.ToString() + " timed out"));
  }

  void Finish(Result<Buffer> result) {
    if (finished_.exchange(true, std::memory_order_acq_rel)) {
      return;
    }
    TimerId t = deadline_timer_.exchange(kTimerDone);
    if (t != 0 && t != kTimerDone) {
      reactor().Cancel(t);
    }
    rt_->DeregisterOp(this);
    trace::EndSpan(span_, result.ok() ? 1 : 0, "ok");
    // Run the user continuation under the op's context so whatever it posts
    // next (often the rest of the driver flow) stays in the tree.
    trace::ScopedContext adopt(span_.ctx);
    done_(std::move(result));
  }

  SkadiRuntime* rt_;
  const ObjectRef ref_;
  const NodeId reader_;
  const int64_t deadline_nanos_;
  std::function<void(Result<Buffer>)> done_;
  trace::SpanHandle span_;
  std::atomic<bool> finished_{false};
  std::atomic<TimerId> deadline_timer_{0};
  int lost_rounds_ = 0;
  int64_t backoff_nanos_ = 1'000'000;  // 1ms doubling to a 16ms cap
};

SkadiRuntime::SkadiRuntime(Cluster* cluster, FunctionRegistry* registry,
                           RuntimeOptions options)
    : cluster_(cluster), registry_(registry), options_(options) {
  Reactor::MetricsHooks hooks;
  hooks.dispatches = &metrics().GetCounter(names::kFabricReactorDispatches);
  hooks.dispatch_nanos = &metrics().GetHistogram(names::kFabricReactorDispatchNanos);
  hooks.timer_lag_nanos = &metrics().GetHistogram(names::kFabricReactorTimerLagNanos);
  hooks.ready_depth = &metrics().GetGauge(names::kFabricReactorReadyDepth);
  control_.WireMetrics(hooks);
  control_.Start(1);

  // Every node gets an ownership table; every node that can run tasks also
  // gets a raylet.
  std::vector<SchedulableNode> schedulable;
  for (const ClusterNode& node : cluster_->nodes()) {
    ownership_[node.id] = std::make_unique<OwnershipTable>(node.id);
    // WaitReady drives the control reactor while it blocks, so a Wait on
    // the reactor's own driver still lets GetOp Steps run.
    ownership_[node.id]->set_reactor(&control_);
    if (!node.is_compute()) {
      continue;
    }
    NodeId node_id = node.id;
    Raylet::Callbacks callbacks;
    callbacks.pin_arg = [this](const ObjectRef& ref, NodeId at) {
      return PinArg(ref, at);
    };
    callbacks.unpin_arg = [this](const ObjectRef& ref, NodeId at) {
      UnpinArg(ref, at);
    };
    callbacks.complete = [this, node_id](const TaskSpec& spec, std::vector<Buffer> outputs) {
      return CompleteTask(spec, std::move(outputs), node_id);
    };
    callbacks.fail = [this](const TaskSpec& spec, const Status& status, NodeId at) {
      FailTask(spec, status, at);
    };
    raylets_[node.id] = std::make_unique<Raylet>(node, &cluster_->fabric().clock(),
                                                 std::move(callbacks), node.default_workers);
    schedulable.push_back(
        SchedulableNode{node.id, node.device.kind, node.dpu, node.default_workers});
  }

  // Parked tasks wait on their arguments' owner records.
  scheduler_ = std::make_unique<Scheduler>(
      &cluster_->cache(), &metrics(), options_.policy, schedulable,
      [this](const TaskSpec& spec, NodeId target) { return DispatchToNode(spec, target); },
      [this](const ObjectRef& ref, Continuation on_resolved) {
        return ownership(ref.owner).StateOrWatch(ref.id, std::move(on_resolved));
      },
      options_.seed);

  if (options_.futures == FutureProtocol::kPush) {
    // Every push goes through the batcher. Batching on: one coalesced control
    // message per (owner, destination) batch replaces one message per pushed
    // object. Batching off: a batch of one is delivered inline by Add, i.e.
    // one message per (object, consumer) pair. Either way each carried entry
    // lands its value in the destination store and counts as a push.
    push_batcher_ = std::make_unique<PushBatcher>(
        [this](NodeId owner, NodeId dst, std::vector<PushEntry> entries) {
          ControlMessage(owner, dst, 64 * static_cast<int64_t>(entries.size()));
          for (const PushEntry& e : entries) {
            // cache_locally=true: the transfer lands the value in the
            // consumer's store, where the task's landing reads it locally.
            // Nothing waits on the result: a value that has not landed by
            // then is pulled instead.
            cluster_->cache().GetAsync(e.object, dst, /*cache_locally=*/true,
                                       [](Result<Buffer>) {});
            metrics().GetCounter(names::kRuntimePushes).Increment();
          }
        },
        options_.batch_pushes ? PushBatcher::kDefaultMaxBatch : 1);
    if (options_.batch_pushes) {
      push_batcher_->set_metrics(&metrics());
    }
  }
  scheduler_->set_unschedulable_handler([this](const TaskSpec& spec, const Status& status) {
    FailTask(spec, status, NodeId());
  });

  autoscaler_ = std::make_unique<Autoscaler>(options_.autoscaler, &metrics());
  for (auto& [id, raylet] : raylets_) {
    raylet->set_runtime(this);
    raylet->set_metrics(&metrics());
    autoscaler_->Register(raylet.get());
  }
  for (auto& [id, table] : ownership_) {
    table->set_metrics(&metrics());
  }
  autoscaler_->Start();
}

SkadiRuntime::~SkadiRuntime() { Shutdown(); }

void SkadiRuntime::Shutdown() {
  autoscaler_->Stop();
  for (auto& [id, raylet] : raylets_) {
    raylet->Shutdown();
  }
  // A caller that gave up on its bounded wait (or a GetAsync nobody waited
  // on) can leave ops with armed watcher/backoff continuations that hold a
  // raw pointer to this runtime. Cancel them — every later continuation
  // then early-outs on the op's own finished_ flag without touching the
  // runtime — and shut the control reactor down, which drains its queue and
  // joins its driver, so a continuation already past that check completes
  // before members are destroyed.
  std::vector<std::shared_ptr<GetOp>> live;
  {
    MutexLock lock(ops_mu_);
    live.reserve(live_ops_.size());
    for (auto& [ptr, weak] : live_ops_) {
      if (auto op = weak.lock()) {
        live.push_back(std::move(op));
      }
    }
  }
  for (auto& op : live) {
    op->Finish(Status::Unavailable("runtime shutting down"));
  }
  control_.Shutdown();
}

void SkadiRuntime::RegisterOp(const std::shared_ptr<GetOp>& op) {
  MutexLock lock(ops_mu_);
  live_ops_[op.get()] = op;
}

void SkadiRuntime::DeregisterOp(GetOp* op) {
  MutexLock lock(ops_mu_);
  live_ops_.erase(op);
}

Raylet* SkadiRuntime::raylet(NodeId node) {
  auto it = raylets_.find(node);
  return it == raylets_.end() ? nullptr : it->second.get();
}

OwnershipTable& SkadiRuntime::ownership(NodeId owner) {
  auto it = ownership_.find(owner);
  SKADI_CHECK(it != ownership_.end()) << "no ownership table for " << owner;
  return *it->second;
}

int SkadiRuntime::ControlMessage(NodeId from, NodeId to, int64_t payload_bytes) {
  if (from == to) {
    return 0;  // in-process: free, uncounted
  }
  int hops = 0;
  auto hop = [&](NodeId src, NodeId dst) {
    if (src == dst) {
      return;
    }
    // The fabric charges latency + payload and counts the round trip.
    // Ignore kUnavailable against just-killed nodes.
    (void)cluster_->fabric().Control(src, dst, payload_bytes);
    metrics().GetCounter(names::kRuntimeControlHops).Increment();
    ++hops;
  };

  if (options_.generation == RuntimeGeneration::kGen1) {
    // CPU-centric model: a device behind a DPU cannot talk directly to the
    // rest of the cluster; its control traffic detours through the DPU.
    const ClusterNode* src_node = cluster_->node(from);
    const ClusterNode* dst_node = cluster_->node(to);
    NodeId cursor = from;
    if (src_node != nullptr && src_node->dpu.valid() && src_node->dpu != to) {
      hop(cursor, src_node->dpu);
      cursor = src_node->dpu;
    }
    if (dst_node != nullptr && dst_node->dpu.valid() && dst_node->dpu != cursor) {
      hop(cursor, dst_node->dpu);
      cursor = dst_node->dpu;
    }
    hop(cursor, to);
  } else {
    hop(from, to);
  }
  return hops;
}

Result<std::vector<ObjectRef>> SkadiRuntime::Submit(TaskSpec spec) {
  if (spec.body == nullptr) {
    SKADI_ASSIGN_OR_RETURN(spec.body, registry_->Lookup(spec.function));
  }
  if (spec.num_returns < 0) {
    return Status::InvalidArgument("num_returns must be >= 0");
  }
  // The submit span is the anchor of the task's causal tree: its context is
  // stamped into the spec and re-adopted by whichever raylet (and node) ends
  // up running the task.
  trace::TraceSpan submit_span(names::kSpanRuntimeSubmit);
  // CurrentContext(), not submit_span.context(): when this flow's root was
  // unsampled, the TLS carries the unsampled marker and the spec must ship
  // it so the raylet side doesn't start a fresh root for this task.
  spec.trace_ctx = trace::CurrentContext();
  spec.id = TaskId::Next();
  spec.owner = cluster_->head();
  spec.returns.clear();
  for (int i = 0; i < spec.num_returns; ++i) {
    spec.returns.push_back(ObjectId::Next());
  }
  // The lineage copy lives in the returns' ownership records and goes with
  // the last of them.
  auto lineage = std::make_shared<const TaskSpec>(spec);
  std::vector<ObjectRef> refs;
  OwnershipTable& table = ownership(spec.owner);
  for (ObjectId oid : spec.returns) {
    SKADI_RETURN_IF_ERROR(table.RegisterObject(oid, lineage));
    refs.push_back(ObjectRef{oid, spec.owner});
  }
  metrics().GetCounter(names::kRuntimeTasksSubmitted).Increment();
  SKADI_RETURN_IF_ERROR(scheduler_->Submit(std::move(spec)));
  return refs;
}

Result<ObjectRef> SkadiRuntime::Put(Buffer value) {
  return PutAt(std::move(value), cluster_->head());
}

Result<ObjectRef> SkadiRuntime::PutAt(Buffer value, NodeId node) {
  NodeId head = cluster_->head();
  if (cluster_->node(node) == nullptr) {
    return Status::NotFound("unknown node " + node.ToString());
  }
  ObjectId id = ObjectId::Next();
  OwnershipTable& table = ownership(head);
  SKADI_RETURN_IF_ERROR(table.RegisterObject(id, nullptr));
  int64_t size = static_cast<int64_t>(value.size());
  SKADI_RETURN_IF_ERROR(cluster_->cache().Put(id, std::move(value), node));
  // Replicas first, as in CompleteTask: MarkReady admits parked consumers.
  for (NodeId replica : cluster_->cache().Locations(id)) {
    if (replica != node) {
      // Best-effort replica bookkeeping: the record may already be gone.
      (void)table.AddLocation(id, replica);
    }
  }
  auto consumers = table.MarkReady(id, node, size, cluster_->node(node)->device.id);
  if (!consumers.ok()) {
    return consumers.status();
  }
  return ObjectRef{id, head};
}

Status SkadiRuntime::DispatchToNode(const TaskSpec& spec, NodeId target) {
  Raylet* r = raylet(target);
  if (r == nullptr) {
    return Status::NotFound("no raylet on " + target.ToString());
  }
  if (r->dead() || cluster_->fabric().IsDead(target)) {
    return Status::Unavailable("raylet on " + target.ToString() + " is dead");
  }

  // Dispatch control message from the scheduler (head) to the target; inline
  // argument bytes ride along.
  int64_t inline_bytes = 64;
  for (const TaskArg& arg : spec.args) {
    if (!arg.is_ref()) {
      inline_bytes += static_cast<int64_t>(arg.value().size());
    }
  }
  ControlMessage(cluster_->head(), target, inline_bytes);

  // Push protocol: register the chosen consumer node with the owner of every
  // ref argument; anything already ready is pushed right now, so the value
  // is in the target's store before the landing below looks. With batching
  // on, the already-ready pushes of one dispatch coalesce per owner (a k-ref
  // fan-in costs one owner->target message instead of k) and flush first.
  if (options_.futures == FutureProtocol::kPush) {
    for (const TaskArg& arg : spec.args) {
      if (!arg.is_ref()) {
        continue;
      }
      const ObjectRef& ref = arg.ref();
      ControlMessage(cluster_->head(), ref.owner);
      auto ready_now = ownership(ref.owner)
                           .RegisterConsumer(ref.id, ConsumerRegistration{
                                                         spec.id, target,
                                                         cluster_->node(target)->device.id});
      if (ready_now.ok() && *ready_now) {
        push_batcher_->Add(ref.owner, PushEntry{ref.id, spec.id, target});
      }
    }
    push_batcher_->FlushAll();
  }

  // Land every argument on the target before a worker gets the task. Both
  // protocols share this path and differ only in who started the transfer:
  // a pushed value is already in the target's store, and a pull fetches it
  // now. Pending and lost arguments wait on owner-record watchers and
  // reactor timers, not on a thread.
  auto task = std::make_shared<const TaskSpec>(spec);
  auto gather = std::make_shared<Gather>(
      spec.args.size(), [this, task, target](std::vector<Result<Buffer>> landed) {
        EnqueueLanded(task, target, std::move(landed));
      });
  LocalObjectStore* store = cluster_->cache().StoreOf(target);
  for (size_t i = 0; i < spec.args.size(); ++i) {
    if (!spec.args[i].is_ref()) {
      gather->Fill(i, spec.args[i].value());
      continue;
    }
    const ObjectRef& ref = spec.args[i].ref();
    auto fill = [gather, i](Result<Buffer> value) { gather->Fill(i, std::move(value)); };
    if (store != nullptr && store->Contains(ref.id)) {
      // Pushed, or a lucky locality placement: no control message.
      metrics().GetCounter(names::kRuntimeResolveLocalHits).Increment();
      cluster_->cache().GetAsync(ref.id, target, /*cache_locally=*/false, std::move(fill));
      continue;
    }
    if (options_.futures == FutureProtocol::kPush) {
      // The value lives remotely without a copy here (e.g. a replica
      // eviction, or a push still in flight): pull it like pull mode does.
      metrics().GetCounter(names::kRuntimePushMisses).Increment();
    }
    metrics().GetCounter(names::kRuntimePullResolutions).Increment();
    std::make_shared<GetOp>(this, ref, target, names::kSpanRuntimeResolveArg,
                            kDefaultGetTimeoutMs, std::move(fill))
        ->Start();
  }
  gather->Release();
  return Status::Ok();
}

void SkadiRuntime::EnqueueLanded(const std::shared_ptr<const TaskSpec>& spec, NodeId target,
                                 std::vector<Result<Buffer>> landed) {
  Raylet* r = raylet(target);
  std::vector<Buffer> args;
  args.reserve(landed.size());
  for (Result<Buffer>& value : landed) {
    if (!value.ok()) {
      // A landing that failed because its target died is an abort, which
      // re-places the task unless OnNodeFailure already has. The failure is
      // reported from the control reactor: inline, it would admit the task's
      // dependents and fail their landings on this stack, one more set of
      // frames per link of a failing chain.
      auto fail = [this, spec, target,
                   status = r->dead() ? Status::Aborted("node " + target.ToString() + " died")
                                      : value.status()] { FailTask(*spec, status, target); };
      if (!control_.Post(fail)) {
        fail();
      }
      return;
    }
    args.push_back(std::move(value).value());
  }
  Status queued = r->Enqueue(spec, std::move(args));
  if (!queued.ok()) {
    FailTask(*spec, Status::Aborted(queued.message()), target);
  }
}

bool SkadiRuntime::PinArg(const ObjectRef& ref, NodeId at) {
  // Best effort: the argument may have been pulled from a remote replica
  // without a local copy, in which case there is no entry to pin. The
  // resolved Buffer still aliases refcounted storage, so the task's bytes
  // are safe regardless; pinning only protects store residency.
  LocalObjectStore* store = cluster_->cache().StoreOf(at);
  return store != nullptr && store->Pin(ref.id).ok();
}

void SkadiRuntime::UnpinArg(const ObjectRef& ref, NodeId at) {
  LocalObjectStore* store = cluster_->cache().StoreOf(at);
  if (store != nullptr) {
    // The entry may have been deleted while pinned (explicit Delete ignores
    // pins); that is fine — the Buffer keeps the bytes alive.
    (void)store->Unpin(ref.id);
  }
}

Status SkadiRuntime::CompleteTask(const TaskSpec& spec, std::vector<Buffer> outputs,
                                  NodeId at) {
  // Runs on the executing raylet's worker under RunTask's ScopedContext, so
  // this span sits inside the task's run span.
  trace::TraceSpan complete_span(names::kSpanRuntimeCompleteTask);
  const ClusterNode* node = cluster_->node(at);
  OwnershipTable& table = ownership(spec.owner);

  Status status = Status::Ok();
  for (size_t i = 0; i < outputs.size(); ++i) {
    ObjectId oid = spec.returns[i];
    int64_t size = static_cast<int64_t>(outputs[i].size());

    Status put = cluster_->cache().Put(oid, std::move(outputs[i]), at);
    if (!put.ok() && put.code() != StatusCode::kAlreadyExists) {
      status = put;
      break;
    }

    // Record caching-layer replicas BEFORE declaring the object ready, so a
    // failure observed right after MarkReady already sees every copy (loss
    // is only declared when the last copy dies).
    for (NodeId replica : cluster_->cache().Locations(oid)) {
      if (replica != at) {
        // Best-effort replica bookkeeping: the record may already be gone.
        (void)table.AddLocation(oid, replica);
      }
    }
    // Notify the owner (device-aware: record where the value physically is).
    // Its watchers fire inside MarkReady: parked dependents are admitted
    // here, on this worker.
    ControlMessage(at, spec.owner);
    auto consumers = table.MarkReady(oid, at, size, node->device.id,
                                     /*device_handle=*/node->device.id.value());
    if (!consumers.ok()) {
      status = consumers.status();
      break;
    }

    // Push protocol: proactively ship the value to registered consumers
    // (batched per destination unless batching is off).
    if (push_batcher_ != nullptr) {
      for (const ConsumerRegistration& consumer : *consumers) {
        push_batcher_->Add(spec.owner, PushEntry{oid, consumer.task, consumer.node});
      }
    }
  }

  // Deliver every batched push before the task counts as finished. Pushes
  // for the same destination across ALL of this task's outputs ride one
  // message. (A dependent admitted inside MarkReady pushes its own
  // already-ready arguments at dispatch.) The error paths flush too:
  // nothing else would deliver what earlier outputs queued.
  if (push_batcher_ != nullptr) {
    push_batcher_->FlushAll();
  }
  if (!status.ok()) {
    return status;
  }

  metrics().GetCounter(names::kRuntimeTasksCompleted).Increment();
  scheduler_->OnTaskFinished(spec.id);
  return Status::Ok();
}

void SkadiRuntime::FailTask(const TaskSpec& spec, const Status& status, NodeId at) {
  metrics().GetCounter(names::kRuntimeTasksFailed).Increment();
  SKADI_LOG(kInfo) << "task " << spec.id << " (" << spec.function
                   << ") failed: " << status.ToString();
  if (status.code() == StatusCode::kAborted) {
    // The attempt died with its node. Hand the spec back to the scheduler,
    // which re-dispatches it unless OnNodeFailure already failed it over —
    // both paths arbitrate on the same in-flight record, so exactly one live
    // attempt survives no matter which side observes the death first.
    scheduler_->OnTaskAborted(spec, at);
    return;
  }
  // Non-abort failures are terminal: mark outputs lost so Get unblocks.
  // MarkLost also admits parked dependents, whose argument landing then
  // fails and propagates the error instead of hanging the job.
  for (ObjectId oid : spec.returns) {
    (void)ownership(spec.owner).MarkLost(oid);  // record may already be released
  }
  scheduler_->OnTaskFinished(spec.id);
}

Result<Buffer> SkadiRuntime::Get(const ObjectRef& ref, int64_t timeout_ms) {
  if (timeout_ms < 0) {
    timeout_ms = kDefaultGetTimeoutMs;
  }
  auto ev = std::make_shared<Event>();
  auto result =
      std::make_shared<Result<Buffer>>(Status::Internal("Get never completed"));
  GetAsync(ref,
           [ev, result](Result<Buffer> r) {
             *result = std::move(r);
             ev->Set();
           },
           timeout_ms);
  // Belt-and-suspenders bound: GetOp's deadline timer fires first in every
  // non-shutdown schedule; the slack covers a stopped reactor.
  control_.BlockOn(*ev, NowNanos() + (timeout_ms + 100) * 1'000'000);
  if (!ev->is_set()) {
    return Status::DeadlineExceeded("Get(" + ref.ToString() + ") timed out");
  }
  return std::move(*result);
}

Result<std::vector<Buffer>> SkadiRuntime::GetAll(const std::vector<ObjectRef>& refs,
                                                 int64_t timeout_ms) {
  if (timeout_ms < 0) {
    timeout_ms = kDefaultGetTimeoutMs;
  }
  if (refs.empty()) {
    return std::vector<Buffer>();
  }
  // Fan out one GetOp per ref on the control reactor and park once on the
  // gather: N concurrent resolutions, one blocking wait. Sinks gathering
  // many partitions resolve in resolution order rather than serially in
  // index order.
  auto done = std::make_shared<Event>();
  auto results = std::make_shared<std::vector<Result<Buffer>>>();
  auto gather = std::make_shared<Gather>(
      refs.size(), [done, results](std::vector<Result<Buffer>> gathered) {
        *results = std::move(gathered);
        done->Set();
      });
  for (size_t i = 0; i < refs.size(); ++i) {
    GetAsync(refs[i],
             [gather, i](Result<Buffer> r) { gather->Fill(i, std::move(r)); },
             timeout_ms);
  }
  gather->Release();
  // See Get for the bounded-BlockOn rationale.
  control_.BlockOn(*done, NowNanos() + (timeout_ms + 100) * 1'000'000);
  if (!done->is_set()) {
    return Status::DeadlineExceeded("GetAll(" + std::to_string(refs.size()) +
                                    " refs) timed out");
  }
  std::vector<Buffer> values;
  values.reserve(refs.size());
  for (Result<Buffer>& r : *results) {
    if (!r.ok()) {
      return r.status();
    }
    values.push_back(std::move(*r));
  }
  return values;
}

void SkadiRuntime::GetAsync(const ObjectRef& ref,
                            std::function<void(Result<Buffer>)> done,
                            int64_t timeout_ms) {
  if (timeout_ms < 0) {
    timeout_ms = kDefaultGetTimeoutMs;
  }
  const int64_t start_nanos = NowNanos();
  std::make_shared<GetOp>(this, ref, cluster_->head(), names::kSpanRuntimeGet, timeout_ms,
                          [this, start_nanos, done = std::move(done)](Result<Buffer> r) {
                            metrics()
                                .GetHistogram(names::kRuntimeGetNanos)
                                .Record(NowNanos() - start_nanos);
                            done(std::move(r));
                          })
      ->Start();
}

Status SkadiRuntime::Wait(const std::vector<ObjectRef>& refs, int64_t timeout_ms) {
  if (timeout_ms < 0) {
    timeout_ms = kDefaultGetTimeoutMs;
  }
  const int64_t deadline = NowNanos() + timeout_ms * 1'000'000;
  for (const ObjectRef& ref : refs) {
    // WaitReady checks the state before the clock, so a resolved ref passes
    // whatever budget is left. The budget rounds up and never reaches 0,
    // which WaitReady reads as "forever".
    const int64_t remaining_ms =
        std::max<int64_t>(1, (deadline - NowNanos() + 999'999) / 1'000'000);
    auto state = ownership(ref.owner).WaitReady(ref.id, remaining_ms);
    if (!state.ok()) {
      return state.status();
    }
  }
  return Status::Ok();
}

Status SkadiRuntime::Release(const ObjectRef& ref) {
  auto removed = ownership(ref.owner).DecRef(ref.id);
  if (!removed.ok()) {
    return removed.status();
  }
  if (*removed) {
    (void)cluster_->cache().Delete(ref.id);  // best effort; may be uncached
  }
  return Status::Ok();
}

Result<ActorId> SkadiRuntime::CreateActor(NodeId node, std::shared_ptr<void> initial_state) {
  Raylet* r = raylet(node);
  if (r == nullptr) {
    return Status::NotFound("no raylet on " + node.ToString());
  }
  ActorId actor = ActorId::Next();
  ControlMessage(cluster_->head(), node);
  SKADI_RETURN_IF_ERROR(r->CreateActor(actor, std::move(initial_state)));
  MutexLock lock(mu_);
  actor_homes_[actor] = node;
  return actor;
}

Result<std::vector<ObjectRef>> SkadiRuntime::SubmitActorTask(ActorId actor, TaskSpec spec) {
  NodeId home;
  {
    MutexLock lock(mu_);
    auto it = actor_homes_.find(actor);
    if (it == actor_homes_.end()) {
      return Status::NotFound("actor " + actor.ToString() + " unknown");
    }
    home = it->second;
  }
  spec.actor = actor;
  spec.pinned_node = home;
  return Submit(std::move(spec));
}

Status SkadiRuntime::KillNode(NodeId node) {
  Raylet* r = raylet(node);
  if (r == nullptr) {
    return Status::NotFound("no raylet on " + node.ToString());
  }
  SKADI_LOG(kInfo) << "killing node " << node;
  metrics().GetCounter(names::kRuntimeNodesKilled).Increment();

  // 1. Stop the node: raylet rejects work, fabric rejects messages.
  r->Kill();
  cluster_->fabric().MarkDead(node);

  // 2. Its store contents vanish.
  cluster_->cache().OnNodeFailure(node);

  // 3. Owners learn which objects lost their last copy.
  std::vector<ObjectRef> lost;
  for (auto& [owner, table] : ownership_) {
    for (ObjectId oid : table->OnNodeFailure(node)) {
      lost.push_back(ObjectRef{oid, owner});
    }
  }

  // 4. Re-produce lost objects via lineage (before re-dispatching, so
  // re-dispatched consumers park on the re-armed objects instead of reading
  // kLost). Without recovery, consumers fail at landing.
  if (options_.recovery == RecoveryMode::kLineage) {
    RecoverLostObjects(lost);
  }

  // 5. Fail over in-flight tasks of the dead node.
  scheduler_->OnNodeFailure(node);
  return Status::Ok();
}

void SkadiRuntime::RecoverLostObjects(const std::vector<ObjectRef>& lost) {
  // Transitive closure over lineage: a lost object's producing task may
  // consume other lost objects; re-arm and re-submit each producing task
  // once. Each re-run lands its arguments first, which orders the
  // re-execution correctly.
  std::vector<ObjectRef> frontier = lost;
  std::unordered_map<TaskId, std::shared_ptr<const TaskSpec>> to_resubmit;

  while (!frontier.empty()) {
    ObjectRef ref = frontier.back();
    frontier.pop_back();

    auto record = ownership(ref.owner).Resolve(ref.id);
    if (!record.ok() || record->producer == nullptr) {
      // A Put has no producing task to re-run, and a released object has no
      // record: unrecoverable; leave kLost.
      metrics().GetCounter(names::kRuntimeUnrecoverableObjects).Increment();
      continue;
    }
    const TaskSpec& spec = *record->producer;
    if (!to_resubmit.emplace(spec.id, record->producer).second) {
      continue;
    }

    // Re-arm every lost return of this producer.
    for (ObjectId ret : spec.returns) {
      // Only returns still recorded as lost re-arm; others were re-created.
      (void)ownership(spec.owner).MarkPendingForReconstruction(ret);
    }

    // Any lost arguments must be re-produced first; enqueue them too.
    for (const TaskArg& arg : spec.args) {
      if (!arg.is_ref()) {
        continue;
      }
      auto reply = ownership(arg.ref().owner).Resolve(arg.ref().id);
      if (reply.ok() && reply->state == ObjectState::kLost) {
        frontier.push_back(arg.ref());
      }
    }
  }

  for (auto& [task, spec] : to_resubmit) {
    metrics().GetCounter(names::kRuntimeLineageReexecutions).Increment();
    Status resubmitted = scheduler_->Submit(*spec);
    if (!resubmitted.ok()) {
      SKADI_LOG(kWarn) << "lineage re-execution of " << task
                       << " failed: " << resubmitted.ToString();
      metrics().GetCounter(names::kRuntimeUnrecoverableObjects).Increment();
    }
  }
}

int64_t SkadiRuntime::control_hops() const {
  return const_cast<SkadiRuntime*>(this)->metrics().GetCounter(names::kRuntimeControlHops).value();
}

}  // namespace skadi
