// SkadiRuntime: the stateful serverless runtime (Figure 2 bottom half).
//
// Wires raylets, the centralized scheduler, per-node ownership tables, the
// caching layer, and the autoscaler over one emulated cluster, and exposes
// the distributed task API the access layer targets (Submit / Put / Get —
// the `X.remote()` pseudo-code of Figure 2).
//
// Two configuration axes reproduce Figure 3's generations:
//  * generation: Gen-1 routes control messages of device-resident code
//    through the complex's DPU (the CPU-centric model); Gen-2 gives every
//    device its own raylet and direct control paths (device-centric).
//  * futures: kPull fetches a by-reference argument when its task is
//    dispatched, with a control round trip from the target to the owner plus
//    an on-demand transfer; kPush has the owner proactively push the value to
//    registered consumers the moment it is produced. Either way every
//    argument has landed on the target before a raylet worker gets the task.
#ifndef SRC_RUNTIME_RUNTIME_H_
#define SRC_RUNTIME_RUNTIME_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/reactor.h"
#include "src/net/push_batcher.h"
#include "src/ownership/ownership_table.h"
#include "src/runtime/autoscaler.h"
#include "src/runtime/cluster.h"
#include "src/runtime/raylet.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/task.h"

namespace skadi {

enum class RuntimeGeneration { kGen1, kGen2 };
enum class FutureProtocol { kPull, kPush };
enum class RecoveryMode { kNone, kLineage };

struct RuntimeOptions {
  RuntimeGeneration generation = RuntimeGeneration::kGen2;
  FutureProtocol futures = FutureProtocol::kPull;
  SchedulingPolicy policy = SchedulingPolicy::kLocalityAware;
  RecoveryMode recovery = RecoveryMode::kLineage;
  AutoscalerOptions autoscaler;
  uint64_t seed = 17;
  // Push mode: coalesce same-destination resolution pushes into one fabric
  // message per flush instead of one per (object, consumer) pair.
  bool batch_pushes = true;
};

class SkadiRuntime {
 public:
  // Timeout for argument landings, and for driver Gets and Waits called with
  // timeout_ms < 0.
  static constexpr int64_t kDefaultGetTimeoutMs = 30000;

  SkadiRuntime(Cluster* cluster, FunctionRegistry* registry, RuntimeOptions options = {});
  ~SkadiRuntime();

  SkadiRuntime(const SkadiRuntime&) = delete;
  SkadiRuntime& operator=(const SkadiRuntime&) = delete;

  // --- Distributed task API ---

  // Submits a task; allocates and returns one ObjectRef per declared return.
  // spec.id/returns/owner are filled in here, and spec.body from the
  // registry when the spec names its function instead of carrying a body.
  Result<std::vector<ObjectRef>> Submit(TaskSpec spec);

  // Stores a driver-side value into the caching layer at the head node.
  Result<ObjectRef> Put(Buffer value);

  // Stores a value with its primary copy on a specific node (data placement
  // for locality experiments and table registration).
  Result<ObjectRef> PutAt(Buffer value, NodeId node);

  // Blocks until the future resolves; fetches the value to the head node.
  // A drain-loop shim over GetAsync: parks on an Event (helping drive the
  // control reactor when called from its driver thread).
  Result<Buffer> Get(const ObjectRef& ref, int64_t timeout_ms = -1);

  // Continuation form of Get: never parks the calling thread. `done` runs
  // inline when the future is already resolved (or fails fast), otherwise on
  // the control reactor when the owner flips the object's state. Lost objects
  // under lineage recovery re-arm a reactor timer (capped exponential
  // backoff) instead of sleeping, and fail with DATA_LOSS after 64 rounds
  // (about 1 s) that leave them lost. Requires a live cluster; timeout_ms < 0
  // means kDefaultGetTimeoutMs.
  void GetAsync(const ObjectRef& ref, std::function<void(Result<Buffer>)> done,
                int64_t timeout_ms = -1);

  // Resolves many futures concurrently: one GetAsync per ref fanned out on
  // the control reactor, one park for the whole set. Results are positional.
  // Fails with the first non-OK resolution (after all ops settle).
  Result<std::vector<Buffer>> GetAll(const std::vector<ObjectRef>& refs,
                                     int64_t timeout_ms = -1);

  // Blocks until all futures leave the pending state.
  Status Wait(const std::vector<ObjectRef>& refs, int64_t timeout_ms = -1);

  // Drops a driver reference; the object is deleted when the count is zero.
  Status Release(const ObjectRef& ref);

  // --- Actors ---

  Result<ActorId> CreateActor(NodeId node, std::shared_ptr<void> initial_state);
  // Convenience: spec.actor + pinned_node are set from the actor's home.
  Result<std::vector<ObjectRef>> SubmitActorTask(ActorId actor, TaskSpec spec);

  // --- Failure injection + recovery ---

  // Kills a node (a server, a device or a memory blade): its raylet, if any,
  // stops, its store contents vanish, in-flight tasks fail over. The caching
  // layer's directory names the objects whose last copy died with it, and
  // their owners mark the ready ones lost. With RecoveryMode::kLineage, lost
  // objects are re-produced by re-submitting their lineage task DAG: each
  // lost object's ownership record holds the spec that produced it.
  // NotFound for a node the cluster does not have.
  Status KillNode(NodeId node);

  // --- Introspection ---

  Cluster& cluster() { return *cluster_; }
  Scheduler& scheduler() { return *scheduler_; }
  Autoscaler& autoscaler() { return *autoscaler_; }
  Raylet* raylet(NodeId node);
  OwnershipTable& ownership(NodeId owner);
  const RuntimeOptions& options() const { return options_; }
  MetricsRegistry& metrics() { return cluster_->fabric().metrics(); }
  NodeId head() const { return cluster_->head(); }

  int64_t control_hops() const;

  // Stops the autoscaler, drains all raylets, cancels outstanding
  // future-resolution ops, then shuts down the control reactor (drain and
  // join) so no continuation left behind by an abandoned bounded wait
  // touches freed runtime state. Shutdown (and so ~SkadiRuntime) joins the
  // runtime's threads: never call it from one of them — a GetAsync
  // continuation on the control reactor, a task body or the autoscaler.
  // Reactor::Shutdown fails a check rather than join its own driver.
  void Shutdown();

 private:
  // Continuation state machine behind GetAsync/Get and the pull of a landing
  // argument: watches the owner's table via StateOrWatch, retries lost
  // objects on a reactor timer, and fetches to its reader node through
  // CachingLayer::GetAsync once ready. Defined in runtime.cc.
  struct GetOp;

  // One costed control message along the (generation-dependent) path from
  // `from` to `to`; returns the number of hops charged.
  int ControlMessage(NodeId from, NodeId to, int64_t payload_bytes = 64);

  // Raylet callbacks.
  // Pins/unpins a landed ref-arg's entry in at's store for the duration of
  // the task body (Raylet::Callbacks::pin_arg contract).
  bool PinArg(const ObjectRef& ref, NodeId at);
  void UnpinArg(const ObjectRef& ref, NodeId at);
  Status CompleteTask(const TaskSpec& spec, std::vector<Buffer> outputs, NodeId at);
  // `at` is the node the failing attempt ran on (invalid for failures that
  // never reached a node, e.g. unschedulable tasks). Aborts re-dispatch via
  // Scheduler::OnTaskAborted; other failures are terminal.
  void FailTask(const TaskSpec& spec, const Status& status, NodeId at);

  // Sends the task to `target` and lands its arguments there; the value that
  // lands last enqueues it (EnqueueLanded).
  Status DispatchToNode(const TaskSpec& spec, NodeId target);
  // Hands a task whose landing finished to its raylet, or fails it: a failed
  // landing, or one whose target died or refused the task (an abort).
  void EnqueueLanded(const std::shared_ptr<const TaskSpec>& spec, NodeId target,
                     std::vector<Result<Buffer>> landed);

  // Recovery helpers.
  void RecoverLostObjects(const std::vector<ObjectRef>& lost);

  // Live-op registry: every GetOp registers at Start and deregisters at
  // Finish, so Shutdown can cancel the stragglers a caller abandoned (a
  // bounded BlockOn that timed out, or a GetAsync never waited on).
  void RegisterOp(const std::shared_ptr<GetOp>& op);
  void DeregisterOp(GetOp* op);

  Cluster* cluster_;
  FunctionRegistry* registry_;
  RuntimeOptions options_;

  // The control plane's event loop, with one driver: GetOp Steps (posted by
  // their ownership watchers), GetOp deadline and backoff timers, and the
  // blocking shims' drain loop. Wired to the fabric.reactor.* metrics.
  // Declared before the ownership tables that point at it, so it outlives
  // them.
  Reactor control_{"control"};

  std::unique_ptr<Scheduler> scheduler_;
  // Push mode's one delivery path (null in pull mode): coalesces
  // same-destination resolution pushes, or with batch_pushes off delivers
  // each push inline as a batch of one.
  std::unique_ptr<PushBatcher> push_batcher_;
  std::unique_ptr<Autoscaler> autoscaler_;
  std::unordered_map<NodeId, std::unique_ptr<Raylet>> raylets_;
  // Declared after scheduler_: the tables, and every unfired watcher a
  // parked task left in them, are destroyed before the scheduler.
  std::unordered_map<NodeId, std::unique_ptr<OwnershipTable>> ownership_;

  mutable Mutex ops_mu_;
  std::unordered_map<GetOp*, std::weak_ptr<GetOp>> live_ops_ GUARDED_BY(ops_mu_);

  mutable Mutex mu_;
  std::unordered_map<ActorId, NodeId> actor_homes_ GUARDED_BY(mu_);
};

}  // namespace skadi

#endif  // SRC_RUNTIME_RUNTIME_H_
