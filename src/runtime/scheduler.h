// Centralized scheduler of the stateful serverless runtime's control plane.
//
// Implements the paper's placement inputs ("the runtime decides the preferred
// hardware based on memory locality, device availability, network topology",
// §2.1) as pluggable policies, plus data-centric dependency gating (tasks
// dispatch when their inputs are ready) and gang scheduling for SPMD
// sub-graphs (§2.3).
//
// Concurrency (DESIGN.md §13): there is no scheduler-wide mutex, and the
// scheduler keeps no per-object state. A task's dependency state is its
// arguments' owner records:
//
//  * parking — Submit registers one ownership watcher (WatchFn) per pending
//    ref argument. The watchers share an atomic countdown of unresolved
//    arguments (+1 submit guard), so Submit and watchers firing concurrently
//    never lose a wakeup and exactly one side admits the task. A watcher
//    fires on the thread that flips the argument's state, so the raylet
//    worker that completes a producer dispatches its dependents.
//  * dispatch on admit — the admitting thread picks a node and calls the
//    dispatch function itself, outside every lock. Dispatch only posts the
//    task to the raylet's reactor queue, so that queue is where tasks wait
//    (and the depth the autoscaler reads); the scheduler stages nothing.
//  * in-flight records in a fixed array of TaskShards, the live node set and
//    policy state under nodes_mu_ (short pick sections only), and gang
//    buffers under gangs_mu_ (scanned only on gang-relevant events).
#ifndef SRC_RUNTIME_SCHEDULER_H_
#define SRC_RUNTIME_SCHEDULER_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/caching_layer.h"
#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/random.h"
#include "src/ownership/ownership_table.h"
#include "src/runtime/task.h"

namespace skadi {

enum class SchedulingPolicy {
  kRoundRobin,
  kRandom,
  kLoadAware,       // fewest in-flight tasks
  kLocalityAware,   // most input bytes already local (data-centric, Whiz-style)
};

std::string_view SchedulingPolicyName(SchedulingPolicy policy);

// Node facts the scheduler needs; refreshed by the runtime.
struct SchedulableNode {
  NodeId id;
  DeviceKind device_kind = DeviceKind::kCpu;
  NodeId dpu;  // controlling DPU (for completeness; routing is runtime-side)
  int workers = 0;
};

class Scheduler {
 public:
  // dispatch: actually sends the spec to the chosen node's raylet (the
  // runtime wires this through the fabric so dispatch is a costed control
  // message). Returns non-OK if the node is dead, in which case the node
  // leaves the candidate set and the task is placed again.
  using DispatchFn = std::function<Status(const TaskSpec& spec, NodeId target)>;

  // Returns the state of `ref`'s owner record and, only while it is
  // pending, registers `on_resolved` to run once when it leaves pending.
  // The runtime wires OwnershipTable::StateOrWatch on the ref's owner, so a
  // released record reads NotFound and the watcher runs on the thread that
  // flips the state. The watcher holds a raw pointer to the scheduler: the
  // records' owner must drop unfired watchers before the scheduler dies.
  using WatchFn =
      std::function<Result<ObjectState>(const ObjectRef& ref, Continuation on_resolved)>;

  // Invoked (outside every scheduler lock) when a task cannot be placed on
  // any node after retries. The runtime uses this to fail the task terminally
  // so its futures resolve instead of hanging forever.
  using UnschedulableFn = std::function<void(const TaskSpec& spec, const Status& status)>;

  // `nodes` is the candidate set for the scheduler's whole life; a node
  // leaves it when it dies and never comes back.
  Scheduler(CachingLayer* cache, MetricsRegistry* metrics, SchedulingPolicy policy,
            const std::vector<SchedulableNode>& nodes, DispatchFn dispatch, WatchFn watch,
            uint64_t seed = 17);

  void set_unschedulable_handler(UnschedulableFn handler) {
    unschedulable_ = std::move(handler);
  }

  // Submits a task: admits it at once if no ref argument is pending,
  // otherwise parks it until the last pending argument leaves pending. An
  // argument that is lost or released counts as resolved: the task then
  // fails or recovers while its arguments land. An admitted task is
  // dispatched on the admitting thread, or buffered with its gang until the
  // whole gang is present and has slots.
  Status Submit(TaskSpec spec);

  // Called when a task finishes or fails (frees its slot, which may release
  // a gang).
  void OnTaskFinished(TaskId task);

  // Called when an attempt of `spec` aborted on `at` because the node died.
  // Re-dispatches the task elsewhere iff the in-flight record still refers to
  // the aborted attempt; a stale abort (OnNodeFailure already failed the task
  // over, so the record is gone or points at the new target) is a no-op.
  // Without this arbitration, an abort draining from a killed raylet's queue
  // ahead of OnNodeFailure would erase the in-flight record and the task
  // would never run anywhere — its futures would hang until the Get deadline.
  void OnTaskAborted(const TaskSpec& spec, NodeId at);

  // A node died: it leaves the candidate set and its in-flight tasks are
  // re-dispatched elsewhere.
  void OnNodeFailure(NodeId node);

  size_t pending_tasks() const;
  int64_t inflight_on(NodeId node) const;

 private:
  struct Node {
    explicit Node(const SchedulableNode& n) : info(n) {}

    const SchedulableNode info;
    // In-flight records naming this node. Atomic so the load-aware pick and
    // the gang slot check read it without the record's shard lock.
    std::atomic<int64_t> inflight{0};
  };

  // A parked task: the spec plus an atomic countdown of unresolved ref args.
  // Initialized to ref-arg-count + 1: Submit holds the +1 guard while it
  // registers watchers, so a watcher firing concurrently can decrement but
  // never reach zero early; whichever decrement lands the counter on zero
  // owns the spec and admits it exactly once.
  struct Pending {
    TaskSpec spec;
    std::atomic<int> unresolved{0};
  };

  // A dispatched, unfinished attempt: where it runs and the spec failover
  // re-dispatches.
  struct Inflight {
    NodeId node;
    TaskSpec spec;
  };
  struct TaskShard {
    Mutex mu;
    std::unordered_map<TaskId, Inflight> inflight GUARDED_BY(mu);
  };
  static constexpr size_t kTaskShards = 8;

  TaskShard& task_shard(TaskId id) {
    return task_shards_[std::hash<TaskId>()(id) % kTaskShards];
  }

  // Drops `n` from the countdown; the caller that lands it on zero admits
  // the task. Returns whether it did.
  bool Resolve(const std::shared_ptr<Pending>& pending, int n);
  // Routes a task whose arguments are all resolved, or buffers it with its
  // gang and tries to release the gang.
  void Admit(TaskSpec spec);

  Node* FindNode(NodeId id) const;
  // Picks a live node for the spec per policy. Locks nodes_mu_ only.
  Result<Node*> PickNode(const TaskSpec& spec) EXCLUDES(nodes_mu_);

  // Places one dep-ready task: pick a node and dispatch to it. On terminal
  // placement failure invokes unschedulable_.
  void Route(TaskSpec spec);
  void RouteAll(std::vector<TaskSpec> specs);

  // Records the task in flight on `node` and calls dispatch_ (no lock held);
  // on failure drops the node and routes the task again.
  void Dispatch(TaskSpec spec, Node* node);

  // Erases `task`'s in-flight record and frees its node's slot, but only if
  // the record names `at` (any node when `at` is invalid). Returns the
  // recorded spec, or nullopt when there was no such record.
  std::optional<TaskSpec> TakeInflight(TaskId task, NodeId at = NodeId());

  // Removes the node from the candidate set. Safe to call repeatedly.
  void RemoveNode(NodeId node);

  // Releases any gang whose members are all present and covered by free
  // worker slots (all-or-nothing); routes the released members. Members
  // are buffered only once admitted, so their arguments are resolved.
  void TryReleaseGangs();

  void UpdatePendingGauge();

  CachingLayer* cache_;
  MetricsRegistry* metrics_;
  const SchedulingPolicy policy_;
  DispatchFn dispatch_;
  WatchFn watch_;
  UnschedulableFn unschedulable_;  // set once at wiring time, before traffic

  // Every node, fixed at construction (so FindNode needs no lock).
  std::vector<std::unique_ptr<Node>> nodes_;

  // Candidate set + policy state. Lock order: nodes_mu_ may be taken under
  // gangs_mu_ (slot check) and may take CachingLayer::mu_ (locality probe);
  // never taken under a shard mutex.
  Mutex nodes_mu_;
  // The nodes still alive, in construction order; a dead node leaves for good.
  std::vector<Node*> live_ GUARDED_BY(nodes_mu_);
  Rng rng_ GUARDED_BY(nodes_mu_);
  size_t round_robin_next_ GUARDED_BY(nodes_mu_) = 0;

  // Each shard's contents are guarded by its own mutex, which is terminal.
  std::array<TaskShard, kTaskShards> task_shards_;

  // Gang groups: admitted members buffered until gang_size present + slots
  // free. Lock order: gangs_mu_ -> nodes_mu_ (slot check); nothing takes
  // gangs_mu_ while holding another lock.
  Mutex gangs_mu_;
  std::map<std::string, std::vector<TaskSpec>> gangs_ GUARDED_BY(gangs_mu_);

  // Cheap pending_tasks() (the gauge updates on every submit): parked tasks
  // and buffered gang members.
  std::atomic<int64_t> parked_count_{0};
  std::atomic<int64_t> gang_members_{0};

  // Cached metric handles (the registry outlives the scheduler).
  Counter* dispatched_ctr_;
  Counter* parked_ctr_;
  Counter* gang_buffered_ctr_;
  Counter* gangs_dispatched_ctr_;
  Counter* unschedulable_ctr_;
  Counter* retries_ctr_;
  Counter* abort_redispatch_ctr_;
  Counter* failover_ctr_;
  Gauge* pending_gauge_;
};

}  // namespace skadi

#endif  // SRC_RUNTIME_SCHEDULER_H_
