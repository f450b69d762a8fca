// Raylet: the per-node daemon of the stateful serverless runtime. Runs a
// worker pool, resolves task arguments (through runtime-supplied callbacks
// that implement the pull/push future protocols), charges modelled compute
// time, executes task bodies, and hands outputs back to the runtime.
//
// The same class serves all three deployments from the paper: a server
// raylet, a raylet offloaded to a DPU (Gen-1), and a device-resident raylet
// on a GPU/FPGA (Gen-2) — placement and control-plane routing differ, the
// daemon logic does not.
#ifndef SRC_RUNTIME_RAYLET_H_
#define SRC_RUNTIME_RAYLET_H_

#include <atomic>
#include <memory>
#include <unordered_map>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/reactor.h"
#include "src/hw/cost_model.h"
#include "src/runtime/cluster.h"
#include "src/runtime/task.h"

namespace skadi {

class Raylet {
 public:
  struct Callbacks {
    // Materializes a by-reference argument for a task running on this node.
    std::function<Result<Buffer>(const ObjectRef& ref, const TaskSpec& spec)> resolve_arg;
    // Pins/unpins a resolved by-reference argument in this node's object
    // store around the task body. Resolved Buffers alias the store entry's
    // storage zero-copy, so the bytes themselves survive eviction either
    // way; pinning keeps the *entry* resident so concurrent readers and
    // re-executions don't pay a refetch while the argument is hot. pin_arg
    // returns false when the object is not resident locally (remote fetch
    // without local caching) — only successful pins are unpinned. Optional.
    std::function<bool(const ObjectRef& ref, NodeId at)> pin_arg;
    std::function<void(const ObjectRef& ref, NodeId at)> unpin_arg;
    // Stores outputs, updates ownership, and triggers pushes. Called on the
    // worker thread after the body returns.
    std::function<Status(const TaskSpec& spec, std::vector<Buffer> outputs)> complete;
    // Reports a task failure (argument resolution, body error, or abort).
    // `at` is the node the attempt ran on, so the scheduler can tell a stale
    // abort from a dead node apart from the failover re-dispatch of the same
    // task already running elsewhere.
    std::function<void(const TaskSpec& spec, const Status& status, NodeId at)> fail;
  };

  Raylet(const ClusterNode& node, FunctionRegistry* registry, VirtualClock* clock,
         Callbacks callbacks, int num_workers);
  ~Raylet();

  Raylet(const Raylet&) = delete;
  Raylet& operator=(const Raylet&) = delete;

  NodeId node_id() const { return node_.id; }
  const DeviceSpec& device() const { return node_.device; }

  // Back-pointer handed to task bodies (TaskContext::runtime) so tasks can
  // use the distributed task API themselves (nested tasks, puts, gets).
  void set_runtime(SkadiRuntime* runtime) { runtime_ = runtime; }

  // Wires this raylet's telemetry (raylet.* metrics + the worker reactor's
  // raylet.reactor.* family) into `registry`. Same post-construction pattern
  // as set_runtime; call before traffic (SkadiRuntime's constructor does).
  void set_metrics(MetricsRegistry* registry);

  // Queues a task for execution. Fails when the raylet is dead.
  Status Enqueue(TaskSpec spec);

  // Actor management: actors live on exactly one raylet and their tasks run
  // serially against the state cell.
  Status CreateActor(ActorId actor, std::shared_ptr<void> initial_state);
  bool HasActor(ActorId actor) const;

  size_t queue_depth() const { return workers_.ready_count(); }
  size_t num_workers() const { return workers_.num_threads(); }
  void GrowWorkers(size_t n) { workers_.Start(n); }
  void ShrinkWorkers(size_t n) { workers_.Shrink(n); }

  int64_t tasks_executed() const { return tasks_executed_.load(); }

  // Failure injection: stop accepting and executing; queued + running tasks
  // report kAborted through the fail callback.
  void Kill();
  bool dead() const { return dead_.load(); }

  // Clean shutdown (drains the queue).
  void Shutdown();

 private:
  void RunTask(TaskSpec spec);

  ClusterNode node_;
  SkadiRuntime* runtime_ = nullptr;
  FunctionRegistry* registry_;
  VirtualClock* clock_;
  Callbacks callbacks_;
  // Worker pool as a reactor: task readiness is the ready-queue, so the same
  // drivers also run any continuations posted to this raylet.
  Reactor workers_;
  std::atomic<bool> dead_{false};
  std::atomic<int64_t> tasks_executed_{0};

  // Cached metric handles (null until set_metrics). Written once before
  // traffic; the handles live in the registry, which outlives the raylet.
  Histogram* task_nanos_ = nullptr;
  Gauge* queue_depth_gauge_ = nullptr;

  struct ActorRecord {
    explicit ActorRecord(std::shared_ptr<void> initial_state)
        : state(std::move(initial_state)) {}
    Mutex serial;  // one actor task at a time
    std::shared_ptr<void> state GUARDED_BY(serial);
  };
  mutable Mutex actors_mu_;
  std::unordered_map<ActorId, std::unique_ptr<ActorRecord>> actors_
      GUARDED_BY(actors_mu_);
};

}  // namespace skadi

#endif  // SRC_RUNTIME_RAYLET_H_
