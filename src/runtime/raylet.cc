#include "src/runtime/raylet.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/metric_names.h"
#include "src/common/trace.h"

namespace skadi {

Raylet::Raylet(const ClusterNode& node, VirtualClock* clock, Callbacks callbacks,
               int num_workers)
    : node_(node),
      clock_(clock),
      callbacks_(std::move(callbacks)),
      workers_("raylet-workers") {
  workers_.Start(static_cast<size_t>(num_workers > 0 ? num_workers : 1));
}

Raylet::~Raylet() { Shutdown(); }

void Raylet::set_metrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  task_nanos_ = &registry->GetHistogram(names::kRayletTaskNanos);
  queue_depth_gauge_ = &registry->GetGauge(names::kRayletQueueDepth);
  Reactor::MetricsHooks hooks;
  hooks.dispatches = &registry->GetCounter(names::kRayletReactorDispatches);
  hooks.dispatch_nanos = &registry->GetHistogram(names::kRayletReactorDispatchNanos);
  hooks.timer_lag_nanos = &registry->GetHistogram(names::kRayletReactorTimerLagNanos);
  hooks.ready_depth = &registry->GetGauge(names::kRayletReactorReadyDepth);
  workers_.WireMetrics(hooks);
}

Status Raylet::Enqueue(std::shared_ptr<const TaskSpec> spec, std::vector<Buffer> args) {
  if (dead_.load()) {
    return Status::Unavailable("raylet on " + node_.id.ToString() + " is dead");
  }
  bool accepted = workers_.Post([this, spec = std::move(spec), args = std::move(args)]() mutable {
    RunTask(*spec, std::move(args));
  });
  if (!accepted) {
    return Status::Unavailable("raylet on " + node_.id.ToString() + " shut down");
  }
  return Status::Ok();
}

void Raylet::RunTask(const TaskSpec& spec, std::vector<Buffer> args) {
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->Set(static_cast<int64_t>(queue_depth()));
  }
  // Adopt the submitting span's context (stamped into the spec by Submit) so
  // this execution parents under the driver's flow even though it crossed
  // the scheduler — and usually a fabric hop — to get here.
  trace::ScopedContext adopt(spec.trace_ctx);
  trace::TraceSpan run_span(names::kSpanRayletRunTask);
  // Wall-time of the whole attempt, failures included (histogram records on
  // every exit path).
  struct TaskTimer {
    Histogram* hist;
    int64_t start;
    ~TaskTimer() {
      if (hist != nullptr) {
        hist->Record(NowNanos() - start);
      }
    }
  } timer{task_nanos_, task_nanos_ != nullptr ? NowNanos() : 0};

  if (dead_.load()) {
    callbacks_.fail(spec, Status::Aborted("node " + node_.id.ToString() + " died"), node_.id);
    return;
  }

  // Ref-args are pinned in the local store for the duration of the body
  // (including the complete/fail callback) so the entries stay resident
  // while in use; the RAII guard unpins on every exit path.
  struct PinGuard {
    Raylet* raylet;
    NodeId node;
    std::vector<ObjectRef> pinned;
    ~PinGuard() {
      if (raylet->callbacks_.unpin_arg) {
        for (const ObjectRef& ref : pinned) {
          raylet->callbacks_.unpin_arg(ref, node);
        }
      }
    }
  } pins{this, node_.id, {}};

  int64_t input_bytes = 0;
  for (size_t i = 0; i < args.size(); ++i) {
    input_bytes += static_cast<int64_t>(args[i].size());
    const TaskArg& arg = spec.args[i];
    if (arg.is_ref() && callbacks_.pin_arg && callbacks_.pin_arg(arg.ref(), node_.id)) {
      pins.pinned.push_back(arg.ref());
    }
  }

  // Charge the modelled device time for this op.
  int64_t compute_nanos = spec.fixed_compute_nanos >= 0
                              ? spec.fixed_compute_nanos
                              : CostModel::EstimateNanos(node_.device, spec.op_class,
                                                         input_bytes);
  clock_->Charge(compute_nanos);

  TaskContext ctx;
  ctx.task = spec.id;
  ctx.job = spec.job;
  ctx.node = node_.id;
  ctx.device = node_.device;
  ctx.runtime = runtime_;
  // The node's worker-pool width is the task's intra-kernel thread budget; a
  // static bound (not live occupancy) so results are reproducible.
  ctx.compute_threads = std::max(1, static_cast<int>(num_workers()));
  ctx.trace_ctx = run_span.context();

  Result<std::vector<Buffer>> outputs = [&]() -> Result<std::vector<Buffer>> {
    // The body's own span separates compute from the run's bookkeeping and
    // completion overhead in the trace (arg = modelled compute nanos).
    trace::TraceSpan compute_span(names::kSpanRayletCompute, compute_nanos,
                                  "compute_nanos");
    if (spec.actor.valid()) {
      ActorRecord* record = nullptr;
      {
        MutexLock lock(actors_mu_);
        auto it = actors_.find(spec.actor);
        if (it == actors_.end()) {
          return Status::NotFound("actor " + spec.actor.ToString() + " not on " +
                                  node_.id.ToString());
        }
        record = it->second.get();
      }
      MutexLock serial(record->serial);
      ctx.actor_state = &record->state;
      return (*spec.body)(ctx, args);
    }
    return (*spec.body)(ctx, args);
  }();

  if (!outputs.ok()) {
    callbacks_.fail(spec, outputs.status(), node_.id);
    return;
  }
  if (static_cast<int>(outputs->size()) != spec.num_returns) {
    callbacks_.fail(spec,
                    Status::Internal("function '" + spec.function + "' returned " +
                                     std::to_string(outputs->size()) +
                                     " values, spec declares " +
                                     std::to_string(spec.num_returns)),
                    node_.id);
    return;
  }

  if (dead_.load()) {
    callbacks_.fail(spec, Status::Aborted("node " + node_.id.ToString() + " died"), node_.id);
    return;
  }

  tasks_executed_.fetch_add(1);
  Status st = callbacks_.complete(spec, std::move(outputs).value());
  if (!st.ok()) {
    callbacks_.fail(spec, st, node_.id);
  }
}

Status Raylet::CreateActor(ActorId actor, std::shared_ptr<void> initial_state) {
  MutexLock lock(actors_mu_);
  auto record = std::make_unique<ActorRecord>(std::move(initial_state));
  auto [it, inserted] = actors_.emplace(actor, std::move(record));
  if (!inserted) {
    return Status::AlreadyExists("actor " + actor.ToString() + " already on " +
                                 node_.id.ToString());
  }
  return Status::Ok();
}

bool Raylet::HasActor(ActorId actor) const {
  MutexLock lock(actors_mu_);
  return actors_.count(actor) > 0;
}

void Raylet::Kill() {
  dead_.store(true);
  // Workers check dead_ before and after running a body; queued tasks will
  // drain through RunTask and fail fast.
}

void Raylet::Shutdown() { workers_.Shutdown(); }

}  // namespace skadi
