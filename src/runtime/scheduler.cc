#include "src/runtime/scheduler.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/common/metric_names.h"
#include "src/common/trace.h"

namespace skadi {

std::string_view SchedulingPolicyName(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kRoundRobin:
      return "round_robin";
    case SchedulingPolicy::kRandom:
      return "random";
    case SchedulingPolicy::kLoadAware:
      return "load_aware";
    case SchedulingPolicy::kLocalityAware:
      return "locality_aware";
  }
  return "?";
}

Scheduler::Scheduler(CachingLayer* cache, MetricsRegistry* metrics,
                     SchedulingPolicy policy, DispatchFn dispatch, WatchFn watch,
                     uint64_t seed)
    : cache_(cache),
      metrics_(metrics),
      dispatch_(std::move(dispatch)),
      watch_(std::move(watch)),
      rng_(seed),
      policy_(policy) {
  // The registry hands out stable references; caching the handles keeps the
  // dispatch hot path off the registry's own lock.
  dispatched_ctr_ = &metrics_->GetCounter(names::kSchedulerDispatched);
  parked_ctr_ = &metrics_->GetCounter(names::kSchedulerParked);
  gang_buffered_ctr_ = &metrics_->GetCounter(names::kSchedulerGangBuffered);
  gangs_dispatched_ctr_ = &metrics_->GetCounter(names::kSchedulerGangsDispatched);
  unschedulable_ctr_ = &metrics_->GetCounter(names::kSchedulerUnschedulable);
  retries_ctr_ = &metrics_->GetCounter(names::kSchedulerDispatchRetries);
  abort_redispatch_ctr_ = &metrics_->GetCounter(names::kSchedulerAbortRedispatches);
  failover_ctr_ = &metrics_->GetCounter(names::kSchedulerFailoverRedispatches);
  steal_ctr_ = &metrics_->GetCounter(names::kSchedulerStealCount);
  pending_gauge_ = &metrics_->GetGauge(names::kSchedulerPendingDepth);
}

void Scheduler::SetNodes(std::vector<SchedulableNode> nodes) {
  std::vector<TaskSpec> orphans;
  {
    MutexLock lock(nodes_mu_);
    std::vector<QueuePtr> new_queues;
    std::unordered_map<NodeId, QueuePtr> new_by_node;
    new_queues.reserve(nodes.size());
    for (SchedulableNode& n : nodes) {
      QueuePtr q;
      auto it = queue_by_node_.find(n.id);
      if (it != queue_by_node_.end() && it->second->info.workers == n.workers &&
          it->second->info.device_kind == n.device_kind) {
        q = it->second;  // keep the live queue (and its inflight accounting)
      } else {
        q = std::make_shared<NodeQueue>(n);
        q->depth_gauge = &metrics_->GetGauge(
            std::string(names::kSchedulerQueueDepthPrefix) + n.id.ToString());
        if (it != queue_by_node_.end()) {
          // Same node, new shape: carry load over and drain the old queue.
          QueuePtr old = it->second;
          q->inflight.store(old->inflight.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
          MutexLock qlock(old->mu);
          old->removed = true;
          while (!old->tasks.empty()) {
            orphans.push_back(std::move(old->tasks.front()));
            old->tasks.pop_front();
          }
          old->depth.store(0, std::memory_order_relaxed);
        }
      }
      new_by_node[n.id] = q;
      new_queues.push_back(std::move(q));
    }
    // Nodes dropped from the set: strand nothing, re-route their queues.
    for (auto& [id, old] : queue_by_node_) {
      if (new_by_node.count(id) != 0) {
        continue;
      }
      MutexLock qlock(old->mu);
      old->removed = true;
      while (!old->tasks.empty()) {
        orphans.push_back(std::move(old->tasks.front()));
        old->tasks.pop_front();
      }
      old->depth.store(0, std::memory_order_relaxed);
    }
    queues_ = std::move(new_queues);
    queue_by_node_ = std::move(new_by_node);
  }
  RouteAll(std::move(orphans));
}

void Scheduler::SetPolicy(SchedulingPolicy policy) {
  MutexLock lock(nodes_mu_);
  policy_ = policy;
}

SchedulingPolicy Scheduler::policy() const {
  MutexLock lock(nodes_mu_);
  return policy_;
}

Result<Scheduler::QueuePtr> Scheduler::PickQueue(const TaskSpec& spec) {
  MutexLock lock(nodes_mu_);
  if (spec.pinned_node.has_value()) {
    auto it = queue_by_node_.find(*spec.pinned_node);
    if (it != queue_by_node_.end()) {
      return it->second;
    }
    // Actor tasks are meaningless off their home node; plain tasks whose pin
    // target died (failover re-dispatch) fall back to policy placement.
    if (spec.actor.valid()) {
      return Status::Unavailable("pinned node " + spec.pinned_node->ToString() +
                                 " is not schedulable");
    }
  }

  std::vector<const QueuePtr*> candidates;
  candidates.reserve(queues_.size());
  for (const QueuePtr& q : queues_) {
    if (spec.required_device.has_value() &&
        q->info.device_kind != *spec.required_device) {
      continue;
    }
    candidates.push_back(&q);
  }
  if (candidates.empty()) {
    return Status::Unavailable("no schedulable node matches task " + spec.id.ToString());
  }

  switch (policy_) {
    case SchedulingPolicy::kRoundRobin: {
      const QueuePtr* q = candidates[round_robin_next_ % candidates.size()];
      ++round_robin_next_;
      return *q;
    }
    case SchedulingPolicy::kRandom:
      return *candidates[rng_.NextBounded(candidates.size())];
    case SchedulingPolicy::kLoadAware: {
      const QueuePtr* best = candidates[0];
      int64_t best_load = std::numeric_limits<int64_t>::max();
      for (const QueuePtr* q : candidates) {
        int64_t load = (*q)->inflight.load(std::memory_order_relaxed) +
                       (*q)->depth.load(std::memory_order_relaxed);
        if (load < best_load) {
          best_load = load;
          best = q;
        }
      }
      return *best;
    }
    case SchedulingPolicy::kLocalityAware: {
      // Data-centric: place where the most input bytes already live; break
      // ties (including the no-ref-args case) by load.
      std::unordered_map<NodeId, int64_t> local_bytes;
      for (const TaskArg& arg : spec.args) {
        if (!arg.is_ref()) {
          continue;
        }
        auto size = cache_->SizeOf(arg.ref().id);
        if (!size.ok()) {
          continue;
        }
        for (NodeId loc : cache_->Locations(arg.ref().id)) {
          local_bytes[loc] += *size;
        }
      }
      const QueuePtr* best = nullptr;
      int64_t best_bytes = -1;
      int64_t best_load = std::numeric_limits<int64_t>::max();
      for (const QueuePtr* q : candidates) {
        auto bit = local_bytes.find((*q)->info.id);
        int64_t bytes = bit == local_bytes.end() ? 0 : bit->second;
        int64_t load = (*q)->inflight.load(std::memory_order_relaxed) +
                       (*q)->depth.load(std::memory_order_relaxed);
        if (bytes > best_bytes || (bytes == best_bytes && load < best_load)) {
          best_bytes = bytes;
          best_load = load;
          best = q;
        }
      }
      return *best;
    }
  }
  return Status::Internal("unreachable policy");
}

Status Scheduler::Submit(TaskSpec spec) {
  int refs = 0;
  for (const TaskArg& arg : spec.args) {
    if (arg.is_ref()) {
      ++refs;
    }
  }
  if (refs == 0) {
    Admit(std::move(spec));
    return Status::Ok();
  }

  // Park on the arguments' owner records: one watcher per pending ref arg,
  // all sharing the countdown. The +1 guard keeps watchers that fire while
  // registration is still in progress from hitting zero; dropping it at the
  // end makes exactly one side (us, if no arg is still pending; otherwise
  // the last watcher to fire) the one that admits the task.
  auto pending = std::make_shared<Pending>();
  pending->spec = std::move(spec);
  pending->unresolved.store(refs + 1, std::memory_order_relaxed);
  parked_count_.fetch_add(1, std::memory_order_relaxed);
  int resolved = 0;
  for (const TaskArg& arg : pending->spec.args) {
    if (!arg.is_ref()) {
      continue;
    }
    // Ready, lost and released (NotFound) all count as resolved.
    Result<ObjectState> state =
        watch_(arg.ref(), [this, pending] { Resolve(pending, 1); });
    if (!state.ok() || *state != ObjectState::kPending) {
      ++resolved;
    }
  }
  if (!Resolve(pending, resolved + 1)) {
    parked_ctr_->Increment();
    UpdatePendingGauge();
  }
  return Status::Ok();
}

bool Scheduler::Resolve(const std::shared_ptr<Pending>& pending, int n) {
  if (pending->unresolved.fetch_sub(n, std::memory_order_acq_rel) != n) {
    return false;
  }
  parked_count_.fetch_sub(1, std::memory_order_relaxed);
  Admit(std::move(pending->spec));
  return true;
}

void Scheduler::Admit(TaskSpec spec) {
  if (spec.gang_group.empty()) {
    UpdatePendingGauge();
    Route(std::move(spec));
    return;
  }
  {
    MutexLock lock(gangs_mu_);
    gangs_[spec.gang_group].push_back(std::move(spec));
  }
  gang_members_.fetch_add(1, std::memory_order_relaxed);
  gang_buffered_ctr_->Increment();
  TryReleaseGangs();
}

void Scheduler::TryReleaseGangs() {
  std::vector<TaskSpec> to_route;
  {
    MutexLock lock(gangs_mu_);
    for (auto it = gangs_.begin(); it != gangs_.end();) {
      std::vector<TaskSpec>& members = it->second;
      if (members.empty() || static_cast<int>(members.size()) < members[0].gang_size) {
        ++it;
        continue;
      }
      int64_t free_slots = 0;
      {
        MutexLock nlock(nodes_mu_);  // gangs_mu_ -> nodes_mu_
        for (const QueuePtr& q : queues_) {
          free_slots += std::max<int64_t>(
              0, q->info.workers - q->inflight.load(std::memory_order_relaxed));
        }
      }
      if (free_slots < static_cast<int64_t>(members.size())) {
        ++it;
        continue;
      }
      gangs_dispatched_ctr_->Increment();
      gang_members_.fetch_sub(static_cast<int64_t>(members.size()),
                              std::memory_order_relaxed);
      for (TaskSpec& m : members) {
        to_route.push_back(std::move(m));
      }
      it = gangs_.erase(it);
    }
  }
  UpdatePendingGauge();
  RouteAll(std::move(to_route));
}

void Scheduler::Route(TaskSpec spec) {
  for (;;) {
    Result<QueuePtr> picked = PickQueue(spec);
    if (!picked.ok()) {
      SKADI_LOG(kWarn) << "task " << spec.id << " unschedulable: "
                       << picked.status().ToString();
      unschedulable_ctr_->Increment();
      if (unschedulable_) {
        // Terminal placement failure: surface it so the task's futures
        // resolve (the runtime marks the returns lost) instead of pending
        // forever.
        unschedulable_(spec, picked.status());
      }
      return;
    }
    QueuePtr q = *picked;
    {
      MutexLock lock(q->mu);
      if (q->removed) {
        continue;  // lost the race against node removal; re-pick
      }
      q->tasks.push_back(std::move(spec));
      const int64_t d = q->depth.fetch_add(1, std::memory_order_relaxed) + 1;
      if (q->depth_gauge != nullptr) {
        q->depth_gauge->Set(d);
      }
    }
    Pump(q);
    return;
  }
}

void Scheduler::RouteAll(std::vector<TaskSpec> specs) {
  for (TaskSpec& spec : specs) {
    Route(std::move(spec));
  }
}

void Scheduler::Pump(const QueuePtr& q) {
  {
    MutexLock lock(q->mu);
    if (q->pumping) {
      return;  // the active pumper will drain the task we just queued
    }
    q->pumping = true;
  }
  for (;;) {
    TaskSpec spec;
    {
      MutexLock lock(q->mu);
      if (q->tasks.empty() || q->removed) {
        q->pumping = false;
        break;
      }
      spec = std::move(q->tasks.front());
      q->tasks.pop_front();
      const int64_t d = q->depth.fetch_sub(1, std::memory_order_relaxed) - 1;
      if (q->depth_gauge != nullptr) {
        q->depth_gauge->Set(d);
      }
    }
    DispatchOne(std::move(spec), q);
  }
  TrySteal(q);
}

void Scheduler::DispatchOne(TaskSpec spec, const QueuePtr& q) {
  // Re-dispatches (watcher wakeups, failover, steals) run far from the
  // submitting stack, so adopt the spec's stamped context rather than
  // whatever this thread happens to be doing.
  trace::ScopedContext adopt(spec.trace_ctx);
  trace::TraceSpan dispatch_span(names::kSpanSchedulerDispatch);

  const NodeId target = q->info.id;
  {
    TaskShard& t = task_shard(spec.id);
    MutexLock lock(t.mu);
    t.task_node[spec.id] = target;
    t.inflight_specs[spec.id] = spec;
  }
  q->inflight.fetch_add(1, std::memory_order_relaxed);

  Status st = dispatch_(spec, target);
  if (st.ok()) {
    dispatched_ctr_->Increment();
    return;
  }
  // Dispatch failed (node died between pick and send): undo the in-flight
  // record, drop the dead node, and re-route. Each failure removes a node,
  // so the retry chain terminates in at most |nodes| hops before Route's
  // pick fails and the task is reported unschedulable.
  SKADI_LOG(kWarn) << "dispatch of task " << spec.id << " to " << target
                   << " failed, retrying elsewhere: " << st.ToString();
  {
    TaskShard& t = task_shard(spec.id);
    MutexLock lock(t.mu);
    t.task_node.erase(spec.id);
    t.inflight_specs.erase(spec.id);
  }
  q->inflight.fetch_sub(1, std::memory_order_relaxed);
  retries_ctr_->Increment();
  RemoveNode(target);
  Route(std::move(spec));
}

bool Scheduler::Compatible(const TaskSpec& spec, const NodeQueue& q) {
  if (spec.pinned_node.has_value() && *spec.pinned_node != q.info.id) {
    return false;  // pinned work never migrates by stealing
  }
  if (spec.required_device.has_value() &&
      q.info.device_kind != *spec.required_device) {
    return false;
  }
  return true;
}

void Scheduler::TrySteal(const QueuePtr& q) {
  for (;;) {
    const int64_t capacity =
        q->info.workers - q->inflight.load(std::memory_order_relaxed);
    if (capacity <= 0 || q->depth.load(std::memory_order_relaxed) > 0) {
      return;  // busy or has local work; no reason to steal
    }
    {
      MutexLock lock(q->mu);
      if (q->removed) {
        return;
      }
    }
    // Pick the longest other queue as the victim (atomic depth, no locks).
    QueuePtr victim;
    int64_t victim_depth = 0;
    {
      MutexLock lock(nodes_mu_);
      for (const QueuePtr& other : queues_) {
        if (other == q) {
          continue;
        }
        const int64_t d = other->depth.load(std::memory_order_relaxed);
        if (d > victim_depth) {
          victim_depth = d;
          victim = other;
        }
      }
    }
    if (!victim) {
      return;
    }
    // Steal the newest compatible task from the victim's tail (oldest stays
    // with the victim: it is next to dispatch there and likeliest to have
    // locality).
    TaskSpec spec;
    bool got = false;
    {
      MutexLock lock(victim->mu);
      for (auto it = victim->tasks.rbegin(); it != victim->tasks.rend(); ++it) {
        if (!Compatible(*it, *q)) {
          continue;
        }
        spec = std::move(*it);
        victim->tasks.erase(std::next(it).base());
        const int64_t d = victim->depth.fetch_sub(1, std::memory_order_relaxed) - 1;
        if (victim->depth_gauge != nullptr) {
          victim->depth_gauge->Set(d);
        }
        got = true;
        break;
      }
    }
    if (!got) {
      return;  // nothing stealable right now
    }
    steal_ctr_->Increment();
    DispatchOne(std::move(spec), q);
  }
}

void Scheduler::RemoveNode(NodeId node) {
  QueuePtr q;
  {
    MutexLock lock(nodes_mu_);
    auto it = queue_by_node_.find(node);
    if (it == queue_by_node_.end()) {
      return;  // already removed
    }
    q = it->second;
    queue_by_node_.erase(it);
    queues_.erase(std::remove(queues_.begin(), queues_.end(), q), queues_.end());
  }
  std::vector<TaskSpec> orphans;
  {
    MutexLock lock(q->mu);
    q->removed = true;
    while (!q->tasks.empty()) {
      orphans.push_back(std::move(q->tasks.front()));
      q->tasks.pop_front();
    }
    q->depth.store(0, std::memory_order_relaxed);
    if (q->depth_gauge != nullptr) {
      q->depth_gauge->Set(0);
    }
  }
  RouteAll(std::move(orphans));
}

void Scheduler::OnTaskFinished(TaskId task) {
  NodeId node;
  bool found = false;
  {
    TaskShard& t = task_shard(task);
    MutexLock lock(t.mu);
    auto it = t.task_node.find(task);
    if (it != t.task_node.end()) {
      node = it->second;
      found = true;
      t.task_node.erase(it);
    }
    t.inflight_specs.erase(task);
  }
  QueuePtr q;
  if (found) {
    MutexLock lock(nodes_mu_);
    auto it = queue_by_node_.find(node);
    if (it != queue_by_node_.end()) {
      q = it->second;
    }
  }
  if (q) {
    q->inflight.fetch_sub(1, std::memory_order_relaxed);
  }
  TryReleaseGangs();  // freed slots may release a gang
  if (q) {
    // The freed raylet pulls queued work from the longest other queue.
    Pump(q);
  }
}

void Scheduler::OnTaskAborted(const TaskSpec& spec, NodeId at) {
  TaskSpec to_redispatch;
  {
    TaskShard& t = task_shard(spec.id);
    MutexLock lock(t.mu);
    auto it = t.task_node.find(spec.id);
    if (it == t.task_node.end() || it->second != at) {
      // Stale abort: OnNodeFailure (or an earlier abort) already failed the
      // task over and the record is gone or tracks the new target. The live
      // attempt owns the slot accounting; nothing to do here.
      return;
    }
    t.task_node.erase(it);
    auto sit = t.inflight_specs.find(spec.id);
    if (sit != t.inflight_specs.end()) {
      to_redispatch = std::move(sit->second);
      t.inflight_specs.erase(sit);
    } else {
      to_redispatch = spec;
    }
  }
  {
    MutexLock lock(nodes_mu_);
    auto it = queue_by_node_.find(at);
    if (it != queue_by_node_.end()) {
      it->second->inflight.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  // The aborting node is dead by definition (aborts only fire after Kill);
  // drop it from the candidate set so the re-dispatch does not waste an
  // attempt on it before OnNodeFailure runs.
  RemoveNode(at);
  abort_redispatch_ctr_->Increment();
  TryReleaseGangs();  // the freed slot may release a gang
  Route(std::move(to_redispatch));
}

void Scheduler::OnNodeFailure(NodeId node) {
  RemoveNode(node);  // re-routes anything still queued there
  std::vector<TaskSpec> to_redispatch;
  for (TaskShard& shard : task_shards_) {
    MutexLock lock(shard.mu);
    for (auto it = shard.task_node.begin(); it != shard.task_node.end();) {
      if (it->second == node) {
        auto sit = shard.inflight_specs.find(it->first);
        if (sit != shard.inflight_specs.end()) {
          to_redispatch.push_back(std::move(sit->second));
          shard.inflight_specs.erase(sit);
        }
        it = shard.task_node.erase(it);
      } else {
        ++it;
      }
    }
  }
  failover_ctr_->Add(static_cast<int64_t>(to_redispatch.size()));
  RouteAll(std::move(to_redispatch));
}

size_t Scheduler::pending_tasks() const {
  const int64_t parked = parked_count_.load(std::memory_order_relaxed);
  const int64_t gang = gang_members_.load(std::memory_order_relaxed);
  return static_cast<size_t>(std::max<int64_t>(0, parked + gang));
}

int64_t Scheduler::inflight_on(NodeId node) const {
  MutexLock lock(nodes_mu_);
  auto it = queue_by_node_.find(node);
  return it == queue_by_node_.end()
             ? 0
             : it->second->inflight.load(std::memory_order_relaxed);
}

int64_t Scheduler::queued_on(NodeId node) const {
  MutexLock lock(nodes_mu_);
  auto it = queue_by_node_.find(node);
  return it == queue_by_node_.end()
             ? 0
             : it->second->depth.load(std::memory_order_relaxed);
}

void Scheduler::UpdatePendingGauge() {
  pending_gauge_->Set(static_cast<int64_t>(pending_tasks()));
}

}  // namespace skadi
