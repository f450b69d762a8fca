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
                     SchedulingPolicy policy, const std::vector<SchedulableNode>& nodes,
                     DispatchFn dispatch, WatchFn watch, uint64_t seed)
    : cache_(cache),
      metrics_(metrics),
      policy_(policy),
      dispatch_(std::move(dispatch)),
      watch_(std::move(watch)),
      rng_(seed) {
  for (const SchedulableNode& n : nodes) {
    nodes_.push_back(std::make_unique<Node>(n));
    live_.push_back(nodes_.back().get());
  }
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
  pending_gauge_ = &metrics_->GetGauge(names::kSchedulerPendingDepth);
}

Scheduler::Node* Scheduler::FindNode(NodeId id) const {
  for (const std::unique_ptr<Node>& n : nodes_) {
    if (n->info.id == id) {
      return n.get();
    }
  }
  return nullptr;
}

Result<Scheduler::Node*> Scheduler::PickNode(const TaskSpec& spec) {
  MutexLock lock(nodes_mu_);
  if (spec.pinned_node.has_value()) {
    for (Node* n : live_) {
      if (n->info.id == *spec.pinned_node) {
        return n;
      }
    }
    // Actor tasks are meaningless off their home node; plain tasks whose pin
    // target died (failover re-dispatch) fall back to policy placement.
    if (spec.actor.valid()) {
      return Status::Unavailable("pinned node " + spec.pinned_node->ToString() +
                                 " is not schedulable");
    }
  }

  std::vector<Node*> candidates;
  candidates.reserve(live_.size());
  for (Node* n : live_) {
    if (spec.required_device.has_value() && n->info.device_kind != *spec.required_device) {
      continue;
    }
    candidates.push_back(n);
  }
  if (candidates.empty()) {
    return Status::Unavailable("no schedulable node matches task " + spec.id.ToString());
  }

  switch (policy_) {
    case SchedulingPolicy::kRoundRobin:
      return candidates[round_robin_next_++ % candidates.size()];
    case SchedulingPolicy::kRandom:
      return candidates[rng_.NextBounded(candidates.size())];
    case SchedulingPolicy::kLoadAware: {
      Node* best = candidates[0];
      int64_t best_load = std::numeric_limits<int64_t>::max();
      for (Node* n : candidates) {
        int64_t load = n->inflight.load(std::memory_order_relaxed);
        if (load < best_load) {
          best_load = load;
          best = n;
        }
      }
      return best;
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
      Node* best = nullptr;
      int64_t best_bytes = -1;
      int64_t best_load = std::numeric_limits<int64_t>::max();
      for (Node* n : candidates) {
        auto bit = local_bytes.find(n->info.id);
        int64_t bytes = bit == local_bytes.end() ? 0 : bit->second;
        int64_t load = n->inflight.load(std::memory_order_relaxed);
        if (bytes > best_bytes || (bytes == best_bytes && load < best_load)) {
          best_bytes = bytes;
          best_load = load;
          best = n;
        }
      }
      return best;
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
        for (const Node* n : live_) {
          free_slots += std::max<int64_t>(
              0, n->info.workers - n->inflight.load(std::memory_order_relaxed));
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
  Result<Node*> picked = PickNode(spec);
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
  Dispatch(std::move(spec), *picked);
}

void Scheduler::RouteAll(std::vector<TaskSpec> specs) {
  for (TaskSpec& spec : specs) {
    Route(std::move(spec));
  }
}

void Scheduler::Dispatch(TaskSpec spec, Node* node) {
  // Re-dispatches (watcher wakeups, failover) run far from the submitting
  // stack, so adopt the spec's stamped context rather than whatever this
  // thread happens to be doing.
  trace::ScopedContext adopt(spec.trace_ctx);
  trace::TraceSpan dispatch_span(names::kSpanSchedulerDispatch);

  const NodeId target = node->info.id;
  node->inflight.fetch_add(1, std::memory_order_relaxed);
  {
    TaskShard& t = task_shard(spec.id);
    MutexLock lock(t.mu);
    t.inflight.insert_or_assign(spec.id, Inflight{target, spec});
  }

  Status st = dispatch_(spec, target);
  if (st.ok()) {
    dispatched_ctr_->Increment();
    return;
  }
  // Dispatch failed (node died between pick and send): drop the dead node
  // and place the task again. Each failure removes a node, so the retry
  // chain ends within |nodes| hops, when the pick fails and the task is
  // reported unschedulable. KillNode marks the raylet dead before
  // OnNodeFailure sweeps its records, so the sweep may already have failed
  // this attempt over; only the holder of the record re-routes, or the task
  // would run twice.
  SKADI_LOG(kWarn) << "dispatch of task " << spec.id << " to " << target
                   << " failed, retrying elsewhere: " << st.ToString();
  retries_ctr_->Increment();
  RemoveNode(target);
  if (TakeInflight(spec.id, target)) {
    Route(std::move(spec));
  }
}

std::optional<TaskSpec> Scheduler::TakeInflight(TaskId task, NodeId at) {
  Inflight taken;
  {
    TaskShard& t = task_shard(task);
    MutexLock lock(t.mu);
    auto it = t.inflight.find(task);
    if (it == t.inflight.end() || (at.valid() && it->second.node != at)) {
      return std::nullopt;
    }
    taken = std::move(it->second);
    t.inflight.erase(it);
  }
  if (Node* n = FindNode(taken.node)) {
    n->inflight.fetch_sub(1, std::memory_order_relaxed);
  }
  return std::move(taken.spec);
}

void Scheduler::RemoveNode(NodeId node) {
  MutexLock lock(nodes_mu_);
  live_.erase(std::remove_if(live_.begin(), live_.end(),
                             [node](const Node* n) { return n->info.id == node; }),
              live_.end());
}

void Scheduler::OnTaskFinished(TaskId task) {
  TakeInflight(task);  // a failed-over attempt's record is already gone
  TryReleaseGangs();   // the freed slot may release a gang
}

void Scheduler::OnTaskAborted(const TaskSpec& spec, NodeId at) {
  // Stale abort: OnNodeFailure (or an earlier abort) already failed the task
  // over and the record is gone or tracks the new target. The live attempt
  // owns the slot accounting; nothing to do here.
  std::optional<TaskSpec> to_redispatch = TakeInflight(spec.id, at);
  if (!to_redispatch) {
    return;
  }
  // The aborting node is dead by definition (aborts only fire after Kill);
  // drop it from the candidate set so the re-dispatch does not waste an
  // attempt on it before OnNodeFailure runs.
  RemoveNode(at);
  abort_redispatch_ctr_->Increment();
  TryReleaseGangs();  // the freed slot may release a gang
  Route(std::move(*to_redispatch));
}

void Scheduler::OnNodeFailure(NodeId node) {
  RemoveNode(node);
  std::vector<TaskSpec> to_redispatch;
  for (TaskShard& shard : task_shards_) {
    MutexLock lock(shard.mu);
    for (auto it = shard.inflight.begin(); it != shard.inflight.end();) {
      if (it->second.node == node) {
        to_redispatch.push_back(std::move(it->second.spec));
        it = shard.inflight.erase(it);
      } else {
        ++it;
      }
    }
  }
  const auto moved = static_cast<int64_t>(to_redispatch.size());
  if (Node* n = FindNode(node)) {
    n->inflight.fetch_sub(moved, std::memory_order_relaxed);
  }
  failover_ctr_->Add(moved);
  RouteAll(std::move(to_redispatch));
}

size_t Scheduler::pending_tasks() const {
  const int64_t parked = parked_count_.load(std::memory_order_relaxed);
  const int64_t gang = gang_members_.load(std::memory_order_relaxed);
  return static_cast<size_t>(std::max<int64_t>(0, parked + gang));
}

int64_t Scheduler::inflight_on(NodeId node) const {
  const Node* n = FindNode(node);
  return n == nullptr ? 0 : n->inflight.load(std::memory_order_relaxed);
}

void Scheduler::UpdatePendingGauge() {
  pending_gauge_->Set(static_cast<int64_t>(pending_tasks()));
}

}  // namespace skadi
