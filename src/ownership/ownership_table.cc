#include "src/ownership/ownership_table.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/clock.h"
#include "src/common/metric_names.h"
#include "src/common/trace.h"

namespace skadi {
namespace {

// Scoped shard lock that counts contended acquisitions: the fast path is an
// uncontended TryLock; when that fails we charge one `ownership.
// shard_lock_waits` tick and fall back to the blocking Lock. The counter is
// how the control-plane bench shows sharding relieving lock pressure.
class SCOPED_CAPABILITY ShardLock {
 public:
  ShardLock(Mutex& mu, Counter* waits) ACQUIRE(mu) : mu_(&mu) {
    if (!mu_->TryLock()) {
      if (waits != nullptr) {
        waits->Increment();
      }
      mu_->Lock();
    }
  }

  ShardLock(const ShardLock&) = delete;
  ShardLock& operator=(const ShardLock&) = delete;

  ~ShardLock() RELEASE() {
    if (held_) {
      mu_->Unlock();
    }
  }

  void Unlock() RELEASE() {
    mu_->Unlock();
    held_ = false;
  }

 private:
  Mutex* mu_;
  bool held_ = true;
};

}  // namespace

OwnershipTable::OwnershipTable(NodeId owner, int num_shards) : owner_(owner) {
  shards_.reserve(static_cast<size_t>(std::max(1, num_shards)));
  for (int i = 0; i < std::max(1, num_shards); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void OwnershipTable::set_metrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  watch_registrations_ = &registry->GetCounter(names::kOwnershipWatchRegistrations);
  watcher_fires_ = &registry->GetCounter(names::kOwnershipWatcherFires);
  watchers_gauge_ = &registry->GetGauge(names::kOwnershipWatchers);
  shard_lock_waits_ = &registry->GetCounter(names::kOwnershipShardLockWaits);
}

std::vector<Continuation> OwnershipTable::TakeWatchersLocked(Shard& s,
                                                             ObjectId id) const {
  std::vector<Continuation> out;
  auto it = s.watchers.find(id);
  if (it != s.watchers.end()) {
    out = std::move(it->second);
    s.watchers.erase(it);
  }
  return out;
}

void OwnershipTable::FireWatchers(std::vector<Continuation> watchers) const {
  if (!watchers.empty()) {
    if (watcher_fires_ != nullptr) {
      watcher_fires_->Add(static_cast<int64_t>(watchers.size()));
    }
    if (watchers_gauge_ != nullptr) {
      watchers_gauge_->Add(-static_cast<int64_t>(watchers.size()));
    }
    trace::Instant(names::kSpanOwnershipWatcherFire,
                   static_cast<int64_t>(watchers.size()), "watchers");
  }
  for (Continuation& w : watchers) {
    w();
  }
}

Status OwnershipTable::RegisterObject(ObjectId id, std::shared_ptr<const TaskSpec> producer) {
  Shard& s = shard(id);
  ShardLock lock(s.mu, shard_lock_waits_);
  if (s.records.count(id) > 0) {
    return Status::AlreadyExists("object " + id.ToString() + " already owned");
  }
  OwnershipRecord record;
  record.id = id;
  record.owner = owner_;
  record.producer = std::move(producer);
  s.records.emplace(id, std::move(record));
  return Status::Ok();
}

Result<std::vector<ConsumerRegistration>> OwnershipTable::MarkReady(
    ObjectId id, NodeId location, int64_t size_bytes, DeviceId device,
    uint64_t device_handle) {
  std::vector<ConsumerRegistration> consumers;
  std::vector<Continuation> watchers;
  Shard& s = shard(id);
  {
    ShardLock lock(s.mu, shard_lock_waits_);
    auto it = s.records.find(id);
    if (it == s.records.end()) {
      return Status::NotFound("object " + id.ToString() + " not owned by " +
                              owner_.ToString());
    }
    OwnershipRecord& record = it->second;
    record.state = ObjectState::kReady;
    record.locations.insert(location);
    record.size_bytes = size_bytes;
    record.device = device;
    record.device_handle = device_handle;
    consumers.swap(record.pending_consumers);
    watchers = TakeWatchersLocked(s, id);
  }
  FireWatchers(std::move(watchers));
  return consumers;
}

Status OwnershipTable::AddLocation(ObjectId id, NodeId location) {
  Shard& s = shard(id);
  ShardLock lock(s.mu, shard_lock_waits_);
  auto it = s.records.find(id);
  if (it == s.records.end()) {
    return Status::NotFound("object " + id.ToString() + " not owned");
  }
  it->second.locations.insert(location);
  return Status::Ok();
}

std::vector<ObjectId> OwnershipTable::OnNodeFailure(NodeId node) {
  std::vector<ObjectId> lost;
  std::vector<Continuation> watchers;
  // Shard-at-a-time sweep: each shard sees a consistent view of its own
  // records; there is no cross-shard atomicity requirement because loss is
  // per object. Watchers collected from every shard fire once, at the end,
  // outside all shard locks.
  for (auto& shard_ptr : shards_) {
    Shard& s = *shard_ptr;
    ShardLock lock(s.mu, shard_lock_waits_);
    for (auto& [id, record] : s.records) {
      if (record.locations.erase(node) > 0 && record.locations.empty() &&
          record.state == ObjectState::kReady) {
        record.state = ObjectState::kLost;
        lost.push_back(id);
        auto taken = TakeWatchersLocked(s, id);
        watchers.insert(watchers.end(),
                        std::make_move_iterator(taken.begin()),
                        std::make_move_iterator(taken.end()));
      }
    }
  }
  FireWatchers(std::move(watchers));
  return lost;
}

Status OwnershipTable::MarkLost(ObjectId id) {
  std::vector<Continuation> watchers;
  Shard& s = shard(id);
  {
    ShardLock lock(s.mu, shard_lock_waits_);
    auto it = s.records.find(id);
    if (it == s.records.end()) {
      return Status::NotFound("object " + id.ToString() + " not owned");
    }
    it->second.state = ObjectState::kLost;
    it->second.locations.clear();
    watchers = TakeWatchersLocked(s, id);
  }
  FireWatchers(std::move(watchers));
  return Status::Ok();
}

Status OwnershipTable::MarkPendingForReconstruction(ObjectId id) {
  Shard& s = shard(id);
  ShardLock lock(s.mu, shard_lock_waits_);
  auto it = s.records.find(id);
  if (it == s.records.end()) {
    return Status::NotFound("object " + id.ToString() + " not owned");
  }
  if (it->second.state != ObjectState::kLost) {
    return Status::FailedPrecondition("object " + id.ToString() +
                                      " is not lost; cannot reconstruct");
  }
  it->second.state = ObjectState::kPending;
  return Status::Ok();
}

Result<bool> OwnershipTable::RegisterConsumer(ObjectId id, ConsumerRegistration consumer) {
  Shard& s = shard(id);
  ShardLock lock(s.mu, shard_lock_waits_);
  auto it = s.records.find(id);
  if (it == s.records.end()) {
    return Status::NotFound("object " + id.ToString() + " not owned");
  }
  if (it->second.state == ObjectState::kReady) {
    return true;  // already ready: push now
  }
  it->second.pending_consumers.push_back(consumer);
  return false;
}

Result<OwnershipTable::ResolveReply> OwnershipTable::Resolve(ObjectId id) const {
  Shard& s = shard(id);
  ShardLock lock(s.mu, shard_lock_waits_);
  auto it = s.records.find(id);
  if (it == s.records.end()) {
    return Status::NotFound("object " + id.ToString() + " not owned by " +
                            owner_.ToString());
  }
  const OwnershipRecord& record = it->second;
  ResolveReply reply;
  reply.state = record.state;
  reply.size_bytes = record.size_bytes;
  reply.device = record.device;
  reply.device_handle = record.device_handle;
  reply.producer = record.producer;
  if (!record.locations.empty()) {
    reply.location = *record.locations.begin();
  }
  return reply;
}

Result<ObjectState> OwnershipTable::StateOrWatch(ObjectId id,
                                                 Continuation watcher) const {
  Shard& s = shard(id);
  ShardLock lock(s.mu, shard_lock_waits_);
  auto it = s.records.find(id);
  if (it == s.records.end()) {
    return Status::NotFound("object " + id.ToString() + " was released while waiting");
  }
  if (it->second.state == ObjectState::kPending) {
    s.watchers[id].push_back(std::move(watcher));
    if (watch_registrations_ != nullptr) {
      watch_registrations_->Increment();
    }
    if (watchers_gauge_ != nullptr) {
      watchers_gauge_->Add(1);
    }
  }
  return it->second.state;
}

Result<ObjectState> OwnershipTable::WaitReady(ObjectId id, int64_t timeout_ms) const {
  const bool bounded = timeout_ms > 0;
  const int64_t deadline_nanos = NowNanos() + timeout_ms * 1'000'000;
  for (;;) {
    // The Event is shared with the watcher so a Set that fires after this
    // frame timed out and left lands on live storage.
    auto ev = std::make_shared<Event>();
    Result<ObjectState> state = StateOrWatch(id, [ev] { ev->Set(); });
    if (!state.ok()) {
      return state.status();
    }
    if (*state != ObjectState::kPending) {
      return *state;
    }
    const int64_t limit = bounded ? deadline_nanos : -1;
    const bool fired = reactor_ != nullptr ? reactor_->BlockOn(*ev, limit)
                                           : ev->BlockingWait(limit);
    if (!fired && bounded) {
      // Final re-check: the state may have flipped right at the deadline.
      Shard& s = shard(id);
      ShardLock lock(s.mu, shard_lock_waits_);
      auto it = s.records.find(id);
      if (it == s.records.end()) {
        return Status::NotFound("object " + id.ToString() +
                                " was released while waiting");
      }
      if (it->second.state != ObjectState::kPending) {
        return it->second.state;
      }
      return Status::DeadlineExceeded("object " + id.ToString() +
                                      " still pending after " +
                                      std::to_string(timeout_ms) + "ms");
    }
  }
}

Status OwnershipTable::IncRef(ObjectId id) {
  Shard& s = shard(id);
  ShardLock lock(s.mu, shard_lock_waits_);
  auto it = s.records.find(id);
  if (it == s.records.end()) {
    return Status::NotFound("object " + id.ToString() + " not owned");
  }
  ++it->second.ref_count;
  return Status::Ok();
}

Result<bool> OwnershipTable::DecRef(ObjectId id) {
  Shard& s = shard(id);
  ShardLock lock(s.mu, shard_lock_waits_);
  auto it = s.records.find(id);
  if (it == s.records.end()) {
    return Status::NotFound("object " + id.ToString() + " not owned");
  }
  if (--it->second.ref_count <= 0) {
    // The last record of a task's returns frees its spec, and with it the
    // body's captures (a query's IR, say): do that after the shard lock.
    std::shared_ptr<const TaskSpec> producer = std::move(it->second.producer);
    s.records.erase(it);
    std::vector<Continuation> watchers = TakeWatchersLocked(s, id);
    lock.Unlock();
    FireWatchers(std::move(watchers));
    return true;
  }
  return false;
}

bool OwnershipTable::Contains(ObjectId id) const {
  Shard& s = shard(id);
  ShardLock lock(s.mu, shard_lock_waits_);
  return s.records.count(id) > 0;
}

size_t OwnershipTable::size() const {
  size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    Shard& s = *shard_ptr;
    ShardLock lock(s.mu, shard_lock_waits_);
    total += s.records.size();
  }
  return total;
}

std::vector<ObjectId> OwnershipTable::ObjectsInState(ObjectState state) const {
  std::vector<ObjectId> out;
  for (const auto& shard_ptr : shards_) {
    Shard& s = *shard_ptr;
    ShardLock lock(s.mu, shard_lock_waits_);
    for (const auto& [id, record] : s.records) {
      if (record.state == state) {
        out.push_back(id);
      }
    }
  }
  return out;
}

}  // namespace skadi
