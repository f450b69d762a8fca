// The heterogeneity-aware ownership table (Figure 3, item 2).
//
// Ray's ownership table maps each object to [ID, Owner, Value, ...]. Skadi
// extends every row with [Locations, DeviceID, DeviceHandle] so objects whose
// value lives in device HBM behind a DPU are first-class: the raylet on the
// DPU "also manages memory on its companion devices" through the recorded
// device handle.
//
// One OwnershipTable instance exists per owner node. Remote nodes reach it
// in-process, and the runtime charges every lookup/notification from another
// node as a counted, costed fabric control message (Fabric::Control).
//
// Concurrency (DESIGN.md §13): the table is hash-partitioned by ObjectId into
// `num_shards` shards, each with its own mutex, records map, and watcher
// list. Single-object operations (StateOrWatch, MarkReady, DecRef, ...) touch
// only their shard; cross-shard operations (OnNodeFailure, size,
// ObjectsInState) iterate the shards one at a time without any global lock,
// so they see a per-shard-consistent (not globally atomic) snapshot — which
// is all their callers need. `num_shards == 1` degenerates to the old
// single-lock table and serves as the bench baseline.
//
// The records are the runtime's one source of readiness: driver Gets,
// argument landings and the scheduler's parked tasks all wait on them
// through StateOrWatch. Watchers run on the thread that flips the state,
// after the shard lock is released; a watcher that must not run there
// (GetOp's) hops to a reactor itself.
#ifndef SRC_OWNERSHIP_OWNERSHIP_TABLE_H_
#define SRC_OWNERSHIP_OWNERSHIP_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/id.h"
#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/reactor.h"
#include "src/common/status.h"
#include "src/ownership/object_ref.h"

namespace skadi {

// Defined in src/runtime/task.h; records only hold and hand out shared
// pointers to it, so this library needs nothing from the runtime.
struct TaskSpec;

enum class ObjectState {
  kPending,  // producing task not finished
  kReady,    // value sealed somewhere (locations non-empty)
  kLost,     // every copy vanished (node failures)
};

// Where a consumer task will run; registered so the push protocol knows
// where to send the value the moment it is produced.
struct ConsumerRegistration {
  TaskId task;
  NodeId node;
  DeviceId device;
};

struct OwnershipRecord {
  ObjectId id;
  NodeId owner;
  ObjectState state = ObjectState::kPending;
  int64_t size_bytes = 0;
  // Nodes currently holding a sealed copy (mirrors the caching layer).
  std::set<NodeId> locations;
  // Device-awareness extension: the device whose memory holds the primary
  // copy, and an opaque handle for its communication driver.
  DeviceId device;
  uint64_t device_handle = 0;
  // Lineage: the task whose re-execution reproduces this object (null for a
  // Put). Shared by the records of all its returns, so the spec, its body
  // and what the body captures are freed with the last of them.
  std::shared_ptr<const TaskSpec> producer;
  // Reference count (task args in flight + user handles).
  int64_t ref_count = 1;
  // Consumers to push the value to when it becomes ready.
  std::vector<ConsumerRegistration> pending_consumers;
};

class OwnershipTable {
 public:
  // Default shard count: enough to spread MarkReady/StateOrWatch storms from
  // a handful of driver + reactor threads without bloating small tables.
  static constexpr int kDefaultShards = 8;

  explicit OwnershipTable(NodeId owner, int num_shards = kDefaultShards);

  NodeId owner() const { return owner_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // Names the reactor that WaitReady drives while it blocks, so a caller on
  // that reactor's driver keeps it running. Unset (standalone tables in unit
  // tests), WaitReady parks on its Event. Wire before concurrent use; not
  // synchronized.
  void set_reactor(Reactor* reactor) { reactor_ = reactor; }

  // Wires watcher telemetry (ownership.* registrations/fires counters, the
  // live-watcher gauge, and the shard-lock contention counter). Same
  // wire-before-use contract as set_reactor.
  void set_metrics(MetricsRegistry* registry);

  // Creates a pending record (called at task submission for each return,
  // with the submitted spec as `producer`, and by Put with none).
  Status RegisterObject(ObjectId id, std::shared_ptr<const TaskSpec> producer);

  // Marks the object ready at `location`; runs its watchers and returns the
  // consumers registered for push-mode resolution (caller pushes to them).
  Result<std::vector<ConsumerRegistration>> MarkReady(ObjectId id, NodeId location,
                                                      int64_t size_bytes,
                                                      DeviceId device = DeviceId(),
                                                      uint64_t device_handle = 0);

  // Records an additional replica location for a ready object.
  Status AddLocation(ObjectId id, NodeId location);

  // Drops `node` from every record's locations; records whose last location
  // vanished flip back to kLost. Returns the ids that became lost. Iterates
  // the shards one at a time (no global lock).
  std::vector<ObjectId> OnNodeFailure(NodeId node);

  // Explicitly marks an object lost (e.g. the producing task aborted).
  Status MarkLost(ObjectId id);

  // Re-arms a lost record as pending for re-execution of its producer.
  Status MarkPendingForReconstruction(ObjectId id);

  // Registers a consumer for push-based resolution. If the object is already
  // ready the caller should push immediately; indicated by the return value.
  Result<bool> RegisterConsumer(ObjectId id, ConsumerRegistration consumer);

  // Pull protocol: current state + a location to fetch from (nullopt while
  // pending). The consumer-side raylet pays one control round trip for it.
  struct ResolveReply {
    ObjectState state = ObjectState::kPending;
    std::optional<NodeId> location;
    int64_t size_bytes = 0;
    DeviceId device;
    uint64_t device_handle = 0;
    // The record's lineage, which recovery re-submits.
    std::shared_ptr<const TaskSpec> producer;
  };
  Result<ResolveReply> Resolve(ObjectId id) const;

  // Non-blocking probe + watch: returns the current state, and — only when
  // that state is kPending — registers `watcher` to fire once the object
  // next leaves kPending (ready, lost, or released; re-probe to learn
  // which). For any other state the watcher is dropped unrun. Watchers fire
  // at most once, on the thread that flipped the state (inside MarkReady,
  // MarkLost, OnNodeFailure or DecRef), after the shard lock is released.
  // This is the continuation-based replacement for parking a thread in
  // WaitReady.
  Result<ObjectState> StateOrWatch(ObjectId id, Continuation watcher) const;

  // Blocks until the object leaves kPending (ready or lost). Returns the
  // final state; kDeadlineExceeded if `timeout_ms` elapses first (0 = wait
  // forever). A drain-loop shim over StateOrWatch: with a reactor wired the
  // calling thread helps drive it while waiting.
  Result<ObjectState> WaitReady(ObjectId id, int64_t timeout_ms = 0) const;

  // Reference counting. DecRef returns true when the count hit zero and the
  // record was removed (the caller should then delete the value from the
  // caching layer). The record's producer is dropped after the shard lock.
  Status IncRef(ObjectId id);
  Result<bool> DecRef(ObjectId id);

  bool Contains(ObjectId id) const;
  size_t size() const;
  std::vector<ObjectId> ObjectsInState(ObjectState state) const;

 private:
  // One hash partition of the table. The shard mutex is terminal: nothing
  // else is acquired while it is held (watchers fire after unlock).
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<ObjectId, OwnershipRecord> records GUARDED_BY(mu);
    // Watch continuations, keyed by object; entries exist only while the
    // object is kPending (side map so const probes can register watchers).
    mutable std::unordered_map<ObjectId, std::vector<Continuation>> watchers
        GUARDED_BY(mu);
  };

  Shard& shard(ObjectId id) const {
    return *shards_[std::hash<ObjectId>()(id) % shards_.size()];
  }

  // Detaches the watchers registered for `id` in `s`, if any.
  std::vector<Continuation> TakeWatchersLocked(Shard& s, ObjectId id) const
      REQUIRES(s.mu);
  // Runs detached watchers inline. Never called with a shard mutex held.
  void FireWatchers(std::vector<Continuation> watchers) const;

  NodeId owner_;
  Reactor* reactor_ = nullptr;
  // Cached handles (null until set_metrics); the registry outlives the table.
  Counter* watch_registrations_ = nullptr;
  Counter* watcher_fires_ = nullptr;
  Counter* shard_lock_waits_ = nullptr;
  Gauge* watchers_gauge_ = nullptr;
  // Shards are heap-allocated so the table stays movable-free and shard
  // addresses are stable for the lifetime of the table. Immutable after
  // construction (only the shard *contents* mutate).
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace skadi

#endif  // SRC_OWNERSHIP_OWNERSHIP_TABLE_H_
