// Batched future-resolution pushes (DESIGN.md §13).
//
// In push mode the owner ships a value to every registered consumer the
// moment it is produced. Naively that is one control message per (object,
// consumer) pair; under fan-out ("one task output consumed by N tasks on M
// nodes") the owner floods the fabric with M*N tiny messages. The batcher
// coalesces pending pushes per (owner, destination-node) pair and delivers
// each batch as ONE fabric message, so per-object control traffic collapses
// to per-destination traffic.
//
// Flush triggers, either of:
//  * a destination's batch reaches `max_batch` entries (inline, caller's
//    thread). With max_batch 1 every Add delivers inline, which is the
//    unbatched ablation;
//  * the caller that queued the entries calls FlushAll() once it has
//    queued them all (the dispatch and completion paths always do, on every
//    return path, so nothing is ever left pending).
//
// Delivered/saved traffic is observable as runtime.push_batches (messages
// actually sent) vs runtime.push_batched_entries (object-consumer entries
// carried): entries - batches = messages saved vs the unbatched protocol.
#ifndef SRC_NET_PUSH_BATCHER_H_
#define SRC_NET_PUSH_BATCHER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/common/id.h"
#include "src/common/metrics.h"
#include "src/common/mutex.h"

namespace skadi {

// One registered push: deliver `object` to `consumer_node` for
// `consumer_task` (from MarkReady's consumer-registration list).
struct PushEntry {
  ObjectId object;
  TaskId consumer_task;
  NodeId consumer_node;
};

class PushBatcher {
 public:
  // Delivers one coalesced batch: the callee sends a single control message
  // from `owner` to `dst` and lands each entry's value in dst's store. Runs
  // outside every batcher lock (it re-enters the fabric and caching layer).
  using FlushFn =
      std::function<void(NodeId owner, NodeId dst, std::vector<PushEntry> entries)>;

  explicit PushBatcher(FlushFn flush, int max_batch = kDefaultMaxBatch);

  static constexpr int kDefaultMaxBatch = 32;

  // Wires the runtime.push_batches / runtime.push_batched_entries counters.
  // Wire before concurrent use; not synchronized.
  void set_metrics(MetricsRegistry* registry);

  // Queues one push from `owner`. Flushes (owner, entry.consumer_node)'s
  // batch inline once it reaches max_batch.
  void Add(NodeId owner, PushEntry entry);

  // Flushes every pending batch. The owner-side completion handler calls
  // this after registering all of a task's outputs, so consumers observe the
  // value before the scheduler releases them.
  void FlushAll();

  // Entries currently queued across all destinations (tests/introspection).
  size_t pending() const;

 private:
  using Key = std::pair<NodeId, NodeId>;  // (owner, destination)

  // Sends `batches` through flush_, counting messages and entries. Must be
  // called with mu_ NOT held.
  void Deliver(std::map<Key, std::vector<PushEntry>> batches);

  FlushFn flush_;
  const int max_batch_;
  Counter* batches_ctr_ = nullptr;
  Counter* entries_ctr_ = nullptr;

  // Terminal mutex: flush_ always runs after unlock.
  mutable Mutex mu_;
  std::map<Key, std::vector<PushEntry>> pending_ GUARDED_BY(mu_);
  size_t pending_count_ GUARDED_BY(mu_) = 0;
};

}  // namespace skadi

#endif  // SRC_NET_PUSH_BATCHER_H_
