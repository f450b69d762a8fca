// The caching layer (Figure 2, red boxes): one KV API over host DRAM, device
// HBM, disaggregated memory blades, and cloud durable storage. It hides data
// location and movement (§2.1: "the caching layer can hide the location and
// movement of data") and provides the reliability options of §2.1: N-way
// replication and Reed-Solomon erasure coding.
#ifndef SRC_CACHE_CACHING_LAYER_H_
#define SRC_CACHE_CACHING_LAYER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cache/erasure.h"
#include "src/common/buffer.h"
#include "src/common/event.h"
#include "src/common/id.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/objectstore/local_store.h"

namespace skadi {

struct CachingLayerOptions {
  // Total copies written by Put (1 = no replication).
  int replication_factor = 1;
};

class CachingLayer {
 public:
  explicit CachingLayer(Fabric* fabric, CachingLayerOptions options = {});

  // Registers the store backing `node`. Memory blades are spill/EC targets,
  // never chosen as replica homes for hot data.
  void RegisterStore(NodeId node, std::shared_ptr<LocalObjectStore> store,
                     bool is_memory_blade = false);

  // Designates the cloud durable storage node (Figure 1's bounce target).
  void RegisterDurableNode(NodeId node);

  LocalObjectStore* StoreOf(NodeId node) const;

  // --- KV API ---

  // Stores `data` with its primary copy on `at`; writes replication_factor-1
  // additional copies to other (non-blade) nodes, charging fabric transfers.
  Status Put(ObjectId id, Buffer data, NodeId at);

  // Fetches the object for a reader on `at`. Local hit is free; a remote hit
  // charges one fabric transfer from the nearest live location. With
  // `cache_locally`, the fetched copy is inserted into at's store and
  // becomes a new location. Falls back to EC decode if all replicas are
  // gone but shards survive.
  //
  // Remote fetches are single-flight per (at, id): concurrent readers on the
  // same node coalesce onto one fabric transfer and share the resulting
  // Buffer (zero-copy — Buffers alias refcounted storage). Followers inherit
  // the leader's result, including its cache_locally decision.
  //
  // A blocking shim over GetAsync: parks the caller on its own Event until
  // the result is available. Only a single-flight follower ever waits, and
  // the leader completes it from its own thread once the fetch publishes.
  Result<Buffer> Get(ObjectId id, NodeId at, bool cache_locally = false);

  // Continuation form of Get — never parks the calling thread waiting on
  // another reader. Local hits, EC reconstruction, errors, and single-flight
  // *leader* fetches complete inline (done runs before GetAsync returns);
  // a single-flight *follower* registers `done` on the flight entry and it
  // runs on the leader's thread when the shared fetch publishes.
  void GetAsync(ObjectId id, NodeId at, bool cache_locally,
                std::function<void(Result<Buffer>)> done);

  // Removes all copies and shards.
  Status Delete(ObjectId id);

  bool Exists(ObjectId id) const;
  Result<int64_t> SizeOf(ObjectId id) const;
  std::vector<NodeId> Locations(ObjectId id) const;

  // Moves the (sole tracked) copy of an object to `to` — the data plane of
  // "migrate compute to data OR data to compute" decisions.
  Status Migrate(ObjectId id, NodeId to);

  // --- Reliability ---

  // Erasure-codes the object across distinct nodes (blades included).
  // Storage overhead is (k+m)/k instead of replication's factor N.
  Status PutEc(ObjectId id, Buffer data, const EcConfig& config);

  // --- Durable storage path (the Figure 1b baseline) ---

  Status PutDurable(const std::string& key, Buffer data, NodeId from);
  Result<Buffer> GetDurable(const std::string& key, NodeId to);

  // --- Spill (Gen-2 §2.3.2 change 3) ---

  // Wires `node`'s store to spill LRU victims to the emptiest memory blade.
  // The spilled object's directory location moves to the blade, so later
  // Gets transparently fetch it back over the fabric.
  Status EnableSpillToBlade(NodeId node);

  // --- Failure handling ---

  // Drops every copy/shard recorded on `node` (its store died). Objects
  // whose last copy vanished stay in the directory with zero locations; Get
  // then reports kDataLoss (unless EC shards elsewhere still reconstruct).
  void OnNodeFailure(NodeId node);

  // Objects that currently have no live copies and no decodable shards.
  std::vector<ObjectId> LostObjects() const;

 private:
  struct EcInfo {
    EcConfig config;
    size_t original_size = 0;
    // shard index -> (node, shard object id); missing entries were lost.
    std::vector<std::pair<NodeId, ObjectId>> shards;
    std::vector<bool> shard_alive;
  };

  struct DirEntry {
    int64_t size = 0;
    std::set<NodeId> locations;
    std::unique_ptr<EcInfo> ec;
  };

  // Picks replication targets: non-blade nodes != primary, deterministic
  // order.
  std::vector<NodeId> PickReplicaTargetsLocked(NodeId primary, int count) const
      REQUIRES(mu_);

  // Snapshot of an entry's EC metadata plus the stores holding its shards,
  // taken under mu_ so the decode itself can run unlocked. Store methods are
  // never called while mu_ is held: the spill handler locks mu_ while its
  // store's lock is held, so calling into a store under mu_ would create a
  // lock-order cycle (store -> cache -> store).
  struct EcFetchPlan {
    EcConfig config;
    size_t original_size = 0;
    std::vector<std::pair<NodeId, ObjectId>> shards;
    std::vector<bool> shard_alive;
    std::vector<std::shared_ptr<LocalObjectStore>> shard_stores;
  };
  EcFetchPlan SnapshotEcLocked(const DirEntry& entry) const REQUIRES(mu_);

  Result<Buffer> TryEcReconstruct(const EcFetchPlan& plan, ObjectId id, NodeId at)
      EXCLUDES(mu_);

  // One in-flight remote fetch, shared by a leader (who performs it) and any
  // followers that arrived while it ran. Followers register a continuation
  // on `waiters` holding only `mu` — never the directory lock — so
  // completion cannot deadlock against store locks or mu_. The leader swaps
  // the list out under `mu` when it publishes and runs it unlocked.
  struct Flight {
    Mutex mu;
    bool done GUARDED_BY(mu) = false;
    Status status GUARDED_BY(mu);
    Buffer data GUARDED_BY(mu);
    std::vector<Continuation> waiters GUARDED_BY(mu);
  };

  // Follower's view of a published flight (Buffer shares the leader's
  // refcounted storage — still zero-copy).
  static Result<Buffer> FlightResult(const std::shared_ptr<Flight>& flight);

  // Performs the remote fetch for Get (store read + fabric transfer +
  // optional local caching). Called without mu_ held.
  Result<Buffer> FetchRemote(ObjectId id, NodeId source, NodeId at,
                             LocalObjectStore* src_store, bool cache_locally)
      EXCLUDES(mu_);

  Fabric* fabric_;
  CachingLayerOptions options_;

  mutable Mutex mu_;
  std::map<NodeId, std::shared_ptr<LocalObjectStore>> stores_ GUARDED_BY(mu_);
  std::set<NodeId> blades_ GUARDED_BY(mu_);
  NodeId durable_node_ GUARDED_BY(mu_);
  std::unordered_map<ObjectId, DirEntry> directory_ GUARDED_BY(mu_);
  std::unordered_map<std::string, Buffer> durable_contents_ GUARDED_BY(mu_);
  // Remote fetches currently in flight, keyed by (destination, object).
  std::map<std::pair<NodeId, ObjectId>, std::shared_ptr<Flight>> inflight_
      GUARDED_BY(mu_);
};

}  // namespace skadi

#endif  // SRC_CACHE_CACHING_LAYER_H_
