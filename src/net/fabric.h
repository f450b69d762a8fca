// The emulated data-center fabric.
//
// Every cross-node interaction in the reproduction — control messages
// between raylets, ownership-table lookups, object transfers, durable-store
// reads — goes through one Fabric instance, which:
//   1. charges modelled time (topology latency + size/bandwidth) to the
//      cluster VirtualClock, and
//   2. increments deterministic per-link-class counters (messages, bytes)
//      that the experiment harness reports.
//
// The fabric carries no payloads, runs no remote code and starts no thread:
// the runtime acts on the destination's state directly, in-process, and
// calls Control() or TransferBytes() to pay for the message that would have
// carried it. All methods are thread-safe; counter handles are resolved
// once, at construction.
#ifndef SRC_NET_FABRIC_H_
#define SRC_NET_FABRIC_H_

#include <array>
#include <memory>
#include <unordered_set>

#include "src/common/clock.h"
#include "src/common/id.h"
#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/hw/topology.h"

namespace skadi {

class Fabric {
 public:
  explicit Fabric(std::shared_ptr<Topology> topology);

  Topology& topology() { return *topology_; }
  VirtualClock& clock() { return clock_; }
  MetricsRegistry& metrics() { return metrics_; }

  // One control round trip from src to dst: charges a `request_bytes`
  // request and a zero-byte reply (two control messages, both modelled
  // latencies). Fails kUnavailable, charging nothing, if dst is dead.
  Status Control(NodeId src, NodeId dst, int64_t request_bytes);

  // Bulk data-plane transfer accounting: charges the modelled time for
  // `bytes` between the two nodes and counts it. Returns the charged
  // nanoseconds. Never blocks.
  int64_t TransferBytes(NodeId src, NodeId dst, int64_t bytes);

  // Failure injection: a dead node rejects control messages and transfers.
  void MarkDead(NodeId node);
  bool IsDead(NodeId node) const;

  // Deterministic counters, aggregated over all link classes.
  int64_t total_messages() const;
  int64_t total_bytes() const;
  // Per-link-class counters (see LinkClassName for naming).
  int64_t messages(LinkClass link_class) const;
  int64_t bytes(LinkClass link_class) const;

 private:
  struct LinkCounters {
    Counter* messages;
    Counter* bytes;
  };

  // Counts one control message and accounts its modelled transfer time.
  void Charge(NodeId src, NodeId dst, int64_t bytes);
  const LinkCounters& Link(LinkClass c) const { return link_[static_cast<int>(c)]; }

  std::shared_ptr<Topology> topology_;
  VirtualClock clock_;
  MetricsRegistry metrics_;

  // Resolved at construction; the registry keeps every handle alive.
  std::array<LinkCounters, kNumLinkClasses> link_{};
  Counter* control_messages_;
  Counter* data_transfers_;
  Counter* data_bytes_;

  mutable Mutex mu_;
  std::unordered_set<NodeId> dead_nodes_ GUARDED_BY(mu_);
};

}  // namespace skadi

#endif  // SRC_NET_FABRIC_H_
