// Cluster topology: which nodes exist, which rack each sits in, and the
// latency/bandwidth of the link class connecting any pair. The fabric
// consults the topology to charge transfer costs; the locality-aware
// scheduler consults it to prefer close-by placements.
#ifndef SRC_HW_TOPOLOGY_H_
#define SRC_HW_TOPOLOGY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/id.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/hw/device.h"

namespace skadi {

enum class NodeRole {
  kServer,        // regular server: CPU + DRAM
  kDisaggDevice,  // physically disaggregated device complex: DPU + GPU/FPGA
  kMemoryBlade,   // disaggregated memory pool
  kDurableStore,  // cloud durable storage (S3-class), Figure 1's baseline path
};

std::string_view NodeRoleName(NodeRole role);

struct NodeInfo {
  NodeId id;
  NodeRole role = NodeRole::kServer;
  std::string name;
  int rack = 0;
  // Devices hosted by this node. A server has one CPU device; a disaggregated
  // device complex has a DPU plus dominant resources (GPUs/FPGAs/DRAM).
  std::vector<DeviceSpec> devices;
};

// Distance class between two nodes, in increasing cost order.
enum class LinkClass {
  kLocal,      // same node: memcpy through shared memory
  kIntraNode,  // device<->device within one complex (PCIe / NVLink class)
  kIntraRack,  // through the ToR switch
  kInterRack,  // through the spine
  kDurable,    // to/from cloud durable storage
};
inline constexpr int kNumLinkClasses = static_cast<int>(LinkClass::kDurable) + 1;

std::string_view LinkClassName(LinkClass link_class);

struct LinkParams {
  int64_t latency_ns = 0;
  double bandwidth_bytes_per_sec = 0.0;
};

// Immutable-after-setup registry of nodes + link parameters. Thread-safe for
// concurrent reads after the cluster is built.
class Topology {
 public:
  Topology();

  // Registers a node. Fails if the id is already present.
  Status AddNode(NodeInfo info);

  const NodeInfo* GetNode(NodeId id) const;
  std::vector<NodeId> AllNodes() const;
  std::vector<NodeId> NodesWithRole(NodeRole role) const;

  // Distance class between two nodes. Unknown nodes classify as kInterRack
  // (the conservative choice). Durable-store endpoints always classify as
  // kDurable regardless of rack.
  LinkClass Classify(NodeId src, NodeId dst) const;

  LinkParams ParamsFor(LinkClass link_class) const;
  void SetParams(LinkClass link_class, LinkParams params);

  // Modelled time to move `bytes` from src to dst: latency + bytes/bandwidth.
  int64_t TransferNanos(NodeId src, NodeId dst, int64_t bytes) const;

  // Modelled time of one control message (latency only) between two nodes.
  int64_t ControlNanos(NodeId src, NodeId dst) const;

 private:
  mutable Mutex mu_;
  std::unordered_map<NodeId, NodeInfo> nodes_ GUARDED_BY(mu_);
  LinkParams params_[kNumLinkClasses] GUARDED_BY(mu_);
};

// Default link parameters, order-of-magnitude realistic for a 2023 data
// center. Local copies are charged at DRAM bandwidth with zero latency.
LinkParams DefaultLinkParams(LinkClass link_class);

}  // namespace skadi

#endif  // SRC_HW_TOPOLOGY_H_
