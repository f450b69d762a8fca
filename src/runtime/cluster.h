// Builds the emulated disaggregated cluster of Figure 2's bottom half:
// regular servers, physically-disaggregated device complexes (a DPU fronting
// GPUs/FPGAs), disaggregated memory blades, and a cloud durable store — all
// wired to one fabric and one caching layer.
#ifndef SRC_RUNTIME_CLUSTER_H_
#define SRC_RUNTIME_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/cache/caching_layer.h"
#include "src/common/id.h"
#include "src/common/status.h"
#include "src/hw/device.h"
#include "src/hw/topology.h"
#include "src/net/fabric.h"
#include "src/objectstore/local_store.h"

namespace skadi {

struct ClusterConfig {
  int racks = 1;
  int servers_per_rack = 2;
  int workers_per_server = 2;
  int64_t server_store_bytes = 4LL * 1024 * 1024 * 1024;

  // Each device complex: one DPU node plus the listed accelerators, each an
  // addressable node behind the DPU (same rack as the complex).
  int device_complexes = 0;
  int gpus_per_complex = 1;
  int fpgas_per_complex = 2;
  int workers_per_device = 1;
  int64_t device_store_bytes = 1LL * 1024 * 1024 * 1024;

  int memory_blades = 0;
  int64_t blade_bytes = 16LL * 1024 * 1024 * 1024;

  bool with_durable_store = true;

  CachingLayerOptions caching;
};

// One addressable node of the emulated cluster.
struct ClusterNode {
  NodeId id;
  NodeRole role = NodeRole::kServer;
  // The node's primary device (CPU for servers, the accelerator for device
  // nodes, DPU for complex front-ends).
  DeviceSpec device;
  // For accelerators inside a complex: the DPU node fronting them. Gen-1
  // control traffic to/from this node detours through the DPU.
  NodeId dpu;
  std::shared_ptr<LocalObjectStore> store;
  int default_workers = 0;

  bool is_compute() const {
    return role == NodeRole::kServer ||
           (role == NodeRole::kDisaggDevice && device.kind != DeviceKind::kMemoryBlade);
  }
};

class Cluster {
 public:
  static std::unique_ptr<Cluster> Create(const ClusterConfig& config);

  Fabric& fabric() { return *fabric_; }
  CachingLayer& cache() { return *cache_; }
  Topology& topology() { return *topology_; }
  const ClusterConfig& config() const { return config_; }

  const std::vector<ClusterNode>& nodes() const { return nodes_; }
  const ClusterNode* node(NodeId id) const;

  // The driver/scheduler node (first server).
  NodeId head() const { return head_; }
  NodeId durable() const { return durable_; }

  // All nodes that can run tasks (servers + accelerators + DPUs).
  std::vector<NodeId> ComputeNodes() const;
  std::vector<NodeId> NodesWithDevice(DeviceKind kind) const;

 private:
  Cluster() = default;

  ClusterConfig config_;
  std::shared_ptr<Topology> topology_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<CachingLayer> cache_;
  std::vector<ClusterNode> nodes_;
  NodeId head_;
  NodeId durable_;
};

}  // namespace skadi

#endif  // SRC_RUNTIME_CLUSTER_H_
