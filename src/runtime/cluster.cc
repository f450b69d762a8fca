#include "src/runtime/cluster.h"

#include "src/common/logging.h"

namespace skadi {

namespace {

ClusterNode MakeNode(NodeRole role, int rack, DeviceSpec device, int64_t store_bytes,
                     int workers, Topology& topology) {
  ClusterNode node;
  node.id = NodeId::Next();
  node.role = role;
  node.device = device;
  node.store = std::make_shared<LocalObjectStore>(device.id, store_bytes);
  node.default_workers = workers;

  NodeInfo info;
  info.id = node.id;
  info.role = role;
  info.name = device.name;
  info.rack = rack;
  info.devices.push_back(device);
  Status added = topology.AddNode(info);
  SKADI_CHECK(added.ok()) << "duplicate node id: " << added.ToString();
  return node;
}

}  // namespace

std::unique_ptr<Cluster> Cluster::Create(const ClusterConfig& config) {
  auto cluster = std::unique_ptr<Cluster>(new Cluster());
  cluster->config_ = config;
  cluster->topology_ = std::make_shared<Topology>();
  cluster->fabric_ = std::make_unique<Fabric>(cluster->topology_);
  cluster->cache_ = std::make_unique<CachingLayer>(cluster->fabric_.get(), config.caching);

  Topology& topo = *cluster->topology_;

  // Servers.
  for (int rack = 0; rack < config.racks; ++rack) {
    for (int s = 0; s < config.servers_per_rack; ++s) {
      std::string name = "server-r" + std::to_string(rack) + "-" + std::to_string(s);
      ClusterNode node = MakeNode(NodeRole::kServer, rack, MakeCpuDevice(name),
                                  config.server_store_bytes, config.workers_per_server,
                                  topo);
      cluster->cache_->RegisterStore(node.id, node.store);
      if (!cluster->head_.valid()) {
        cluster->head_ = node.id;
      }
      cluster->nodes_.push_back(std::move(node));
    }
  }

  // Device complexes: DPU front-end + accelerators, spread over racks.
  for (int c = 0; c < config.device_complexes; ++c) {
    int rack = config.racks > 0 ? c % config.racks : 0;
    std::string prefix = "complex" + std::to_string(c);
    ClusterNode dpu =
        MakeNode(NodeRole::kDisaggDevice, rack, MakeDpuDevice(prefix + "-dpu"),
                 config.device_store_bytes, config.workers_per_device, topo);
    cluster->cache_->RegisterStore(dpu.id, dpu.store);
    NodeId dpu_id = dpu.id;
    cluster->nodes_.push_back(std::move(dpu));

    for (int g = 0; g < config.gpus_per_complex; ++g) {
      ClusterNode gpu = MakeNode(NodeRole::kDisaggDevice, rack,
                                 MakeGpuDevice(prefix + "-gpu" + std::to_string(g)),
                                 config.device_store_bytes, config.workers_per_device,
                                 topo);
      gpu.dpu = dpu_id;
      cluster->cache_->RegisterStore(gpu.id, gpu.store);
      cluster->nodes_.push_back(std::move(gpu));
    }
    for (int f = 0; f < config.fpgas_per_complex; ++f) {
      ClusterNode fpga = MakeNode(NodeRole::kDisaggDevice, rack,
                                  MakeFpgaDevice(prefix + "-fpga" + std::to_string(f)),
                                  config.device_store_bytes, config.workers_per_device,
                                  topo);
      fpga.dpu = dpu_id;
      cluster->cache_->RegisterStore(fpga.id, fpga.store);
      cluster->nodes_.push_back(std::move(fpga));
    }
  }

  // Memory blades.
  for (int b = 0; b < config.memory_blades; ++b) {
    int rack = config.racks > 0 ? b % config.racks : 0;
    ClusterNode blade = MakeNode(
        NodeRole::kMemoryBlade, rack,
        MakeMemoryBladeDevice("blade" + std::to_string(b), config.blade_bytes),
        config.blade_bytes, /*workers=*/0, topo);
    cluster->cache_->RegisterStore(blade.id, blade.store, /*is_memory_blade=*/true);
    cluster->nodes_.push_back(std::move(blade));
  }

  // Durable storage.
  if (config.with_durable_store) {
    ClusterNode durable =
        MakeNode(NodeRole::kDurableStore, 0,
                 MakeMemoryBladeDevice("durable", 1LL << 60), 1LL << 60, 0, topo);
    cluster->durable_ = durable.id;
    cluster->cache_->RegisterDurableNode(durable.id);
    cluster->nodes_.push_back(std::move(durable));
  }

  return cluster;
}

const ClusterNode* Cluster::node(NodeId id) const {
  for (const ClusterNode& n : nodes_) {
    if (n.id == id) {
      return &n;
    }
  }
  return nullptr;
}

std::vector<NodeId> Cluster::ComputeNodes() const {
  std::vector<NodeId> out;
  for (const ClusterNode& n : nodes_) {
    if (n.is_compute()) {
      out.push_back(n.id);
    }
  }
  return out;
}

std::vector<NodeId> Cluster::NodesWithDevice(DeviceKind kind) const {
  std::vector<NodeId> out;
  for (const ClusterNode& n : nodes_) {
    if (n.device.kind == kind) {
      out.push_back(n.id);
    }
  }
  return out;
}

}  // namespace skadi
