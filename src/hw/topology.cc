#include "src/hw/topology.h"

namespace skadi {

std::string_view NodeRoleName(NodeRole role) {
  switch (role) {
    case NodeRole::kServer:
      return "server";
    case NodeRole::kDisaggDevice:
      return "disagg_device";
    case NodeRole::kMemoryBlade:
      return "memory_blade";
    case NodeRole::kDurableStore:
      return "durable_store";
  }
  return "?";
}

std::string_view LinkClassName(LinkClass link_class) {
  switch (link_class) {
    case LinkClass::kLocal:
      return "local";
    case LinkClass::kIntraNode:
      return "intra_node";
    case LinkClass::kIntraRack:
      return "intra_rack";
    case LinkClass::kInterRack:
      return "inter_rack";
    case LinkClass::kDurable:
      return "durable";
  }
  return "?";
}

LinkParams DefaultLinkParams(LinkClass link_class) {
  switch (link_class) {
    case LinkClass::kLocal:
      return {0, 30e9};  // DRAM-bandwidth memcpy
    case LinkClass::kIntraNode:
      return {2 * 1000, 25e9};  // PCIe gen4-class
    case LinkClass::kIntraRack:
      return {15 * 1000, 10e9};  // 100GbE through ToR, RDMA-class latency
    case LinkClass::kInterRack:
      return {40 * 1000, 5e9};
    case LinkClass::kDurable:
      return {2 * 1000 * 1000, 400e6};  // object storage: ~2ms, ~400 MB/s
  }
  return {0, 1e9};
}

Topology::Topology() {
  for (int i = 0; i < kNumLinkClasses; ++i) {
    params_[i] = DefaultLinkParams(static_cast<LinkClass>(i));
  }
}

Status Topology::AddNode(NodeInfo info) {
  MutexLock lock(mu_);
  if (!info.id.valid()) {
    return Status::InvalidArgument("node id must be valid");
  }
  auto [it, inserted] = nodes_.emplace(info.id, std::move(info));
  if (!inserted) {
    return Status::AlreadyExists("node " + it->first.ToString() + " already registered");
  }
  return Status::Ok();
}

const NodeInfo* Topology::GetNode(NodeId id) const {
  MutexLock lock(mu_);
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::vector<NodeId> Topology::AllNodes() const {
  MutexLock lock(mu_);
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, info] : nodes_) {
    out.push_back(id);
  }
  return out;
}

std::vector<NodeId> Topology::NodesWithRole(NodeRole role) const {
  MutexLock lock(mu_);
  std::vector<NodeId> out;
  for (const auto& [id, info] : nodes_) {
    if (info.role == role) {
      out.push_back(id);
    }
  }
  return out;
}

LinkClass Topology::Classify(NodeId src, NodeId dst) const {
  if (src == dst) {
    return LinkClass::kLocal;
  }
  MutexLock lock(mu_);
  auto sit = nodes_.find(src);
  auto dit = nodes_.find(dst);
  if (sit == nodes_.end() || dit == nodes_.end()) {
    return LinkClass::kInterRack;
  }
  if (sit->second.role == NodeRole::kDurableStore ||
      dit->second.role == NodeRole::kDurableStore) {
    return LinkClass::kDurable;
  }
  if (sit->second.rack == dit->second.rack) {
    return LinkClass::kIntraRack;
  }
  return LinkClass::kInterRack;
}

LinkParams Topology::ParamsFor(LinkClass link_class) const {
  MutexLock lock(mu_);
  return params_[static_cast<int>(link_class)];
}

void Topology::SetParams(LinkClass link_class, LinkParams params) {
  MutexLock lock(mu_);
  params_[static_cast<int>(link_class)] = params;
}

int64_t Topology::TransferNanos(NodeId src, NodeId dst, int64_t bytes) const {
  LinkParams p = ParamsFor(Classify(src, dst));
  if (bytes < 0) {
    bytes = 0;
  }
  double transfer_ns =
      p.bandwidth_bytes_per_sec > 0.0
          ? static_cast<double>(bytes) / p.bandwidth_bytes_per_sec * 1e9
          : 0.0;
  return p.latency_ns + static_cast<int64_t>(transfer_ns);
}

int64_t Topology::ControlNanos(NodeId src, NodeId dst) const {
  return ParamsFor(Classify(src, dst)).latency_ns;
}

}  // namespace skadi
