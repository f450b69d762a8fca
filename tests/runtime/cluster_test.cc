#include "src/runtime/cluster.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

namespace skadi {
namespace {

// This process's OS thread count, from /proc/self/status.
int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

// The fabric and the caching layer only account, so building a cluster,
// device complex and memory blade included, starts no thread; the threads
// arrive with a runtime built over it.
TEST(ClusterTest, CreateStartsNoThread) {
  const int before = ThreadCount();
  ASSERT_GT(before, 0);
  ClusterConfig config;
  config.device_complexes = 1;
  config.memory_blades = 1;
  auto cluster = Cluster::Create(config);
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(ThreadCount(), before);
}

TEST(ClusterTest, DefaultConfigBuildsServersAndDurable) {
  ClusterConfig config;
  auto cluster = Cluster::Create(config);
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->topology().NodesWithRole(NodeRole::kServer).size(), 2u);
  EXPECT_TRUE(cluster->durable().valid());
  EXPECT_TRUE(cluster->head().valid());
  EXPECT_EQ(cluster->ComputeNodes().size(), 2u);
}

TEST(ClusterTest, DeviceComplexBuildsDpuAndAccelerators) {
  ClusterConfig config;
  config.device_complexes = 1;
  config.gpus_per_complex = 2;
  config.fpgas_per_complex = 3;
  auto cluster = Cluster::Create(config);
  EXPECT_EQ(cluster->NodesWithDevice(DeviceKind::kDpu).size(), 1u);
  EXPECT_EQ(cluster->NodesWithDevice(DeviceKind::kGpu).size(), 2u);
  EXPECT_EQ(cluster->NodesWithDevice(DeviceKind::kFpga).size(), 3u);
  // 2 servers + 1 dpu + 2 gpus + 3 fpgas = 8 compute nodes.
  EXPECT_EQ(cluster->ComputeNodes().size(), 8u);
}

TEST(ClusterTest, AcceleratorsKnowTheirDpu) {
  ClusterConfig config;
  config.device_complexes = 1;
  auto cluster = Cluster::Create(config);
  NodeId dpu = cluster->NodesWithDevice(DeviceKind::kDpu)[0];
  for (NodeId gpu : cluster->NodesWithDevice(DeviceKind::kGpu)) {
    EXPECT_EQ(cluster->node(gpu)->dpu, dpu);
  }
  for (NodeId fpga : cluster->NodesWithDevice(DeviceKind::kFpga)) {
    EXPECT_EQ(cluster->node(fpga)->dpu, dpu);
  }
  // Servers have no DPU controller.
  EXPECT_FALSE(cluster->node(cluster->head())->dpu.valid());
}

TEST(ClusterTest, MemoryBladesRegisteredInCache) {
  ClusterConfig config;
  config.memory_blades = 2;
  config.blade_bytes = 1024 * 1024;
  auto cluster = Cluster::Create(config);
  auto blades = cluster->topology().NodesWithRole(NodeRole::kMemoryBlade);
  ASSERT_EQ(blades.size(), 2u);
  for (NodeId blade : blades) {
    ASSERT_NE(cluster->cache().StoreOf(blade), nullptr);
    EXPECT_EQ(cluster->cache().StoreOf(blade)->capacity_bytes(), 1024 * 1024);
    EXPECT_FALSE(cluster->node(blade)->is_compute());
  }
}

TEST(ClusterTest, RacksSpreadServers) {
  ClusterConfig config;
  config.racks = 2;
  config.servers_per_rack = 2;
  auto cluster = Cluster::Create(config);
  auto servers = cluster->topology().NodesWithRole(NodeRole::kServer);
  ASSERT_EQ(servers.size(), 4u);
  int rack0 = 0;
  for (NodeId s : servers) {
    if (cluster->topology().GetNode(s)->rack == 0) {
      ++rack0;
    }
  }
  EXPECT_EQ(rack0, 2);
}

TEST(ClusterTest, NoDurableStoreWhenDisabled) {
  ClusterConfig config;
  config.with_durable_store = false;
  auto cluster = Cluster::Create(config);
  EXPECT_FALSE(cluster->durable().valid());
}

TEST(ClusterTest, NodeLookup) {
  auto cluster = Cluster::Create(ClusterConfig{});
  NodeId head = cluster->head();
  ASSERT_NE(cluster->node(head), nullptr);
  EXPECT_EQ(cluster->node(head)->id, head);
  EXPECT_EQ(cluster->node(NodeId(424242)), nullptr);
}

}  // namespace
}  // namespace skadi
