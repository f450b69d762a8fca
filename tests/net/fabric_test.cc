#include "src/net/fabric.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

namespace skadi {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : topo_(std::make_shared<Topology>()) {
    a_ = AddServer(0);
    b_ = AddServer(0);
    c_ = AddServer(1);
    fabric_ = std::make_unique<Fabric>(topo_);
  }

  NodeId AddServer(int rack) {
    NodeInfo info;
    info.id = NodeId::Next();
    info.role = NodeRole::kServer;
    info.rack = rack;
    EXPECT_TRUE(topo_->AddNode(info).ok());
    return info.id;
  }

  std::shared_ptr<Topology> topo_;
  std::unique_ptr<Fabric> fabric_;
  NodeId a_, b_, c_;
};

TEST_F(FabricTest, DeadNodeRejectsCalls) {
  fabric_->MarkDead(b_);
  EXPECT_TRUE(fabric_->IsDead(b_));
  EXPECT_EQ(fabric_->Control(a_, b_, 64).code(), StatusCode::kUnavailable);
  EXPECT_EQ(fabric_->total_messages(), 0);  // a rejected call charges nothing
  EXPECT_EQ(fabric_->clock().total_nanos(), 0);
  fabric_->Revive(b_);
  EXPECT_FALSE(fabric_->IsDead(b_));
  EXPECT_TRUE(fabric_->Control(a_, b_, 64).ok());
}

TEST_F(FabricTest, CallCountsRoundTripMessages) {
  int64_t before = fabric_->messages(LinkClass::kIntraRack);
  ASSERT_TRUE(fabric_->Control(a_, b_, 1).ok());
  EXPECT_EQ(fabric_->messages(LinkClass::kIntraRack), before + 2);  // req + reply
  EXPECT_EQ(fabric_->bytes(LinkClass::kIntraRack), 1);  // the reply is empty
  EXPECT_EQ(fabric_->metrics().GetCounter("fabric.control_messages").value(), 2);
}

// The request is charged one way and the empty reply back, both on the link
// class between the two nodes and nowhere else.
TEST_F(FabricTest, ControlChargesRequestAndEmptyReplyOnItsLinkClass) {
  ASSERT_TRUE(fabric_->Control(a_, c_, 100).ok());  // a_ and c_ sit in different racks
  EXPECT_EQ(fabric_->messages(LinkClass::kInterRack), 2);
  EXPECT_EQ(fabric_->bytes(LinkClass::kInterRack), 100);
  EXPECT_EQ(fabric_->messages(LinkClass::kIntraRack), 0);
  EXPECT_EQ(fabric_->total_messages(), 2);
  EXPECT_EQ(fabric_->total_bytes(), 100);
  EXPECT_EQ(fabric_->clock().total_nanos(),
            topo_->TransferNanos(a_, c_, 100) + topo_->TransferNanos(c_, a_, 0));
}

TEST_F(FabricTest, ControlAndDataTrafficCountSeparately) {
  ASSERT_TRUE(fabric_->Control(a_, b_, 10).ok());
  fabric_->TransferBytes(a_, b_, 1000);
  MetricsRegistry& metrics = fabric_->metrics();
  EXPECT_EQ(metrics.GetCounter("fabric.control_messages").value(), 2);
  EXPECT_EQ(metrics.GetCounter("fabric.data_transfers").value(), 1);
  EXPECT_EQ(metrics.GetCounter("fabric.data_bytes").value(), 1000);
  // The per-link-class counters see both kinds of traffic.
  EXPECT_EQ(fabric_->messages(LinkClass::kIntraRack), 3);
  EXPECT_EQ(fabric_->bytes(LinkClass::kIntraRack), 1010);
}

// Every link class's counters are in the registry, at zero, from
// construction on, under the names reports read.
TEST_F(FabricTest, LinkCountersAreRegisteredAtConstruction) {
  const auto snapshot = fabric_->metrics().SnapshotCounters();
  const std::map<std::string, int64_t> counters(snapshot.begin(), snapshot.end());
  for (int i = 0; i < kNumLinkClasses; ++i) {
    const std::string name(LinkClassName(static_cast<LinkClass>(i)));
    for (const std::string& counter : {"fabric.messages." + name, "fabric.bytes." + name}) {
      auto it = counters.find(counter);
      ASSERT_NE(it, counters.end()) << counter;
      EXPECT_EQ(it->second, 0) << counter;
    }
  }
  ASSERT_TRUE(fabric_->Control(a_, c_, 7).ok());
  const std::string inter(LinkClassName(LinkClass::kInterRack));
  EXPECT_EQ(fabric_->metrics().GetCounter("fabric.messages." + inter).value(), 2);
  EXPECT_EQ(fabric_->metrics().GetCounter("fabric.bytes." + inter).value(), 7);
}

TEST_F(FabricTest, ConcurrentControlsAreCountedExactly) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this] {
      for (int i = 0; i < kPerThread; ++i) {
        EXPECT_TRUE(fabric_->Control(a_, b_, 8).ok());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  constexpr int64_t kCalls = kThreads * kPerThread;
  EXPECT_EQ(fabric_->messages(LinkClass::kIntraRack), 2 * kCalls);
  EXPECT_EQ(fabric_->bytes(LinkClass::kIntraRack), 8 * kCalls);
  EXPECT_EQ(fabric_->metrics().GetCounter("fabric.control_messages").value(), 2 * kCalls);
  EXPECT_EQ(fabric_->clock().total_nanos(),
            kCalls * (topo_->TransferNanos(a_, b_, 8) + topo_->TransferNanos(b_, a_, 0)));
}

TEST_F(FabricTest, TransferBytesChargesAndCounts) {
  constexpr int64_t kBytes = 1024 * 1024;
  int64_t nanos = fabric_->TransferBytes(a_, c_, kBytes);
  EXPECT_GT(nanos, 0);
  EXPECT_EQ(fabric_->bytes(LinkClass::kInterRack), kBytes);
  EXPECT_EQ(fabric_->metrics().GetCounter("fabric.data_bytes").value(), kBytes);
  EXPECT_EQ(fabric_->clock().total_nanos(), nanos);
}

TEST_F(FabricTest, InterRackCostsMoreThanIntraRack) {
  constexpr int64_t kBytes = 4 * 1024 * 1024;
  int64_t intra = fabric_->TransferBytes(a_, b_, kBytes);
  int64_t inter = fabric_->TransferBytes(a_, c_, kBytes);
  EXPECT_GT(inter, intra);
}

TEST_F(FabricTest, TransferToDeadNodeAccountsNothing) {
  fabric_->MarkDead(c_);
  EXPECT_EQ(fabric_->TransferBytes(a_, c_, 1024), 0);
  EXPECT_EQ(fabric_->bytes(LinkClass::kInterRack), 0);
}

TEST_F(FabricTest, TotalAggregatesAcrossLinkClasses) {
  fabric_->TransferBytes(a_, b_, 100);  // intra-rack
  fabric_->TransferBytes(a_, c_, 200);  // inter-rack
  EXPECT_EQ(fabric_->total_bytes(), 300);
  EXPECT_EQ(fabric_->total_messages(), 2);
}

TEST_F(FabricTest, VirtualClockAccumulatesPerCall) {
  int64_t t0 = fabric_->clock().total_nanos();
  ASSERT_TRUE(fabric_->Control(a_, b_, 1).ok());
  int64_t t1 = fabric_->clock().total_nanos();
  // At least two intra-rack latencies charged.
  EXPECT_GE(t1 - t0, 2 * DefaultLinkParams(LinkClass::kIntraRack).latency_ns);
}

}  // namespace
}  // namespace skadi
