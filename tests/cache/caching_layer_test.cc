#include "src/cache/caching_layer.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

namespace skadi {
namespace {

constexpr int64_t kMiB = 1024 * 1024;

// Three servers in two racks, one memory blade, one durable store.
class CachingLayerTest : public ::testing::Test {
 protected:
  CachingLayerTest() : topo_(std::make_shared<Topology>()) {
    a_ = AddNode(NodeRole::kServer, 0);
    b_ = AddNode(NodeRole::kServer, 0);
    c_ = AddNode(NodeRole::kServer, 1);
    blade_ = AddNode(NodeRole::kMemoryBlade, 1);
    durable_ = AddNode(NodeRole::kDurableStore, 0);
    fabric_ = std::make_unique<Fabric>(topo_);
  }

  NodeId AddNode(NodeRole role, int rack) {
    NodeInfo info;
    info.id = NodeId::Next();
    info.role = role;
    info.rack = rack;
    EXPECT_TRUE(topo_->AddNode(info).ok());
    return info.id;
  }

  std::unique_ptr<CachingLayer> MakeLayer(CachingLayerOptions options = {},
                                          int64_t store_capacity = 64 * kMiB) {
    auto layer = std::make_unique<CachingLayer>(fabric_.get(), options);
    for (NodeId node : {a_, b_, c_}) {
      layer->RegisterStore(node,
                           std::make_shared<LocalObjectStore>(DeviceId::Next(), store_capacity));
    }
    layer->RegisterStore(
        blade_, std::make_shared<LocalObjectStore>(DeviceId::Next(), 256 * kMiB),
        /*is_memory_blade=*/true);
    layer->RegisterDurableNode(durable_);
    return layer;
  }

  std::shared_ptr<Topology> topo_;
  std::unique_ptr<Fabric> fabric_;
  NodeId a_, b_, c_, blade_, durable_;
};

TEST_F(CachingLayerTest, PutGetLocalIsFree) {
  auto layer = MakeLayer();
  ObjectId id = ObjectId::Next();
  ASSERT_TRUE(layer->Put(id, Buffer::FromString("data"), a_).ok());
  int64_t bytes_before = fabric_->total_bytes();
  auto r = layer->Get(id, a_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsStringView(), "data");
  EXPECT_EQ(fabric_->total_bytes(), bytes_before);  // local hit: no fabric traffic
}

TEST_F(CachingLayerTest, RemoteGetChargesTransfer) {
  auto layer = MakeLayer();
  ObjectId id = ObjectId::Next();
  Buffer data = Buffer::Zeros(kMiB);
  ASSERT_TRUE(layer->Put(id, data, a_).ok());
  auto r = layer->Get(id, c_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(fabric_->bytes(LinkClass::kInterRack), kMiB);
}

TEST_F(CachingLayerTest, CacheLocallyAddsLocation) {
  auto layer = MakeLayer();
  ObjectId id = ObjectId::Next();
  ASSERT_TRUE(layer->Put(id, Buffer::Zeros(1024), a_).ok());
  ASSERT_TRUE(layer->Get(id, c_, /*cache_locally=*/true).ok());
  auto locations = layer->Locations(id);
  EXPECT_EQ(locations.size(), 2u);
  // Second get is now local: no new fabric bytes.
  int64_t bytes_before = fabric_->total_bytes();
  ASSERT_TRUE(layer->Get(id, c_).ok());
  EXPECT_EQ(fabric_->total_bytes(), bytes_before);
}

TEST_F(CachingLayerTest, GetPrefersNearestReplica) {
  CachingLayerOptions options;
  options.replication_factor = 2;
  auto layer = MakeLayer(options);
  ObjectId id = ObjectId::Next();
  ASSERT_TRUE(layer->Put(id, Buffer::Zeros(kMiB), a_).ok());
  // Replica lands on b_ (same rack as a_). Reader on b_: local hit.
  ASSERT_EQ(layer->Locations(id).size(), 2u);
  int64_t inter_before = fabric_->bytes(LinkClass::kInterRack);
  ASSERT_TRUE(layer->Get(id, b_).ok());
  EXPECT_EQ(fabric_->bytes(LinkClass::kInterRack), inter_before);
}

TEST_F(CachingLayerTest, DuplicatePutRejected) {
  auto layer = MakeLayer();
  ObjectId id = ObjectId::Next();
  ASSERT_TRUE(layer->Put(id, Buffer::Zeros(8), a_).ok());
  EXPECT_EQ(layer->Put(id, Buffer::Zeros(8), b_).code(), StatusCode::kAlreadyExists);
}

TEST_F(CachingLayerTest, PutToUnknownNodeFails) {
  auto layer = MakeLayer();
  EXPECT_EQ(layer->Put(ObjectId::Next(), Buffer::Zeros(8), NodeId(9999)).code(),
            StatusCode::kNotFound);
}

TEST_F(CachingLayerTest, DeleteRemovesEverywhere) {
  CachingLayerOptions options;
  options.replication_factor = 3;
  auto layer = MakeLayer(options);
  ObjectId id = ObjectId::Next();
  ASSERT_TRUE(layer->Put(id, Buffer::Zeros(8), a_).ok());
  EXPECT_EQ(layer->Locations(id).size(), 3u);
  ASSERT_TRUE(layer->Delete(id).ok());
  EXPECT_FALSE(layer->Exists(id));
  EXPECT_EQ(layer->StoreOf(a_)->num_objects(), 0u);
  EXPECT_EQ(layer->StoreOf(b_)->num_objects(), 0u);
}

TEST_F(CachingLayerTest, SizeOfReportsBytes) {
  auto layer = MakeLayer();
  ObjectId id = ObjectId::Next();
  ASSERT_TRUE(layer->Put(id, Buffer::Zeros(12345), a_).ok());
  auto size = layer->SizeOf(id);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 12345);
}

TEST_F(CachingLayerTest, MigrateMovesData) {
  auto layer = MakeLayer();
  ObjectId id = ObjectId::Next();
  ASSERT_TRUE(layer->Put(id, Buffer::Zeros(kMiB), a_).ok());
  ASSERT_TRUE(layer->Migrate(id, c_).ok());
  auto locations = layer->Locations(id);
  ASSERT_EQ(locations.size(), 1u);
  EXPECT_EQ(locations[0], c_);
  EXPECT_FALSE(layer->StoreOf(a_)->Contains(id));
  EXPECT_TRUE(layer->StoreOf(c_)->Contains(id));
}

TEST_F(CachingLayerTest, ReplicaSurvivesNodeFailure) {
  CachingLayerOptions options;
  options.replication_factor = 2;
  auto layer = MakeLayer(options);
  ObjectId id = ObjectId::Next();
  Buffer data = Buffer::FromString("precious");
  ASSERT_TRUE(layer->Put(id, data, a_).ok());

  fabric_->MarkDead(a_);
  EXPECT_TRUE(layer->OnNodeFailure(a_).empty());

  auto r = layer->Get(id, c_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsStringView(), "precious");

  // The replica was the last copy.
  fabric_->MarkDead(b_);
  EXPECT_EQ(layer->OnNodeFailure(b_), std::vector<ObjectId>{id});
}

TEST_F(CachingLayerTest, UnreplicatedObjectLostOnFailure) {
  auto layer = MakeLayer();
  ObjectId id = ObjectId::Next();
  ObjectId elsewhere = ObjectId::Next();
  ASSERT_TRUE(layer->Put(id, Buffer::Zeros(8), a_).ok());
  ASSERT_TRUE(layer->Put(elsewhere, Buffer::Zeros(8), b_).ok());
  fabric_->MarkDead(a_);
  EXPECT_EQ(layer->OnNodeFailure(a_), std::vector<ObjectId>{id});
  EXPECT_EQ(layer->Get(id, b_).status().code(), StatusCode::kDataLoss);
  // Reported once: a later failure elsewhere does not name it again.
  fabric_->MarkDead(c_);
  EXPECT_TRUE(layer->OnNodeFailure(c_).empty());
  // A re-put (lineage re-execution) restores it in place.
  EXPECT_TRUE(layer->Put(id, Buffer::Zeros(8), b_).ok());
  EXPECT_TRUE(layer->Get(id, b_).ok());
}

TEST_F(CachingLayerTest, EcObjectSurvivesNodeFailure) {
  auto layer = MakeLayer();
  ObjectId id = ObjectId::Next();
  Buffer data = Buffer::Zeros(4096);
  // 4 nodes registered (a, b, c, blade): EC(2,2) spreads over all 4.
  ASSERT_TRUE(layer->PutEc(id, data, {2, 2}).ok());
  fabric_->MarkDead(a_);
  EXPECT_TRUE(layer->OnNodeFailure(a_).empty());
  auto r = layer->Get(id, b_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 4096u);
  EXPECT_EQ(*r, data);
}

// EC(2,2) decodes from any 2 of its 4 shards: it is lost, and reported, only
// by the failure that leaves fewer than 2, and only by that one.
TEST_F(CachingLayerTest, EcObjectReportedLostWhenTooFewShardsRemain) {
  auto layer = MakeLayer();
  ObjectId id = ObjectId::Next();
  ASSERT_TRUE(layer->PutEc(id, Buffer::Zeros(4096), {2, 2}).ok());
  for (NodeId node : {a_, b_}) {
    fabric_->MarkDead(node);
    EXPECT_TRUE(layer->OnNodeFailure(node).empty());
  }
  ASSERT_TRUE(layer->Get(id, c_).ok());
  fabric_->MarkDead(c_);
  EXPECT_EQ(layer->OnNodeFailure(c_), std::vector<ObjectId>{id});
  EXPECT_FALSE(layer->Get(id, c_).ok());
  fabric_->MarkDead(blade_);
  EXPECT_TRUE(layer->OnNodeFailure(blade_).empty());
}

TEST_F(CachingLayerTest, EcNeedsEnoughNodes) {
  auto layer = MakeLayer();
  EXPECT_EQ(layer->PutEc(ObjectId::Next(), Buffer::Zeros(64), {8, 4}).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CachingLayerTest, DurablePutGetChargesDurableLink) {
  auto layer = MakeLayer();
  Buffer data = Buffer::Zeros(kMiB);
  ASSERT_TRUE(layer->PutDurable("stage1/out", data, a_).ok());
  auto r = layer->GetDurable("stage1/out", c_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(fabric_->bytes(LinkClass::kDurable), 2 * kMiB);  // up + down
}

TEST_F(CachingLayerTest, DurableMissingKeyFails) {
  auto layer = MakeLayer();
  EXPECT_EQ(layer->GetDurable("nope", a_).status().code(), StatusCode::kNotFound);
}

TEST_F(CachingLayerTest, DurableIsSlowerThanCachePath) {
  auto layer = MakeLayer();
  Buffer data = Buffer::Zeros(8 * kMiB);

  fabric_->clock().Reset();
  ObjectId id = ObjectId::Next();
  ASSERT_TRUE(layer->Put(id, data, a_).ok());
  (void)layer->Get(id, b_);  // timing the fetch, not using the value
  int64_t cache_nanos = fabric_->clock().total_nanos();

  fabric_->clock().Reset();
  ASSERT_TRUE(layer->PutDurable("k", data, a_).ok());
  (void)layer->GetDurable("k", b_);  // timing the fetch, not using the value
  int64_t durable_nanos = fabric_->clock().total_nanos();

  EXPECT_GT(durable_nanos, 5 * cache_nanos);
}

TEST_F(CachingLayerTest, SpillToBladeKeepsObjectReachable) {
  auto layer = MakeLayer({}, /*store_capacity=*/2 * kMiB);
  ASSERT_TRUE(layer->EnableSpillToBlade(a_).ok());

  ObjectId first = ObjectId::Next();
  ObjectId second = ObjectId::Next();
  ASSERT_TRUE(layer->Put(first, Buffer::Zeros(kMiB + kMiB / 2), a_).ok());
  ASSERT_TRUE(layer->Put(second, Buffer::Zeros(kMiB + kMiB / 2), a_).ok());

  // `first` was spilled to the blade, not lost.
  auto locations = layer->Locations(first);
  ASSERT_EQ(locations.size(), 1u);
  EXPECT_EQ(locations[0], blade_);
  auto r = layer->Get(first, a_);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(fabric_->metrics().GetCounter("cache.spill_bytes").value(), 0);
}

// A spilled object's copy lives on the blade: its origin's failure leaves it
// reachable, and the blade's failure loses it.
TEST_F(CachingLayerTest, SpilledObjectLostOnlyWithTheBlade) {
  auto layer = MakeLayer({}, /*store_capacity=*/2 * kMiB);
  ASSERT_TRUE(layer->EnableSpillToBlade(a_).ok());
  ObjectId spilled = ObjectId::Next();
  ObjectId resident = ObjectId::Next();
  ASSERT_TRUE(layer->Put(spilled, Buffer::Zeros(kMiB + kMiB / 2), a_).ok());
  ASSERT_TRUE(layer->Put(resident, Buffer::Zeros(kMiB + kMiB / 2), a_).ok());
  ASSERT_EQ(layer->Locations(spilled), std::vector<NodeId>{blade_});

  fabric_->MarkDead(a_);
  EXPECT_EQ(layer->OnNodeFailure(a_), std::vector<ObjectId>{resident});
  auto r = layer->Get(spilled, b_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), static_cast<size_t>(kMiB + kMiB / 2));

  fabric_->MarkDead(blade_);
  EXPECT_EQ(layer->OnNodeFailure(blade_), std::vector<ObjectId>{spilled});
  EXPECT_EQ(layer->Get(spilled, b_).status().code(), StatusCode::kDataLoss);
}

TEST_F(CachingLayerTest, SpillWithoutBladesFails) {
  auto layer = std::make_unique<CachingLayer>(fabric_.get());
  layer->RegisterStore(a_, std::make_shared<LocalObjectStore>(DeviceId::Next(), kMiB));
  EXPECT_EQ(layer->EnableSpillToBlade(a_).code(), StatusCode::kFailedPrecondition);
}

TEST_F(CachingLayerTest, ConcurrentRemoteGetsAreSingleFlight) {
  auto layer = MakeLayer();
  ObjectId id = ObjectId::Next();
  std::string payload(512 * 1024, 'x');
  ASSERT_TRUE(layer->Put(id, Buffer::FromString(payload), a_).ok());
  fabric_->metrics().GetCounter("cache.remote_fetches").Reset();
  fabric_->metrics().GetCounter("cache.coalesced_fetches").Reset();

  constexpr int kReaders = 16;
  std::vector<std::thread> readers;
  std::vector<Result<Buffer>> results(kReaders, Status::Internal("unset"));
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] { results[i] = layer->Get(id, b_); });
  }
  for (auto& t : readers) {
    t.join();
  }

  for (int i = 0; i < kReaders; ++i) {
    ASSERT_TRUE(results[i].ok()) << "reader " << i;
    EXPECT_EQ(results[i]->size(), payload.size());
  }
  // Every Get either led a fetch or coalesced onto one; the deterministic
  // invariant is the sum (exact split depends on thread interleaving).
  int64_t leaders = fabric_->metrics().GetCounter("cache.remote_fetches").value();
  int64_t followers = fabric_->metrics().GetCounter("cache.coalesced_fetches").value();
  EXPECT_EQ(leaders + followers, kReaders);
  EXPECT_GE(leaders, 1);
  // Coalesced readers share storage with their leader's buffer: at most
  // `leaders` distinct data pointers among the results.
  std::set<const uint8_t*> distinct;
  for (const auto& r : results) {
    distinct.insert(r->data());
  }
  EXPECT_LE(static_cast<int64_t>(distinct.size()), leaders);
}

TEST_F(CachingLayerTest, SingleFlightPropagatesFailureToFollowers) {
  auto layer = MakeLayer();
  ObjectId id = ObjectId::Next();
  // Nothing stored: every Get must fail fast with NotFound, including any
  // that would have coalesced (no flight exists for a directory miss).
  auto r = layer->Get(id, b_);
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(CachingLayerTest, ReplicationSkipsBladesAndDeadNodes) {
  fabric_->MarkDead(b_);
  CachingLayerOptions options;
  options.replication_factor = 3;
  auto layer = MakeLayer(options);
  ObjectId id = ObjectId::Next();
  ASSERT_TRUE(layer->Put(id, Buffer::Zeros(64), a_).ok());
  auto locations = layer->Locations(id);
  // a_ + c_ only: b_ dead, blade excluded.
  ASSERT_EQ(locations.size(), 2u);
  for (NodeId n : locations) {
    EXPECT_NE(n, blade_);
    EXPECT_NE(n, b_);
  }
}

}  // namespace
}  // namespace skadi
