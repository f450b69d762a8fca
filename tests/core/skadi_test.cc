// End-to-end tests of the Skadi facade: every declarative frontend runs
// through FlowGraph lowering onto the emulated disaggregated cluster and is
// checked against a single-node reference computation.
#include "src/core/skadi.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "src/common/random.h"
#include "src/format/serde.h"
#include "src/ir/dialects.h"

namespace skadi {
namespace {

class SkadiTest : public ::testing::Test {
 protected:
  void Start(SkadiOptions options = DefaultOptions()) {
    auto skadi = Skadi::Start(options);
    ASSERT_TRUE(skadi.ok()) << skadi.status().ToString();
    skadi_ = std::move(skadi).value();
  }

  static SkadiOptions DefaultOptions() {
    SkadiOptions options;
    options.cluster.racks = 2;
    options.cluster.servers_per_rack = 2;
    options.cluster.workers_per_server = 2;
    options.default_parallelism = 2;
    return options;
  }

  RecordBatch SalesBatch(int rows, uint64_t seed = 7) {
    Rng rng(seed);
    ColumnBuilder regions(DataType::kString);
    ColumnBuilder amounts(DataType::kInt64);
    ColumnBuilder prices(DataType::kFloat64);
    const std::vector<std::string> kRegions = {"east", "west", "north", "south"};
    for (int i = 0; i < rows; ++i) {
      regions.AppendString(kRegions[rng.NextBounded(kRegions.size())]);
      amounts.AppendInt64(static_cast<int64_t>(rng.NextBounded(100)));
      prices.AppendFloat64(rng.NextDouble() * 10.0);
    }
    Schema schema({{"region", DataType::kString},
                   {"amount", DataType::kInt64},
                   {"price", DataType::kFloat64}});
    auto batch = RecordBatch::Make(schema, {regions.Finish(), amounts.Finish(),
                                            prices.Finish()});
    return std::move(batch).value();
  }

  // Bytes held by every node's object store, by node.
  std::map<NodeId, int64_t> StoreBytes() {
    std::map<NodeId, int64_t> bytes;
    for (const ClusterNode& node : skadi_->cluster().nodes()) {
      if (LocalObjectStore* store = skadi_->cache().StoreOf(node.id)) {
        bytes[node.id] = store->used_bytes();
      }
    }
    return bytes;
  }

  size_t HeadOwnedObjects() {
    return skadi_->runtime().ownership(skadi_->runtime().head()).size();
  }

  // Polls until `watched` expires or a few seconds pass; the raylet and the
  // scheduler drop their copies of a spec just after its task completes.
  template <typename T>
  static bool ExpiresSoon(const std::weak_ptr<T>& watched) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!watched.expired() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return watched.expired();
  }

  std::unique_ptr<Skadi> skadi_;
};

TEST_F(SkadiTest, RegisterTableSpreadsPartitions) {
  Start();
  ASSERT_TRUE(skadi_->RegisterTable("sales", SalesBatch(100), 4).ok());
  EXPECT_TRUE(skadi_->HasTable("sales"));
  auto partitions = skadi_->TablePartitions("sales");
  ASSERT_EQ(partitions.size(), 4u);
  // Partitions live on at least two distinct nodes.
  std::set<NodeId> homes;
  for (const ObjectRef& ref : partitions) {
    for (NodeId n : skadi_->cache().Locations(ref.id)) {
      homes.insert(n);
    }
  }
  EXPECT_GE(homes.size(), 2u);
}

TEST_F(SkadiTest, DuplicateTableRejected) {
  Start();
  ASSERT_TRUE(skadi_->RegisterTable("t", SalesBatch(10)).ok());
  EXPECT_EQ(skadi_->RegisterTable("t", SalesBatch(10)).code(),
            StatusCode::kAlreadyExists);
}

// Two registrations of one name racing past the existence check: exactly
// one wins, and the loser's partitions are released.
TEST_F(SkadiTest, ConcurrentRegisterTableOneWins) {
  Start();
  // Big enough that serializing and placing the partitions (a few ms) keeps
  // both racers between the existence check and the insert at once; with
  // small tables the second racer, started ~0.5 ms late on a shared host,
  // always found the first one's table.
  const RecordBatch batch = SalesBatch(200000);
  std::map<NodeId, int64_t> before = StoreBytes();
  size_t owned_before = HeadOwnedObjects();
  ASSERT_TRUE(skadi_->RegisterTable("serial", batch).ok());
  // What one registration of `batch` adds, per store.
  std::map<NodeId, int64_t> one_table = StoreBytes();
  for (auto& [node, bytes] : one_table) {
    bytes -= before[node];
  }
  const size_t one_table_objects = HeadOwnedObjects() - owned_before;

  for (int round = 0; round < 10; ++round) {
    const std::string name = "t" + std::to_string(round);
    before = StoreBytes();
    owned_before = HeadOwnedObjects();
    // A spinning start line: both racers run when it opens, where a
    // blocking barrier would wake one of them late.
    std::atomic<int> arrived{0};
    Status results[2];
    std::thread racers[2];
    for (int i = 0; i < 2; ++i) {
      racers[i] = std::thread([&, i] {
        arrived.fetch_add(1);
        while (arrived.load() < 2) {
        }
        results[i] = skadi_->RegisterTable(name, batch);
      });
    }
    for (std::thread& t : racers) {
      t.join();
    }
    const int wins = (results[0].ok() ? 1 : 0) + (results[1].ok() ? 1 : 0);
    ASSERT_EQ(wins, 1) << "round " << round << ": " << results[0].ToString() << " / "
                       << results[1].ToString();
    for (const Status& st : results) {
      if (!st.ok()) {
        EXPECT_EQ(st.code(), StatusCode::kAlreadyExists) << st.ToString();
      }
    }
    for (const auto& [node, bytes] : StoreBytes()) {
      EXPECT_EQ(bytes - before[node], one_table[node]) << "round " << round;
    }
    EXPECT_EQ(HeadOwnedObjects() - owned_before, one_table_objects) << "round " << round;
  }
}

// Queries release their intermediates once the result is copied out: after
// 20 GROUP BY and JOIN queries from two threads, every store and the head's
// ownership table are back where registration left them, and every result
// (read after its objects were released) is correct.
TEST_F(SkadiTest, QueriesReleaseTheirIntermediates) {
  Start();
  const RecordBatch sales = SalesBatch(400);
  ASSERT_TRUE(skadi_->RegisterTable("sales", sales).ok());
  Schema dim_schema({{"name", DataType::kString}, {"zone", DataType::kInt64}});
  auto dims = RecordBatch::Make(
      dim_schema, {Column::MakeString({"east", "west", "north"}), Column::MakeInt64({1, 2, 3})});
  ASSERT_TRUE(skadi_->RegisterTable("dims", *dims, 1).ok());
  const std::map<NodeId, int64_t> registered = StoreBytes();
  const size_t owned = HeadOwnedObjects();

  const char* kGroupBy =
      "SELECT region, COUNT(*) AS n, SUM(amount) AS s FROM sales GROUP BY region "
      "ORDER BY region";
  const char* kJoin =
      "SELECT zone, COUNT(*) AS n, SUM(amount) AS s FROM sales JOIN dims ON region = name "
      "GROUP BY zone ORDER BY zone";
  auto expect = [](const RecordBatch& input, const std::string& key) {
    auto agg = GroupAggregateBatch(
        input, {key}, {{AggKind::kCount, "*", "n"}, {AggKind::kSum, "amount", "s"}});
    return SortBatch(*agg, {{key, true}}).value();
  };
  const RecordBatch want_group_by = expect(sales, "region");
  const RecordBatch want_join =
      expect(HashJoinBatch(sales, *dims, {"region"}, {"name"}).value(), "zone");

  auto client = [&](int id) {
    for (int q = 0; q < 10; ++q) {
      const bool join = (q + id) % 2 == 1;
      auto result = skadi_->Sql(join ? kJoin : kGroupBy);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const RecordBatch& want = join ? want_join : want_group_by;
      ASSERT_EQ(result->num_rows(), want.num_rows());
      for (int64_t r = 0; r < want.num_rows(); ++r) {
        for (const char* col : {"n", "s"}) {
          EXPECT_EQ(result->ColumnByName(col)->Int64At(r), want.ColumnByName(col)->Int64At(r))
              << (join ? "join" : "group by") << " row " << r << " " << col;
        }
      }
    }
  };
  std::thread other(client, 1);
  client(0);
  other.join();

  EXPECT_EQ(StoreBytes(), registered);
  EXPECT_EQ(HeadOwnedObjects(), owned);
}

// A query's code is freed with its objects: once the gather released them,
// nothing in the runtime still holds the caller's IR.
TEST_F(SkadiTest, RunFlowGraphFreesItsIrAfterGather) {
  Start();
  ASSERT_TRUE(skadi_->RegisterTable("sales", SalesBatch(100)).ok());
  std::weak_ptr<IrFunction> watched;
  {
    auto count = std::make_shared<IrFunction>("count");
    ValueId t = count->AddParam(IrType::Table());
    count->SetReturns({EmitAggregate(*count, t, {}, {{AggKind::kCount, "*", "n"}})});
    watched = count;
    FlowGraph graph;
    VertexId v = graph.AddIrVertex("count", std::move(count), OpClass::kAggregate);
    auto pieces =
        skadi_->RunFlowGraph(std::move(graph), {{v, skadi_->TablePartitions("sales")}}, v);
    ASSERT_TRUE(pieces.ok()) << pieces.status().ToString();
    int64_t rows = 0;
    for (const RecordBatch& piece : *pieces) {
      rows += piece.ColumnByName("n")->Int64At(0);
    }
    EXPECT_EQ(rows, 100);
  }
  EXPECT_TRUE(ExpiresSoon(watched));
}

TEST_F(SkadiTest, SqlSelectWhere) {
  Start();
  RecordBatch sales = SalesBatch(200);
  ASSERT_TRUE(skadi_->RegisterTable("sales", sales).ok());
  auto result = skadi_->Sql("SELECT region, amount FROM sales WHERE amount > 50");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto expected = FilterBatch(
      sales, *Expr::Binary(BinaryOp::kGt, Expr::Col("amount"), Expr::Int(50)));
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(result->num_rows(), expected->num_rows());
  EXPECT_EQ(result->num_columns(), 2u);
}

TEST_F(SkadiTest, SqlGroupByMatchesReference) {
  Start();
  RecordBatch sales = SalesBatch(400);
  ASSERT_TRUE(skadi_->RegisterTable("sales", sales).ok());
  auto result = skadi_->Sql(
      "SELECT region, COUNT(*) AS n, SUM(amount) AS total, AVG(price) AS ap "
      "FROM sales GROUP BY region ORDER BY region");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto reference = GroupAggregateBatch(sales, {"region"},
                                       {{AggKind::kCount, "*", "n"},
                                        {AggKind::kSum, "amount", "total"},
                                        {AggKind::kMean, "price", "ap"}});
  ASSERT_TRUE(reference.ok());
  auto sorted_ref = SortBatch(*reference, {{"region", true}});
  ASSERT_TRUE(sorted_ref.ok());

  ASSERT_EQ(result->num_rows(), sorted_ref->num_rows());
  for (int64_t i = 0; i < result->num_rows(); ++i) {
    EXPECT_EQ(result->ColumnByName("region")->StringAt(i),
              sorted_ref->ColumnByName("region")->StringAt(i));
    EXPECT_EQ(result->ColumnByName("n")->Int64At(i),
              sorted_ref->ColumnByName("n")->Int64At(i));
    EXPECT_EQ(result->ColumnByName("total")->Int64At(i),
              sorted_ref->ColumnByName("total")->Int64At(i));
    EXPECT_NEAR(result->ColumnByName("ap")->Float64At(i),
                sorted_ref->ColumnByName("ap")->Float64At(i), 1e-9);
  }
}

TEST_F(SkadiTest, SqlGlobalAggregate) {
  Start();
  RecordBatch sales = SalesBatch(300);
  ASSERT_TRUE(skadi_->RegisterTable("sales", sales).ok());
  auto result = skadi_->Sql("SELECT COUNT(*) AS n, SUM(amount) AS s FROM sales");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 1);
  EXPECT_EQ(result->ColumnByName("n")->Int64At(0), 300);

  auto reference =
      GroupAggregateBatch(sales, {}, {{AggKind::kSum, "amount", "s"}});
  EXPECT_EQ(result->ColumnByName("s")->Int64At(0),
            reference->ColumnByName("s")->Int64At(0));
}

TEST_F(SkadiTest, SqlJoin) {
  Start();
  RecordBatch sales = SalesBatch(100);
  ASSERT_TRUE(skadi_->RegisterTable("sales", sales).ok());

  Schema dim_schema({{"name", DataType::kString}, {"zone", DataType::kInt64}});
  auto dims = RecordBatch::Make(
      dim_schema, {Column::MakeString({"east", "west"}), Column::MakeInt64({1, 2})});
  ASSERT_TRUE(skadi_->RegisterTable("dims", *dims, 1).ok());

  auto result = skadi_->Sql(
      "SELECT region, zone, amount FROM sales JOIN dims ON region = name");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto reference = HashJoinBatch(sales, *dims, {"region"}, {"name"});
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(result->num_rows(), reference->num_rows());
  for (int64_t i = 0; i < result->num_rows(); ++i) {
    std::string_view region = result->ColumnByName("region")->StringAt(i);
    int64_t zone = result->ColumnByName("zone")->Int64At(i);
    EXPECT_EQ(zone, region == "east" ? 1 : 2);
  }
}

TEST_F(SkadiTest, SqlOrderByLimit) {
  Start();
  RecordBatch sales = SalesBatch(100);
  ASSERT_TRUE(skadi_->RegisterTable("sales", sales).ok());
  auto result =
      skadi_->Sql("SELECT amount FROM sales ORDER BY amount DESC LIMIT 5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 5);
  for (int64_t i = 1; i < 5; ++i) {
    EXPECT_GE(result->column(0).Int64At(i - 1), result->column(0).Int64At(i));
  }
}

TEST_F(SkadiTest, SqlHaving) {
  Start();
  RecordBatch sales = SalesBatch(400);
  ASSERT_TRUE(skadi_->RegisterTable("sales", sales).ok());
  auto all = skadi_->Sql("SELECT region, COUNT(*) AS n FROM sales GROUP BY region");
  ASSERT_TRUE(all.ok());
  auto filtered = skadi_->Sql(
      "SELECT region, COUNT(*) AS n FROM sales GROUP BY region HAVING n > 90");
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_LE(filtered->num_rows(), all->num_rows());
  for (int64_t i = 0; i < filtered->num_rows(); ++i) {
    EXPECT_GT(filtered->ColumnByName("n")->Int64At(i), 90);
  }
}

TEST_F(SkadiTest, SqlMissingTableFails) {
  Start();
  auto result = skadi_->Sql("SELECT * FROM ghosts");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(SkadiTest, SqlUnoptimizedMatchesOptimized) {
  SkadiOptions unopt = DefaultOptions();
  unopt.optimize_graph = false;
  Start(unopt);
  RecordBatch sales = SalesBatch(150);
  ASSERT_TRUE(skadi_->RegisterTable("sales", sales).ok());
  auto result = skadi_->Sql(
      "SELECT region, SUM(amount) AS s FROM sales WHERE amount > 10 GROUP BY region "
      "ORDER BY region");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  Start();  // fresh optimized instance
  ASSERT_TRUE(skadi_->RegisterTable("sales", sales).ok());
  auto optimized = skadi_->Sql(
      "SELECT region, SUM(amount) AS s FROM sales WHERE amount > 10 GROUP BY region "
      "ORDER BY region");
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();

  ASSERT_EQ(result->num_rows(), optimized->num_rows());
  for (int64_t i = 0; i < result->num_rows(); ++i) {
    EXPECT_EQ(result->ColumnByName("s")->Int64At(i),
              optimized->ColumnByName("s")->Int64At(i));
  }
}

TEST_F(SkadiTest, MapReduceWordCountStyle) {
  Start();
  // "Word count": map projects (region, 1), reduce sums.
  ASSERT_TRUE(skadi_->registry().Register(
      "wc_map", [](TaskContext&, std::vector<Buffer>& args) -> Result<std::vector<Buffer>> {
        SKADI_ASSIGN_OR_RETURN(RecordBatch batch, DeserializeBatchIpc(args[0]));
        SKADI_ASSIGN_OR_RETURN(
            RecordBatch out,
            ProjectBatch(batch, {{Expr::Col("region"), "word"}, {Expr::Int(1), "one"}}));
        return std::vector<Buffer>{SerializeBatchIpc(out)};
      }).ok());
  ASSERT_TRUE(skadi_->registry().Register(
      "wc_reduce",
      [](TaskContext&, std::vector<Buffer>& args) -> Result<std::vector<Buffer>> {
        SKADI_ASSIGN_OR_RETURN(RecordBatch batch, DeserializeBatchIpc(args[0]));
        SKADI_ASSIGN_OR_RETURN(
            RecordBatch out,
            GroupAggregateBatch(batch, {"word"}, {{AggKind::kSum, "one", "count"}}));
        return std::vector<Buffer>{SerializeBatchIpc(out)};
      }).ok());

  RecordBatch sales = SalesBatch(200);
  ASSERT_TRUE(skadi_->RegisterTable("sales", sales).ok());

  MapReduceJob job;
  job.mapper = "wc_map";
  job.reducer = "wc_reduce";
  job.shuffle_keys = {"word"};
  auto result = skadi_->MapReduce(job, "sales");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto reference = GroupAggregateBatch(
      sales, {"region"}, {{AggKind::kCount, "*", "count"}});
  EXPECT_EQ(result->num_rows(), reference->num_rows());
  int64_t total = 0;
  for (int64_t i = 0; i < result->num_rows(); ++i) {
    total += result->ColumnByName("count")->Int64At(i);
  }
  EXPECT_EQ(total, 200);
}

TEST_F(SkadiTest, TrainLinearModelRecoversWeights) {
  Start();
  // y = 3*x0 - 2*x1 + 1 with no noise: gradient descent must converge.
  Rng rng(11);
  ColumnBuilder x0(DataType::kFloat64);
  ColumnBuilder x1(DataType::kFloat64);
  ColumnBuilder y(DataType::kFloat64);
  for (int i = 0; i < 256; ++i) {
    double a = rng.NextDouble() * 2 - 1;
    double b = rng.NextDouble() * 2 - 1;
    x0.AppendFloat64(a);
    x1.AppendFloat64(b);
    y.AppendFloat64(3 * a - 2 * b + 1);
  }
  Schema schema({{"x0", DataType::kFloat64},
                 {"x1", DataType::kFloat64},
                 {"y", DataType::kFloat64}});
  auto data = RecordBatch::Make(schema, {x0.Finish(), x1.Finish(), y.Finish()});
  ASSERT_TRUE(skadi_->RegisterTable("train", *data, 4).ok());
  const std::map<NodeId, int64_t> registered = StoreBytes();
  const size_t owned = HeadOwnedObjects();

  MlTrainOptions options;
  options.epochs = 200;
  options.learning_rate = 0.5;
  auto model = skadi_->TrainModel("train", {"x0", "x1"}, "y", options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // Tensors, weights, gradients and loss probes are all released.
  EXPECT_EQ(StoreBytes(), registered);
  EXPECT_EQ(HeadOwnedObjects(), owned);

  EXPECT_NEAR(model->weights.At(0, 0), 3.0, 0.1);
  EXPECT_NEAR(model->weights.At(1, 0), -2.0, 0.1);
  EXPECT_NEAR(model->weights.At(2, 0), 1.0, 0.1);
  // Loss decreases.
  ASSERT_GE(model->loss_curve.size(), 2u);
  EXPECT_LT(model->loss_curve.back(), model->loss_curve.front());
}

TEST_F(SkadiTest, PageRankOnStarGraph) {
  Start();
  // Star: all point to vertex 0 => vertex 0 has the highest rank.
  ColumnBuilder src(DataType::kInt64);
  ColumnBuilder dst(DataType::kInt64);
  for (int64_t v = 1; v <= 6; ++v) {
    src.AppendInt64(v);
    dst.AppendInt64(0);
    // Back edges so nothing dangles.
    src.AppendInt64(0);
    dst.AppendInt64(v);
  }
  Schema schema({{"src", DataType::kInt64}, {"dst", DataType::kInt64}});
  auto edges = RecordBatch::Make(schema, {src.Finish(), dst.Finish()});
  ASSERT_TRUE(skadi_->RegisterTable("edges", *edges, 2).ok());
  const std::map<NodeId, int64_t> registered = StoreBytes();
  const size_t owned = HeadOwnedObjects();

  PageRankOptions options;
  options.iterations = 15;
  auto ranks = skadi_->PageRank("edges", options);
  ASSERT_TRUE(ranks.ok()) << ranks.status().ToString();
  ASSERT_EQ(ranks->num_rows(), 7);
  // Every round's shares and intermediates are released.
  EXPECT_EQ(StoreBytes(), registered);
  EXPECT_EQ(HeadOwnedObjects(), owned);

  double rank0 = 0;
  double sum = 0;
  double max_other = 0;
  for (int64_t i = 0; i < ranks->num_rows(); ++i) {
    double r = ranks->ColumnByName("rank")->Float64At(i);
    sum += r;
    if (ranks->ColumnByName("vertex")->Int64At(i) == 0) {
      rank0 = r;
    } else {
      max_other = std::max(max_other, r);
    }
  }
  EXPECT_GT(rank0, 2 * max_other);
  EXPECT_NEAR(sum, 1.0, 0.01);  // ranks form a distribution
}

TEST_F(SkadiTest, ConnectedComponentsTwoIslands) {
  Start();
  // Components {0,1,2} and {10,11}.
  ColumnBuilder src(DataType::kInt64);
  ColumnBuilder dst(DataType::kInt64);
  auto edge = [&](int64_t a, int64_t b) {
    src.AppendInt64(a);
    dst.AppendInt64(b);
  };
  edge(0, 1);
  edge(1, 2);
  edge(10, 11);
  Schema schema({{"src", DataType::kInt64}, {"dst", DataType::kInt64}});
  auto edges = RecordBatch::Make(schema, {src.Finish(), dst.Finish()});
  ASSERT_TRUE(skadi_->RegisterTable("edges", *edges, 1).ok());
  const std::map<NodeId, int64_t> registered = StoreBytes();
  const size_t owned = HeadOwnedObjects();

  auto cc = skadi_->ConnectedComponents("edges");
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();
  // The reversed edges and every round's objects are released.
  EXPECT_EQ(StoreBytes(), registered);
  EXPECT_EQ(HeadOwnedObjects(), owned);
  std::map<int64_t, int64_t> component;
  for (int64_t i = 0; i < cc->num_rows(); ++i) {
    component[cc->ColumnByName("vertex")->Int64At(i)] =
        cc->ColumnByName("component")->Int64At(i);
  }
  EXPECT_EQ(component[0], 0);
  EXPECT_EQ(component[1], 0);
  EXPECT_EQ(component[2], 0);
  EXPECT_EQ(component[10], 10);
  EXPECT_EQ(component[11], 10);
}

TEST_F(SkadiTest, StatsReflectActivity) {
  Start();
  ASSERT_TRUE(skadi_->RegisterTable("sales", SalesBatch(100)).ok());
  auto result = skadi_->Sql("SELECT COUNT(*) AS n FROM sales");
  ASSERT_TRUE(result.ok());
  SkadiStats stats = skadi_->GetStats();
  EXPECT_GT(stats.tasks_submitted, 0);
  EXPECT_GT(stats.tasks_completed, 0);
  EXPECT_GT(stats.modelled_nanos, 0);
}

TEST_F(SkadiTest, ExplainShowsAllThreeTiers) {
  Start();
  ASSERT_TRUE(skadi_->RegisterTable("sales", SalesBatch(50)).ok());
  auto text = skadi_->Explain(
      "SELECT region, SUM(amount) AS s FROM sales WHERE amount > 5 "
      "GROUP BY region ORDER BY region");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("== declaration =="), std::string::npos);
  EXPECT_NE(text->find("== logical graph =="), std::string::npos);
  EXPECT_NE(text->find("== physical sharded graph =="), std::string::npos);
  EXPECT_NE(text->find("shuffle"), std::string::npos);   // keyed edge survives
  EXPECT_NE(text->find("rel.aggregate"), std::string::npos);  // vertex IR shown
  EXPECT_NE(text->find(" x2"), std::string::npos);       // parallelism subscript
  // Each vertex's return layout: the partial aggregate partitions its own
  // output for the final one, which returns its value to the gather.
  EXPECT_NE(text->find("'partial_agg' x2 on cpu -> shuffle[region] 2 parts\n"),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("'final_agg' x2 on cpu -> value\n"), std::string::npos) << *text;

  // A join's identity scans are forwarded by reference.
  Schema dim_schema({{"name", DataType::kString}, {"zone", DataType::kInt64}});
  auto dims = RecordBatch::Make(
      dim_schema, {Column::MakeString({"east", "west"}), Column::MakeInt64({1, 2})});
  ASSERT_TRUE(skadi_->RegisterTable("dims", *dims, 1).ok());
  auto join = skadi_->Explain(
      "SELECT zone, SUM(amount) AS s FROM sales JOIN dims ON region = name GROUP BY zone");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_NE(join->find("'scan:sales' x2 on cpu pass-through -> value\n"), std::string::npos)
      << *join;
  EXPECT_NE(join->find("'scan:dims' x1 on cpu pass-through -> value\n"), std::string::npos)
      << *join;
  // Explain must not execute anything.
  EXPECT_EQ(skadi_->GetStats().tasks_submitted, 0);
}

// Exact task counts at DOP 2 with one table partition per shard: each
// shuffle is written by the task that produced the data, and the join's
// identity scans launch nothing.
TEST_F(SkadiTest, SqlTaskCountsAtDop2) {
  Start();
  RecordBatch sales = SalesBatch(300);
  ASSERT_TRUE(skadi_->RegisterTable("sales", sales).ok());
  ASSERT_EQ(skadi_->TablePartitions("sales").size(), 2u);
  Schema dim_schema({{"name", DataType::kString}, {"zone", DataType::kInt64}});
  auto dims = RecordBatch::Make(
      dim_schema, {Column::MakeString({"east", "west", "north", "south"}),
                   Column::MakeInt64({1, 2, 1, 2})});
  ASSERT_TRUE(skadi_->RegisterTable("dims", *dims, 1).ok());

  // GROUP BY: 2 partial + 2 final.
  int64_t before = skadi_->GetStats().tasks_submitted;
  auto grouped = skadi_->Sql("SELECT region, COUNT(*) AS n FROM sales GROUP BY region");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_EQ(skadi_->GetStats().tasks_submitted - before, 4);
  auto reference = GroupAggregateBatch(sales, {"region"}, {{AggKind::kCount, "*", "n"}});
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(grouped->num_rows(), reference->num_rows());

  // JOIN + GROUP BY: both scans forwarded, 2 partial + 2 final.
  before = skadi_->GetStats().tasks_submitted;
  auto joined = skadi_->Sql(
      "SELECT zone, SUM(amount) AS s FROM sales JOIN dims ON region = name GROUP BY zone");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(skadi_->GetStats().tasks_submitted - before, 4);
  auto total = GroupAggregateBatch(sales, {}, {{AggKind::kSum, "amount", "s"}});
  ASSERT_TRUE(total.ok());
  int64_t joined_total = 0;
  for (int64_t i = 0; i < joined->num_rows(); ++i) {
    joined_total += joined->ColumnByName("s")->Int64At(i);
  }
  EXPECT_EQ(joined_total, total->ColumnByName("s")->Int64At(0));
}

TEST_F(SkadiTest, JoinWithMorePartitionsThanShardsRunsScanAndMatchesReference) {
  Start();
  RecordBatch sales = SalesBatch(400, 13);
  ASSERT_TRUE(skadi_->RegisterTable("sales", sales, 4).ok());
  Schema dim_schema({{"name", DataType::kString}, {"zone", DataType::kInt64}});
  auto dims = RecordBatch::Make(
      dim_schema, {Column::MakeString({"east", "west", "north"}), Column::MakeInt64({1, 2, 3})});
  ASSERT_TRUE(skadi_->RegisterTable("dims", *dims, 1).ok());

  int64_t before = skadi_->GetStats().tasks_submitted;
  auto result = skadi_->Sql(
      "SELECT zone, COUNT(*) AS n, SUM(amount) AS s FROM sales JOIN dims ON region = name "
      "GROUP BY zone ORDER BY zone");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Each fact-scan shard concatenates two partitions, so it runs: 2 scan +
  // 2 partial + 2 final + 1 gather; the one-partition dim scan forwards.
  EXPECT_EQ(skadi_->GetStats().tasks_submitted - before, 7);

  auto joined = HashJoinBatch(sales, *dims, {"region"}, {"name"});
  ASSERT_TRUE(joined.ok());
  auto reference = GroupAggregateBatch(
      *joined, {"zone"}, {{AggKind::kCount, "*", "n"}, {AggKind::kSum, "amount", "s"}});
  ASSERT_TRUE(reference.ok());
  auto sorted_ref = SortBatch(*reference, {{"zone", true}});
  ASSERT_TRUE(sorted_ref.ok());
  ASSERT_EQ(result->num_rows(), sorted_ref->num_rows());
  for (int64_t i = 0; i < result->num_rows(); ++i) {
    EXPECT_EQ(result->ColumnByName("zone")->Int64At(i),
              sorted_ref->ColumnByName("zone")->Int64At(i));
    EXPECT_EQ(result->ColumnByName("n")->Int64At(i), sorted_ref->ColumnByName("n")->Int64At(i));
    EXPECT_EQ(result->ColumnByName("s")->Int64At(i), sorted_ref->ColumnByName("s")->Int64At(i));
  }
}

TEST_F(SkadiTest, SelectStarStillLaunchesItsScanTasks) {
  // `SELECT * FROM t` lowers to one identity vertex that is also the sink:
  // it runs, so its output refs are new objects, never the table's own
  // partitions.
  Start();
  RecordBatch sales = SalesBatch(120);
  ASSERT_TRUE(skadi_->RegisterTable("sales", sales).ok());
  int64_t before = skadi_->GetStats().tasks_submitted;
  auto result = skadi_->Sql("SELECT * FROM sales");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(skadi_->GetStats().tasks_submitted - before, 2);
  EXPECT_EQ(result->num_rows(), 120);
}

TEST_F(SkadiTest, AdaptiveParallelismSizesFromData) {
  SkadiOptions options = DefaultOptions();
  options.adaptive_parallelism = true;
  options.adaptive_shard_bytes = 4 * 1024;  // tiny shards for the test
  options.max_parallelism = 4;
  Start(options);

  // ~22 KiB of data => ceil(22/4) = 6, clamped to max_parallelism = 4.
  RecordBatch big = SalesBatch(1000);
  ASSERT_TRUE(skadi_->RegisterTable("big", big).ok());
  EXPECT_EQ(skadi_->TablePartitions("big").size(), 4u);

  auto result = skadi_->Sql("SELECT region, SUM(amount) AS s FROM big GROUP BY region");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(skadi_->runtime().metrics().GetCounter("core.adaptive_dop_decisions").value(),
            0);

  // Verify correctness against the reference.
  auto reference = GroupAggregateBatch(big, {"region"}, {{AggKind::kSum, "amount", "s"}});
  EXPECT_EQ(result->num_rows(), reference->num_rows());
}

TEST_F(SkadiTest, ParallelismClampedToPartitionCount) {
  // A 1-partition table queried under default parallelism 2 must NOT
  // double-count (the plan is clamped to the partition count).
  Start();
  RecordBatch sales = SalesBatch(100);
  ASSERT_TRUE(skadi_->RegisterTable("one", sales, 1).ok());
  auto result = skadi_->Sql("SELECT COUNT(*) AS n FROM one");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ColumnByName("n")->Int64At(0), 100);
}

TEST_F(SkadiTest, AvailableBackendsReflectCluster) {
  SkadiOptions options = DefaultOptions();
  options.cluster.device_complexes = 1;
  options.cluster.gpus_per_complex = 1;
  options.cluster.fpgas_per_complex = 1;
  Start(options);
  auto backends = skadi_->AvailableBackends();
  std::set<DeviceKind> kinds(backends.begin(), backends.end());
  EXPECT_TRUE(kinds.count(DeviceKind::kCpu));
  EXPECT_TRUE(kinds.count(DeviceKind::kGpu));
  EXPECT_TRUE(kinds.count(DeviceKind::kFpga));
  EXPECT_FALSE(kinds.count(DeviceKind::kDpu));  // control-plane only
}

}  // namespace
}  // namespace skadi
