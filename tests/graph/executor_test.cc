// End-to-end: logical FlowGraph -> physical sharded graph -> tasks on the
// stateful serverless runtime (the full Figure 2 path).
#include "src/graph/executor.h"

#include <gtest/gtest.h>

#include "src/format/serde.h"
#include "src/ir/dialects.h"

namespace skadi {
namespace {

class GraphExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.racks = 2;
    config.servers_per_rack = 2;
    config.workers_per_server = 2;
    cluster_ = Cluster::Create(config);
    runtime_ = std::make_unique<SkadiRuntime>(cluster_.get(), &registry_);
  }

  RecordBatch NumbersBatch(int64_t from, int64_t to) {
    ColumnBuilder xs(DataType::kInt64);
    ColumnBuilder gs(DataType::kInt64);
    ColumnBuilder hs(DataType::kInt64);
    for (int64_t i = from; i < to; ++i) {
      xs.AppendInt64(i);
      gs.AppendInt64(i % 5);
      hs.AppendInt64(i % 7);
    }
    Schema schema({{"x", DataType::kInt64}, {"g", DataType::kInt64}, {"h", DataType::kInt64}});
    auto batch = RecordBatch::Make(schema, {xs.Finish(), gs.Finish(), hs.Finish()});
    return std::move(batch).value();
  }

  ObjectRef PutBatch(const RecordBatch& batch) {
    auto ref = runtime_->Put(SerializeBatchIpc(batch));
    EXPECT_TRUE(ref.ok());
    return *ref;
  }

  Result<RecordBatch> GetBatch(const ObjectRef& ref) {
    SKADI_ASSIGN_OR_RETURN(Buffer buffer, runtime_->Get(ref));
    return DeserializeBatchIpc(buffer);
  }

  std::shared_ptr<IrFunction> FilterGt(int64_t threshold) {
    auto fn = std::make_shared<IrFunction>("flt");
    ValueId t = fn->AddParam(IrType::Table());
    ValueId f = EmitFilter(
        *fn, t, Expr::Binary(BinaryOp::kGt, Expr::Col("x"), Expr::Int(threshold)));
    fn->SetReturns({f});
    return fn;
  }

  std::shared_ptr<IrFunction> SumByG() { return SumBy("g"); }

  std::shared_ptr<IrFunction> SumBy(const std::string& key) {
    auto fn = std::make_shared<IrFunction>("agg_" + key);
    ValueId t = fn->AddParam(IrType::Table());
    ValueId a = EmitAggregate(*fn, t, {key}, {{AggKind::kSum, "x", "sum_x"}});
    fn->SetReturns({a});
    return fn;
  }

  std::shared_ptr<IrFunction> IdentityFn() {
    auto fn = std::make_shared<IrFunction>("id");
    ValueId t = fn->AddParam(IrType::Table());
    fn->SetReturns({t});
    return fn;
  }

  // Concatenates a sharded SUM(x) GROUP BY `key` and compares it with the
  // single-node kernel over `input`: every group exactly once, same sums.
  void ExpectSumByMatchesReference(const std::vector<ObjectRef>& shards,
                                   const RecordBatch& input, const std::string& key) {
    std::vector<RecordBatch> pieces;
    for (const ObjectRef& ref : shards) {
      auto batch = GetBatch(ref);
      ASSERT_TRUE(batch.ok());
      pieces.push_back(std::move(batch).value());
    }
    auto merged = ConcatBatches(pieces);
    ASSERT_TRUE(merged.ok());
    auto reference = GroupAggregateBatch(input, {key}, {{AggKind::kSum, "x", "sum_x"}});
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(merged->num_rows(), reference->num_rows()) << "grouped on " << key;
    auto sorted_merged = SortBatch(*merged, {{key, true}});
    auto sorted_ref = SortBatch(*reference, {{key, true}});
    ASSERT_TRUE(sorted_merged.ok() && sorted_ref.ok());
    for (int64_t i = 0; i < sorted_ref->num_rows(); ++i) {
      EXPECT_EQ(sorted_merged->ColumnByName(key)->Int64At(i),
                sorted_ref->ColumnByName(key)->Int64At(i));
      EXPECT_EQ(sorted_merged->ColumnByName("sum_x")->Int64At(i),
                sorted_ref->ColumnByName("sum_x")->Int64At(i));
    }
  }

  std::unique_ptr<Cluster> cluster_;
  FunctionRegistry registry_;
  std::unique_ptr<SkadiRuntime> runtime_;
};

TEST_F(GraphExecTest, SingleVertexFilter) {
  FlowGraph g;
  VertexId v = g.AddIrVertex("filter", FilterGt(90), OpClass::kFilter);
  g.vertex(v)->parallelism_hint = 1;

  LoweringOptions options;
  auto physical = LowerToPhysical(g, options, &registry_);
  ASSERT_TRUE(physical.ok());

  GraphExecutor executor(runtime_.get());
  auto result = executor.RunToCompletion(*physical, {{v, {PutBatch(NumbersBatch(0, 100))}}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->sink_outputs.size(), 1u);

  auto batch = GetBatch(result->sink_outputs.at(v)[0]);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_rows(), 9);  // 91..99
}

TEST_F(GraphExecTest, ShardedSourceRoundRobinCoversAllInput) {
  FlowGraph g;
  VertexId v = g.AddIrVertex("filter", FilterGt(-1), OpClass::kFilter);
  g.vertex(v)->parallelism_hint = 2;

  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());

  // 4 input partitions over 2 shards.
  std::vector<ObjectRef> inputs;
  for (int p = 0; p < 4; ++p) {
    inputs.push_back(PutBatch(NumbersBatch(p * 10, p * 10 + 10)));
  }
  GraphExecutor executor(runtime_.get());
  auto result = executor.RunToCompletion(*physical, {{v, inputs}});
  ASSERT_TRUE(result.ok());

  int64_t total_rows = 0;
  for (const ObjectRef& ref : result->sink_outputs.at(v)) {
    auto batch = GetBatch(ref);
    ASSERT_TRUE(batch.ok());
    total_rows += batch->num_rows();
  }
  EXPECT_EQ(total_rows, 40);
}

TEST_F(GraphExecTest, ShuffleGroupByMatchesSingleNodeResult) {
  // filter -> shuffle(g) -> aggregate, sharded 2x2.
  FlowGraph g;
  VertexId f = g.AddIrVertex("filter", FilterGt(-1), OpClass::kFilter);
  VertexId a = g.AddIrVertex("agg", SumByG(), OpClass::kAggregate);
  g.vertex(f)->parallelism_hint = 2;
  g.vertex(a)->parallelism_hint = 2;
  ASSERT_TRUE(g.AddEdge(f, a, EdgeKind::kShuffle, {"g"}).ok());

  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());

  RecordBatch input = NumbersBatch(0, 200);
  GraphExecutor executor(runtime_.get());
  auto result = executor.RunToCompletion(
      *physical, {{f, {PutBatch(input.Slice(0, 100)), PutBatch(input.Slice(100, 100))}}});
  ASSERT_TRUE(result.ok());
  // The filter shards partition their own output: no writer tasks.
  EXPECT_FALSE(physical->plan(f)->returns.value);
  EXPECT_EQ(physical->plan(f)->returns.num_returns(), 2);
  EXPECT_EQ(result->tasks_submitted, 4);

  ExpectSumByMatchesReference(result->sink_outputs.at(a), input, "g");
}

TEST_F(GraphExecTest, OneProducerFeedsTwoShuffleConsumersOnTheirOwnKeys) {
  // filter x2 -> shuffle(g) -> agg_g x3, and -> shuffle(h) -> agg_h x2: each
  // consumer must read partitions hashed on its own keys into its own DOP.
  FlowGraph g;
  VertexId f = g.AddIrVertex("filter", FilterGt(-1), OpClass::kFilter);
  VertexId by_h = g.AddIrVertex("agg_h", SumBy("h"), OpClass::kAggregate);
  VertexId by_g = g.AddIrVertex("agg_g", SumBy("g"), OpClass::kAggregate);
  g.vertex(f)->parallelism_hint = 2;
  g.vertex(by_h)->parallelism_hint = 2;
  g.vertex(by_g)->parallelism_hint = 3;
  ASSERT_TRUE(g.AddEdge(f, by_h, EdgeKind::kShuffle, {"h"}).ok());
  ASSERT_TRUE(g.AddEdge(f, by_g, EdgeKind::kShuffle, {"g"}).ok());

  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());

  RecordBatch input = NumbersBatch(0, 300);
  GraphExecutor executor(runtime_.get());
  auto result = executor.RunToCompletion(
      *physical, {{f, {PutBatch(input.Slice(0, 150)), PutBatch(input.Slice(150, 150))}}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->tasks_submitted, 2 + 2 + 3);

  ExpectSumByMatchesReference(result->sink_outputs.at(by_g), input, "g");
  ExpectSumByMatchesReference(result->sink_outputs.at(by_h), input, "h");
}

TEST_F(GraphExecTest, IdentityShardFedOneObjectForwardsItsRef) {
  // scan (identity) x2 -> forward -> filter x2: one partition per scan
  // shard, so only the filter shards run.
  FlowGraph g;
  VertexId scan = g.AddIrVertex("scan", IdentityFn(), OpClass::kScan);
  VertexId f = g.AddIrVertex("filter", FilterGt(9), OpClass::kFilter);
  g.vertex(scan)->parallelism_hint = 2;
  g.vertex(f)->parallelism_hint = 2;
  ASSERT_TRUE(g.AddEdge(scan, f).ok());
  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());
  EXPECT_TRUE(physical->plan(scan)->pass_through);

  GraphExecutor executor(runtime_.get());
  auto result = executor.RunToCompletion(
      *physical, {{scan, {PutBatch(NumbersBatch(0, 20)), PutBatch(NumbersBatch(20, 40))}}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->tasks_submitted, 2);
  int64_t rows = 0;
  for (const ObjectRef& ref : result->sink_outputs.at(f)) {
    auto batch = GetBatch(ref);
    ASSERT_TRUE(batch.ok());
    rows += batch->num_rows();
  }
  EXPECT_EQ(rows, 30);  // 10..39
}

TEST_F(GraphExecTest, IdentitySinkStillRunsAndNeverReturnsItsInput) {
  FlowGraph g;
  VertexId scan = g.AddIrVertex("scan", IdentityFn(), OpClass::kScan);
  g.vertex(scan)->parallelism_hint = 1;
  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());
  EXPECT_FALSE(physical->plan(scan)->pass_through);

  ObjectRef input = PutBatch(NumbersBatch(0, 10));
  GraphExecutor executor(runtime_.get());
  auto result = executor.RunToCompletion(*physical, {{scan, {input}}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->tasks_submitted, 1);
  ASSERT_EQ(result->sink_outputs.at(scan).size(), 1u);
  EXPECT_NE(result->sink_outputs.at(scan)[0].id, input.id);
  auto batch = GetBatch(result->sink_outputs.at(scan)[0]);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_rows(), 10);
}

TEST_F(GraphExecTest, LostPartitionOfFusedTaskIsRebuiltByLineage) {
  // A fused producer is an ordinary multi-return task: losing the node that
  // holds its partitions re-executes it from lineage.
  FlowGraph g;
  VertexId f = g.AddIrVertex("filter", FilterGt(-1), OpClass::kFilter);
  VertexId a = g.AddIrVertex("agg", SumByG(), OpClass::kAggregate);
  g.vertex(f)->parallelism_hint = 1;
  g.vertex(a)->parallelism_hint = 2;
  ASSERT_TRUE(g.AddEdge(f, a, EdgeKind::kShuffle, {"g"}).ok());
  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());
  const PhysicalVertexPlan& producer = *physical->plan(f);

  NodeId victim;
  for (NodeId n : cluster_->ComputeNodes()) {
    if (n != cluster_->head()) {
      victim = n;
      break;
    }
  }
  RecordBatch input = NumbersBatch(0, 100);
  TaskSpec spec;
  spec.body = producer.body;
  spec.args.push_back(TaskArg::Value(MakeVertexArgHeader({1})));
  spec.args.push_back(TaskArg::Ref(PutBatch(input)));
  spec.num_returns = producer.returns.num_returns();
  spec.pinned_node = victim;
  auto parts = runtime_->Submit(std::move(spec));
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  ASSERT_EQ(parts->size(), 2u);
  ASSERT_TRUE(runtime_->Wait(*parts, 10000).ok());
  ASSERT_EQ(cluster_->cache().Locations((*parts)[1].id), std::vector<NodeId>{victim});
  ASSERT_TRUE(runtime_->KillNode(victim).ok());

  auto rebuilt = GetBatch((*parts)[1]);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  auto expected = HashPartitionBatch(input, {"g"}, 2);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(rebuilt->num_rows(), (*expected)[1].num_rows());
  EXPECT_GE(runtime_->metrics().GetCounter("runtime.lineage_reexecutions").value(), 1);
}

TEST_F(GraphExecTest, BroadcastFansInAllShards) {
  // 2-shard filter -> broadcast -> 1-shard aggregate sees all rows.
  FlowGraph g;
  VertexId f = g.AddIrVertex("filter", FilterGt(-1), OpClass::kFilter);
  auto count_fn = std::make_shared<IrFunction>("count");
  ValueId t = count_fn->AddParam(IrType::Table());
  ValueId c = EmitAggregate(*count_fn, t, {}, {{AggKind::kCount, "*", "n"}});
  count_fn->SetReturns({c});
  VertexId agg = g.AddIrVertex("count", count_fn, OpClass::kAggregate);
  g.vertex(f)->parallelism_hint = 2;
  g.vertex(agg)->parallelism_hint = 1;
  ASSERT_TRUE(g.AddEdge(f, agg, EdgeKind::kBroadcast).ok());

  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());
  GraphExecutor executor(runtime_.get());
  auto result = executor.RunToCompletion(
      *physical,
      {{f, {PutBatch(NumbersBatch(0, 30)), PutBatch(NumbersBatch(30, 80))}}});
  ASSERT_TRUE(result.ok());

  auto batch = GetBatch(result->sink_outputs.at(agg)[0]);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->ColumnByName("n")->Int64At(0), 80);
}

TEST_F(GraphExecTest, BuiltinVertexRuns) {
  ASSERT_TRUE(registry_.Register("double_rows", [](TaskContext&, std::vector<Buffer>& args)
                                        -> Result<std::vector<Buffer>> {
    SKADI_ASSIGN_OR_RETURN(RecordBatch batch, DeserializeBatchIpc(args[0]));
    SKADI_ASSIGN_OR_RETURN(
        RecordBatch out,
        ProjectBatch(batch, {{Expr::Binary(BinaryOp::kMul, Expr::Col("x"), Expr::Int(2)),
                              "x2"}}));
    return std::vector<Buffer>{SerializeBatchIpc(out)};
  }).ok());

  FlowGraph g;
  VertexId v = g.AddBuiltinVertex("doubler", "double_rows", OpClass::kProject);
  g.vertex(v)->parallelism_hint = 1;
  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());

  GraphExecutor executor(runtime_.get());
  auto result = executor.RunToCompletion(*physical, {{v, {PutBatch(NumbersBatch(0, 5))}}});
  ASSERT_TRUE(result.ok());
  auto batch = GetBatch(result->sink_outputs.at(v)[0]);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->ColumnByName("x2")->Int64At(4), 8);
}

TEST_F(GraphExecTest, TensorVerticesFlow) {
  // matmul vertex -> relu vertex via forward edge, DOP 1.
  auto mm = std::make_shared<IrFunction>("mm");
  ValueId a = mm->AddParam(IrType::Tensor());
  ValueId b = mm->AddParam(IrType::Tensor());
  ValueId c = EmitMatmul(*mm, a, b);
  mm->SetReturns({c});

  auto act = std::make_shared<IrFunction>("act");
  ValueId x = act->AddParam(IrType::Tensor());
  ValueId r = EmitRelu(*act, x);
  act->SetReturns({r});

  FlowGraph g;
  VertexId vm = g.AddIrVertex("matmul", mm, OpClass::kMatmul);
  VertexId va = g.AddIrVertex("relu", act, OpClass::kElementwise);
  g.vertex(vm)->parallelism_hint = 1;
  g.vertex(va)->parallelism_hint = 1;
  ASSERT_TRUE(g.AddEdge(vm, va).ok());

  LoweringOptions options;
  options.run_ir_passes = false;  // keep the two-vertex structure
  auto physical = LowerToPhysical(g, options, &registry_);
  ASSERT_TRUE(physical.ok());

  auto at = Tensor::FromData({2, 2}, {1, -2, 3, -4});
  auto bt = Tensor::FromData({2, 2}, {1, 0, 0, 1});
  auto ra = runtime_->Put(SerializeTensor(*at));
  auto rb = runtime_->Put(SerializeTensor(*bt));

  GraphExecutor executor(runtime_.get());
  auto result = executor.RunToCompletion(*physical, {{vm, {*ra, *rb}}});
  ASSERT_TRUE(result.ok());

  auto buffer = runtime_->Get(result->sink_outputs.at(va)[0]);
  ASSERT_TRUE(buffer.ok());
  auto tensor = DeserializeTensor(*buffer);
  ASSERT_TRUE(tensor.ok());
  EXPECT_EQ(tensor->data(), (std::vector<double>{1, 0, 3, 0}));
}

TEST_F(GraphExecTest, MissingSourceInputRejected) {
  FlowGraph g;
  g.AddIrVertex("filter", FilterGt(0));
  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());
  GraphExecutor executor(runtime_.get());
  auto result = executor.Run(*physical, {});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphExecTest, LoweringSelectsDeclaredBackends) {
  auto mm = std::make_shared<IrFunction>("mm2");
  ValueId a = mm->AddParam(IrType::Tensor());
  ValueId c = EmitMatmul(*mm, a, a);
  mm->SetReturns({c});

  FlowGraph g;
  VertexId v = g.AddIrVertex("matmul", mm, OpClass::kMatmul);
  LoweringOptions options;
  options.available_backends = {DeviceKind::kCpu, DeviceKind::kGpu};
  options.assumed_bytes = 64 << 20;
  auto physical = LowerToPhysical(g, options, &registry_);
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ(physical->plan(v)->backend, DeviceKind::kGpu);
}

TEST_F(GraphExecTest, ForwardParallelismMismatchRejected) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("f1", FilterGt(0));
  VertexId b = g.AddIrVertex("f2", FilterGt(1));
  g.vertex(a)->parallelism_hint = 2;
  g.vertex(b)->parallelism_hint = 3;
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  auto physical = LowerToPhysical(g, {}, &registry_);
  ASSERT_TRUE(physical.ok());
  GraphExecutor executor(runtime_.get());
  auto result = executor.Run(
      *physical, {{a, {PutBatch(NumbersBatch(0, 10)), PutBatch(NumbersBatch(10, 20))}}});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace skadi
