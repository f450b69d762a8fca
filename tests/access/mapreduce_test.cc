#include "src/access/mapreduce.h"

#include <gtest/gtest.h>

#include "src/format/serde.h"
#include "src/graph/executor.h"
#include "src/graph/physical.h"

namespace skadi {
namespace {

TEST(MapReduceGraphTest, StructureIsMapShuffleReduce) {
  MapReduceJob job;
  job.mapper = "m";
  job.reducer = "r";
  job.shuffle_keys = {"k"};
  job.map_parallelism = 3;
  job.reduce_parallelism = 2;
  auto mr = BuildMapReduceGraph(job);
  ASSERT_TRUE(mr.ok());
  EXPECT_EQ(mr->graph.vertices().size(), 2u);
  ASSERT_EQ(mr->graph.edges().size(), 1u);
  EXPECT_EQ(mr->graph.edges()[0].kind, EdgeKind::kShuffle);
  EXPECT_EQ(mr->graph.vertex(mr->map_vertex)->parallelism_hint, 3);
  EXPECT_EQ(mr->graph.vertex(mr->reduce_vertex)->parallelism_hint, 2);
}

TEST(MapReduceGraphTest, ValidationErrors) {
  MapReduceJob job;
  job.mapper = "";
  job.reducer = "r";
  job.shuffle_keys = {"k"};
  EXPECT_FALSE(BuildMapReduceGraph(job).ok());
  job.mapper = "m";
  job.shuffle_keys = {};
  EXPECT_FALSE(BuildMapReduceGraph(job).ok());
  job.shuffle_keys = {"k"};
  job.map_parallelism = 0;
  EXPECT_FALSE(BuildMapReduceGraph(job).ok());
}

class MapReduceExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.racks = 1;
    config.servers_per_rack = 3;
    cluster_ = Cluster::Create(config);
    runtime_ = std::make_unique<SkadiRuntime>(cluster_.get(), &registry_);

    // Word-count style: mapper emits (word, 1), reducer sums per partition.
    ASSERT_TRUE(registry_.Register("mr.map", [](TaskContext&, std::vector<Buffer>& args)
                                     -> Result<std::vector<Buffer>> {
      SKADI_ASSIGN_OR_RETURN(RecordBatch batch, DeserializeBatchIpc(args[0]));
      SKADI_ASSIGN_OR_RETURN(
          RecordBatch out,
          ProjectBatch(batch, {{Expr::Col("word"), "word"}, {Expr::Int(1), "one"}}));
      return std::vector<Buffer>{SerializeBatchIpc(out)};
    }).ok());
    ASSERT_TRUE(registry_.Register("mr.reduce", [](TaskContext&, std::vector<Buffer>& args)
                                        -> Result<std::vector<Buffer>> {
      SKADI_ASSIGN_OR_RETURN(RecordBatch batch, DeserializeBatchIpc(args[0]));
      SKADI_ASSIGN_OR_RETURN(
          RecordBatch out,
          GroupAggregateBatch(batch, {"word"}, {{AggKind::kSum, "one", "count"}}));
      return std::vector<Buffer>{SerializeBatchIpc(out)};
    }).ok());
  }

  ObjectRef PutWords(const std::vector<std::string>& words) {
    ColumnBuilder col(DataType::kString);
    for (const std::string& w : words) {
      col.AppendString(w);
    }
    Schema schema({{"word", DataType::kString}});
    auto batch = RecordBatch::Make(schema, {col.Finish()});
    return *runtime_->Put(SerializeBatchIpc(std::move(batch).value()));
  }

  std::unique_ptr<Cluster> cluster_;
  FunctionRegistry registry_;
  std::unique_ptr<SkadiRuntime> runtime_;
};

TEST_F(MapReduceExecTest, WordCountEndToEnd) {
  MapReduceJob job;
  job.mapper = "mr.map";
  job.reducer = "mr.reduce";
  job.shuffle_keys = {"word"};
  job.map_parallelism = 2;
  job.reduce_parallelism = 2;
  auto mr = BuildMapReduceGraph(job);
  ASSERT_TRUE(mr.ok());

  LoweringOptions lowering;
  auto physical = LowerToPhysical(mr->graph, lowering, &registry_);
  ASSERT_TRUE(physical.ok());

  std::vector<ObjectRef> inputs = {
      PutWords({"ray", "skadi", "ray", "dpu"}),
      PutWords({"skadi", "skadi", "fpga", "ray"}),
  };
  GraphExecutor executor(runtime_.get());
  auto run = executor.RunToCompletion(*physical, {{mr->map_vertex, inputs}});
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  std::map<std::string, int64_t> counts;
  for (const ObjectRef& ref : run->sink_outputs.at(mr->reduce_vertex)) {
    auto buffer = runtime_->Get(ref);
    ASSERT_TRUE(buffer.ok());
    auto batch = DeserializeBatchIpc(*buffer);
    ASSERT_TRUE(batch.ok());
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      counts[std::string(batch->column(0).StringAt(i))] +=
          batch->ColumnByName("count")->Int64At(i);
    }
  }
  EXPECT_EQ(counts["ray"], 3);
  EXPECT_EQ(counts["skadi"], 3);
  EXPECT_EQ(counts["dpu"], 1);
  EXPECT_EQ(counts["fpga"], 1);
  EXPECT_EQ(counts.size(), 4u);

  // Each word was reduced in exactly one partition (shuffle correctness):
  // the per-word totals above already prove it since no word was split.
  // The map tasks partition their own output, one part per reduce shard.
  const ReturnLayout& map_returns = physical->plan(mr->map_vertex)->returns;
  EXPECT_FALSE(map_returns.value);
  ASSERT_EQ(map_returns.shuffles.size(), 1u);
  EXPECT_EQ(map_returns.shuffles[0].keys, std::vector<std::string>{"word"});
  EXPECT_EQ(map_returns.num_returns(), 2);
  EXPECT_EQ(run->tasks_submitted, 4);
}

}  // namespace
}  // namespace skadi
