// Unit tests of logical -> physical lowering (no execution).
#include "src/graph/physical.h"

#include <gtest/gtest.h>

#include "src/ir/dialects.h"

namespace skadi {
namespace {

std::shared_ptr<IrFunction> Identity() {
  auto fn = std::make_shared<IrFunction>("id");
  ValueId t = fn->AddParam(IrType::Table());
  fn->SetReturns({t});
  return fn;
}

std::shared_ptr<IrFunction> TwoInput() {
  auto fn = std::make_shared<IrFunction>("two");
  ValueId a = fn->AddParam(IrType::Table());
  ValueId b = fn->AddParam(IrType::Table());
  ValueId j = EmitJoin(*fn, a, b, {"k"}, {"k"});
  fn->SetReturns({j});
  return fn;
}

TEST(PhysicalLoweringTest, DefaultParallelismApplied) {
  FlowGraph g;
  VertexId v = g.AddIrVertex("a", Identity());
  FunctionRegistry registry;
  LoweringOptions options;
  options.default_parallelism = 5;
  auto physical = LowerToPhysical(g, options, &registry);
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ(physical->plan(v)->parallelism, 5);
}

TEST(PhysicalLoweringTest, HintOverridesDefault) {
  FlowGraph g;
  VertexId v = g.AddIrVertex("a", Identity());
  g.vertex(v)->parallelism_hint = 3;
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ(physical->plan(v)->parallelism, 3);
}

TEST(PhysicalLoweringTest, NumInputsFromIrParams) {
  FlowGraph g;
  VertexId one = g.AddIrVertex("one", Identity());
  VertexId two = g.AddIrVertex("two", TwoInput());
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ(physical->plan(one)->num_inputs, 1);
  EXPECT_EQ(physical->plan(two)->num_inputs, 2);
}

TEST(PhysicalLoweringTest, VertexFunctionsRegistered) {
  // Each plan carries its own body; a builtin vertex's wraps the function
  // registered under its name, looked up here.
  FlowGraph g;
  VertexId ir = g.AddIrVertex("a", Identity());
  VertexId builtin = g.AddBuiltinVertex("b", "handcrafted");
  ASSERT_TRUE(g.AddEdge(ir, builtin).ok());
  FunctionRegistry registry;
  ASSERT_TRUE(registry
                  .Register("handcrafted",
                            [](TaskContext&, std::vector<Buffer>& args)
                                -> Result<std::vector<Buffer>> { return args; })
                  .ok());
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  ASSERT_EQ(physical->vertices.size(), 2u);
  for (const PhysicalVertexPlan& plan : physical->vertices) {
    EXPECT_NE(plan.body, nullptr) << plan.name;
  }
}

TEST(PhysicalLoweringTest, ShuffleEdgeAddsReturnBlock) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("a", Identity());
  VertexId b = g.AddIrVertex("b", Identity());
  g.vertex(b)->parallelism_hint = 3;
  ASSERT_TRUE(g.AddEdge(a, b, EdgeKind::kShuffle, {"k"}).ok());
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  // The producer returns only its partitions, one per consumer shard; no
  // task body beyond the two vertices' own is built.
  const ReturnLayout& layout = physical->plan(a)->returns;
  EXPECT_FALSE(layout.value);
  ASSERT_EQ(layout.shuffles.size(), 1u);
  EXPECT_EQ(layout.shuffles[0].keys, std::vector<std::string>{"k"});
  EXPECT_EQ(layout.shuffles[0].parts, 3);
  EXPECT_EQ(layout.num_returns(), 3);
  ASSERT_EQ(physical->edges.size(), 1u);
  EXPECT_EQ(physical->edges[0].src_return, 0);
  // The sink returns its value alone.
  EXPECT_TRUE(physical->plan(b)->returns.value);
  EXPECT_EQ(physical->plan(b)->returns.num_returns(), 1);
}

TEST(PhysicalLoweringTest, ForwardEdgeReadsProducerValue) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("a", Identity());
  VertexId b = g.AddIrVertex("b", Identity());
  ASSERT_TRUE(g.AddEdge(a, b, EdgeKind::kForward).ok());
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  EXPECT_TRUE(physical->plan(a)->returns.value);
  EXPECT_TRUE(physical->plan(a)->returns.shuffles.empty());
  EXPECT_EQ(physical->edges[0].src_return, 0);
}

TEST(PhysicalLoweringTest, ReturnLayoutIsValueThenOneBlockPerShuffleEdgeInEdgeOrder) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("a", Identity());
  VertexId by_k = g.AddIrVertex("by_k", Identity());
  VertexId whole = g.AddIrVertex("whole", Identity());
  VertexId by_j = g.AddIrVertex("by_j", Identity());
  g.vertex(by_k)->parallelism_hint = 3;
  g.vertex(by_j)->parallelism_hint = 2;
  ASSERT_TRUE(g.AddEdge(a, by_k, EdgeKind::kShuffle, {"k"}).ok());
  ASSERT_TRUE(g.AddEdge(a, whole, EdgeKind::kBroadcast).ok());
  ASSERT_TRUE(g.AddEdge(a, by_j, EdgeKind::kShuffle, {"j", "k"}).ok());
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  const ReturnLayout& layout = physical->plan(a)->returns;
  EXPECT_TRUE(layout.value);
  EXPECT_EQ(layout.num_returns(), 1 + 3 + 2);
  EXPECT_EQ(layout.ToString(), "value, shuffle[k] 3 parts, shuffle[j,k] 2 parts");
  ASSERT_EQ(physical->edges.size(), 3u);
  EXPECT_EQ(physical->edges[0].src_return, 1);  // by_k: after the value
  EXPECT_EQ(physical->edges[1].src_return, 0);  // whole: the value
  EXPECT_EQ(physical->edges[2].src_return, 4);  // by_j: after by_k's 3 parts
}

TEST(PhysicalLoweringTest, OnlyNonSinkNonShufflingIdentityPassesThrough) {
  FlowGraph g;
  VertexId scan = g.AddIrVertex("scan", Identity());
  VertexId shuffler = g.AddIrVertex("shuffler", Identity());
  VertexId join = g.AddIrVertex("join", TwoInput());
  VertexId sink = g.AddIrVertex("sink", Identity());
  ASSERT_TRUE(g.AddEdge(scan, join, EdgeKind::kForward).ok());
  ASSERT_TRUE(g.AddEdge(shuffler, join, EdgeKind::kShuffle, {"k"}).ok());
  ASSERT_TRUE(g.AddEdge(join, sink, EdgeKind::kForward).ok());
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  EXPECT_TRUE(physical->plan(scan)->pass_through);
  EXPECT_FALSE(physical->plan(shuffler)->pass_through);  // shuffle producer
  EXPECT_FALSE(physical->plan(join)->pass_through);      // has ops
  EXPECT_FALSE(physical->plan(sink)->pass_through);      // sink
}

TEST(PhysicalLoweringTest, MissingBuiltinRejected) {
  FlowGraph g;
  g.AddBuiltinVertex("v", "never_registered");
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  EXPECT_EQ(physical.status().code(), StatusCode::kNotFound);
}

TEST(PhysicalLoweringTest, InvalidOptionsRejected) {
  FlowGraph g;
  g.AddIrVertex("a", Identity());
  FunctionRegistry registry;
  LoweringOptions bad;
  bad.default_parallelism = 0;
  EXPECT_FALSE(LowerToPhysical(g, bad, &registry).ok());
  LoweringOptions no_backends;
  no_backends.available_backends = {};
  EXPECT_FALSE(LowerToPhysical(g, no_backends, &registry).ok());
}

TEST(PhysicalLoweringTest, SourcesAndSinksComputed) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("a", Identity());
  VertexId b = g.AddIrVertex("b", Identity());
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ(physical->Sources(), std::vector<VertexId>{a});
  EXPECT_EQ(physical->Sinks(), std::vector<VertexId>{b});
}

TEST(PhysicalLoweringTest, ToStringShowsShardCounts) {
  FlowGraph g;
  VertexId scan = g.AddIrVertex("scanA", Identity());
  VertexId v = g.AddIrVertex("vertexD", Identity());
  VertexId agg = g.AddIrVertex("aggE", Identity());
  g.vertex(v)->parallelism_hint = 7;
  g.vertex(scan)->parallelism_hint = 7;
  g.vertex(agg)->parallelism_hint = 2;
  ASSERT_TRUE(g.AddEdge(scan, v).ok());
  ASSERT_TRUE(g.AddEdge(v, agg, EdgeKind::kShuffle, {"k"}).ok());
  FunctionRegistry registry;
  auto physical = LowerToPhysical(g, {}, &registry);
  ASSERT_TRUE(physical.ok());
  std::string s = physical->ToString();
  EXPECT_NE(s.find("vertexD"), std::string::npos);
  EXPECT_NE(s.find("x7"), std::string::npos);
  // Return layouts, and the forwarded identity marked.
  EXPECT_NE(s.find("'scanA' x7 on cpu pass-through -> value\n"), std::string::npos) << s;
  EXPECT_NE(s.find("'vertexD' x7 on cpu -> shuffle[k] 2 parts\n"), std::string::npos) << s;
  EXPECT_NE(s.find("'aggE' x2 on cpu -> value\n"), std::string::npos) << s;
}

TEST(PhysicalLoweringTest, ArgHeaderRoundTrip) {
  Buffer header = MakeVertexArgHeader({2, 1, 3});
  BufferReader r(header);
  EXPECT_EQ(r.ReadU32(), 3u);
  EXPECT_EQ(r.ReadU32(), 2u);
  EXPECT_EQ(r.ReadU32(), 1u);
  EXPECT_EQ(r.ReadU32(), 3u);
}

}  // namespace
}  // namespace skadi
