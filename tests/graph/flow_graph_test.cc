#include "src/graph/flow_graph.h"

#include <gtest/gtest.h>

#include "src/ir/dialects.h"

namespace skadi {
namespace {

std::shared_ptr<IrFunction> FilterFn(int64_t threshold) {
  auto fn = std::make_shared<IrFunction>("filter" + std::to_string(threshold));
  ValueId t = fn->AddParam(IrType::Table());
  ValueId f = EmitFilter(
      *fn, t, Expr::Binary(BinaryOp::kGt, Expr::Col("x"), Expr::Int(threshold)));
  fn->SetReturns({f});
  return fn;
}

std::shared_ptr<IrFunction> ProjectFn() {
  auto fn = std::make_shared<IrFunction>("proj");
  ValueId t = fn->AddParam(IrType::Table());
  ValueId p = fn->Emit(kOpRelProject, {t}, IrType::Table(),
                       {{"projections", IrAttr(std::vector<ProjectionSpec>{
                             {Expr::Col("x"), "x"}})}});
  fn->SetReturns({p});
  return fn;
}

TEST(FlowGraphTest, BuildAndTopoOrder) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("a", FilterFn(0), OpClass::kFilter);
  VertexId b = g.AddIrVertex("b", ProjectFn(), OpClass::kProject);
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.Validate().ok());
  auto order = g.TopoOrder();
  ASSERT_TRUE(order.ok());
  ASSERT_EQ(order->size(), 2u);
  EXPECT_EQ((*order)[0], a);
  EXPECT_EQ((*order)[1], b);
  EXPECT_EQ(g.Sources(), std::vector<VertexId>{a});
  EXPECT_EQ(g.Sinks(), std::vector<VertexId>{b});
}

TEST(FlowGraphTest, CycleDetected) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("a", FilterFn(0));
  VertexId b = g.AddIrVertex("b", ProjectFn());
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(b, a).ok());
  EXPECT_EQ(g.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(FlowGraphTest, ShuffleEdgeRequiresKeys) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("a", FilterFn(0));
  VertexId b = g.AddIrVertex("b", ProjectFn());
  EXPECT_EQ(g.AddEdge(a, b, EdgeKind::kShuffle).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(g.AddEdge(a, b, EdgeKind::kShuffle, {"x"}).ok());
}

TEST(FlowGraphTest, EdgeToUnknownVertexRejected) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("a", FilterFn(0));
  EXPECT_EQ(g.AddEdge(a, VertexId(987654)).code(), StatusCode::kInvalidArgument);
}

TEST(FlowGraphTest, BuiltinVertexValidates) {
  FlowGraph g;
  g.AddBuiltinVertex("custom", "my_fn", OpClass::kGeneric);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(FlowGraphTest, ToStringShowsStructure) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("scan_filter", FilterFn(0));
  VertexId b = g.AddBuiltinVertex("sinkv", "fn");
  ASSERT_TRUE(g.AddEdge(a, b, EdgeKind::kShuffle, {"x"}).ok());
  std::string s = g.ToString();
  EXPECT_NE(s.find("scan_filter"), std::string::npos);
  EXPECT_NE(s.find("shuffle"), std::string::npos);
}

TEST(OptimizeFlowGraphTest, MergesLinearIrChain) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("f1", FilterFn(0), OpClass::kFilter);
  VertexId b = g.AddIrVertex("f2", FilterFn(2), OpClass::kFilter);
  VertexId c = g.AddIrVertex("p", ProjectFn(), OpClass::kProject);
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(b, c).ok());

  auto merged = OptimizeFlowGraph(g);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 2);
  EXPECT_EQ(g.vertices().size(), 1u);
  // Merged IR went through the standard pipeline: filters merged, then
  // filter+project fused => a single op.
  EXPECT_EQ(g.vertices()[0].ir->num_ops(), 1u);
}

TEST(OptimizeFlowGraphTest, ShuffleEdgesBlockMerging) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("f1", FilterFn(0));
  VertexId b = g.AddIrVertex("f2", FilterFn(2));
  ASSERT_TRUE(g.AddEdge(a, b, EdgeKind::kShuffle, {"x"}).ok());
  auto merged = OptimizeFlowGraph(g);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 0);
  EXPECT_EQ(g.vertices().size(), 2u);
}

TEST(OptimizeFlowGraphTest, FanOutBlocksMerging) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("src", FilterFn(0));
  VertexId b = g.AddIrVertex("left", FilterFn(1));
  VertexId c = g.AddIrVertex("right", FilterFn(2));
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(a, c).ok());
  auto merged = OptimizeFlowGraph(g);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 0);
}

TEST(OptimizeFlowGraphTest, BuiltinVerticesNotMerged) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("ir", FilterFn(0));
  VertexId b = g.AddBuiltinVertex("handcrafted", "fn");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  auto merged = OptimizeFlowGraph(g);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 0);
}

TEST(OptimizeFlowGraphTest, ConflictingParallelismHintsBlockMerging) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("f1", FilterFn(0));
  VertexId b = g.AddIrVertex("f2", FilterFn(1));
  g.vertex(a)->parallelism_hint = 2;
  g.vertex(b)->parallelism_hint = 4;
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  auto merged = OptimizeFlowGraph(g);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 0);
}

TEST(OptimizeFlowGraphTest, PreservesSurroundingEdges) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("f1", FilterFn(0));
  VertexId b = g.AddIrVertex("f2", FilterFn(1));
  VertexId c = g.AddIrVertex("agg", FilterFn(2));
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(b, c, EdgeKind::kShuffle, {"x"}).ok());
  auto merged = OptimizeFlowGraph(g);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 1);
  ASSERT_EQ(g.vertices().size(), 2u);
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_EQ(g.edges()[0].kind, EdgeKind::kShuffle);
}

TEST(OptimizeFlowGraphTest, MergeKeepsProducerAndUntouchedVertexIds) {
  FlowGraph g;
  VertexId scan = g.AddIrVertex("scan", FilterFn(0));
  VertexId filter = g.AddIrVertex("filter", FilterFn(1));
  VertexId dim = g.AddIrVertex("dim", FilterFn(2));
  VertexId agg = g.AddIrVertex("agg", FilterFn(3));
  ASSERT_TRUE(g.AddEdge(scan, filter).ok());
  ASSERT_TRUE(g.AddEdge(filter, agg, EdgeKind::kShuffle, {"x"}).ok());
  ASSERT_TRUE(g.AddEdge(dim, agg, EdgeKind::kBroadcast).ok());
  auto merged = OptimizeFlowGraph(g);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 1);
  // The merged vertex is the producer, under its id and in its position;
  // the consumer is gone and every other vertex is where it was.
  EXPECT_EQ(g.vertex(filter), nullptr);
  ASSERT_EQ(g.vertices().size(), 3u);
  EXPECT_EQ(g.vertices()[0].id, scan);
  EXPECT_EQ(g.vertices()[0].name, "scan+filter");
  EXPECT_EQ(g.vertices()[1].id, dim);
  EXPECT_EQ(g.vertices()[1].name, "dim");
  EXPECT_EQ(g.vertices()[2].id, agg);
  EXPECT_EQ(g.vertices()[2].name, "agg");
  // The fused edge is dropped and the consumer's out-edge now leaves the
  // merged vertex, ahead of the untouched edge as before.
  ASSERT_EQ(g.edges().size(), 2u);
  EXPECT_EQ(g.edges()[0].src, scan);
  EXPECT_EQ(g.edges()[0].dst, agg);
  EXPECT_EQ(g.edges()[0].kind, EdgeKind::kShuffle);
  EXPECT_EQ(g.edges()[1].src, dim);
  EXPECT_EQ(g.edges()[1].dst, agg);
  EXPECT_EQ(g.Sources(), (std::vector<VertexId>{scan, dim}));
}

TEST(OptimizeFlowGraphTest, MergedAndUntouchedVerticesKeepTheirHints) {
  FlowGraph g;
  VertexId a = g.AddIrVertex("f1", FilterFn(0));
  VertexId b = g.AddIrVertex("f2", FilterFn(1));
  VertexId c = g.AddIrVertex("agg", FilterFn(2), OpClass::kAggregate);
  g.vertex(a)->compute_threads_hint = 3;
  g.vertex(b)->compute_threads_hint = 3;
  g.vertex(b)->parallelism_hint = 4;
  g.vertex(c)->compute_threads_hint = 5;
  g.vertex(c)->parallelism_hint = 2;
  g.vertex(c)->backend_hint = DeviceKind::kGpu;
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(b, c, EdgeKind::kShuffle, {"x"}).ok());
  auto merged = OptimizeFlowGraph(g);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 1);
  ASSERT_EQ(g.vertices().size(), 2u);
  const FlowVertex& fused = g.vertices()[0];
  const FlowVertex& untouched = g.vertices()[1];
  EXPECT_EQ(fused.name, "f1+f2");
  EXPECT_EQ(fused.compute_threads_hint, 3);
  EXPECT_EQ(fused.parallelism_hint, 4);
  EXPECT_EQ(untouched.name, "agg");
  EXPECT_EQ(untouched.compute_threads_hint, 5);
  EXPECT_EQ(untouched.parallelism_hint, 2);
  EXPECT_EQ(untouched.backend_hint, DeviceKind::kGpu);
  EXPECT_EQ(untouched.op_class, OpClass::kAggregate);
}

}  // namespace
}  // namespace skadi
