#include "src/access/graph_analytics.h"

#include <map>
#include <set>

#include "src/format/serde.h"
#include "src/graph/physical.h"
#include "src/ir/dialects.h"

namespace skadi {

namespace {

// Fetches edge partitions once to derive the vertex set and out-degrees
// (small driver-side metadata; the heavy per-iteration joins stay
// distributed).
struct GraphMeta {
  std::vector<int64_t> vertices;               // sorted
  std::map<int64_t, int64_t> out_degree;       // src -> count
};

Result<GraphMeta> LoadGraphMeta(SkadiRuntime* runtime,
                                const std::vector<ObjectRef>& edge_partitions) {
  GraphMeta meta;
  std::set<int64_t> vertex_set;
  SKADI_ASSIGN_OR_RETURN(std::vector<Buffer> buffers, runtime->GetAll(edge_partitions));
  for (const Buffer& buffer : buffers) {
    SKADI_ASSIGN_OR_RETURN(RecordBatch batch, DeserializeBatchIpc(buffer));
    const Column* src = batch.ColumnByName("src");
    const Column* dst = batch.ColumnByName("dst");
    if (src == nullptr || dst == nullptr) {
      return Status::InvalidArgument("edge batch needs (src, dst) int64 columns");
    }
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      int64_t s = src->Int64At(r);
      int64_t d = dst->Int64At(r);
      vertex_set.insert(s);
      vertex_set.insert(d);
      meta.out_degree[s] += 1;
    }
  }
  meta.vertices.assign(vertex_set.begin(), vertex_set.end());
  if (meta.vertices.empty()) {
    return Status::InvalidArgument("empty graph");
  }
  return meta;
}

// One distributed contribution round: join edge partitions with the rank
// table (broadcast), emit per-dst contributions, aggregate by dst.
// rank table schema: (vertex int64, share float64) where share is the value
// each out-edge carries (rank/degree for PageRank, label for CC-min).
Result<RecordBatch> RunContributionRound(SkadiRuntime* runtime, FunctionRegistry* registry,
                                         const std::vector<ObjectRef>& edge_partitions,
                                         const RecordBatch& share_table, AggKind agg,
                                         int parallelism) {
  // Cannot shard wider than the number of edge partitions.
  if (parallelism > static_cast<int>(edge_partitions.size())) {
    parallelism = static_cast<int>(edge_partitions.size());
  }
  if (parallelism < 1) {
    parallelism = 1;
  }
  // edges JOIN shares ON src = vertex -> project(dst, share) -> partial agg.
  auto contrib_fn = std::make_shared<IrFunction>("contrib");
  ValueId edges = contrib_fn->AddParam(IrType::Table());
  ValueId shares = contrib_fn->AddParam(IrType::Table());
  ValueId joined = EmitJoin(*contrib_fn, edges, shares, {"src"}, {"vertex"});
  ValueId projected = EmitProject(
      *contrib_fn, joined,
      {{Expr::Col("dst"), "vertex"}, {Expr::Col("share"), "contrib"}});
  ValueId partial = EmitAggregate(*contrib_fn, projected, {"vertex"},
                                  {{agg, "contrib", "acc"}});
  contrib_fn->SetReturns({partial});

  auto final_fn = std::make_shared<IrFunction>("merge");
  ValueId t = final_fn->AddParam(IrType::Table());
  AggKind merge_agg = agg == AggKind::kMin ? AggKind::kMin : AggKind::kSum;
  ValueId merged =
      EmitAggregate(*final_fn, t, {"vertex"}, {{merge_agg, "acc", "acc"}});
  final_fn->SetReturns({merged});

  auto identity_scan = [](const std::string& name) {
    auto fn = std::make_shared<IrFunction>(name);
    ValueId p = fn->AddParam(IrType::Table());
    fn->SetReturns({p});
    return fn;
  };

  FlowGraph graph;
  VertexId edges_v =
      graph.AddIrVertex("edges", identity_scan("edges_scan"), OpClass::kScan);
  graph.vertex(edges_v)->parallelism_hint = parallelism;
  VertexId shares_v =
      graph.AddIrVertex("shares", identity_scan("shares_scan"), OpClass::kScan);
  graph.vertex(shares_v)->parallelism_hint = 1;
  VertexId contrib_v = graph.AddIrVertex("contrib", contrib_fn, OpClass::kJoin);
  graph.vertex(contrib_v)->parallelism_hint = parallelism;
  VertexId final_v = graph.AddIrVertex("merge", final_fn, OpClass::kAggregate);
  graph.vertex(final_v)->parallelism_hint = parallelism;

  // Edge insertion order matches contrib's IR parameter order:
  // param 0 = edges (forward, sharded), param 1 = shares (broadcast).
  SKADI_RETURN_IF_ERROR(graph.AddEdge(edges_v, contrib_v, EdgeKind::kForward));
  SKADI_RETURN_IF_ERROR(graph.AddEdge(shares_v, contrib_v, EdgeKind::kBroadcast));
  SKADI_RETURN_IF_ERROR(
      graph.AddEdge(contrib_v, final_v, EdgeKind::kShuffle, {"vertex"}));

  LoweringOptions lowering;
  lowering.default_parallelism = parallelism;
  lowering.run_ir_passes = false;  // keep param order stable
  SKADI_ASSIGN_OR_RETURN(PhysicalGraph physical,
                         LowerToPhysical(graph, lowering, registry));

  SKADI_ASSIGN_OR_RETURN(ObjectRef shares_ref,
                         runtime->Put(SerializeBatchIpc(share_table)));

  GraphExecutor executor(runtime);
  std::map<VertexId, std::vector<ObjectRef>> inputs;
  inputs[edges_v] = edge_partitions;
  inputs[shares_v] = {shares_ref};
  SKADI_ASSIGN_OR_RETURN(std::vector<RecordBatch> pieces,
                         executor.RunAndGather(physical, inputs, final_v));
  (void)runtime->Release(shares_ref);
  return ConcatBatches(pieces);
}

RecordBatch MakeShareTable(const std::vector<int64_t>& vertices,
                           const std::map<int64_t, double>& share) {
  ColumnBuilder vs(DataType::kInt64);
  ColumnBuilder ss(DataType::kFloat64);
  for (int64_t v : vertices) {
    auto it = share.find(v);
    vs.AppendInt64(v);
    ss.AppendFloat64(it == share.end() ? 0.0 : it->second);
  }
  Schema schema({{"vertex", DataType::kInt64}, {"share", DataType::kFloat64}});
  auto batch = RecordBatch::Make(schema, {vs.Finish(), ss.Finish()});
  return std::move(batch).value();
}

}  // namespace

Result<RecordBatch> PageRank(SkadiRuntime* runtime, FunctionRegistry* registry,
                             const std::vector<ObjectRef>& edge_partitions,
                             const PageRankOptions& options) {
  if (options.iterations < 1 || options.damping <= 0.0 || options.damping >= 1.0) {
    return Status::InvalidArgument("invalid PageRank options");
  }
  SKADI_ASSIGN_OR_RETURN(GraphMeta meta, LoadGraphMeta(runtime, edge_partitions));
  const double n = static_cast<double>(meta.vertices.size());
  const double base = (1.0 - options.damping) / n;

  std::map<int64_t, double> rank;
  for (int64_t v : meta.vertices) {
    rank[v] = 1.0 / n;
  }

  for (int iter = 0; iter < options.iterations; ++iter) {
    // share(v) = rank(v) / out_degree(v); dangling vertices contribute 0.
    std::map<int64_t, double> share;
    for (int64_t v : meta.vertices) {
      auto deg = meta.out_degree.find(v);
      share[v] = deg == meta.out_degree.end()
                     ? 0.0
                     : rank[v] / static_cast<double>(deg->second);
    }
    SKADI_ASSIGN_OR_RETURN(
        RecordBatch sums,
        RunContributionRound(runtime, registry, edge_partitions,
                             MakeShareTable(meta.vertices, share), AggKind::kSum,
                             options.parallelism));
    // new rank = base + damping * sum(in contributions); vertices with no
    // in-edges fall back to base.
    std::map<int64_t, double> next;
    for (int64_t v : meta.vertices) {
      next[v] = base;
    }
    const Column* vs = sums.ColumnByName("vertex");
    const Column* acc = sums.ColumnByName("acc");
    for (int64_t r = 0; r < sums.num_rows(); ++r) {
      next[vs->Int64At(r)] = base + options.damping * acc->Float64At(r);
    }
    rank = std::move(next);
  }

  ColumnBuilder vs(DataType::kInt64);
  ColumnBuilder rs(DataType::kFloat64);
  for (int64_t v : meta.vertices) {
    vs.AppendInt64(v);
    rs.AppendFloat64(rank[v]);
  }
  Schema schema({{"vertex", DataType::kInt64}, {"rank", DataType::kFloat64}});
  return RecordBatch::Make(schema, {vs.Finish(), rs.Finish()});
}

Result<RecordBatch> ConnectedComponents(SkadiRuntime* runtime, FunctionRegistry* registry,
                                        const std::vector<ObjectRef>& edge_partitions,
                                        const ConnectedComponentsOptions& options) {
  SKADI_ASSIGN_OR_RETURN(GraphMeta meta, LoadGraphMeta(runtime, edge_partitions));

  // Build the reversed edge partitions once so label propagation is
  // effectively undirected; they are released once the labels converge.
  std::vector<ObjectRef> undirected = edge_partitions;
  SKADI_ASSIGN_OR_RETURN(std::vector<Buffer> edge_buffers,
                         runtime->GetAll(edge_partitions));
  for (const Buffer& buffer : edge_buffers) {
    SKADI_ASSIGN_OR_RETURN(RecordBatch batch, DeserializeBatchIpc(buffer));
    std::vector<ProjectionSpec> swap = {{Expr::Col("dst"), "src"},
                                        {Expr::Col("src"), "dst"}};
    SKADI_ASSIGN_OR_RETURN(RecordBatch reversed, ProjectBatch(batch, swap));
    SKADI_ASSIGN_OR_RETURN(ObjectRef rref, runtime->Put(SerializeBatchIpc(reversed)));
    undirected.push_back(rref);
  }

  std::map<int64_t, double> label;
  for (int64_t v : meta.vertices) {
    label[v] = static_cast<double>(v);
  }

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    SKADI_ASSIGN_OR_RETURN(
        RecordBatch mins,
        RunContributionRound(runtime, registry, undirected,
                             MakeShareTable(meta.vertices, label), AggKind::kMin,
                             options.parallelism));
    bool changed = false;
    const Column* vs = mins.ColumnByName("vertex");
    const Column* acc = mins.ColumnByName("acc");
    for (int64_t r = 0; r < mins.num_rows(); ++r) {
      int64_t v = vs->Int64At(r);
      double incoming = acc->Float64At(r);
      if (incoming < label[v]) {
        label[v] = incoming;
        changed = true;
      }
    }
    if (!changed) {
      break;
    }
  }
  for (size_t i = edge_partitions.size(); i < undirected.size(); ++i) {
    (void)runtime->Release(undirected[i]);
  }

  ColumnBuilder vs(DataType::kInt64);
  ColumnBuilder cs(DataType::kInt64);
  for (int64_t v : meta.vertices) {
    vs.AppendInt64(v);
    cs.AppendInt64(static_cast<int64_t>(label[v]));
  }
  Schema schema({{"vertex", DataType::kInt64}, {"component", DataType::kInt64}});
  return RecordBatch::Make(schema, {vs.Finish(), cs.Finish()});
}

}  // namespace skadi
