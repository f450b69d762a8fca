// FlowGraph: the logical graph tier of the access layer (Figure 2 top).
//
// Vertices are built either from hardware-agnostic IR functions (the
// MLIR-ops path) or from handcrafted operators registered in the runtime's
// FunctionRegistry (the cudf/misc-ops path). Directed edges dictate how data
// flows; keyed (shuffle) edges carry the hash keys that become the dashed
// keyed edges of the physical sharded graph.
#ifndef SRC_GRAPH_FLOW_GRAPH_H_
#define SRC_GRAPH_FLOW_GRAPH_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/id.h"
#include "src/common/status.h"
#include "src/hw/device.h"
#include "src/ir/ir.h"

namespace skadi {

enum class EdgeKind {
  kForward,    // shard i of src feeds shard i of dst (or replicates if src DOP 1)
  kShuffle,    // keyed redistribution: all src shards feed every dst shard by hash
  kBroadcast,  // every dst shard sees the concatenation of all src shards
};

std::string_view EdgeKindName(EdgeKind kind);

struct FlowVertex {
  VertexId id;
  std::string name;
  // Exactly one of `ir` / `builtin` is set.
  std::shared_ptr<IrFunction> ir;
  std::string builtin;
  OpClass op_class = OpClass::kGeneric;
  // Desired shard count; 0 = use the lowering default.
  int parallelism_hint = 0;
  // Pin the vertex to a device kind; nullopt lets lowering pick by cost.
  std::optional<DeviceKind> backend_hint;
  // Intra-task morsel threads for this vertex's kernels; 0 = inherit the
  // executing raylet's worker budget (TaskContext::compute_threads).
  int compute_threads_hint = 0;

  bool is_ir() const { return ir != nullptr; }
};

struct FlowEdge {
  VertexId src;
  VertexId dst;
  EdgeKind kind = EdgeKind::kForward;
  std::vector<std::string> keys;  // shuffle hash keys
};

class FlowGraph {
 public:
  // Adds a vertex computing an IR function (hardware-agnostic op).
  VertexId AddIrVertex(std::string name, std::shared_ptr<IrFunction> ir,
                       OpClass op_class = OpClass::kGeneric);

  // Adds a vertex computing a registered task function (handcrafted op).
  VertexId AddBuiltinVertex(std::string name, std::string function,
                            OpClass op_class = OpClass::kGeneric);

  Status AddEdge(VertexId src, VertexId dst, EdgeKind kind = EdgeKind::kForward,
                 std::vector<std::string> keys = {});

  // Folds `consumer`, whose only inputs come from `producer`, into
  // `producer`: drops the consumer and the edges between them, and moves the
  // consumer's out-edges to the producer in place. Every other vertex and
  // edge keeps its id and position. The caller gives the producer the merged
  // computation.
  void FoldInto(VertexId producer, VertexId consumer);

  FlowVertex* vertex(VertexId id);
  const FlowVertex* vertex(VertexId id) const;
  const std::vector<FlowVertex>& vertices() const { return vertices_; }
  const std::vector<FlowEdge>& edges() const { return edges_; }

  std::vector<FlowEdge> InEdges(VertexId id) const;
  std::vector<FlowEdge> OutEdges(VertexId id) const;
  std::vector<VertexId> Sources() const;  // no in-edges
  std::vector<VertexId> Sinks() const;    // no out-edges

  // Topological order; fails on cycles.
  Result<std::vector<VertexId>> TopoOrder() const;

  // Structural checks: edges reference vertices, acyclic, shuffle edges have
  // keys, every vertex has exactly one computation.
  Status Validate() const;

  std::string ToString() const;

 private:
  std::vector<FlowVertex> vertices_;
  std::vector<FlowEdge> edges_;
};

// Graph-level optimization (§2.2): collapses linear chains of single-use IR
// vertices connected by forward edges into one vertex whose IR is the inlined
// composition, then runs the standard IR pass pipeline on each merged
// function — this is what enables *cross-vertex* (and cross-domain) fusion.
// Merges happen in place: the merged vertex keeps the producer's id, and
// every vertex not merged away keeps its own, so source ids always survive
// (a merged-away consumer has exactly one in-edge). Returns the number of
// vertices merged away.
Result<int> OptimizeFlowGraph(FlowGraph& graph);

}  // namespace skadi

#endif  // SRC_GRAPH_FLOW_GRAPH_H_
