// Logical -> physical lowering (Figure 2, middle tier).
//
// Lowering (1) picks a hardware backend for every vertex (cost model over
// the vertex's op class, or the vertex's hint), (2) decides each vertex's
// degree of parallelism (hint or default — the subscripts in Figure 2),
// (3) fixes each vertex's return layout, which fuses the hash partitioning
// of every outgoing shuffle edge into the producing task, and (4) makes one
// task body per vertex (IR interpreter or builtin delegate) that returns
// that layout. The body travels in the vertex's plan and from there in each
// shard's TaskSpec, so nothing is registered per query.
#ifndef SRC_GRAPH_PHYSICAL_H_
#define SRC_GRAPH_PHYSICAL_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/graph/flow_graph.h"
#include "src/runtime/task.h"

namespace skadi {

// One block of a return layout: the vertex's output hash-partitioned on
// `keys` into one part per shard of a shuffle edge's destination.
struct ShuffleBlock {
  std::vector<std::string> keys;
  int parts = 1;
};

// What every shard task of a vertex returns, in order: the vertex's own
// value when `value` is set (it is a sink or feeds a forward/broadcast
// edge), then one block per outgoing shuffle edge, in edge order.
struct ReturnLayout {
  bool value = true;
  std::vector<ShuffleBlock> shuffles;

  int num_returns() const;
  std::string ToString() const;  // e.g. "value, shuffle[key] 2 parts"
};

struct PhysicalVertexPlan {
  VertexId logical;
  std::string name;
  int parallelism = 1;
  std::optional<DeviceKind> backend;
  OpClass op_class = OpClass::kGeneric;
  // Number of logical inputs (IR parameter count; 1 for builtin vertices).
  int num_inputs = 1;
  // Task body executing one shard of this vertex.
  std::shared_ptr<const TaskFunction> body;
  ReturnLayout returns;
  // Identity IR vertex (no ops, returns its only param) that is neither a
  // sink nor a shuffle producer: a shard fed exactly one object forwards
  // that ref as its output instead of launching a task.
  bool pass_through = false;
};

struct PhysicalEdgePlan {
  VertexId src;
  VertexId dst;
  EdgeKind kind = EdgeKind::kForward;
  std::vector<std::string> keys;
  // Where this edge reads each src shard's return list: the value (0) for
  // forward/broadcast edges; for shuffle edges, the first of the edge's
  // block of dst-parallelism partitions (dst shard i reads src_return + i).
  int src_return = 0;
};

struct PhysicalGraph {
  // Topologically ordered.
  std::vector<PhysicalVertexPlan> vertices;
  std::vector<PhysicalEdgePlan> edges;

  const PhysicalVertexPlan* plan(VertexId id) const;
  std::vector<PhysicalEdgePlan> InEdges(VertexId id) const;
  std::vector<VertexId> Sources() const;
  std::vector<VertexId> Sinks() const;

  std::string ToString() const;
};

struct LoweringOptions {
  // Used when a vertex has no parallelism hint.
  int default_parallelism = 2;
  // Backend candidates present in the target cluster.
  std::vector<DeviceKind> available_backends = {DeviceKind::kCpu};
  // Assumed per-op input bytes for cost-model backend selection.
  int64_t assumed_bytes = 1 << 20;
  // Run the standard IR pass pipeline on each vertex before lowering.
  bool run_ir_passes = true;
};

// Lowers the (validated) logical graph. A builtin vertex's function is
// looked up in `registry` once, here. The graph's IR functions are shared
// (not copied), so pass effects persist.
Result<PhysicalGraph> LowerToPhysical(const FlowGraph& graph, const LoweringOptions& options,
                                      const FunctionRegistry* registry);

// Builds the args[0] header a vertex task expects: one group per vertex
// input, `group_sizes[i]` buffers in group i.
Buffer MakeVertexArgHeader(const std::vector<uint32_t>& group_sizes);

}  // namespace skadi

#endif  // SRC_GRAPH_PHYSICAL_H_
