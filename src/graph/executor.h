// Physical-graph executor: launches one task per vertex shard on the
// stateful serverless runtime, wiring shard inputs according to edge kinds
// and passing everything by reference — the futures pipeline of Figure 2's
// pseudo-code. Each task returns its vertex's return layout (value and/or
// one block of hash partitions per shuffle edge), so a shuffle costs no task
// of its own: consumer shard i reads partition i of each producer shard's
// block for that edge. A pass-through vertex shard fed exactly one object
// launches nothing and forwards that ref as its output.
#ifndef SRC_GRAPH_EXECUTOR_H_
#define SRC_GRAPH_EXECUTOR_H_

#include <map>
#include <vector>

#include "src/format/record_batch.h"
#include "src/graph/physical.h"
#include "src/runtime/runtime.h"

namespace skadi {

struct GraphRunResult {
  // Output refs of every sink vertex, per shard.
  std::map<VertexId, std::vector<ObjectRef>> sink_outputs;
  // Every ref a submitted task returned (values and shuffle partitions),
  // which the driver owns and may release once the run's result is copied
  // out. Refs a pass-through vertex forwarded (table partitions) are not
  // the run's and are not listed.
  std::vector<ObjectRef> produced;
  int64_t tasks_submitted = 0;

  // Convenience: all sink refs flattened.
  std::vector<ObjectRef> AllSinkRefs() const;
};

class GraphExecutor {
 public:
  // How long a run may take to resolve its sinks.
  static constexpr int64_t kRunTimeoutMs = 60000;

  explicit GraphExecutor(SkadiRuntime* runtime) : runtime_(runtime) {}

  // Runs the graph. `source_inputs` binds each source vertex to its input
  // objects (IPC-serialized batches/tensors in the caching layer); the refs
  // are distributed round-robin over the vertex's shards. Returns once every
  // task is *submitted*; callers Wait/Get on the sink refs.
  Result<GraphRunResult> Run(const PhysicalGraph& graph,
                             const std::map<VertexId, std::vector<ObjectRef>>& source_inputs);

  // Runs and blocks until all sink outputs are ready.
  Result<GraphRunResult> RunToCompletion(
      const PhysicalGraph& graph,
      const std::map<VertexId, std::vector<ObjectRef>>& source_inputs,
      int64_t timeout_ms = kRunTimeoutMs);

  // Runs the graph, resolves `sink`'s shards with one GetAll, and returns
  // their deserialized pieces after releasing every object the run's tasks
  // produced. The pieces stay valid: they alias the sink's refcounted
  // buffers. A run or gather that fails releases nothing, since its tasks
  // may still be running or recovering.
  Result<std::vector<RecordBatch>> RunAndGather(
      const PhysicalGraph& graph,
      const std::map<VertexId, std::vector<ObjectRef>>& source_inputs, VertexId sink);

 private:
  SkadiRuntime* runtime_;
};

}  // namespace skadi

#endif  // SRC_GRAPH_EXECUTOR_H_
