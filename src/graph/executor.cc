#include "src/graph/executor.h"

#include <algorithm>

#include "src/format/serde.h"

namespace skadi {

std::vector<ObjectRef> GraphRunResult::AllSinkRefs() const {
  std::vector<ObjectRef> out;
  for (const auto& [vid, refs] : sink_outputs) {
    out.insert(out.end(), refs.begin(), refs.end());
  }
  return out;
}

Result<GraphRunResult> GraphExecutor::Run(
    const PhysicalGraph& graph,
    const std::map<VertexId, std::vector<ObjectRef>>& source_inputs) {
  GraphRunResult result;

  // (vertex) -> per-shard return refs, in the vertex's return layout.
  std::map<VertexId, std::vector<std::vector<ObjectRef>>> returns;

  for (const PhysicalVertexPlan& plan : graph.vertices) {
    const int dop = plan.parallelism;
    std::vector<PhysicalEdgePlan> in_edges = graph.InEdges(plan.logical);
    std::vector<std::vector<ObjectRef>>& shard_returns = returns[plan.logical];
    shard_returns.reserve(static_cast<size_t>(dop));

    for (int shard = 0; shard < dop; ++shard) {
      std::vector<uint32_t> group_sizes;
      std::vector<ObjectRef> inputs;

      if (in_edges.empty()) {
        // Source vertex: bound inputs, distributed round-robin over shards.
        auto it = source_inputs.find(plan.logical);
        if (it == source_inputs.end() || it->second.empty()) {
          return Status::InvalidArgument("source vertex '" + plan.name +
                                         "' has no bound inputs");
        }
        const std::vector<ObjectRef>& refs = it->second;
        if (plan.num_inputs > 1) {
          // Multi-input source (e.g. a tensor op over several operands):
          // exactly one bound ref per logical input, every shard sees all.
          if (static_cast<int>(refs.size()) != plan.num_inputs) {
            return Status::InvalidArgument(
                "source vertex '" + plan.name + "' has " +
                std::to_string(plan.num_inputs) + " inputs but " +
                std::to_string(refs.size()) + " bound refs");
          }
          for (const ObjectRef& ref : refs) {
            inputs.push_back(ref);
            group_sizes.push_back(1);
          }
        } else {
          if (refs.size() == 1) {
            inputs.push_back(refs[0]);
          } else {
            for (size_t i = 0; i < refs.size(); ++i) {
              if (static_cast<int>(i % static_cast<size_t>(dop)) == shard) {
                inputs.push_back(refs[i]);
              }
            }
          }
          if (inputs.empty()) {
            return Status::InvalidArgument("source vertex '" + plan.name + "' shard " +
                                           std::to_string(shard) + " received no input");
          }
          group_sizes.push_back(static_cast<uint32_t>(inputs.size()));
        }
      } else {
        for (const PhysicalEdgePlan& edge : in_edges) {
          const std::vector<std::vector<ObjectRef>>& src = returns.at(edge.src);
          const size_t at = static_cast<size_t>(edge.src_return);
          switch (edge.kind) {
            case EdgeKind::kForward: {
              if (src.size() == 1) {
                inputs.push_back(src[0][at]);
              } else if (static_cast<int>(src.size()) == dop) {
                inputs.push_back(src[static_cast<size_t>(shard)][at]);
              } else {
                return Status::InvalidArgument(
                    "forward edge parallelism mismatch into '" + plan.name + "': " +
                    std::to_string(src.size()) + " vs " + std::to_string(dop));
              }
              group_sizes.push_back(1);
              break;
            }
            case EdgeKind::kBroadcast: {
              for (const std::vector<ObjectRef>& src_shard : src) {
                inputs.push_back(src_shard[at]);
              }
              group_sizes.push_back(static_cast<uint32_t>(src.size()));
              break;
            }
            case EdgeKind::kShuffle: {
              // This shard's partition out of every producer shard's block.
              for (const std::vector<ObjectRef>& src_shard : src) {
                inputs.push_back(src_shard[at + static_cast<size_t>(shard)]);
              }
              group_sizes.push_back(static_cast<uint32_t>(src.size()));
              break;
            }
          }
        }
      }

      if (plan.pass_through && inputs.size() == 1) {
        // An identity over one object is that object: forward the ref.
        shard_returns.push_back({inputs[0]});
        continue;
      }

      TaskSpec spec;
      spec.function = plan.name;
      spec.body = plan.body;
      spec.args.push_back(TaskArg::Value(MakeVertexArgHeader(group_sizes)));
      for (const ObjectRef& ref : inputs) {
        spec.args.push_back(TaskArg::Ref(ref));
      }
      spec.num_returns = plan.returns.num_returns();
      spec.op_class = plan.op_class;
      spec.required_device = plan.backend;
      SKADI_ASSIGN_OR_RETURN(std::vector<ObjectRef> refs, runtime_->Submit(std::move(spec)));
      result.produced.insert(result.produced.end(), refs.begin(), refs.end());
      shard_returns.push_back(std::move(refs));
      ++result.tasks_submitted;
    }
  }

  // A sink's layout is its value alone.
  for (VertexId sink : graph.Sinks()) {
    std::vector<ObjectRef>& refs = result.sink_outputs[sink];
    for (const std::vector<ObjectRef>& shard : returns.at(sink)) {
      refs.push_back(shard[0]);
    }
  }
  return result;
}

Result<GraphRunResult> GraphExecutor::RunToCompletion(
    const PhysicalGraph& graph,
    const std::map<VertexId, std::vector<ObjectRef>>& source_inputs, int64_t timeout_ms) {
  SKADI_ASSIGN_OR_RETURN(GraphRunResult result, Run(graph, source_inputs));
  SKADI_RETURN_IF_ERROR(runtime_->Wait(result.AllSinkRefs(), timeout_ms));
  return result;
}

Result<std::vector<RecordBatch>> GraphExecutor::RunAndGather(
    const PhysicalGraph& graph,
    const std::map<VertexId, std::vector<ObjectRef>>& source_inputs, VertexId sink) {
  const std::vector<VertexId> sinks = graph.Sinks();
  if (std::find(sinks.begin(), sinks.end(), sink) == sinks.end()) {
    return Status::InvalidArgument("output vertex is not a sink");
  }
  SKADI_ASSIGN_OR_RETURN(GraphRunResult run, Run(graph, source_inputs));
  // Resolve every shard concurrently (one reactor-driven GetOp each), which
  // is also the run's only wait.
  SKADI_ASSIGN_OR_RETURN(std::vector<Buffer> buffers,
                         runtime_->GetAll(run.sink_outputs.at(sink), kRunTimeoutMs));
  std::vector<RecordBatch> pieces;
  pieces.reserve(buffers.size());
  for (const Buffer& buffer : buffers) {
    SKADI_ASSIGN_OR_RETURN(RecordBatch piece, DeserializeBatchIpc(buffer));
    pieces.push_back(std::move(piece));
  }
  // The run's intermediates (shuffle partitions, partial aggregates, the
  // sink itself) have no reader left.
  for (const ObjectRef& ref : run.produced) {
    (void)runtime_->Release(ref);
  }
  return pieces;
}

}  // namespace skadi
