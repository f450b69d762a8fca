#include "src/graph/physical.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <variant>

#include "src/format/serde.h"
#include "src/hw/cost_model.h"
#include "src/ir/dialects.h"
#include "src/ir/interp.h"
#include "src/ir/passes.h"

namespace skadi {

namespace {

// Task argument layout for vertex shards: args[0] is a header listing the
// group size per vertex input; the remaining args are the grouped buffers in
// order. Groups with several buffers are concatenated (tables only).
Buffer MakeGroupHeader(const std::vector<uint32_t>& group_sizes) {
  BufferBuilder b;
  b.AppendU32(static_cast<uint32_t>(group_sizes.size()));
  for (uint32_t size : group_sizes) {
    b.AppendU32(size);
  }
  return b.Finish();
}

Result<std::vector<std::vector<Buffer>>> SplitGroups(std::vector<Buffer>& args) {
  if (args.empty()) {
    return Status::InvalidArgument("vertex task needs a group header argument");
  }
  BufferReader header(args[0]);
  uint32_t num_groups = header.ReadU32();
  std::vector<std::vector<Buffer>> groups(num_groups);
  size_t cursor = 1;
  for (uint32_t g = 0; g < num_groups; ++g) {
    uint32_t size = header.ReadU32();
    for (uint32_t i = 0; i < size; ++i) {
      if (cursor >= args.size()) {
        return Status::InvalidArgument("vertex task argument underflow");
      }
      groups[g].push_back(args[cursor++]);
    }
  }
  return groups;
}

// Merges a group into one value buffer: single buffers pass through
// (zero-copy — the handle aliases the producer's sealed buffer end to end);
// multi-buffer groups must be IPC batches and are concatenated. The
// deserialize side is itself zero-copy, so the concat reads column views
// straight out of the wire buffers and only the merged result is new bytes.
Result<Buffer> MergeGroup(std::vector<Buffer>& group) {
  if (group.empty()) {
    return Status::InvalidArgument("empty input group");
  }
  if (group.size() == 1) {
    return group[0];
  }
  std::vector<RecordBatch> batches;
  batches.reserve(group.size());
  for (const Buffer& buffer : group) {
    SKADI_ASSIGN_OR_RETURN(RecordBatch batch, DeserializeBatchIpc(buffer));
    batches.push_back(std::move(batch));
  }
  SKADI_ASSIGN_OR_RETURN(RecordBatch merged, ConcatBatches(batches));
  return SerializeBatchIpc(merged);
}

Result<IrRuntimeValue> DecodeIrValue(const Buffer& buffer, IrTypeKind kind) {
  switch (kind) {
    case IrTypeKind::kTable: {
      SKADI_ASSIGN_OR_RETURN(RecordBatch batch, DeserializeBatchIpc(buffer));
      return IrRuntimeValue(std::move(batch));
    }
    case IrTypeKind::kTensor: {
      SKADI_ASSIGN_OR_RETURN(Tensor tensor, DeserializeTensor(buffer));
      return IrRuntimeValue(std::move(tensor));
    }
    case IrTypeKind::kScalar: {
      BufferReader r(buffer);
      return IrRuntimeValue(r.ReadF64());
    }
  }
  return Status::Internal("unknown IR type kind");
}

Buffer EncodeIrValue(const IrRuntimeValue& value) {
  if (const RecordBatch* batch = std::get_if<RecordBatch>(&value)) {
    return SerializeBatchIpc(*batch);
  }
  if (const Tensor* tensor = std::get_if<Tensor>(&value)) {
    return SerializeTensor(*tensor);
  }
  BufferBuilder b;
  b.AppendF64(std::get<double>(value));
  return b.Finish();
}

// The value one shard computed, in the form its wrapper holds it: IR
// vertices have the interpreter's runtime value, builtins the encoded
// buffer their function returned.
using ShardValue = std::variant<IrRuntimeValue, Buffer>;

// Builds one shard's return list in `layout` order. Each form of the value
// is derived from the other only when the layout needs it: a shuffle-only
// IR vertex never encodes its value, a value-only builtin never decodes it.
Result<std::vector<Buffer>> LayoutReturns(const ReturnLayout& layout, const ShardValue& value,
                                          int compute_threads) {
  const IrRuntimeValue* decoded = std::get_if<IrRuntimeValue>(&value);
  std::vector<Buffer> out;
  out.reserve(static_cast<size_t>(layout.num_returns()));
  if (layout.value) {
    out.push_back(decoded != nullptr ? EncodeIrValue(*decoded) : std::get<Buffer>(value));
  }
  if (layout.shuffles.empty()) {
    return out;
  }
  RecordBatch wire_batch;
  const RecordBatch* batch = &wire_batch;
  if (decoded != nullptr) {
    batch = std::get_if<RecordBatch>(decoded);
    if (batch == nullptr) {
      return Status::InvalidArgument("only table values can be shuffled");
    }
  } else {
    SKADI_ASSIGN_OR_RETURN(wire_batch, DeserializeBatchIpc(std::get<Buffer>(value)));
  }
  ComputeOptions copts;
  copts.num_threads = compute_threads;
  for (const ShuffleBlock& block : layout.shuffles) {
    SKADI_ASSIGN_OR_RETURN(
        std::vector<RecordBatch> parts,
        HashPartitionBatch(*batch, block.keys, static_cast<uint32_t>(block.parts), copts));
    for (const RecordBatch& part : parts) {
      out.push_back(SerializeBatchIpc(part));
    }
  }
  return out;
}

}  // namespace

int ReturnLayout::num_returns() const {
  int n = value ? 1 : 0;
  for (const ShuffleBlock& block : shuffles) {
    n += block.parts;
  }
  return n;
}

std::string ReturnLayout::ToString() const {
  std::ostringstream os;
  const char* sep = "";
  if (value) {
    os << "value";
    sep = ", ";
  }
  for (const ShuffleBlock& block : shuffles) {
    os << sep << "shuffle[";
    for (size_t i = 0; i < block.keys.size(); ++i) {
      os << (i > 0 ? "," : "") << block.keys[i];
    }
    os << "] " << block.parts << " parts";
    sep = ", ";
  }
  return os.str();
}

const PhysicalVertexPlan* PhysicalGraph::plan(VertexId id) const {
  for (const PhysicalVertexPlan& v : vertices) {
    if (v.logical == id) {
      return &v;
    }
  }
  return nullptr;
}

std::vector<PhysicalEdgePlan> PhysicalGraph::InEdges(VertexId id) const {
  std::vector<PhysicalEdgePlan> out;
  for (const PhysicalEdgePlan& e : edges) {
    if (e.dst == id) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<VertexId> PhysicalGraph::Sources() const {
  std::vector<VertexId> out;
  for (const PhysicalVertexPlan& v : vertices) {
    if (InEdges(v.logical).empty()) {
      out.push_back(v.logical);
    }
  }
  return out;
}

std::vector<VertexId> PhysicalGraph::Sinks() const {
  std::vector<VertexId> out;
  for (const PhysicalVertexPlan& v : vertices) {
    bool has_out = false;
    for (const PhysicalEdgePlan& e : edges) {
      if (e.src == v.logical) {
        has_out = true;
        break;
      }
    }
    if (!has_out) {
      out.push_back(v.logical);
    }
  }
  return out;
}

std::string PhysicalGraph::ToString() const {
  std::ostringstream os;
  os << "PhysicalGraph{\n";
  for (const PhysicalVertexPlan& v : vertices) {
    os << "  " << v.logical << " '" << v.name << "' x" << v.parallelism;
    if (v.backend.has_value()) {
      os << " on " << DeviceKindName(*v.backend);
    }
    if (v.pass_through) {
      os << " pass-through";
    }
    os << " -> " << v.returns.ToString() << "\n";
  }
  for (const PhysicalEdgePlan& e : edges) {
    os << "  " << e.src << " -> " << e.dst << " [" << EdgeKindName(e.kind) << "]\n";
  }
  os << "}";
  return os.str();
}

Result<PhysicalGraph> LowerToPhysical(const FlowGraph& graph, const LoweringOptions& options,
                                      const FunctionRegistry* registry) {
  SKADI_RETURN_IF_ERROR(graph.Validate());
  if (options.default_parallelism < 1) {
    return Status::InvalidArgument("default_parallelism must be >= 1");
  }
  if (options.available_backends.empty()) {
    return Status::InvalidArgument("no available backends");
  }

  SKADI_ASSIGN_OR_RETURN(std::vector<VertexId> order, graph.TopoOrder());
  auto parallelism_of = [&](VertexId id) {
    const int hint = graph.vertex(id)->parallelism_hint;
    return hint > 0 ? hint : options.default_parallelism;
  };

  PhysicalGraph physical;

  // Return layouts first, since every task body captures its vertex's.
  // A vertex returns its value when something reads it whole (it is a sink
  // or feeds a forward/broadcast edge); each shuffle edge appends a block.
  std::map<VertexId, ReturnLayout> layouts;
  for (VertexId vid : order) {
    const std::vector<FlowEdge> out = graph.OutEdges(vid);
    const bool read_whole = std::any_of(out.begin(), out.end(), [](const FlowEdge& e) {
      return e.kind != EdgeKind::kShuffle;
    });
    layouts[vid].value = out.empty() || read_whole;
  }
  for (const FlowEdge& e : graph.edges()) {
    PhysicalEdgePlan edge;
    edge.src = e.src;
    edge.dst = e.dst;
    edge.kind = e.kind;
    edge.keys = e.keys;
    if (e.kind == EdgeKind::kShuffle) {
      ReturnLayout& layout = layouts[e.src];
      edge.src_return = layout.num_returns();
      layout.shuffles.push_back(ShuffleBlock{e.keys, parallelism_of(e.dst)});
    }
    physical.edges.push_back(std::move(edge));
  }

  for (VertexId vid : order) {
    const FlowVertex* vertex = graph.vertex(vid);
    PhysicalVertexPlan plan;
    plan.logical = vid;
    plan.name = vertex->name;
    plan.parallelism = parallelism_of(vid);
    plan.op_class = vertex->op_class;
    plan.returns = layouts[vid];
    const ReturnLayout layout = plan.returns;
    // Vertex hint wins; otherwise the raylet's worker budget flows into the
    // kernels' morsel parallelism.
    const int threads_hint = vertex->compute_threads_hint;

    if (vertex->is_ir()) {
      std::shared_ptr<IrFunction> ir = vertex->ir;
      plan.num_inputs = static_cast<int>(ir->params().size());
      if (options.run_ir_passes) {
        SKADI_RETURN_IF_ERROR(PassManager::StandardPipeline().Run(*ir));
      }
      plan.pass_through = ir->ops().empty() && ir->params().size() == 1 &&
                          ir->returns() == ir->params() && layout.shuffles.empty() &&
                          !graph.OutEdges(vid).empty();

      // Backend: hint wins; otherwise cheapest candidate for the dominant
      // (first) op class of the function.
      if (vertex->backend_hint.has_value()) {
        plan.backend = vertex->backend_hint;
      } else {
        OpClass op_class =
            ir->ops().empty() ? vertex->op_class : OpClassOf(ir->ops()[0].opcode);
        DeviceKind best = options.available_backends[0];
        int64_t best_cost = std::numeric_limits<int64_t>::max();
        for (DeviceKind kind : options.available_backends) {
          DeviceSpec spec;
          switch (kind) {
            case DeviceKind::kCpu:
              spec = MakeCpuDevice("low-cpu");
              break;
            case DeviceKind::kGpu:
              spec = MakeGpuDevice("low-gpu");
              break;
            case DeviceKind::kFpga:
              spec = MakeFpgaDevice("low-fpga");
              break;
            case DeviceKind::kDpu:
              spec = MakeDpuDevice("low-dpu");
              break;
            case DeviceKind::kMemoryBlade:
              continue;
          }
          int64_t cost = CostModel::EstimateNanos(spec, op_class, options.assumed_bytes);
          if (cost < best_cost) {
            best_cost = cost;
            best = kind;
          }
        }
        plan.backend = best;
      }

      plan.body = std::make_shared<const TaskFunction>(
          [ir, threads_hint, layout](TaskContext& ctx, std::vector<Buffer>& args)
              -> Result<std::vector<Buffer>> {
            SKADI_ASSIGN_OR_RETURN(auto groups, SplitGroups(args));
            if (groups.size() != ir->params().size()) {
              return Status::InvalidArgument(
                  "vertex '" + ir->name() + "' expects " +
                  std::to_string(ir->params().size()) + " inputs, got " +
                  std::to_string(groups.size()));
            }
            std::vector<IrRuntimeValue> values;
            values.reserve(groups.size());
            for (size_t i = 0; i < groups.size(); ++i) {
              SKADI_ASSIGN_OR_RETURN(Buffer merged, MergeGroup(groups[i]));
              SKADI_ASSIGN_OR_RETURN(IrType type, ir->TypeOf(ir->params()[i]));
              SKADI_ASSIGN_OR_RETURN(IrRuntimeValue value, DecodeIrValue(merged, type.kind));
              values.push_back(std::move(value));
            }
            IrEvalOptions eval_options;
            eval_options.compute.num_threads =
                threads_hint > 0 ? threads_hint : ctx.compute_threads;
            SKADI_ASSIGN_OR_RETURN(
                auto outputs,
                EvalIrFunction(*ir, std::move(values), nullptr, eval_options));
            if (outputs.empty()) {
              return Status::Internal("vertex '" + ir->name() + "' produced no outputs");
            }
            return LayoutReturns(layout, std::move(outputs[0]),
                                 eval_options.compute.num_threads);
          });
    } else {
      // Builtin vertex: delegate to the registered handcrafted op, after the
      // same group-merge step so fan-in edges behave identically.
      std::string builtin = vertex->builtin;
      Result<std::shared_ptr<const TaskFunction>> found = registry->Lookup(builtin);
      if (!found.ok()) {
        return Status::NotFound("builtin op '" + builtin + "' of vertex '" + vertex->name +
                                "' not registered");
      }
      std::shared_ptr<const TaskFunction> fn = std::move(found).value();
      plan.backend = vertex->backend_hint;
      plan.body = std::make_shared<const TaskFunction>(
          [builtin, fn, threads_hint, layout](TaskContext& ctx, std::vector<Buffer>& args)
              -> Result<std::vector<Buffer>> {
            SKADI_ASSIGN_OR_RETURN(auto groups, SplitGroups(args));
            std::vector<Buffer> merged;
            merged.reserve(groups.size());
            for (auto& group : groups) {
              SKADI_ASSIGN_OR_RETURN(Buffer m, MergeGroup(group));
              merged.push_back(std::move(m));
            }
            SKADI_ASSIGN_OR_RETURN(std::vector<Buffer> produced, (*fn)(ctx, merged));
            if (produced.size() != 1) {
              return Status::Internal("builtin op '" + builtin + "' returned " +
                                      std::to_string(produced.size()) +
                                      " values, expected 1");
            }
            return LayoutReturns(layout, std::move(produced[0]),
                                 threads_hint > 0 ? threads_hint : ctx.compute_threads);
          });
    }
    physical.vertices.push_back(std::move(plan));
  }

  return physical;
}

// Exposed for the executor: header construction shares the layout above.
Buffer MakeVertexArgHeader(const std::vector<uint32_t>& group_sizes) {
  return MakeGroupHeader(group_sizes);
}

}  // namespace skadi
