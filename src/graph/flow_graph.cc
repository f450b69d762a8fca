#include "src/graph/flow_graph.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "src/ir/passes.h"

namespace skadi {

std::string_view EdgeKindName(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kForward:
      return "forward";
    case EdgeKind::kShuffle:
      return "shuffle";
    case EdgeKind::kBroadcast:
      return "broadcast";
  }
  return "?";
}

VertexId FlowGraph::AddIrVertex(std::string name, std::shared_ptr<IrFunction> ir,
                                OpClass op_class) {
  FlowVertex v;
  v.id = VertexId::Next();
  v.name = std::move(name);
  v.ir = std::move(ir);
  v.op_class = op_class;
  vertices_.push_back(std::move(v));
  return vertices_.back().id;
}

VertexId FlowGraph::AddBuiltinVertex(std::string name, std::string function,
                                     OpClass op_class) {
  FlowVertex v;
  v.id = VertexId::Next();
  v.name = std::move(name);
  v.builtin = std::move(function);
  v.op_class = op_class;
  vertices_.push_back(std::move(v));
  return vertices_.back().id;
}

Status FlowGraph::AddEdge(VertexId src, VertexId dst, EdgeKind kind,
                          std::vector<std::string> keys) {
  if (vertex(src) == nullptr || vertex(dst) == nullptr) {
    return Status::InvalidArgument("edge references unknown vertex");
  }
  if (kind == EdgeKind::kShuffle && keys.empty()) {
    return Status::InvalidArgument("shuffle edge requires hash keys");
  }
  edges_.push_back(FlowEdge{src, dst, kind, std::move(keys)});
  return Status::Ok();
}

void FlowGraph::FoldInto(VertexId producer, VertexId consumer) {
  std::erase_if(vertices_, [&](const FlowVertex& v) { return v.id == consumer; });
  std::erase_if(edges_,
                [&](const FlowEdge& e) { return e.src == producer && e.dst == consumer; });
  for (FlowEdge& e : edges_) {
    if (e.src == consumer) {
      e.src = producer;
    }
  }
}

FlowVertex* FlowGraph::vertex(VertexId id) {
  for (FlowVertex& v : vertices_) {
    if (v.id == id) {
      return &v;
    }
  }
  return nullptr;
}

const FlowVertex* FlowGraph::vertex(VertexId id) const {
  return const_cast<FlowGraph*>(this)->vertex(id);
}

std::vector<FlowEdge> FlowGraph::InEdges(VertexId id) const {
  std::vector<FlowEdge> out;
  for (const FlowEdge& e : edges_) {
    if (e.dst == id) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<FlowEdge> FlowGraph::OutEdges(VertexId id) const {
  std::vector<FlowEdge> out;
  for (const FlowEdge& e : edges_) {
    if (e.src == id) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<VertexId> FlowGraph::Sources() const {
  std::vector<VertexId> out;
  for (const FlowVertex& v : vertices_) {
    if (InEdges(v.id).empty()) {
      out.push_back(v.id);
    }
  }
  return out;
}

std::vector<VertexId> FlowGraph::Sinks() const {
  std::vector<VertexId> out;
  for (const FlowVertex& v : vertices_) {
    if (OutEdges(v.id).empty()) {
      out.push_back(v.id);
    }
  }
  return out;
}

Result<std::vector<VertexId>> FlowGraph::TopoOrder() const {
  std::map<VertexId, int> in_degree;
  for (const FlowVertex& v : vertices_) {
    in_degree[v.id] = 0;
  }
  for (const FlowEdge& e : edges_) {
    in_degree[e.dst] += 1;
  }
  std::vector<VertexId> frontier;
  for (const auto& [id, deg] : in_degree) {
    if (deg == 0) {
      frontier.push_back(id);
    }
  }
  std::vector<VertexId> order;
  while (!frontier.empty()) {
    VertexId v = frontier.back();
    frontier.pop_back();
    order.push_back(v);
    for (const FlowEdge& e : edges_) {
      if (e.src == v && --in_degree[e.dst] == 0) {
        frontier.push_back(e.dst);
      }
    }
  }
  if (order.size() != vertices_.size()) {
    return Status::FailedPrecondition("flow graph has a cycle");
  }
  return order;
}

Status FlowGraph::Validate() const {
  for (const FlowVertex& v : vertices_) {
    bool has_ir = v.ir != nullptr;
    bool has_builtin = !v.builtin.empty();
    if (has_ir == has_builtin) {
      return Status::InvalidArgument("vertex '" + v.name +
                                     "' must have exactly one computation");
    }
    if (has_ir) {
      SKADI_RETURN_IF_ERROR(v.ir->Verify());
    }
  }
  for (const FlowEdge& e : edges_) {
    if (vertex(e.src) == nullptr || vertex(e.dst) == nullptr) {
      return Status::InvalidArgument("edge references unknown vertex");
    }
    if (e.kind == EdgeKind::kShuffle && e.keys.empty()) {
      return Status::InvalidArgument("shuffle edge without keys");
    }
  }
  return TopoOrder().status();
}

std::string FlowGraph::ToString() const {
  std::ostringstream os;
  os << "FlowGraph{\n";
  for (const FlowVertex& v : vertices_) {
    os << "  " << v.id << " '" << v.name << "' "
       << (v.is_ir() ? "ir:" + std::to_string(v.ir->num_ops()) + "ops"
                     : "builtin:" + v.builtin);
    if (v.parallelism_hint > 0) {
      os << " x" << v.parallelism_hint;
    }
    os << "\n";
  }
  for (const FlowEdge& e : edges_) {
    os << "  " << e.src << " -> " << e.dst << " [" << EdgeKindName(e.kind);
    for (const std::string& k : e.keys) {
      os << " " << k;
    }
    os << "]\n";
  }
  os << "}";
  return os.str();
}

Result<int> OptimizeFlowGraph(FlowGraph& graph) {
  SKADI_RETURN_IF_ERROR(graph.Validate());
  int merged_count = 0;

  bool changed = true;
  while (changed) {
    changed = false;
    for (const FlowVertex& src_snapshot : graph.vertices()) {
      VertexId src = src_snapshot.id;
      const FlowVertex* sv = graph.vertex(src);
      if (sv == nullptr || !sv->is_ir()) {
        continue;
      }
      auto out = graph.OutEdges(src);
      if (out.size() != 1 || out[0].kind != EdgeKind::kForward) {
        continue;
      }
      VertexId dst = out[0].dst;
      const FlowVertex* dv = graph.vertex(dst);
      if (dv == nullptr || !dv->is_ir()) {
        continue;
      }
      // dst must have the forward edge from src as its ONLY input, and the
      // two IR functions must compose (single producer return, one consumer
      // param).
      if (graph.InEdges(dst).size() != 1 || dv->ir->params().size() != 1 ||
          sv->ir->returns().size() != 1) {
        continue;
      }
      // Parallelism hints must agree (or be unset).
      if (sv->parallelism_hint != 0 && dv->parallelism_hint != 0 &&
          sv->parallelism_hint != dv->parallelism_hint) {
        continue;
      }
      auto composed = IrFunction::Compose(*sv->ir, *dv->ir, 0);
      if (!composed.ok()) {
        continue;
      }
      auto merged_ir = std::make_shared<IrFunction>(std::move(composed).value());
      SKADI_RETURN_IF_ERROR(PassManager::StandardPipeline().Run(*merged_ir));

      // src becomes the merged vertex; a hint unset on src comes from dst.
      FlowVertex* merged = graph.vertex(src);
      merged->name = sv->name + "+" + dv->name;
      merged->ir = std::move(merged_ir);
      if (merged->op_class == OpClass::kGeneric) {
        merged->op_class = dv->op_class;
      }
      if (merged->parallelism_hint == 0) {
        merged->parallelism_hint = dv->parallelism_hint;
      }
      if (!merged->backend_hint.has_value()) {
        merged->backend_hint = dv->backend_hint;
      }
      if (merged->compute_threads_hint == 0) {
        merged->compute_threads_hint = dv->compute_threads_hint;
      }
      graph.FoldInto(src, dst);
      ++merged_count;
      changed = true;
      break;
    }
  }
  return merged_count;
}

}  // namespace skadi
