#include "perfbench/layers.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_map>

#include "src/access/sql_ast.h"
#include "src/common/clock.h"
#include "src/format/compute.h"
#include "src/format/serde.h"
#include "src/graph/physical.h"

namespace perfbench {

using skadi::NowNanos;
using skadi::RecordBatch;
using skadi::Result;
using skadi::Status;
using skadi::trace::TraceEvent;

CounterSnapshot CounterSnapshot::Take(skadi::Skadi& skadi) {
  CounterSnapshot out;
  for (const auto& [name, value] : skadi.runtime().metrics().SnapshotCounters()) {
    out.counters[name] = value;
  }
  out.modelled_nanos = skadi.GetStats().modelled_nanos;
  return out;
}

void CounterSnapshot::AddDelta(const CounterSnapshot& before, const CounterSnapshot& after) {
  for (const auto& [name, value] : after.counters) {
    counters[name] += value - before.Get(name);
  }
  modelled_nanos += after.modelled_nanos - before.modelled_nanos;
}

int64_t CounterSnapshot::Get(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

namespace {

// Length of the union of [start, end) intervals, each clipped to [lo, hi).
int64_t CoveredNanos(std::vector<std::pair<int64_t, int64_t>> intervals, int64_t lo,
                     int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

bool IsSpan(const TraceEvent& e) { return e.phase == 0 && e.name != nullptr; }

}  // namespace

size_t SpanStats::Add(const std::vector<TraceEvent>& events) {
  std::unordered_map<uint32_t, size_t> per_thread;
  std::unordered_map<uint64_t, std::vector<const TraceEvent*>> children;
  std::unordered_map<uint64_t, std::vector<const TraceEvent*>> by_trace;
  for (const TraceEvent& e : events) {
    ++per_thread[e.tid];
    if (!IsSpan(e)) {
      continue;
    }
    children[e.parent_id].push_back(&e);
    by_trace[e.trace_id].push_back(&e);
  }

  for (const TraceEvent& e : events) {
    if (e.name == nullptr) {
      continue;
    }
    PerName& stats = by_name_[e.name];
    ++stats.count;
    if (!IsSpan(e)) {
      continue;
    }
    const int64_t end = e.start_nanos + e.duration_nanos;
    stats.total_nanos += e.duration_nanos;
    std::vector<std::pair<int64_t, int64_t>> kids;
    auto it = children.find(e.span_id);
    if (it != children.end()) {
      for (const TraceEvent* c : it->second) {
        kids.emplace_back(c->start_nanos, c->start_nanos + c->duration_nanos);
      }
    }
    stats.self_nanos += e.duration_nanos - CoveredNanos(std::move(kids), e.start_nanos, end);

    if (std::strcmp(e.name, kRootSpan) == 0) {
      std::vector<std::pair<int64_t, int64_t>> inside;
      for (const TraceEvent* d : by_trace[e.trace_id]) {
        if (d != &e) {
          inside.emplace_back(d->start_nanos, d->start_nanos + d->duration_nanos);
        }
      }
      ++roots_;
      root_nanos_ += e.duration_nanos;
      covered_nanos_ += CoveredNanos(std::move(inside), e.start_nanos, end);
    }
  }

  size_t busiest = 0;
  for (const auto& [tid, n] : per_thread) {
    busiest = std::max(busiest, n);
  }
  return busiest;
}

int64_t SpanStats::count(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.count;
}

double SpanStats::total_us(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? 0.0 : static_cast<double>(it->second.total_nanos) / 1e3;
}

double SpanStats::self_us(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? 0.0 : static_cast<double>(it->second.self_nanos) / 1e3;
}

double SpanStats::attributed_pct() const {
  return root_nanos_ == 0 ? 0.0
                          : 100.0 * static_cast<double>(covered_nanos_) /
                                static_cast<double>(root_nanos_);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  double lower = *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

namespace {

// Tasks GraphExecutor submits for `graph`: one per vertex shard plus one
// shuffle writer per shard of each shuffled source vertex.
int64_t PhysicalTasks(const skadi::PhysicalGraph& graph) {
  int64_t tasks = 0;
  for (const skadi::PhysicalVertexPlan& v : graph.vertices) {
    tasks += v.parallelism;
  }
  std::set<skadi::VertexId> shuffled;
  for (const skadi::PhysicalEdgePlan& e : graph.edges) {
    if (e.kind == skadi::EdgeKind::kShuffle && shuffled.insert(e.src).second) {
      tasks += graph.plan(e.src)->parallelism;
    }
  }
  return tasks;
}

double MicrosSince(int64_t start) { return static_cast<double>(NowNanos() - start) / 1e3; }

}  // namespace

// Repeats the planning steps Skadi::Sql runs, call by call, with the options
// it derives for this cluster: parallelism capped by the table's partition
// count and one intra-op thread per shard when every worker holds a shard.
Result<PlanTimings> TimePlanning(Workload& workload, int reps) {
  PlanTimings out;
  const std::vector<std::string> queries = workload.Queries();
  if (queries.empty()) {
    return out;
  }
  const WorkloadConfig& config = workload.config();
  const int workers = config.servers * config.workers_per_server;
  skadi::SqlPlannerOptions planner;
  planner.parallelism = config.dop;
  planner.intra_op_threads = std::clamp(workers / config.dop, 1, 8);
  skadi::LoweringOptions lowering;
  lowering.default_parallelism = config.dop;
  lowering.available_backends = workload.skadi().AvailableBackends();

  for (const std::string& query : queries) {
    std::vector<double> parse, plan, optimize, lower;
    int64_t tasks = 0;
    for (int r = 0; r < reps; ++r) {
      int64_t t = NowNanos();
      SKADI_ASSIGN_OR_RETURN(skadi::SqlSelect select, skadi::SqlParse(query));
      parse.push_back(MicrosSince(t));
      t = NowNanos();
      SKADI_ASSIGN_OR_RETURN(skadi::SqlPlan sql_plan, skadi::PlanSql(select, planner));
      plan.push_back(MicrosSince(t));
      t = NowNanos();
      SKADI_RETURN_IF_ERROR(skadi::OptimizeFlowGraph(sql_plan.graph).status());
      optimize.push_back(MicrosSince(t));
      // A private registry: lowering registers task functions, which must
      // not pile up in the measured instance.
      skadi::FunctionRegistry registry;
      t = NowNanos();
      SKADI_ASSIGN_OR_RETURN(skadi::PhysicalGraph physical,
                             skadi::LowerToPhysical(sql_plan.graph, lowering, &registry));
      lower.push_back(MicrosSince(t));
      tasks = PhysicalTasks(physical);
    }
    const double n = static_cast<double>(queries.size());
    out.parse_us += Median(parse) / n;
    out.plan_us += Median(plan) / n;
    out.optimize_us += Median(optimize) / n;
    out.lower_us += Median(lower) / n;
    out.tasks_per_op += static_cast<double>(tasks) / n;
  }
  return out;
}

Result<FormatTimings> TimeFormat(const Workload& workload, int reps) {
  const RecordBatch& facts = workload.Facts();
  const RecordBatch& dims = workload.Dims();
  const RecordBatch& serde = workload.SerdeBatch();
  std::vector<double> group_by, join, encode, decode;
  for (int r = 0; r < reps; ++r) {
    int64_t t = NowNanos();
    SKADI_RETURN_IF_ERROR(
        skadi::GroupAggregateBatch(facts, {"key"},
                                   {{skadi::AggKind::kCount, "", "n"},
                                    {skadi::AggKind::kSum, "value", "total"}})
            .status());
    group_by.push_back(MicrosSince(t) / 1e3);
    t = NowNanos();
    SKADI_RETURN_IF_ERROR(skadi::HashJoinBatch(facts, dims, {"key"}, {"key2"}).status());
    join.push_back(MicrosSince(t) / 1e3);
    t = NowNanos();
    skadi::Buffer wire = skadi::SerializeBatchIpc(serde);
    encode.push_back(MicrosSince(t));
    t = NowNanos();
    SKADI_ASSIGN_OR_RETURN(RecordBatch back, skadi::DeserializeBatchIpc(wire));
    decode.push_back(MicrosSince(t));
    if (back.num_rows() != serde.num_rows()) {
      return Status::Internal("serde round trip changed the row count");
    }
  }
  FormatTimings out;
  out.group_by_ms = Median(group_by);
  out.hash_join_ms = Median(join);
  out.ipc_serialize_us = Median(encode);
  out.ipc_deserialize_us = Median(decode);
  return out;
}

}  // namespace perfbench
