// Per-layer measurement from outside the program: counter deltas from the
// public MetricsRegistry, span statistics from skadi::trace snapshots, and
// direct timings of the access, graph and format layers' public functions.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/trace.h"

namespace perfbench {

// Bench-side root span wrapped around each traced operation; the program's
// own spans nest under it.
inline constexpr char kRootSpan[] = "bench.op";

// Every counter of the registry plus the modelled clock: either their values
// at one instant (Take) or deltas summed over several intervals (AddDelta).
struct CounterSnapshot {
  std::map<std::string, int64_t> counters;
  int64_t modelled_nanos = 0;

  static CounterSnapshot Take(skadi::Skadi& skadi);
  // Adds after - before, counter by counter.
  void AddDelta(const CounterSnapshot& before, const CounterSnapshot& after);
  // One counter (0 when absent).
  int64_t Get(const std::string& name) const;
};

// Span statistics accumulated over many trace snapshots. Each snapshot must
// cover whole operations (quiesced between rounds) and must not have wrapped
// a per-thread ring.
class SpanStats {
 public:
  // Folds one snapshot in. Returns the largest number of events any one
  // thread recorded, so the caller can size its rounds below the ring.
  size_t Add(const std::vector<skadi::trace::TraceEvent>& events);

  int64_t count(const std::string& name) const;
  double total_us(const std::string& name) const;
  // Duration minus the part covered by the span's direct children.
  double self_us(const std::string& name) const;
  // Share of root-span wall time covered by any descendant span, in percent.
  double attributed_pct() const;
  int64_t roots() const { return roots_; }

 private:
  struct PerName {
    int64_t count = 0;
    int64_t total_nanos = 0;
    int64_t self_nanos = 0;
  };
  std::map<std::string, PerName> by_name_;
  int64_t roots_ = 0;
  int64_t root_nanos_ = 0;
  int64_t covered_nanos_ = 0;
};

// Median time of one call to each access- and graph-layer function, over the
// workload's query shapes (all zero for a workload without SQL).
struct PlanTimings {
  double parse_us = 0;
  double plan_us = 0;
  double optimize_us = 0;
  double lower_us = 0;
  double tasks_per_op = 0;  // tasks the lowered graph submits
};
skadi::Result<PlanTimings> TimePlanning(Workload& workload, int reps);

// Median time of the format kernels and serde on the workload's own data.
struct FormatTimings {
  double group_by_ms = 0;
  double hash_join_ms = 0;
  double ipc_serialize_us = 0;
  double ipc_deserialize_us = 0;
};
skadi::Result<FormatTimings> TimeFormat(const Workload& workload, int reps);

// Median of `values` (0 when empty).
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
