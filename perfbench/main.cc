// skadi_perfbench: one closed-loop workload against warm Skadi instances.
//
//   skadi_perfbench --workload sql_short|sql_scan|stream_ingest --seed N
//                   --seconds S --trace 0|1 [--tiny]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced epochs (the reference rate for the tracing overhead)
// with traced ones, then adds the direct planning and format-kernel timings;
// it prints the per-layer metrics. The last stdout line is the JSON result;
// a context line precedes it.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/common/clock.h"
#include "src/common/metric_names.h"
#include "src/common/trace.h"

namespace perfbench {
namespace {

namespace names = skadi::names;
using skadi::NowNanos;

// Events one thread may record between two trace snapshots. The rings hold
// 8192 per thread; rounds are sized to stay at a quarter of that.
constexpr size_t kRingSlots = 8192;
constexpr size_t kRoundEventTarget = kRingSlots / 4;
// Stops a run early if the process grows past this, whatever the op cap.
constexpr int64_t kRssHardCapBytes = 4LL << 30;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

int64_t RssBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size = 0;
  int64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t rank = std::min(values.size() - 1,
                               static_cast<size_t>(q * static_cast<double>(values.size())));
  return values[rank];
}

// Latency percentiles robust to a transient disturbance of the host: the
// median, over blocks of consecutive epochs holding at least kBlockSamples
// operations, of each block's percentile. kBlockSamples leaves ten samples
// beyond the 99th percentile of every block.
class LatencyBlocks {
 public:
  static constexpr size_t kBlockSamples = 1000;

  void AddEpoch(const std::vector<double>& latencies_us) {
    if (blocks_.empty() || blocks_.back().size() >= kBlockSamples) {
      blocks_.emplace_back();
    }
    blocks_.back().insert(blocks_.back().end(), latencies_us.begin(), latencies_us.end());
  }

  double At(double q) const {
    std::vector<double> per_block;
    for (const std::vector<double>& block : Merged()) {
      per_block.push_back(Percentile(block, q));
    }
    return Median(per_block);
  }

  size_t size() const { return Merged().size(); }

 private:
  // The blocks, with a short last one folded into its predecessor.
  std::vector<std::vector<double>> Merged() const {
    std::vector<std::vector<double>> blocks = blocks_;
    if (blocks.size() > 1 && blocks.back().size() < kBlockSamples) {
      std::vector<double>& previous = blocks[blocks.size() - 2];
      previous.insert(previous.end(), blocks.back().begin(), blocks.back().end());
      blocks.pop_back();
    }
    return blocks;
  }

  std::vector<std::vector<double>> blocks_;
};

// Waits (up to a second) until every submitted task has completed and been
// counted as dispatched. Skadi::Sql returns as soon as its sink objects are
// ready, a moment before the producing tasks bump their counters, so counter
// deltas are only exact between quiesced points.
void Quiesce(skadi::MetricsRegistry& registry) {
  const skadi::Counter& submitted = registry.GetCounter(names::kRuntimeTasksSubmitted);
  const skadi::Counter& completed = registry.GetCounter(names::kRuntimeTasksCompleted);
  const skadi::Counter& dispatched = registry.GetCounter(names::kSchedulerDispatched);
  for (int waited_ms = 0; waited_ms < 1000; ++waited_ms) {
    const int64_t n = submitted.value();
    if (completed.value() == n && dispatched.value() == n) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

struct LoopResult {
  std::vector<double> latencies_us;
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0;
  std::string first_error;
  bool rss_capped = false;
  bool ring_wrapped = false;

  double ops_per_s() const {
    return wall_s > 0 ? static_cast<double>(latencies_us.size()) / wall_s : 0.0;
  }

  void Merge(const LoopResult& other) {
    latencies_us.insert(latencies_us.end(), other.latencies_us.begin(),
                        other.latencies_us.end());
    attempted += other.attempted;
    failed += other.failed;
    wall_s += other.wall_s;
    rss_capped = rss_capped || other.rss_capped;
    ring_wrapped = ring_wrapped || other.ring_wrapped;
    if (first_error.empty()) {
      first_error = other.first_error;
    }
  }
};

// Closed loop: every client issues its next operation when the previous one
// returns, until `seconds` pass or `max_ops` operations were issued. With
// `spans`, each operation runs under a bench root span and the clients meet
// at a barrier every few operations, where the trace rings are drained into
// `spans` and reset; time spent draining is excluded from wall_s.
LoopResult RunLoop(Workload& workload, double seconds, int64_t max_ops,
                   int64_t first_index, SpanStats* spans) {
  const int clients = workload.config().clients;
  const int64_t deadline = NowNanos() + static_cast<int64_t>(seconds * 1e9);
  std::atomic<int64_t> issued{0};
  std::atomic<bool> stop{false};
  // Decided once per round, at the barrier, so every client leaves after the
  // same round: a client reading `stop` late must not leave the others
  // waiting at the next barrier.
  bool done = false;
  std::vector<LoopResult> per_client(static_cast<size_t>(clients));
  LoopResult total;
  int64_t round_ops = spans != nullptr ? 4 : max_ops;
  int64_t wall_nanos = 0;
  int64_t round_start = NowNanos();
  skadi::MetricsRegistry& registry = workload.skadi().runtime().metrics();
  const skadi::Counter& completed = registry.GetCounter(names::kRuntimeTasksCompleted);
  const skadi::Counter& dispatched = registry.GetCounter(names::kSchedulerDispatched);
  int64_t completed_mark = completed.value();
  int64_t dispatched_mark = dispatched.value();

  auto end_round = [&]() noexcept {
    wall_nanos += NowNanos() - round_start;
    if (spans != nullptr) {
      // A task's raylet.run_task and scheduler.dispatch spans close just
      // after its counters move; wait until the round's spans all landed.
      Quiesce(registry);
      std::vector<skadi::trace::TraceEvent> events;
      for (int64_t waited_ms = 0;; ++waited_ms) {
        events = skadi::trace::Snapshot();
        int64_t run_tasks = 0;
        int64_t dispatches = 0;
        for (const skadi::trace::TraceEvent& e : events) {
          run_tasks += e.name == names::kSpanRayletRunTask ? 1 : 0;
          dispatches += e.name == names::kSpanSchedulerDispatch ? 1 : 0;
        }
        if ((run_tasks >= completed.value() - completed_mark &&
             dispatches >= dispatched.value() - dispatched_mark) ||
            waited_ms >= 200) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      completed_mark = completed.value();
      dispatched_mark = dispatched.value();
      skadi::trace::Reset();
      const size_t busiest = spans->Add(events);
      if (busiest >= kRingSlots) {
        total.ring_wrapped = true;
      }
      if (busiest > 0) {
        round_ops = std::clamp<int64_t>(
            round_ops * static_cast<int64_t>(kRoundEventTarget) /
                static_cast<int64_t>(busiest),
            1, 1024);
      }
    }
    done = stop.load();
    round_start = NowNanos();
  };
  std::barrier sync(clients, end_round);

  auto client = [&](int c) {
    LoopResult& mine = per_client[static_cast<size_t>(c)];
    int64_t index = first_index;
    for (;;) {
      for (int64_t k = 0; k < round_ops && !stop.load(); ++k) {
        if (NowNanos() >= deadline || issued.fetch_add(1) >= max_ops) {
          stop = true;
          break;
        }
        const int64_t start = NowNanos();
        OpResult result;
        if (spans != nullptr) {
          skadi::trace::TraceSpan root(kRootSpan);
          result = workload.RunOp(c, index++);
        } else {
          result = workload.RunOp(c, index++);
        }
        mine.latencies_us.push_back(static_cast<double>(NowNanos() - start) / 1e3);
        ++mine.attempted;
        if (!result.ok) {
          ++mine.failed;
          if (mine.first_error.empty()) {
            mine.first_error = result.error;
          }
        }
        if (c == 0 && mine.attempted % 256 == 0 && RssBytes() > kRssHardCapBytes) {
          mine.rss_capped = true;
          stop = true;
        }
      }
      sync.arrive_and_wait();
      if (done) {
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(client, c);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const LoopResult& r : per_client) {
    total.Merge(r);
  }
  total.wall_s = static_cast<double>(wall_nanos) / 1e9;
  return total;
}

double StoreUsedMb(skadi::Skadi& skadi) {
  int64_t used = 0;
  for (const skadi::ClusterNode& node : skadi.cluster().nodes()) {
    if (node.store != nullptr) {
      used += node.store->used_bytes();
    }
  }
  return static_cast<double>(used) / (1024.0 * 1024.0);
}

// Ordered "name": {"value": v, "unit": u} pairs.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::ostringstream os;
    os.precision(12);
    os << "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "\"" << entries_[i].name
         << "\": {\"value\": " << entries_[i].value << ", \"unit\": \"" << entries_[i].unit
         << "\"}";
    }
    os << "}";
    return os.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
    }
    out += (ch == '\n' || ch == '\t') ? ' ' : ch;
  }
  return out + "\"";
}

// What the traced epochs add up.
struct TracedTotals {
  SpanStats spans;
  CounterSnapshot deltas;
  std::vector<double> dispatch_p99_ns;
  std::vector<double> store_used_mb;
};

void AddLayerMetrics(Workload& workload, const LoopResult& untraced, const LoopResult& traced,
                     const TracedTotals& t, int reps, MetricList& metrics,
                     std::vector<std::string>& problems) {
  const SpanStats& spans = t.spans;
  const double ops = static_cast<double>(std::max<size_t>(1, traced.latencies_us.size()));
  auto per_op = [&](const char* counter) {
    return static_cast<double>(t.deltas.Get(counter)) / ops;
  };
  auto span_us = [&](const char* name) { return spans.total_us(name) / ops; };
  auto self_us = [&](const char* name) { return spans.self_us(name) / ops; };

  // Every task runs once and is dispatched once: the spans must match the
  // counters exactly, or a ring dropped events.
  const int64_t tasks = t.deltas.Get(names::kRuntimeTasksCompleted);
  const int64_t dispatched = t.deltas.Get(names::kSchedulerDispatched);
  if (traced.ring_wrapped) {
    problems.push_back("a trace ring wrapped between snapshots");
  }
  if (spans.count(names::kSpanRayletRunTask) != tasks) {
    problems.push_back("raylet.run_task spans " +
                       std::to_string(spans.count(names::kSpanRayletRunTask)) +
                       " != runtime.tasks_completed " + std::to_string(tasks));
  }
  if (spans.count(names::kSpanSchedulerDispatch) != dispatched) {
    problems.push_back("scheduler.dispatch spans " +
                       std::to_string(spans.count(names::kSpanSchedulerDispatch)) +
                       " != scheduler.dispatched " + std::to_string(dispatched));
  }
  if (spans.roots() != static_cast<int64_t>(traced.latencies_us.size())) {
    problems.push_back("root spans " + std::to_string(spans.roots()) + " != operations " +
                       std::to_string(traced.latencies_us.size()));
  }

  skadi::Result<PlanTimings> plan = TimePlanning(workload, reps * 10);
  skadi::Result<FormatTimings> format = TimeFormat(workload, reps);
  if (!plan.ok() || !format.ok()) {
    problems.push_back("direct layer timing failed: " +
                       (plan.ok() ? format.status() : plan.status()).ToString());
  }
  const PlanTimings p = plan.ok() ? *plan : PlanTimings{};
  const FormatTimings f = format.ok() ? *format : FormatTimings{};
  const double local_hits = per_op(names::kCacheLocalHits);
  const double remote = per_op(names::kCacheRemoteFetches);

  metrics.Add("access.sql_parse_us", p.parse_us, "us");
  metrics.Add("access.sql_plan_us", p.plan_us, "us");
  metrics.Add("graph.optimize_us", p.optimize_us, "us");
  metrics.Add("graph.lower_us", p.lower_us, "us");
  metrics.Add("graph.tasks_per_op", p.tasks_per_op, "count");
  metrics.Add("runtime.submit_us", span_us(names::kSpanRuntimeSubmit), "us");
  metrics.Add("runtime.complete_task_us", span_us(names::kSpanRuntimeCompleteTask), "us");
  metrics.Add("runtime.resolve_arg_us", span_us(names::kSpanRuntimeResolveArg), "us");
  metrics.Add("runtime.get_us", span_us(names::kSpanRuntimeGet), "us");
  metrics.Add("runtime.scheduler.dispatch_us", span_us(names::kSpanSchedulerDispatch), "us");
  metrics.Add("runtime.raylet.run_task_self_us", self_us(names::kSpanRayletRunTask), "us");
  metrics.Add("runtime.tasks_per_op", static_cast<double>(tasks) / ops, "count");
  metrics.Add("runtime.control_hops_per_op", per_op(names::kRuntimeControlHops), "count");
  metrics.Add("runtime.scheduler.steals_per_op", per_op(names::kSchedulerStealCount), "count");
  metrics.Add("runtime.raylet.compute_us", span_us(names::kSpanRayletCompute), "us");
  metrics.Add("ownership.watcher_fires_per_op", per_op(names::kOwnershipWatcherFires),
              "count");
  metrics.Add("ownership.shard_lock_waits_per_op", per_op(names::kOwnershipShardLockWaits),
              "count");
  metrics.Add("cache.get_self_us", self_us(names::kSpanCacheGet), "us");
  metrics.Add("cache.remote_fetches_per_op", remote, "count");
  metrics.Add("cache.local_hit_ratio",
              local_hits + remote > 0 ? local_hits / (local_hits + remote) : 0.0, "ratio");
  metrics.Add("net.fabric.call_self_us", self_us(names::kSpanFabricCall), "us");
  metrics.Add("net.fabric.control_messages_per_op", per_op(names::kFabricControlMessages),
              "count");
  metrics.Add("net.fabric.data_bytes_per_op", per_op(names::kFabricDataBytes), "bytes");
  metrics.Add("net.fabric.reactor_dispatch_p99_ns", Median(t.dispatch_p99_ns), "ns");
  metrics.Add("objectstore.used_mb_end", Median(t.store_used_mb), "MB");
  metrics.Add("format.group_by_ms", f.group_by_ms, "ms");
  metrics.Add("format.hash_join_ms", f.hash_join_ms, "ms");
  metrics.Add("format.ipc_serialize_us", f.ipc_serialize_us, "us");
  metrics.Add("format.ipc_deserialize_us", f.ipc_deserialize_us, "us");
  metrics.Add("hw.modelled_us_per_op", static_cast<double>(t.deltas.modelled_nanos) / 1e3 / ops,
              "us");
  const double base = untraced.ops_per_s();
  metrics.Add("trace.overhead_pct", base > 0 ? 100.0 * (base - traced.ops_per_s()) / base : 0.0,
              "%");
  metrics.Add("trace.attributed_pct", spans.attributed_pct(), "%");
}

// A run is a sequence of epochs. Each epoch sets up a fresh instance (timed:
// setup_s), then measures it warm for at most max_ops operations, so the
// memory nothing releases yet stays bounded; the next Setup frees it. After
// the first epoch, which warms the process, the epochs measure until
// `seconds` of operations are pooled; with --trace 1 they alternate untraced
// and traced, half the time each.
int Run(const Args& args) {
  WorkloadConfig config;
  if (!MakeConfig(args.workload, args.tiny, &config)) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  // Input generation and reference answers: bench-side, not set-up time.
  std::unique_ptr<Workload> workload = MakeWorkload(config, args.seed);
  constexpr size_t kMinSetups = 3;
  const double target_s = args.trace ? args.seconds / 2 : args.seconds;

  std::vector<double> setup_s;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;
  LoopResult first_epoch;
  LoopResult untraced;
  LoopResult traced;
  LatencyBlocks latency;
  std::vector<double> epoch_rates;
  TracedTotals totals;
  double rss_kb_per_op = 0;
  double store_used_mb = 0;
  int epochs = 0;

  for (int epoch = 0;; ++epoch) {
    // The first epoch warms the process: its instance grows into memory
    // fresh from the OS, which later instances reuse, so it runs slower. It
    // gives rss_kb_per_op and is otherwise left out.
    const bool first = epoch == 0;
    bool trace_epoch = !first && args.trace && epoch % 2 == 0;
    if (!first && args.trace && (trace_epoch ? traced : untraced).wall_s >= target_s) {
      trace_epoch = !trace_epoch;
    }
    LoopResult& pool = trace_epoch ? traced : untraced;
    const bool measure = first || pool.wall_s < target_s;
    if (!measure && setup_s.size() >= kMinSetups) {
      break;
    }
    workload->Teardown();  // freeing the last instance is not set-up time
    const int64_t start = NowNanos();
    skadi::Status st = workload->Setup();
    setup_s.push_back(static_cast<double>(NowNanos() - start) / 1e9);
    if (!st.ok()) {
      std::cerr << "set-up failed: " << st.ToString() << "\n";
      return 1;
    }
    attempted += workload->warmup_attempted();
    failed += workload->warmup_failed();
    if (!measure) {
      continue;  // set-up only: every run times at least kMinSetups
    }
    ++epochs;

    skadi::Skadi& skadi = workload->skadi();
    skadi::Histogram& dispatch_hist =
        skadi.runtime().metrics().GetHistogram(names::kFabricReactorDispatchNanos);
    CounterSnapshot before;
    if (trace_epoch) {
      Quiesce(skadi.runtime().metrics());
      dispatch_hist.Reset();
      before = CounterSnapshot::Take(skadi);
      skadi::trace::Reset();
      skadi::trace::SetEnabled(true);
    }
    const int64_t rss_before = RssBytes();
    LoopResult r = RunLoop(*workload, target_s - (first ? 0.0 : pool.wall_s), config.max_ops,
                           config.warmup_ops, trace_epoch ? &totals.spans : nullptr);
    if (first) {
      rss_kb_per_op = static_cast<double>(RssBytes() - rss_before) / 1024.0 /
                      static_cast<double>(std::max<size_t>(1, r.latencies_us.size()));
    }
    if (trace_epoch) {
      skadi::trace::SetEnabled(false);
      totals.deltas.AddDelta(before, CounterSnapshot::Take(skadi));
      totals.dispatch_p99_ns.push_back(static_cast<double>(dispatch_hist.QuantileNanos(0.99)));
      totals.store_used_mb.push_back(StoreUsedMb(skadi));
    }
    store_used_mb = std::max(store_used_mb, StoreUsedMb(skadi));
    if (first) {
      first_epoch.Merge(r);
    } else {
      if (!trace_epoch) {
        latency.AddEpoch(r.latencies_us);
        epoch_rates.push_back(r.ops_per_s());
      }
      pool.Merge(r);
    }
  }

  MetricList metrics;
  const LoopResult& measured = untraced;
  // Printed in the context line, not gated: on a shared host p99 spreads
  // from run to run by more than any bound the gate allows.
  MetricList ungated;
  if (!args.trace) {
    // Medians over epochs and blocks, so a stall of the shared host during
    // part of the run does not move them.
    metrics.Add("ops_per_s", Median(epoch_rates), "1/s");
    metrics.Add("latency_p50_us", latency.At(0.50), "us");
    metrics.Add("latency_p90_us", latency.At(0.90), "us");
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("rss_kb_per_op", rss_kb_per_op, "KB");
    ungated.Add("latency_p99_us", latency.At(0.99), "us");
  } else {
    AddLayerMetrics(*workload, untraced, traced, totals, args.tiny ? 3 : 21, metrics, problems);
  }
  workload->Teardown();

  for (const LoopResult* r : {&first_epoch, &untraced, &traced}) {
    attempted += r->attempted;
    failed += r->failed;
    if (!r->first_error.empty()) {
      problems.push_back(r->first_error);
    }
    if (r->rss_capped) {
      problems.push_back("an epoch stopped early at the RSS cap");
    }
  }

  std::ostringstream ctx;
  ctx.precision(12);
  const char* commit = std::getenv("PERFBENCH_GIT_COMMIT");
  ctx << "{\"context\": {\"workload\": " << JsonString(config.name)
      << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
      << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"tiny\": " << (args.tiny ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << JsonString(std::string("gcc ") + __VERSION__)
      << ", \"git_commit\": " << JsonString(commit != nullptr ? commit : "unknown")
      << ", \"cluster\": {\"racks\": 1, \"servers\": " << config.servers
      << ", \"workers_per_server\": " << config.workers_per_server
      << ", \"dop\": " << config.dop
      << ", \"server_store_mb\": " << config.server_store_bytes / (1024 * 1024) << "}"
      << ", \"loop\": \"closed\", \"clients\": " << config.clients
      << ", \"rows\": " << config.rows << ", \"keys\": " << config.keys
      << ", \"dim_rows\": " << (config.rows > 0 ? config.dim_rows : 0)
      << ", \"batch_rows\": " << config.batch_rows
      << ", \"partitions\": " << (config.batch_rows > 0 ? config.partitions : 0)
      << ", \"warmup_ops_per_client\": " << config.warmup_ops
      << ", \"epoch_max_ops\": " << config.max_ops << ", \"epochs\": " << epochs
      << ", \"setups\": " << setup_s.size()
      << ", \"latency_samples\": " << measured.latencies_us.size()
      << ", \"latency_blocks\": " << latency.size()
      << ", \"measured_s\": " << measured.wall_s
      << ", \"traced_ops\": " << traced.latencies_us.size()
      << ", \"traced_s\": " << traced.wall_s
      << ", \"store_used_mb_max\": " << store_used_mb << ", \"store_capacity_mb\": "
      << static_cast<double>(config.servers) * static_cast<double>(config.server_store_bytes) /
             (1024.0 * 1024.0)
      << ", \"error_rate\": "
      << (attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0)
      << ", \"ungated\": " << ungated.Json() << ", \"problems\": [";
  for (size_t i = 0; i < problems.size(); ++i) {
    ctx << (i == 0 ? "" : ", ") << JsonString(problems[i]);
  }
  ctx << "]}}";
  std::cout << ctx.str() << "\n";

  const bool correct = problems.empty() && failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics.Json() << "}" << std::endl;
  return correct ? 0 : 1;
}
}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: skadi_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny]\n";
    return 2;
  }
  return perfbench::Run(args);
}
