// Tracing overhead bench (ISSUE 8 acceptance): the distributed-tracing
// plane must cost <= 5% throughput on the bench_reactor dispatch workload
// when enabled, and be free-to-a-rounding-error when disabled.
//
//  * BM_SpanSite/enabled:{0,1}: raw cost of one TraceSpan site — disabled
//    (one relaxed atomic load) vs enabled+sampled (two clock reads plus a
//    ring-slot write).
//  * BM_InstantSite/enabled:{0,1}: same for Instant markers.
//  * BM_ReactorPostTraced/traced:{0,1}: BM_ReactorPost from bench_reactor
//    verbatim (n posts through a two-driver pool, countdown to an Event),
//    run inside a traced flow — measures the context-carry tax the reactor
//    pays on EVERY dispatch when tracing is on (capture into ReadyEntry,
//    re-install around the continuation), which is the tracing cost the
//    whole runtime inherits.
//  * BM_ReactorDispatchTraced/traced:{0,1}: the same carry tax measured
//    single-threaded (post a batch, drain with PollOnce) so the comparison
//    is deterministic. tools/bench.py --bench trace derives overhead_pct
//    from THIS traced:0 / traced:1 pair; the acceptance bound is <= 5%.
//  * BM_ReactorPostInstrumented/traced:{0,1}: same workload with a span
//    INSIDE every continuation — the densest possible instrumentation
//    (one ring write per ~400ns task). Reported for sizing span placement;
//    not subject to the 5% bound, since span sites are opt-in and their
//    unit cost is BM_SpanSite's number.
//
// SKADI_BENCH_SMOKE=1 shrinks the post count to 4096 and runs one
// iteration per benchmark (tools/check.sh sanitizer smoke).
#include "bench/bench_util.h"

#include <atomic>
#include <cstdlib>
#include <memory>

#include "src/common/event.h"
#include "src/common/reactor.h"
#include "src/common/trace.h"

namespace skadi {
namespace {

bool SmokeMode() { return std::getenv("SKADI_BENCH_SMOKE") != nullptr; }

// The span names live in the bench, not metric_names.h: they label synthetic
// work, and the lint metric-name rule exempts bench/.
constexpr char kBenchSpan[] = "bench.trace.span";
constexpr char kBenchInstant[] = "bench.trace.instant";

void BM_SpanSite(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  trace::SetEnabled(enabled);
  trace::SetSampleEvery(1);
  for (auto _ : state) {
    trace::TraceSpan span(kBenchSpan);
    benchmark::DoNotOptimize(&span);
  }
  trace::SetEnabled(false);
  trace::Reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanSite)->ArgName("enabled")->Arg(0)->Arg(1);

void BM_InstantSite(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  trace::SetEnabled(enabled);
  trace::SetSampleEvery(1);
  // Instants only record inside a sampled trace; hold a root open so the
  // enabled case measures the recording path, not the early-out.
  trace::TraceSpan root(kBenchSpan);
  for (auto _ : state) {
    trace::Instant(kBenchInstant);
  }
  trace::SetEnabled(false);
  trace::Reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InstantSite)->ArgName("enabled")->Arg(0)->Arg(1);

// Shared driver for the two reactor variants: bench_reactor's BM_ReactorPost
// (n posts, countdown, Event), inside a root span when traced so every hop
// carries a live context. `span_in_continuation` adds one span per task.
void RunReactorPostWorkload(benchmark::State& state, bool traced,
                            bool span_in_continuation) {
  const int n = SmokeMode() ? 4096 : 65536;
  trace::SetEnabled(traced);
  trace::SetSampleEvery(1);
  Reactor reactor("bench-trace-post");
  reactor.Start(2);
  for (auto _ : state) {
    trace::TraceSpan root(kBenchSpan);
    auto remaining = std::make_shared<std::atomic<int>>(n);
    auto done = std::make_shared<Event>();
    for (int i = 0; i < n; ++i) {
      if (span_in_continuation) {
        reactor.Post([remaining, done] {
          trace::TraceSpan span(kBenchSpan);
          if (remaining->fetch_sub(1) == 1) {
            done->Set();
          }
        });
      } else {
        reactor.Post([remaining, done] {
          if (remaining->fetch_sub(1) == 1) {
            done->Set();
          }
        });
      }
    }
    done->BlockingWait();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["tasks_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
  reactor.Shutdown();
  trace::SetEnabled(false);
  trace::Reset();
}

void BM_ReactorPostTraced(benchmark::State& state) {
  RunReactorPostWorkload(state, state.range(0) != 0,
                         /*span_in_continuation=*/false);
}
BENCHMARK(BM_ReactorPostTraced)
    ->ArgName("traced")
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime();

void BM_ReactorPostInstrumented(benchmark::State& state) {
  RunReactorPostWorkload(state, state.range(0) != 0,
                         /*span_in_continuation=*/true);
}
BENCHMARK(BM_ReactorPostInstrumented)
    ->ArgName("traced")
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime();

// Single-thread variant: post a batch, drain it with PollOnce on the same
// thread. No driver threads, so no OS-scheduler noise — this isolates the
// per-dispatch context-carry tax deterministically, and is the pair
// tools/bench.py uses for the bounded overhead_pct (the 2-driver variants
// above measure the same thing under real thread handoffs, but on small
// machines their run-to-run variance exceeds the 5% bound being checked).
void BM_ReactorDispatchTraced(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  const int n = SmokeMode() ? 4096 : 65536;
  trace::SetEnabled(traced);
  trace::SetSampleEvery(1);
  Reactor reactor("bench-trace-dispatch");
  int64_t executed = 0;
  for (auto _ : state) {
    trace::TraceSpan root(kBenchSpan);
    for (int i = 0; i < n; ++i) {
      reactor.Post([&executed] { ++executed; });
    }
    while (reactor.PollOnce() > 0) {
    }
  }
  benchmark::DoNotOptimize(executed);
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["tasks_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
  trace::SetEnabled(false);
  trace::Reset();
}
BENCHMARK(BM_ReactorDispatchTraced)->ArgName("traced")->Arg(0)->Arg(1);

}  // namespace
}  // namespace skadi

BENCHMARK_MAIN();
