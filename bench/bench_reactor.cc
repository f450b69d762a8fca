// Reactor benchmark (ISSUE 7 tentpole): the event-driven control plane must
// carry 100k+ concurrent outstanding futures on one node with a bounded
// driver-thread count — the thread-per-wait design it replaces would need
// one parked OS thread per future.
//
//  * BM_ReactorPost: raw ready-queue dispatch throughput (post -> run) on a
//    two-driver pool.
//  * BM_TimerWheel: schedule + fire throughput of the hashed wheel.
//  * BM_OutstandingFutures/N: N futures outstanding at once, resolved
//    through the reactor. Reports tasks_per_sec, p50/p99 resolution latency
//    (post of the resolver -> waiter continuation ran), max_outstanding, and
//    reactor_threads — the acceptance numbers for BENCH_reactor.json.
//  * BM_RuntimeFutures/N: end-to-end — N echo tasks in flight through
//    Submit/GetAsync on a SkadiRuntime, all futures resolved via ownership
//    watchers on the fabric reactor.
//
// SKADI_BENCH_SMOKE=1 shrinks future counts to 4096 (256 end-to-end) and
// runs one iteration per benchmark (tools/check.sh sanitizer smoke).
#include "bench/bench_util.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/common/reactor.h"

namespace skadi {
namespace {

bool SmokeMode() { return std::getenv("SKADI_BENCH_SMOKE") != nullptr; }

constexpr int64_t kMs = 1'000'000;

void BM_ReactorPost(benchmark::State& state) {
  const int n = SmokeMode() ? 4096 : static_cast<int>(state.range(0));
  Reactor reactor("bench-post");
  reactor.Start(2);
  for (auto _ : state) {
    auto remaining = std::make_shared<std::atomic<int>>(n);
    auto done = std::make_shared<Event>();
    for (int i = 0; i < n; ++i) {
      reactor.Post([remaining, done] {
        if (remaining->fetch_sub(1) == 1) {
          done->Set();
        }
      });
    }
    done->BlockingWait();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["tasks_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
  reactor.Shutdown();
}

void BM_TimerWheel(benchmark::State& state) {
  const int n = SmokeMode() ? 4096 : static_cast<int>(state.range(0));
  Reactor reactor("bench-wheel");
  reactor.Start(2);
  for (auto _ : state) {
    auto remaining = std::make_shared<std::atomic<int>>(n);
    auto done = std::make_shared<Event>();
    for (int i = 0; i < n; ++i) {
      // Deadlines spread across ~16ms so every slot carries traffic.
      reactor.ScheduleAfter((i % 16) * kMs, [remaining, done] {
        if (remaining->fetch_sub(1) == 1) {
          done->Set();
        }
      });
    }
    done->BlockingWait();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["timers_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
  reactor.Shutdown();
}

void BM_OutstandingFutures(benchmark::State& state) {
  const int n = SmokeMode() ? 4096 : static_cast<int>(state.range(0));
  constexpr size_t kDrivers = 2;
  Reactor reactor("bench-futures");
  reactor.Start(kDrivers);
  double p50_us = 0;
  double p99_us = 0;
  for (auto _ : state) {
    // Every future is an Event with a registered waiter; all N are
    // outstanding before the first resolver is posted, so the reactor holds
    // N live continuations at peak with only kDrivers threads.
    auto latency_ns = std::make_shared<std::vector<int64_t>>(n, 0);
    auto remaining = std::make_shared<std::atomic<int>>(n);
    auto all_done = std::make_shared<Event>();
    std::vector<std::shared_ptr<Event>> futures;
    futures.reserve(n);
    state.PauseTiming();
    for (int i = 0; i < n; ++i) {
      auto ev = std::make_shared<Event>();
      ev->OnSet([latency_ns, remaining, all_done, i] {
        (*latency_ns)[i] = NowNanos() - (*latency_ns)[i];
        if (remaining->fetch_sub(1) == 1) {
          all_done->Set();
        }
      });
      futures.push_back(std::move(ev));
    }
    state.ResumeTiming();
    for (int i = 0; i < n; ++i) {
      (*latency_ns)[i] = NowNanos();
      auto ev = futures[i];
      reactor.Post([ev] { ev->Set(); });
    }
    all_done->BlockingWait();
    std::sort(latency_ns->begin(), latency_ns->end());
    p50_us = static_cast<double>((*latency_ns)[n / 2]) / 1e3;
    p99_us = static_cast<double>((*latency_ns)[n - 1 - n / 100]) / 1e3;
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["tasks_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
  state.counters["max_outstanding"] = static_cast<double>(n);
  state.counters["reactor_threads"] = static_cast<double>(kDrivers);
  state.counters["p50_resolution_us"] = p50_us;
  state.counters["p99_resolution_us"] = p99_us;
  reactor.Shutdown();
}

void BM_RuntimeFutures(benchmark::State& state) {
  const int n = SmokeMode() ? 256 : static_cast<int>(state.range(0));
  ClusterConfig config;
  config.racks = 1;
  config.servers_per_rack = 4;
  config.workers_per_server = 2;
  auto cluster = Cluster::Create(config);
  FunctionRegistry registry;
  RegisterBenchFunctions(registry);
  SkadiRuntime runtime(cluster.get(), &registry, RuntimeOptions{});
  for (auto _ : state) {
    auto remaining = std::make_shared<std::atomic<int>>(n);
    auto failures = std::make_shared<std::atomic<int>>(0);
    auto all_done = std::make_shared<Event>();
    for (int i = 0; i < n; ++i) {
      TaskSpec spec;
      spec.function = "bench.echo";
      spec.num_returns = 1;
      spec.args.push_back(TaskArg::Value(BenchI64Buffer(i)));
      auto refs = runtime.Submit(std::move(spec));
      if (!refs.ok()) {
        state.SkipWithError(refs.status().ToString().c_str());
        return;
      }
      runtime.GetAsync((*refs)[0], [remaining, failures, all_done](Result<Buffer> r) {
        if (!r.ok()) {
          failures->fetch_add(1);
        }
        if (remaining->fetch_sub(1) == 1) {
          all_done->Set();
        }
      });
    }
    all_done->BlockingWait();
    if (failures->load() != 0) {
      state.SkipWithError("some futures failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["tasks_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
  state.counters["futures_in_flight"] = static_cast<double>(n);
}

BENCHMARK(BM_ReactorPost)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TimerWheel)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OutstandingFutures)
    ->Arg(100000)
    ->Arg(200000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RuntimeFutures)->Arg(4096)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace skadi

BENCHMARK_MAIN();
