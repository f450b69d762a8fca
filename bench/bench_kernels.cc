// Experiment K (data-plane kernels).
//
// Claim: the vectorized kernel rewrite (typed key hashing instead of per-row
// string keys, raw-array inner loops, bulk gathers) and morsel-driven
// intra-task parallelism speed up the hot relational kernels without
// changing results (see tests/format/compute_parity_test.cc for the
// equivalence side).
//
// Workload: filter / group-by / hash-join / hash-partition over synthetic
// key-value batches, 100k..4M rows, each in three modes:
//   mode 0  scalar reference (skadi::reference, the pre-rewrite row-at-a-time
//           implementations with one heap string key per row)
//   mode 1  vectorized, single thread (ComputeOptions default)
//   mode 2  vectorized + morsel parallel, 4 threads
// Counters: rows_per_sec (throughput), key_allocs_avoided (deterministic:
// per-row key strings the reference would have materialized).
//
// SKADI_BENCH_SMOKE=1 shrinks every size to 64k rows and runs one iteration
// per benchmark — used by tools/check.sh so the sanitizer matrix exercises
// the morsel pool without paying full benchmark time.
#include <cstdlib>
#include <map>
#include <utility>

#include "bench/bench_util.h"
#include "src/format/compute.h"
#include "tests/support/compute_reference.h"

namespace skadi {
namespace {

bool SmokeMode() { return std::getenv("SKADI_BENCH_SMOKE") != nullptr; }

constexpr int64_t kGroupCardinality = 1000;
constexpr int64_t kPartitionCardinality = 100000;
constexpr uint32_t kNumPartitions = 16;

// Mode 2's thread budget; the global morsel pool has >= 4 helper threads.
ComputeOptions MorselOptions() {
  ComputeOptions options;
  options.num_threads = 4;
  return options;
}

// Input batches are deterministic in (rows, cardinality) and reused across
// benchmarks; registration and runs are single-threaded.
const RecordBatch& KeyValueBatch(int64_t rows, int64_t cardinality) {
  static std::map<std::pair<int64_t, int64_t>, RecordBatch> cache;
  auto key = std::make_pair(rows, cardinality);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, MakeKeyValueBatch(rows, cardinality, /*seed=*/42)).first;
  }
  return it->second;
}

// Dimension-table build side for the join: one row per key in [0, card).
const RecordBatch& DimBatch(int64_t cardinality) {
  static std::map<int64_t, RecordBatch> cache;
  auto it = cache.find(cardinality);
  if (it == cache.end()) {
    ColumnBuilder keys(DataType::kInt64);
    ColumnBuilder attrs(DataType::kFloat64);
    for (int64_t k = 0; k < cardinality; ++k) {
      keys.AppendInt64(k);
      attrs.AppendFloat64(static_cast<double>(k) * 0.5);
    }
    Schema schema({{"key", DataType::kInt64}, {"dim_value", DataType::kFloat64}});
    auto batch = RecordBatch::Make(schema, {keys.Finish(), attrs.Finish()});
    it = cache.emplace(cardinality, std::move(batch).value()).first;
  }
  return it->second;
}

// Registers rows x mode for one kernel. In smoke mode: one 64k size (above
// the parallel threshold, so mode 2 really runs on the pool) and one
// iteration.
void KernelArgs(benchmark::internal::Benchmark* b, std::initializer_list<int64_t> sizes) {
  if (SmokeMode()) {
    for (int64_t mode = 0; mode <= 2; ++mode) {
      b->Args({64 * 1024, mode});
    }
    b->Iterations(1);
  } else {
    for (int64_t rows : sizes) {
      for (int64_t mode = 0; mode <= 2; ++mode) {
        b->Args({rows, mode});
      }
    }
  }
  b->ArgNames({"rows", "mode"});
  b->Unit(benchmark::kMillisecond);
}

void SetKernelCounters(benchmark::State& state, int64_t rows, int64_t allocs_avoided) {
  state.counters["rows_per_sec"] =
      benchmark::Counter(static_cast<double>(rows), benchmark::Counter::kIsIterationInvariantRate);
  // Key strings the scalar reference allocates that the typed paths do not
  // (modes 1/2); deterministic, independent of machine speed.
  state.counters["key_allocs_avoided"] =
      static_cast<double>(state.range(1) == 0 ? 0 : allocs_avoided);
}

void BM_KernelFilter(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int mode = static_cast<int>(state.range(1));
  const RecordBatch& batch = KeyValueBatch(rows, kGroupCardinality);
  // ~50% selectivity.
  ExprPtr pred = Expr::Binary(BinaryOp::kLt, Expr::Col("value"), Expr::Float(50.0));
  for (auto _ : state) {
    auto out = mode == 0 ? reference::FilterBatch(batch, *pred)
               : mode == 1
                   ? FilterBatch(batch, *pred)
                   : FilterBatch(batch, *pred, MorselOptions());
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out->num_rows());
  }
  SetKernelCounters(state, rows, /*allocs_avoided=*/0);
}
BENCHMARK(BM_KernelFilter)->Apply([](benchmark::internal::Benchmark* b) {
  KernelArgs(b, {100000, 1000000, 4000000});
});

void BM_KernelGroupBy(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int mode = static_cast<int>(state.range(1));
  const RecordBatch& batch = KeyValueBatch(rows, kGroupCardinality);
  const std::vector<std::string> keys = {"key"};
  const std::vector<AggregateSpec> aggs = {{AggKind::kCount, "", "n"},
                                           {AggKind::kSum, "value", "total"},
                                           {AggKind::kMin, "value", "lo"}};
  for (auto _ : state) {
    auto out = mode == 0 ? reference::GroupAggregateBatch(batch, keys, aggs)
               : mode == 1
                   ? GroupAggregateBatch(batch, keys, aggs)
                   : GroupAggregateBatch(batch, keys, aggs, MorselOptions());
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out->num_rows());
  }
  SetKernelCounters(state, rows, /*allocs_avoided=*/rows);
}
BENCHMARK(BM_KernelGroupBy)->Apply([](benchmark::internal::Benchmark* b) {
  KernelArgs(b, {100000, 2000000});
});

void BM_KernelJoin(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int mode = static_cast<int>(state.range(1));
  const RecordBatch& left = KeyValueBatch(rows, kGroupCardinality);
  const RecordBatch& right = DimBatch(kGroupCardinality);
  const std::vector<std::string> keys = {"key"};
  for (auto _ : state) {
    auto out = mode == 0 ? reference::HashJoinBatch(left, right, keys, keys)
               : mode == 1
                   ? HashJoinBatch(left, right, keys, keys)
                   : HashJoinBatch(left, right, keys, keys, MorselOptions());
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out->num_rows());
  }
  SetKernelCounters(state, rows, /*allocs_avoided=*/rows + kGroupCardinality);
}
BENCHMARK(BM_KernelJoin)->Apply([](benchmark::internal::Benchmark* b) {
  KernelArgs(b, {100000, 1000000});
});

void BM_KernelPartition(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int mode = static_cast<int>(state.range(1));
  const RecordBatch& batch = KeyValueBatch(rows, kPartitionCardinality);
  const std::vector<std::string> keys = {"key"};
  for (auto _ : state) {
    auto out = mode == 0 ? reference::HashPartitionBatch(batch, keys, kNumPartitions)
               : mode == 1
                   ? HashPartitionBatch(batch, keys, kNumPartitions)
                   : HashPartitionBatch(batch, keys, kNumPartitions, MorselOptions());
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out->size());
  }
  SetKernelCounters(state, rows, /*allocs_avoided=*/rows);
}
BENCHMARK(BM_KernelPartition)->Apply([](benchmark::internal::Benchmark* b) {
  KernelArgs(b, {100000, 2000000, 4000000});
});

}  // namespace
}  // namespace skadi

BENCHMARK_MAIN();
