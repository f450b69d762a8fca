// Shared helpers for the experiment harness. Each bench binary reproduces
// one row of DESIGN.md's experiment index; deterministic quantities (bytes,
// messages, control hops, modelled nanos) are exposed as benchmark counters
// so runs are comparable across machines.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/format/serde.h"
#include "src/runtime/runtime.h"

namespace skadi {

// Records the CMAKE_BUILD_TYPE this binary was compiled with as
// "skadi_build_type" in google-benchmark's JSON context (the context's own
// "library_build_type" describes the installed benchmark library).
inline const bool kBuildTypeStamped = [] {
  benchmark::AddCustomContext("skadi_build_type", SKADI_BUILD_TYPE);
  return true;
}();

inline Buffer BenchI64Buffer(int64_t v) {
  BufferBuilder b;
  b.AppendI64(v);
  return b.Finish();
}

// Registers the small op set the runtime benches use.
inline void RegisterBenchFunctions(FunctionRegistry& registry) {
  (void)registry.Register("bench.echo", [](TaskContext&, std::vector<Buffer>& args)
                                      -> Result<std::vector<Buffer>> {
    return std::vector<Buffer>{args.empty() ? Buffer() : args[0]};
  });
  (void)registry.Register("bench.passthrough_sized",
                    [](TaskContext&, std::vector<Buffer>& args)
                        -> Result<std::vector<Buffer>> {
                      // Emits a buffer the same size as the input (stage
                      // output of the pipeline benches).
                      size_t size = args.empty() ? 0 : args[0].size();
                      return std::vector<Buffer>{Buffer::Zeros(size)};
                    });
}

// A fresh random batch: (key int64 in [0, cardinality), value float64).
inline RecordBatch MakeKeyValueBatch(int64_t rows, int64_t cardinality, uint64_t seed) {
  Rng rng(seed);
  ColumnBuilder keys(DataType::kInt64);
  ColumnBuilder values(DataType::kFloat64);
  for (int64_t i = 0; i < rows; ++i) {
    keys.AppendInt64(static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(cardinality))));
    values.AppendFloat64(rng.NextDouble() * 100.0);
  }
  Schema schema({{"key", DataType::kInt64}, {"value", DataType::kFloat64}});
  auto batch = RecordBatch::Make(schema, {keys.Finish(), values.Finish()});
  return std::move(batch).value();
}

}  // namespace skadi

#endif  // BENCH_BENCH_UTIL_H_
