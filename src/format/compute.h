// Relational compute kernels over RecordBatch. These are the "handcraft ops"
// (Figure 2's cudf/misc op boxes) that FlowGraph vertices and IR lowering
// bind to; they run on host threads while the hw::CostModel charges the
// placed device's modelled time.
//
// The primary kernels are vectorized: inner loops run over raw typed column
// arrays with validity handled outside the loop, and keyed kernels hash raw
// values directly (src/format/row_hash.h) instead of materializing a string
// key per row. Passing ComputeOptions{num_threads > 1} additionally engages
// morsel-driven intra-kernel parallelism (src/common/morsel_pool.h): the row
// range is split into morsels, workers keep thread-local partial state, and
// partials are merged deterministically.
//
// The original row-at-a-time implementations live outside the production
// library, in tests/support/compute_reference.h: the oracle for parity tests
// and the baseline for bench_kernels.
#ifndef SRC_FORMAT_COMPUTE_H_
#define SRC_FORMAT_COMPUTE_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/format/expr.h"
#include "src/format/record_batch.h"

namespace skadi {

// Intra-kernel execution knobs. Defaults reproduce the sequential behavior;
// raylets hand their worker budget down through TaskContext::compute_threads
// and task bodies forward it here.
struct ComputeOptions {
  // Max workers (including the calling thread) a kernel may use.
  int num_threads = 1;
  // Rows per morsel for work-stealing loops.
  int64_t morsel_rows = 64 * 1024;
  // Batches smaller than this stay on the single-threaded path even when
  // num_threads > 1 (fan-out overhead dominates below it).
  int64_t parallel_threshold_rows = 32 * 1024;

  // True when this kernel invocation may engage the morsel pool for `rows`.
  bool ShouldParallelize(int64_t rows) const {
    return num_threads > 1 && rows >= parallel_threshold_rows;
  }
};

// Rows where `predicate` evaluates to true (nulls drop).
Result<RecordBatch> FilterBatch(const RecordBatch& batch, const Expr& predicate,
                                const ComputeOptions& options = {});

struct ProjectionSpec {
  ExprPtr expr;
  std::string name;  // output column name
};

// Computes one output column per projection.
Result<RecordBatch> ProjectBatch(const RecordBatch& batch,
                                 const std::vector<ProjectionSpec>& projections,
                                 const ComputeOptions& options = {});

// Splits rows into `num_partitions` batches by hashing the key columns.
// Deterministic: same inputs always land in the same partition (shuffle
// producers and consumers rely on this), independent of options.num_threads.
Result<std::vector<RecordBatch>> HashPartitionBatch(
    const RecordBatch& batch, const std::vector<std::string>& key_columns,
    uint32_t num_partitions, const ComputeOptions& options = {});

enum class AggKind { kCount, kSum, kMin, kMax, kMean };

std::string_view AggKindName(AggKind kind);

struct AggregateSpec {
  AggKind kind = AggKind::kCount;
  std::string column;  // input column (ignored for kCount)
  std::string name;    // output column name
};

// Hash group-by aggregation. With empty `group_by`, produces one global row.
// Nulls in aggregated columns are skipped; null group keys form their own
// group. Output schema: group columns then one column per aggregate
// (kCount -> int64; kSum -> input type; kMin/kMax -> input type;
// kMean -> float64). Single-threaded runs emit groups in first-occurrence
// order; morsel-parallel runs emit a deterministic chunk-merge order (float
// sums may differ in the last bits from the sequential accumulation order).
Result<RecordBatch> GroupAggregateBatch(const RecordBatch& batch,
                                        const std::vector<std::string>& group_by,
                                        const std::vector<AggregateSpec>& aggregates,
                                        const ComputeOptions& options = {});

struct SortKey {
  std::string column;
  bool ascending = true;
};

// Stable sort by the given keys. Nulls order first ascending, last descending.
Result<RecordBatch> SortBatch(const RecordBatch& batch, const std::vector<SortKey>& keys);

// Inner hash join on equality of the key column pairs. Output columns: all
// left columns, then right columns except its keys; right column names that
// clash with left names get a "_r" suffix. Null keys never match.
Result<RecordBatch> HashJoinBatch(const RecordBatch& left, const RecordBatch& right,
                                  const std::vector<std::string>& left_keys,
                                  const std::vector<std::string>& right_keys,
                                  const ComputeOptions& options = {});

// First `n` rows.
RecordBatch LimitBatch(const RecordBatch& batch, int64_t n);

}  // namespace skadi

#endif  // SRC_FORMAT_COMPUTE_H_
