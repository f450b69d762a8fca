// Row-at-a-time scalar reference kernels, retained outside the production
// skadi_format library (test/bench support target skadi_compute_reference).
// Same contracts as the vectorized kernels in src/format/compute.h,
// including identical hash-partition assignment; used as parity oracles by
// format_test and as baselines by bench_kernels. Do not use on hot paths.
#ifndef TESTS_SUPPORT_COMPUTE_REFERENCE_H_
#define TESTS_SUPPORT_COMPUTE_REFERENCE_H_

#include <string>
#include <vector>

#include "src/format/compute.h"

namespace skadi {
namespace reference {

Result<RecordBatch> FilterBatch(const RecordBatch& batch, const Expr& predicate);

Result<std::vector<RecordBatch>> HashPartitionBatch(
    const RecordBatch& batch, const std::vector<std::string>& key_columns,
    uint32_t num_partitions);

Result<RecordBatch> GroupAggregateBatch(const RecordBatch& batch,
                                        const std::vector<std::string>& group_by,
                                        const std::vector<AggregateSpec>& aggregates);

Result<RecordBatch> HashJoinBatch(const RecordBatch& left, const RecordBatch& right,
                                  const std::vector<std::string>& left_keys,
                                  const std::vector<std::string>& right_keys);

}  // namespace reference

}  // namespace skadi

#endif  // TESTS_SUPPORT_COMPUTE_REFERENCE_H_
