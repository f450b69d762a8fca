// Workloads of the end-to-end benchmark. Each drives one warm Skadi instance
// in a closed loop: a client issues its next operation only after the
// previous one returned. Inputs come from the seed; the reference answers are
// computed in the benchmark process with the format kernels, and every operation's
// output is checked against them.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/access/streaming.h"
#include "src/core/skadi.h"

namespace perfbench {

// Sizes and limits of one workload. `max_ops` bounds the operations measured
// on one instance so the process stays far below the stores' capacity:
// nothing is released yet, so every operation leaves its objects and lineage
// behind until the instance is torn down.
struct WorkloadConfig {
  std::string name;
  int clients = 1;
  int servers = 2;
  int workers_per_server = 1;
  int dop = 2;
  // SQL: fact-table rows and distinct keys, dimension rows.
  int64_t rows = 0;
  int64_t keys = 0;
  int64_t dim_rows = 256;
  // Stream: rows per micro-batch, state partitions, snapshot period, and
  // distinct pre-generated batches cycled through.
  int64_t batch_rows = 0;
  int partitions = 4;
  int snapshot_every = 20;
  int batch_pool = 16;
  // Warm-up operations per client, part of the timed set-up.
  int warmup_ops = 0;
  int64_t max_ops = 0;
  int64_t server_store_bytes = 4LL * 1024 * 1024 * 1024;
};

// Known names: sql_short, sql_scan, stream_ingest. `tiny` shrinks the sizes
// for the self-test. Returns false for an unknown name.
bool MakeConfig(const std::string& name, bool tiny, WorkloadConfig* config);

// Group -> (row count, value sum): the shape of every checked result.
using GroupTotals = std::map<int64_t, std::pair<int64_t, double>>;

// Compares `got` with `want`: same groups, equal counts, sums within a
// relative 1e-9. Fills `why` on mismatch.
bool SameTotals(const GroupTotals& want, const GroupTotals& got, std::string* why);

// Reads (group column, count column, sum column) of a result batch.
skadi::Result<GroupTotals> ReadTotals(const skadi::RecordBatch& batch,
                                      const std::string& group, const std::string& count,
                                      const std::string& sum);

// One operation's outcome.
struct OpResult {
  bool ok = false;
  std::string error;  // first failure, for the log
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Starts a fresh instance, loads it, and runs the warm-up. Timed as
  // set-up; a previous instance is torn down first.
  virtual skadi::Status Setup() = 0;
  // Drops the instance.
  virtual void Teardown() = 0;
  // Runs operation `index` for `client` on the warm instance.
  virtual OpResult RunOp(int client, int64_t index) = 0;

  // Warm-up outcomes recorded by the last Setup.
  int64_t warmup_attempted() const { return warmup_attempted_; }
  int64_t warmup_failed() const { return warmup_failed_; }

  skadi::Skadi& skadi() { return *skadi_; }
  const WorkloadConfig& config() const { return config_; }

  // SQL text of each query shape (empty for the stream).
  virtual std::vector<std::string> Queries() const { return {}; }
  // The workload's own data for the direct format-kernel timings: a fact
  // batch, a 256-row dimension batch, and a 5k-row batch for serde.
  virtual const skadi::RecordBatch& Facts() const = 0;
  virtual const skadi::RecordBatch& Dims() const = 0;
  virtual const skadi::RecordBatch& SerdeBatch() const = 0;

 protected:
  explicit Workload(WorkloadConfig config) : config_(std::move(config)) {}

  skadi::Status StartInstance();
  // Runs warmup_ops operations per client, sequentially.
  void WarmUp();

  WorkloadConfig config_;
  std::unique_ptr<skadi::Skadi> skadi_;
  int64_t warmup_attempted_ = 0;
  int64_t warmup_failed_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const WorkloadConfig& config, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
