// Skadi: the distributed runtime facade — "one runtime to express all of
// their programs" (§2.1). Users register tables and submit domain-specific
// declarations (SQL, MapReduce, ML training, graph analytics); Skadi maps
// each onto a FlowGraph, optimizes it, lowers it to a physical sharded
// graph, and launches it on the stateful serverless runtime. Users never see
// data location, concurrency, disaggregation style, or device selection.
#ifndef SRC_CORE_SKADI_H_
#define SRC_CORE_SKADI_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/access/graph_analytics.h"
#include "src/common/mutex.h"
#include "src/access/mapreduce.h"
#include "src/access/ml.h"
#include "src/access/sql_planner.h"
#include "src/graph/executor.h"
#include "src/graph/physical.h"
#include "src/runtime/runtime.h"

namespace skadi {

struct SkadiOptions {
  ClusterConfig cluster;
  RuntimeOptions runtime;
  // Shard count used by planners and table registration.
  int default_parallelism = 2;
  // Run graph-level optimization (vertex merging + IR fusion) before lowering.
  bool optimize_graph = true;
  // The paper's §2.2 open question — "should we finalize the degree of
  // parallelism during the compilation time, or allow tuning during
  // runtime?" — as a concrete policy: when enabled, SQL plans size their
  // scan/aggregate stages from the actual bytes of the scanned table
  // (one shard per ~adaptive_shard_bytes), instead of the static default.
  bool adaptive_parallelism = false;
  int64_t adaptive_shard_bytes = 8LL * 1024 * 1024;
  // Upper bound for adaptive decisions (keeps small clusters sane).
  int max_parallelism = 16;
};

struct SkadiStats {
  int64_t tasks_submitted = 0;
  int64_t tasks_completed = 0;
  int64_t fabric_bytes = 0;
  int64_t fabric_messages = 0;
  int64_t control_hops = 0;
  int64_t modelled_nanos = 0;  // virtual clock total
};

class Skadi {
 public:
  static Result<std::unique_ptr<Skadi>> Start(SkadiOptions options = {});
  ~Skadi();

  Skadi(const Skadi&) = delete;
  Skadi& operator=(const Skadi&) = delete;

  // --- Data management ---

  // Splits `batch` into `partitions` row ranges (default: the configured
  // parallelism) and spreads them across compute nodes. The user never
  // learns where the partitions went.
  Status RegisterTable(const std::string& name, const RecordBatch& batch,
                       int partitions = 0);

  bool HasTable(const std::string& name) const;
  std::vector<ObjectRef> TablePartitions(const std::string& name) const;

  // --- Declarative entry points (the tiered access layer) ---

  // Runs a SQL SELECT and gathers the result to the driver.
  Result<RecordBatch> Sql(const std::string& query);

  // Shows the tiered lowering of a query without executing it: the logical
  // FlowGraph (after graph-level optimization) and the physical sharded
  // graph with parallelism degrees and chosen backends — Figure 2 as text.
  Result<std::string> Explain(const std::string& query);

  // Runs a MapReduce job over a registered table.
  Result<RecordBatch> MapReduce(const MapReduceJob& job, const std::string& input_table);

  // Trains a linear/logistic model on a registered table: `feature_columns`
  // become X (plus an implicit bias column), `label_column` becomes y.
  Result<MlModel> TrainModel(const std::string& table,
                             const std::vector<std::string>& feature_columns,
                             const std::string& label_column,
                             const MlTrainOptions& options = {});

  // Graph analytics over a registered (src, dst) edge table.
  Result<RecordBatch> PageRank(const std::string& edges_table,
                               const PageRankOptions& options = {});
  Result<RecordBatch> ConnectedComponents(const std::string& edges_table,
                                          const ConnectedComponentsOptions& options = {});

  // Runs a pre-built FlowGraph (escape hatch for custom pipelines).
  Result<std::vector<RecordBatch>> RunFlowGraph(
      FlowGraph graph, const std::map<VertexId, std::vector<ObjectRef>>& source_inputs,
      VertexId output_vertex);

  // --- Introspection ---

  SkadiRuntime& runtime() { return *runtime_; }
  Cluster& cluster() { return *cluster_; }
  FunctionRegistry& registry() { return registry_; }
  CachingLayer& cache() { return cluster_->cache(); }

  // Device kinds with at least one live compute node (lowering candidates).
  std::vector<DeviceKind> AvailableBackends() const;

  SkadiStats GetStats();

 private:
  explicit Skadi(SkadiOptions options);

  struct TableInfo {
    Schema schema;
    std::vector<ObjectRef> partitions;
  };

  // One shard per adaptive_shard_bytes of `bytes`, at most max_parallelism.
  int AdaptiveParallelism(int64_t bytes) const;

  struct PreparedSql {
    SqlPlan plan;
    PhysicalGraph physical;
  };
  // Parse + plan + optimize + lower, shared by Sql and Explain.
  Result<PreparedSql> PrepareSql(const std::string& query);

  SkadiOptions options_;
  std::unique_ptr<Cluster> cluster_;
  FunctionRegistry registry_;
  std::unique_ptr<SkadiRuntime> runtime_;

  mutable Mutex mu_;
  std::map<std::string, TableInfo> tables_ GUARDED_BY(mu_);
};

}  // namespace skadi

#endif  // SRC_CORE_SKADI_H_
