#include "perfbench/workloads.h"

#include <cmath>

#include "src/common/random.h"
#include "src/format/compute.h"

namespace perfbench {

using skadi::Column;
using skadi::DataType;
using skadi::RecordBatch;
using skadi::Result;
using skadi::Schema;
using skadi::Status;

bool MakeConfig(const std::string& name, bool tiny, WorkloadConfig* config) {
  WorkloadConfig c;
  c.name = name;
  // The per-instance op caps keep an instance's growth near 0.5-0.8 GB at
  // the measured rates (about 180 KB per sql_short query, 16 MB per sql_scan
  // query, 84 KB per micro-batch): far below 2 x 4 GB of store, so no run
  // ever evicts or spills.
  if (name == "sql_short") {
    c.clients = 2;
    c.rows = tiny ? 2000 : 20000;
    c.keys = tiny ? 16 : 64;
    c.warmup_ops = tiny ? 2 : 50;
    c.max_ops = tiny ? 20 : 3000;
  } else if (name == "sql_scan") {
    c.clients = 1;
    c.rows = tiny ? 20000 : 2000000;
    c.keys = tiny ? 256 : 4096;
    c.warmup_ops = tiny ? 2 : 3;
    c.max_ops = tiny ? 5 : 50;
  } else if (name == "stream_ingest") {
    c.clients = 1;
    c.batch_rows = tiny ? 500 : 5000;
    c.keys = 256;
    c.warmup_ops = tiny ? 2 : 40;
    c.max_ops = tiny ? 20 : 6000;
  } else {
    return false;
  }
  *config = c;
  return true;
}

bool SameTotals(const GroupTotals& want, const GroupTotals& got, std::string* why) {
  if (want.size() != got.size()) {
    *why = "expected " + std::to_string(want.size()) + " groups, got " +
           std::to_string(got.size());
    return false;
  }
  for (const auto& [group, totals] : want) {
    auto it = got.find(group);
    if (it == got.end()) {
      *why = "group " + std::to_string(group) + " missing";
      return false;
    }
    const auto& [count, sum] = it->second;
    const double tolerance =
        1e-9 * std::max({1.0, std::fabs(sum), std::fabs(totals.second)});
    if (count != totals.first || std::fabs(sum - totals.second) > tolerance) {
      *why = "group " + std::to_string(group) + " has (" + std::to_string(count) + ", " +
             std::to_string(sum) + "), expected (" + std::to_string(totals.first) + ", " +
             std::to_string(totals.second) + ")";
      return false;
    }
  }
  return true;
}

Result<GroupTotals> ReadTotals(const RecordBatch& batch, const std::string& group,
                               const std::string& count, const std::string& sum) {
  const Column* g = batch.ColumnByName(group);
  const Column* n = batch.ColumnByName(count);
  const Column* s = batch.ColumnByName(sum);
  if (g == nullptr || n == nullptr || s == nullptr || g->type() != DataType::kInt64 ||
      n->type() != DataType::kInt64 || s->type() != DataType::kFloat64) {
    return Status::InvalidArgument("result schema is " + batch.schema().ToString());
  }
  GroupTotals out;
  for (int64_t r = 0; r < batch.num_rows(); ++r) {
    auto [it, inserted] =
        out.emplace(g->Int64At(r), std::make_pair(n->Int64At(r), s->Float64At(r)));
    if (!inserted) {
      return Status::InvalidArgument("group " + std::to_string(it->first) + " repeated");
    }
  }
  return out;
}

Status Workload::StartInstance() {
  skadi::SkadiOptions options;
  options.cluster.racks = 1;
  options.cluster.servers_per_rack = config_.servers;
  options.cluster.workers_per_server = config_.workers_per_server;
  options.cluster.server_store_bytes = config_.server_store_bytes;
  options.default_parallelism = config_.dop;
  SKADI_ASSIGN_OR_RETURN(skadi_, skadi::Skadi::Start(options));
  return Status::Ok();
}

void Workload::WarmUp() {
  warmup_attempted_ = 0;
  warmup_failed_ = 0;
  for (int c = 0; c < config_.clients; ++c) {
    for (int i = 0; i < config_.warmup_ops; ++i) {
      ++warmup_attempted_;
      if (!RunOp(c, i).ok) {
        ++warmup_failed_;
      }
    }
  }
}

namespace {

// (key int64 in [0, keys), value float64 in [0, 100)).
RecordBatch MakeFacts(int64_t rows, int64_t keys, uint64_t seed) {
  skadi::Rng rng(seed);
  std::vector<int64_t> k(static_cast<size_t>(rows));
  std::vector<double> v(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    k[static_cast<size_t>(i)] = static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(keys)));
    v[static_cast<size_t>(i)] = rng.NextDouble() * 100.0;
  }
  Schema schema({{"key", DataType::kInt64}, {"value", DataType::kFloat64}});
  return RecordBatch::Make(schema, {Column::MakeInt64(std::move(k)),
                                    Column::MakeFloat64(std::move(v))})
      .value();
}

// (key2 = i * stride, grp in [0, 16)): `rows` distinct join keys spread over
// the fact keys.
RecordBatch MakeDims(int64_t rows, int64_t keys, uint64_t seed) {
  skadi::Rng rng(seed);
  const int64_t stride = std::max<int64_t>(1, keys / rows);
  std::vector<int64_t> k(static_cast<size_t>(rows));
  std::vector<int64_t> g(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    k[static_cast<size_t>(i)] = i * stride;
    g[static_cast<size_t>(i)] = static_cast<int64_t>(rng.NextBounded(16));
  }
  Schema schema({{"key2", DataType::kInt64}, {"grp", DataType::kInt64}});
  return RecordBatch::Make(schema, {Column::MakeInt64(std::move(k)),
                                    Column::MakeInt64(std::move(g))})
      .value();
}

// Count and sum of `value` per `group`, with the vectorized kernels.
GroupTotals ReferenceTotals(const RecordBatch& batch, const std::string& group) {
  RecordBatch agg = skadi::GroupAggregateBatch(
                        batch, {group},
                        {{skadi::AggKind::kCount, "", "n"},
                         {skadi::AggKind::kSum, "value", "total"}})
                        .value();
  return ReadTotals(agg, group, "n", "total").value();
}

// A 20k-row or 2M-row fact table and a 256-row dimension table, queried by
// a GROUP BY and by a broadcast JOIN followed by GROUP BY, alternating.
class SqlWorkload : public Workload {
 public:
  SqlWorkload(const WorkloadConfig& config, uint64_t seed)
      : Workload(config),
        facts_(MakeFacts(config.rows, config.keys, seed)),
        dims_(MakeDims(config.dim_rows, config.keys, seed ^ 0x5eed)),
        serde_batch_(facts_.Slice(0, 5000)) {
    expected_[0] = ReferenceTotals(facts_, "key");
    RecordBatch joined =
        skadi::HashJoinBatch(facts_, dims_, {"key"}, {"key2"}).value();
    expected_[1] = ReferenceTotals(joined, "grp");
  }

  Status Setup() override {
    Teardown();
    SKADI_RETURN_IF_ERROR(StartInstance());
    SKADI_RETURN_IF_ERROR(skadi_->RegisterTable("facts", facts_, config_.dop));
    SKADI_RETURN_IF_ERROR(skadi_->RegisterTable("dims", dims_, 1));
    WarmUp();
    return Status::Ok();
  }

  void Teardown() override { skadi_.reset(); }

  OpResult RunOp(int client, int64_t index) override {
    const size_t shape = static_cast<size_t>((client + index) % 2);
    OpResult out;
    Result<RecordBatch> result = skadi_->Sql(kQueries[shape]);
    if (!result.ok()) {
      out.error = result.status().ToString();
      return out;
    }
    Result<GroupTotals> totals = ReadTotals(*result, kGroups[shape], "n", "total");
    if (!totals.ok()) {
      out.error = totals.status().ToString();
      return out;
    }
    out.ok = SameTotals(expected_[shape], *totals, &out.error);
    return out;
  }

  std::vector<std::string> Queries() const override {
    return {kQueries[0], kQueries[1]};
  }
  const RecordBatch& Facts() const override { return facts_; }
  const RecordBatch& Dims() const override { return dims_; }
  const RecordBatch& SerdeBatch() const override { return serde_batch_; }

 private:
  static constexpr const char* kQueries[2] = {
      "SELECT key, COUNT(*) AS n, SUM(value) AS total FROM facts GROUP BY key",
      "SELECT grp, COUNT(*) AS n, SUM(value) AS total FROM facts "
      "JOIN dims ON key = key2 GROUP BY grp"};
  static constexpr const char* kGroups[2] = {"key", "grp"};

  RecordBatch facts_;
  RecordBatch dims_;
  RecordBatch serde_batch_;
  GroupTotals expected_[2];
};

// Micro-batches pushed into a StreamingJob with `partitions` actors; every
// `snapshot_every`-th operation also reads the running aggregates back and
// checks them against the benchmark's own.
class StreamWorkload : public Workload {
 public:
  StreamWorkload(const WorkloadConfig& config, uint64_t seed)
      : Workload(config), dims_(MakeDims(config.dim_rows, config.keys, seed ^ 0x5eed)) {
    for (int b = 0; b < config.batch_pool; ++b) {
      pool_.push_back(MakeFacts(config.batch_rows, config.keys,
                                seed + static_cast<uint64_t>(b) * 7919));
      pool_totals_.push_back(ReferenceTotals(pool_.back(), "key"));
    }
  }

  Status Setup() override {
    Teardown();
    SKADI_RETURN_IF_ERROR(StartInstance());
    skadi::StreamingOptions options;
    options.parallelism = config_.partitions;
    SKADI_ASSIGN_OR_RETURN(job_, skadi::StreamingJob::Start(&skadi_->runtime(),
                                                            &skadi_->registry(), nullptr,
                                                            options));
    WarmUp();
    return Status::Ok();
  }

  void Teardown() override {
    job_.reset();
    skadi_.reset();
    running_.clear();
    pushed_ = 0;
  }

  OpResult RunOp(int /*client*/, int64_t /*index*/) override {
    OpResult out;
    const size_t b = static_cast<size_t>(pushed_ % config_.batch_pool);
    Status st = job_->PushBatch(pool_[b]);
    if (!st.ok()) {
      out.error = st.ToString();
      return out;
    }
    ++pushed_;
    for (const auto& [key, totals] : pool_totals_[b]) {
      running_[key].first += totals.first;
      running_[key].second += totals.second;
    }
    if (pushed_ % config_.snapshot_every == 0) {
      Result<RecordBatch> snapshot = job_->Snapshot();
      if (!snapshot.ok()) {
        out.error = snapshot.status().ToString();
        return out;
      }
      Result<GroupTotals> totals = ReadTotals(*snapshot, "key", "count", "sum");
      if (!totals.ok()) {
        out.error = totals.status().ToString();
        return out;
      }
      out.ok = SameTotals(running_, *totals, &out.error);
      return out;
    }
    out.ok = true;
    return out;
  }

  const RecordBatch& Facts() const override { return pool_[0]; }
  const RecordBatch& Dims() const override { return dims_; }
  const RecordBatch& SerdeBatch() const override { return pool_[0]; }

 private:
  RecordBatch dims_;
  std::vector<RecordBatch> pool_;
  std::vector<GroupTotals> pool_totals_;
  std::unique_ptr<skadi::StreamingJob> job_;
  GroupTotals running_;
  int64_t pushed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const WorkloadConfig& config, uint64_t seed) {
  if (config.name == "stream_ingest") {
    return std::make_unique<StreamWorkload>(config, seed);
  }
  return std::make_unique<SqlWorkload>(config, seed);
}

}  // namespace perfbench
