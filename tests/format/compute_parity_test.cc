// Randomized parity tests: the vectorized kernels (and their morsel-parallel
// variants) must produce the same results as the retained row-at-a-time
// implementations in skadi::reference, across key types, null patterns, and
// row counts that straddle morsel boundaries.
//
// Comparison rules follow the kernel contracts (src/format/compute.h):
//   - Filter and hash-partition are order-deterministic: compared cell by
//     cell in row order, bit-exact.
//   - Group-by and join may emit rows in a different (still deterministic)
//     order: both sides are canonically sorted before comparing. Float
//     aggregate cells use a relative tolerance because morsel-parallel runs
//     accumulate sums in chunk order.
#include "src/format/compute.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "tests/support/compute_reference.h"

namespace skadi {
namespace {

// Tiny morsels + no size threshold so even small batches cross several
// morsel boundaries on the parallel path. 257 is deliberately odd.
ComputeOptions ParallelOptions() {
  ComputeOptions options;
  options.num_threads = 4;
  options.morsel_rows = 257;
  options.parallel_threshold_rows = 1;
  return options;
}

// An exact, order-able rendering of one cell. Floats use the bit pattern so
// distinct values never collide; nulls sort as their own value.
std::string CellKey(const Column& col, int64_t row) {
  if (col.IsNull(row)) {
    return "\x01null";
  }
  switch (col.type()) {
    case DataType::kInt64:
      return "i" + std::to_string(col.Int64At(row));
    case DataType::kFloat64: {
      double d = col.Float64At(row);
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      return "f" + std::to_string(bits);
    }
    case DataType::kBool:
      return col.BoolAt(row) ? "b1" : "b0";
    case DataType::kString:
      return "s" + std::string(col.StringAt(row));
  }
  return "?";
}

// Rows sorted by the rendered values of `key_cols` (all columns if empty).
std::vector<int64_t> SortedOrder(const RecordBatch& batch,
                                 const std::vector<size_t>& key_cols) {
  std::vector<std::string> keys(static_cast<size_t>(batch.num_rows()));
  for (int64_t r = 0; r < batch.num_rows(); ++r) {
    std::string k;
    if (key_cols.empty()) {
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        k += CellKey(batch.column(c), r);
        k += '\x02';
      }
    } else {
      for (size_t c : key_cols) {
        k += CellKey(batch.column(c), r);
        k += '\x02';
      }
    }
    keys[static_cast<size_t>(r)] = std::move(k);
  }
  std::vector<int64_t> order(static_cast<size_t>(batch.num_rows()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return keys[static_cast<size_t>(a)] < keys[static_cast<size_t>(b)];
  });
  return order;
}

void ExpectCellEq(const Column& expected, int64_t er, const Column& actual,
                  int64_t ar, bool float_tolerant, const std::string& where) {
  ASSERT_EQ(expected.type(), actual.type()) << where;
  ASSERT_EQ(expected.IsNull(er), actual.IsNull(ar)) << where;
  if (expected.IsNull(er)) {
    return;
  }
  switch (expected.type()) {
    case DataType::kInt64:
      EXPECT_EQ(expected.Int64At(er), actual.Int64At(ar)) << where;
      break;
    case DataType::kFloat64: {
      double e = expected.Float64At(er);
      double a = actual.Float64At(ar);
      if (float_tolerant) {
        EXPECT_NEAR(a, e, 1e-9 * (1.0 + std::abs(e))) << where;
      } else {
        EXPECT_EQ(e, a) << where;
      }
      break;
    }
    case DataType::kBool:
      EXPECT_EQ(expected.BoolAt(er), actual.BoolAt(ar)) << where;
      break;
    case DataType::kString:
      EXPECT_EQ(expected.StringAt(er), actual.StringAt(ar)) << where;
      break;
  }
}

// Exact row-order comparison (filter, partition).
void ExpectBatchesEqual(const RecordBatch& expected, const RecordBatch& actual,
                        const std::string& where) {
  ASSERT_EQ(expected.schema(), actual.schema()) << where;
  ASSERT_EQ(expected.num_rows(), actual.num_rows()) << where;
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    for (int64_t r = 0; r < expected.num_rows(); ++r) {
      ExpectCellEq(expected.column(c), r, actual.column(c), r,
                   /*float_tolerant=*/false,
                   where + " col=" + expected.schema().field(c).name +
                       " row=" + std::to_string(r));
    }
  }
}

// Order-insensitive comparison: sort both sides by `sort_cols` (or the whole
// row when empty), then compare. Columns listed in `tolerant_cols` compare
// floats with tolerance.
void ExpectBatchesEqualSorted(const RecordBatch& expected, const RecordBatch& actual,
                              const std::vector<size_t>& sort_cols,
                              const std::vector<size_t>& tolerant_cols,
                              const std::string& where) {
  ASSERT_EQ(expected.schema(), actual.schema()) << where;
  ASSERT_EQ(expected.num_rows(), actual.num_rows()) << where;
  std::vector<int64_t> eorder = SortedOrder(expected, sort_cols);
  std::vector<int64_t> aorder = SortedOrder(actual, sort_cols);
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    bool tolerant = std::find(tolerant_cols.begin(), tolerant_cols.end(), c) !=
                    tolerant_cols.end();
    for (int64_t i = 0; i < expected.num_rows(); ++i) {
      ExpectCellEq(expected.column(c), eorder[static_cast<size_t>(i)],
                   actual.column(c), aorder[static_cast<size_t>(i)], tolerant,
                   where + " col=" + expected.schema().field(c).name +
                       " sorted_row=" + std::to_string(i));
    }
  }
}

// A batch exercising every column type, multi-type keys, and nulls:
//   k_i64 (card ~23), k_str (card 7), k_f64 (card 11), k_bool, v_i64, v_f64.
// null_rate applies independently per nullable column.
RecordBatch MakeMixedBatch(int64_t rows, double null_rate, uint64_t seed) {
  Rng rng(seed);
  ColumnBuilder k_i64(DataType::kInt64);
  ColumnBuilder k_str(DataType::kString);
  ColumnBuilder k_f64(DataType::kFloat64);
  ColumnBuilder k_bool(DataType::kBool);
  ColumnBuilder v_i64(DataType::kInt64);
  ColumnBuilder v_f64(DataType::kFloat64);
  for (int64_t r = 0; r < rows; ++r) {
    if (rng.NextBool(null_rate)) {
      k_i64.AppendNull();
    } else {
      k_i64.AppendInt64(static_cast<int64_t>(rng.NextBounded(23)));
    }
    if (rng.NextBool(null_rate)) {
      k_str.AppendNull();
    } else {
      k_str.AppendString("key_" + std::to_string(rng.NextBounded(7)));
    }
    if (rng.NextBool(null_rate)) {
      k_f64.AppendNull();
    } else {
      k_f64.AppendFloat64(static_cast<double>(rng.NextBounded(11)) * 0.25);
    }
    k_bool.AppendBool(rng.NextBool());
    v_i64.AppendInt64(rng.NextI64InRange(-1000, 1000));
    if (rng.NextBool(null_rate)) {
      v_f64.AppendNull();
    } else {
      v_f64.AppendFloat64(rng.NextDouble() * 100.0);
    }
  }
  Schema schema({{"k_i64", DataType::kInt64},
                 {"k_str", DataType::kString},
                 {"k_f64", DataType::kFloat64},
                 {"k_bool", DataType::kBool},
                 {"v_i64", DataType::kInt64},
                 {"v_f64", DataType::kFloat64}});
  auto batch = RecordBatch::Make(
      schema, {k_i64.Finish(), k_str.Finish(), k_f64.Finish(), k_bool.Finish(),
               v_i64.Finish(), v_f64.Finish()});
  return std::move(batch).value();
}

// Row counts chosen to straddle the test morsel size (257): empty, single,
// one under/at/over a boundary, several morsels, and a large-ish batch.
const int64_t kRowCounts[] = {0, 1, 256, 257, 258, 1000, 5000};
const double kNullRates[] = {0.0, 0.15};

struct ParityCase {
  int64_t rows;
  double null_rate;
  uint64_t seed;
  std::string Name() const {
    return "rows=" + std::to_string(rows) +
           " null_rate=" + std::to_string(null_rate);
  }
};

std::vector<ParityCase> Cases() {
  std::vector<ParityCase> cases;
  uint64_t seed = 1;
  for (int64_t rows : kRowCounts) {
    for (double nr : kNullRates) {
      cases.push_back({rows, nr, seed++});
    }
  }
  return cases;
}

TEST(ComputeParityTest, Filter) {
  for (const ParityCase& pc : Cases()) {
    RecordBatch batch = MakeMixedBatch(pc.rows, pc.null_rate, pc.seed);
    // ~50% selectivity; nulls in v_f64 drop rows.
    ExprPtr pred =
        Expr::Binary(BinaryOp::kLt, Expr::Col("v_f64"), Expr::Float(50.0));
    auto expected = reference::FilterBatch(batch, *pred);
    ASSERT_TRUE(expected.ok()) << pc.Name();
    auto vec = FilterBatch(batch, *pred);
    ASSERT_TRUE(vec.ok()) << pc.Name();
    ExpectBatchesEqual(*expected, *vec, "filter/vectorized " + pc.Name());
    auto par = FilterBatch(batch, *pred, ParallelOptions());
    ASSERT_TRUE(par.ok()) << pc.Name();
    ExpectBatchesEqual(*expected, *par, "filter/parallel " + pc.Name());
  }
}

TEST(ComputeParityTest, HashPartition) {
  const uint32_t kParts = 7;
  const std::vector<std::string> keys = {"k_i64", "k_str"};
  for (const ParityCase& pc : Cases()) {
    RecordBatch batch = MakeMixedBatch(pc.rows, pc.null_rate, pc.seed);
    auto expected = reference::HashPartitionBatch(batch, keys, kParts);
    ASSERT_TRUE(expected.ok()) << pc.Name();
    auto vec = HashPartitionBatch(batch, keys, kParts);
    ASSERT_TRUE(vec.ok()) << pc.Name();
    auto par = HashPartitionBatch(batch, keys, kParts, ParallelOptions());
    ASSERT_TRUE(par.ok()) << pc.Name();
    ASSERT_EQ(expected->size(), vec->size());
    ASSERT_EQ(expected->size(), par->size());
    for (size_t p = 0; p < expected->size(); ++p) {
      std::string where = " part=" + std::to_string(p) + " " + pc.Name();
      ExpectBatchesEqual((*expected)[p], (*vec)[p], "partition/vectorized" + where);
      ExpectBatchesEqual((*expected)[p], (*par)[p], "partition/parallel" + where);
    }
  }
}

void CheckGroupByParity(const std::vector<std::string>& group_by,
                        const std::string& label) {
  const std::vector<AggregateSpec> aggs = {
      {AggKind::kCount, "", "n"},          {AggKind::kSum, "v_i64", "isum"},
      {AggKind::kSum, "v_f64", "fsum"},    {AggKind::kMin, "v_f64", "fmin"},
      {AggKind::kMax, "v_i64", "imax"},    {AggKind::kMean, "v_f64", "fmean"},
      {AggKind::kMin, "k_str", "smin"}};
  for (const ParityCase& pc : Cases()) {
    RecordBatch batch = MakeMixedBatch(pc.rows, pc.null_rate, pc.seed);
    auto expected = reference::GroupAggregateBatch(batch, group_by, aggs);
    ASSERT_TRUE(expected.ok()) << label << " " << pc.Name();
    auto vec = GroupAggregateBatch(batch, group_by, aggs);
    ASSERT_TRUE(vec.ok()) << label << " " << pc.Name();
    auto par = GroupAggregateBatch(batch, group_by, aggs, ParallelOptions());
    ASSERT_TRUE(par.ok()) << label << " " << pc.Name();
    // Sort by group keys (unique per output row); float aggregates get
    // tolerance since parallel runs accumulate in chunk order.
    std::vector<size_t> sort_cols(group_by.size());
    std::iota(sort_cols.begin(), sort_cols.end(), 0);
    std::vector<size_t> tolerant_cols;
    for (size_t c = group_by.size(); c < expected->num_columns(); ++c) {
      if (expected->column(c).type() == DataType::kFloat64) {
        tolerant_cols.push_back(c);
      }
    }
    ExpectBatchesEqualSorted(*expected, *vec, sort_cols, tolerant_cols,
                             "groupby/vectorized " + label + " " + pc.Name());
    ExpectBatchesEqualSorted(*expected, *par, sort_cols, tolerant_cols,
                             "groupby/parallel " + label + " " + pc.Name());
  }
}

TEST(ComputeParityTest, GroupByInt64Key) { CheckGroupByParity({"k_i64"}, "i64"); }

TEST(ComputeParityTest, GroupByStringKey) { CheckGroupByParity({"k_str"}, "str"); }

TEST(ComputeParityTest, GroupByFloatKey) { CheckGroupByParity({"k_f64"}, "f64"); }

TEST(ComputeParityTest, GroupByBoolKey) { CheckGroupByParity({"k_bool"}, "bool"); }

TEST(ComputeParityTest, GroupByMultiKey) {
  CheckGroupByParity({"k_i64", "k_str", "k_bool"}, "multi");
}

TEST(ComputeParityTest, GroupByGlobal) { CheckGroupByParity({}, "global"); }

void CheckJoinParity(const std::vector<std::string>& keys, const std::string& label) {
  for (const ParityCase& pc : Cases()) {
    // Low-cardinality keys give quadratic-ish match fan-out; cap the probe
    // side so the canonical-sort comparison stays fast under sanitizers
    // (the boundary cases <= 1000 all still run).
    const int64_t left_rows = std::min<int64_t>(pc.rows, 1500);
    RecordBatch left = MakeMixedBatch(left_rows, pc.null_rate, pc.seed);
    // Build side: different row count and seed so match fan-out varies.
    RecordBatch right = MakeMixedBatch(pc.rows / 3 + 37, pc.null_rate, pc.seed + 100);
    auto expected = reference::HashJoinBatch(left, right, keys, keys);
    ASSERT_TRUE(expected.ok()) << label << " " << pc.Name();
    auto vec = HashJoinBatch(left, right, keys, keys);
    ASSERT_TRUE(vec.ok()) << label << " " << pc.Name();
    auto par = HashJoinBatch(left, right, keys, keys, ParallelOptions());
    ASSERT_TRUE(par.ok()) << label << " " << pc.Name();
    // Join output cells are pure gathers (bit-exact); rows may interleave
    // differently for duplicate keys, so sort by the full row.
    ExpectBatchesEqualSorted(*expected, *vec, {}, {},
                             "join/vectorized " + label + " " + pc.Name());
    ExpectBatchesEqualSorted(*expected, *par, {}, {},
                             "join/parallel " + label + " " + pc.Name());
  }
}

TEST(ComputeParityTest, JoinInt64Key) { CheckJoinParity({"k_i64"}, "i64"); }

TEST(ComputeParityTest, JoinStringKey) { CheckJoinParity({"k_str"}, "str"); }

TEST(ComputeParityTest, JoinMultiKey) {
  CheckJoinParity({"k_i64", "k_bool"}, "multi");
}

}  // namespace
}  // namespace skadi
