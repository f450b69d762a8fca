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
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
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

// Group-by over `batch`, vectorized and morsel-parallel, against the
// reference.
void ExpectGroupByParity(const RecordBatch& batch, const std::vector<std::string>& group_by,
                         const std::string& label) {
  const std::vector<AggregateSpec> aggs = {
      {AggKind::kCount, "", "n"},          {AggKind::kSum, "v_i64", "isum"},
      {AggKind::kSum, "v_f64", "fsum"},    {AggKind::kMin, "v_f64", "fmin"},
      {AggKind::kMax, "v_i64", "imax"},    {AggKind::kMean, "v_f64", "fmean"},
      {AggKind::kMin, "k_str", "smin"}};
  auto expected = reference::GroupAggregateBatch(batch, group_by, aggs);
  ASSERT_TRUE(expected.ok()) << label;
  auto vec = GroupAggregateBatch(batch, group_by, aggs);
  ASSERT_TRUE(vec.ok()) << label;
  auto par = GroupAggregateBatch(batch, group_by, aggs, ParallelOptions());
  ASSERT_TRUE(par.ok()) << label;
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
                           "groupby/vectorized " + label);
  ExpectBatchesEqualSorted(*expected, *par, sort_cols, tolerant_cols,
                           "groupby/parallel " + label);
}

void CheckGroupByParity(const std::vector<std::string>& group_by,
                        const std::string& label) {
  for (const ParityCase& pc : Cases()) {
    ExpectGroupByParity(MakeMixedBatch(pc.rows, pc.null_rate, pc.seed), group_by,
                        label + " " + pc.Name());
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

// Inner join of `left` and `right` on `keys`, vectorized and
// morsel-parallel, against the reference.
void ExpectJoinParity(const RecordBatch& left, const RecordBatch& right,
                      const std::vector<std::string>& keys, const std::string& label) {
  auto expected = reference::HashJoinBatch(left, right, keys, keys);
  ASSERT_TRUE(expected.ok()) << label;
  auto vec = HashJoinBatch(left, right, keys, keys);
  ASSERT_TRUE(vec.ok()) << label;
  auto par = HashJoinBatch(left, right, keys, keys, ParallelOptions());
  ASSERT_TRUE(par.ok()) << label;
  // Join output cells are pure gathers (bit-exact); rows may interleave
  // differently for duplicate keys, so sort by the full row.
  ExpectBatchesEqualSorted(*expected, *vec, {}, {}, "join/vectorized " + label);
  ExpectBatchesEqualSorted(*expected, *par, {}, {}, "join/parallel " + label);
}

void CheckJoinParity(const std::vector<std::string>& keys, const std::string& label) {
  for (const ParityCase& pc : Cases()) {
    // Low-cardinality keys give quadratic-ish match fan-out; cap the probe
    // side so the canonical-sort comparison stays fast under sanitizers
    // (the boundary cases <= 1000 all still run).
    const int64_t left_rows = std::min<int64_t>(pc.rows, 1500);
    RecordBatch left = MakeMixedBatch(left_rows, pc.null_rate, pc.seed);
    // Build side: different row count and seed so match fan-out varies.
    RecordBatch right = MakeMixedBatch(pc.rows / 3 + 37, pc.null_rate, pc.seed + 100);
    ExpectJoinParity(left, right, keys, label + " " + pc.Name());
  }
}

TEST(ComputeParityTest, JoinInt64Key) { CheckJoinParity({"k_i64"}, "i64"); }

TEST(ComputeParityTest, JoinStringKey) { CheckJoinParity({"k_str"}, "str"); }

TEST(ComputeParityTest, JoinMultiKey) {
  CheckJoinParity({"k_i64", "k_bool"}, "multi");
}

// --- Both key-index modes ---
//
// A single non-null int64 key maps straight to slots when its value span
// over the indexed rows (a group-by's input, a join's build side) is below
// clamp(16 x rows, 4096, 65536); every other key goes to the open-addressing
// table. The k_i64 cases above draw 23 values from [0, 23), so they only
// take the direct path. These draw k_i64 to hit both modes and their edges.

int64_t DirectSpanLimit(int64_t rows) {
  return std::clamp<int64_t>(16 * rows, 4096, 65536);
}

// One k_i64 value per call; nullopt is a null key.
using KeyDraw = std::function<std::optional<int64_t>(Rng&)>;

// MakeMixedBatch with its k_i64 column redrawn from `draw`.
RecordBatch MakeKeyedBatch(int64_t rows, uint64_t seed, const KeyDraw& draw) {
  RecordBatch batch = MakeMixedBatch(rows, 0.15, seed);
  Rng rng(seed ^ 0x6b6579);
  ColumnBuilder keys(DataType::kInt64);
  for (int64_t r = 0; r < rows; ++r) {
    std::optional<int64_t> key = draw(rng);
    if (key.has_value()) {
      keys.AppendInt64(*key);
    } else {
      keys.AppendNull();
    }
  }
  std::vector<Column> columns;
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    columns.push_back(batch.schema().field(c).name == "k_i64" ? keys.Finish()
                                                              : batch.column(c));
  }
  return RecordBatch::Make(batch.schema(), std::move(columns)).value();
}

// 23 values spread over the whole int64 range, both ends included.
KeyDraw WideKeys() {
  return [](Rng& rng) -> std::optional<int64_t> {
    const uint64_t step = std::numeric_limits<uint64_t>::max() / 22;
    const uint64_t i = rng.NextBounded(23);
    return i == 22 ? std::numeric_limits<int64_t>::max()
                   : static_cast<int64_t>(static_cast<uint64_t>(
                         std::numeric_limits<int64_t>::min()) + i * step);
  };
}

// Keys in [lo, hi], each end drawn with probability 1/64 (the span tests
// assert that both ends occur).
KeyDraw RangeKeys(int64_t lo, int64_t hi) {
  return [lo, hi](Rng& rng) -> std::optional<int64_t> {
    const uint64_t pick = rng.NextBounded(64);
    return pick == 0 ? lo : pick == 1 ? hi : rng.NextI64InRange(lo, hi);
  };
}

// `draw` with a null instead of a value 15% of the time.
KeyDraw WithNulls(KeyDraw draw) {
  return [draw](Rng& rng) -> std::optional<int64_t> {
    if (rng.NextBool(0.15)) {
      return std::nullopt;
    }
    return draw(rng);
  };
}

// max - min of an int64 column's non-null values, as the key index
// computes it (modulo 2^64).
uint64_t SpanOf(const Column& col) {
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (int64_t r = 0; r < col.length(); ++r) {
    if (!col.IsNull(r)) {
      lo = std::min(lo, col.Int64At(r));
      hi = std::max(hi, col.Int64At(r));
    }
  }
  return static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
}

TEST(ComputeParityTest, GroupByInt64KeyIndexModes) {
  uint64_t seed = 500;
  for (int64_t rows : {1000, 5000}) {
    const int64_t limit = DirectSpanLimit(rows);
    const std::vector<std::pair<std::string, KeyDraw>> cases = {
        {"wide", WideKeys()},
        {"negative_narrow", RangeKeys(-40, -18)},
        {"span_below_limit", RangeKeys(-7, -7 + limit - 1)},
        {"span_at_limit", RangeKeys(-7, -7 + limit)},
        {"null_keys", WithNulls(RangeKeys(0, 22))},
    };
    for (const auto& [name, draw] : cases) {
      const std::string label = name + " rows=" + std::to_string(rows);
      RecordBatch batch = MakeKeyedBatch(rows, ++seed, draw);
      const Column& keys = *batch.ColumnByName("k_i64");
      if (name == "span_below_limit") {
        ASSERT_EQ(SpanOf(keys), static_cast<uint64_t>(limit - 1)) << label;
      } else if (name == "span_at_limit") {
        ASSERT_EQ(SpanOf(keys), static_cast<uint64_t>(limit)) << label;
      } else if (name == "wide") {
        ASSERT_EQ(SpanOf(keys), std::numeric_limits<uint64_t>::max()) << label;
      }
      ExpectGroupByParity(batch, {"k_i64"}, label);
    }
  }
}

TEST(ComputeParityTest, JoinInt64KeyIndexModes) {
  struct JoinCase {
    std::string name;
    KeyDraw left;
    KeyDraw right;
  };
  uint64_t seed = 700;
  const int64_t left_rows = 1500;
  // A small build side wherever keys repeat, so the match fan-out (and the
  // sorted comparison) stays small.
  const std::vector<JoinCase> cases = {
      {"wide", WideKeys(), WideKeys()},
      {"negative_narrow", RangeKeys(-40, -18), RangeKeys(-40, -18)},
      {"probe_outside_build_range", RangeKeys(50, 200), RangeKeys(100, 140)},
      {"duplicate_build_keys", RangeKeys(0, 9), RangeKeys(0, 4)},
      {"null_probe_keys", WithNulls(RangeKeys(0, 22)), RangeKeys(0, 22)},
      {"null_build_keys", RangeKeys(0, 22), WithNulls(RangeKeys(0, 22))},
      {"null_keys_both_sides", WithNulls(RangeKeys(0, 22)), WithNulls(RangeKeys(0, 22))},
  };
  for (const JoinCase& jc : cases) {
    RecordBatch left = MakeKeyedBatch(left_rows, ++seed, jc.left);
    RecordBatch right = MakeKeyedBatch(46, ++seed, jc.right);
    ExpectJoinParity(left, right, {"k_i64"}, jc.name);
  }
  // The direct-map limit depends on the build side's row count.
  for (int64_t build_rows : {300, 3000}) {
    const int64_t limit = DirectSpanLimit(build_rows);
    for (int64_t span : {limit - 1, limit}) {
      const std::string label = "span=" + std::to_string(span) +
                                " limit=" + std::to_string(limit);
      RecordBatch left = MakeKeyedBatch(left_rows, ++seed, RangeKeys(-20, span + 20));
      RecordBatch right = MakeKeyedBatch(build_rows, ++seed, RangeKeys(-7, -7 + span));
      ASSERT_EQ(SpanOf(*right.ColumnByName("k_i64")), static_cast<uint64_t>(span)) << label;
      ExpectJoinParity(left, right, {"k_i64"}, label);
    }
  }
}

}  // namespace
}  // namespace skadi
