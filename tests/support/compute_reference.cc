// Row-at-a-time scalar reference kernels: the original implementations,
// retained verbatim (modulo the shared partition hash) as parity oracles for
// the vectorized/morsel-parallel kernels in compute.cc and as baselines for
// bench_kernels. Deliberately naive: one heap-allocated string key per row.
#include <algorithm>
#include <limits>
#include <unordered_map>

#include "src/common/hash.h"
#include "src/format/row_hash.h"
#include "tests/support/compute_reference.h"

namespace skadi {
namespace reference {

namespace {

// Stable textual encoding of one row's key-column values; distinct value
// tuples produce distinct encodings (null gets its own tag).
std::string EncodeKey(const std::vector<const Column*>& keys, int64_t row) {
  std::string out;
  for (const Column* col : keys) {
    if (col->IsNull(row)) {
      out += "\x01N;";
      continue;
    }
    switch (col->type()) {
      case DataType::kInt64:
        out += "i" + std::to_string(col->Int64At(row)) + ";";
        break;
      case DataType::kFloat64:
        out += "f" + std::to_string(col->Float64At(row)) + ";";
        break;
      case DataType::kString:
        out += "s";
        out += col->StringAt(row);
        out += '\x02';
        break;
      case DataType::kBool:
        out += col->BoolAt(row) ? "b1;" : "b0;";
        break;
    }
  }
  return out;
}

Result<std::vector<const Column*>> ResolveColumns(const RecordBatch& batch,
                                                  const std::vector<std::string>& names) {
  std::vector<const Column*> cols;
  cols.reserve(names.size());
  for (const std::string& name : names) {
    const Column* col = batch.ColumnByName(name);
    if (col == nullptr) {
      return Status::NotFound("column '" + name + "' not in schema " +
                              batch.schema().ToString());
    }
    cols.push_back(col);
  }
  return cols;
}

struct AggState {
  int64_t count = 0;       // non-null values seen (or rows for kCount)
  int64_t isum = 0;        // int64 sum
  double fsum = 0.0;       // float sum (also for mean)
  int64_t imin = std::numeric_limits<int64_t>::max();
  int64_t imax = std::numeric_limits<int64_t>::min();
  double fmin = std::numeric_limits<double>::infinity();
  double fmax = -std::numeric_limits<double>::infinity();
  std::string smin;
  std::string smax;
  bool has_value = false;
};

DataType AggOutputType(AggKind kind, DataType input) {
  switch (kind) {
    case AggKind::kCount:
      return DataType::kInt64;
    case AggKind::kMean:
      return DataType::kFloat64;
    case AggKind::kSum:
      return input == DataType::kFloat64 ? DataType::kFloat64 : DataType::kInt64;
    case AggKind::kMin:
    case AggKind::kMax:
      return input;
  }
  return DataType::kInt64;
}

}  // namespace

Result<RecordBatch> FilterBatch(const RecordBatch& batch, const Expr& predicate) {
  SKADI_ASSIGN_OR_RETURN(Column mask, EvalExpr(predicate, batch));
  if (mask.type() != DataType::kBool) {
    return Status::InvalidArgument("filter predicate must be bool, got " +
                                   std::string(DataTypeName(mask.type())));
  }
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < mask.length(); ++i) {
    if (!mask.IsNull(i) && mask.BoolAt(i)) {
      indices.push_back(i);
    }
  }
  return batch.Take(indices);
}

Result<std::vector<RecordBatch>> HashPartitionBatch(
    const RecordBatch& batch, const std::vector<std::string>& key_columns,
    uint32_t num_partitions) {
  if (num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be > 0");
  }
  SKADI_ASSIGN_OR_RETURN(std::vector<const Column*> keys,
                         ResolveColumns(batch, key_columns));
  std::vector<std::vector<int64_t>> partition_rows(num_partitions);
  for (int64_t r = 0; r < batch.num_rows(); ++r) {
    // Shares HashKeyRow with the vectorized kernel so both implementations
    // assign every row to the same partition.
    uint32_t p = PartitionOf(HashKeyRow(keys, r), num_partitions);
    partition_rows[p].push_back(r);
  }
  std::vector<RecordBatch> out;
  out.reserve(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    out.push_back(batch.Take(partition_rows[p]));
  }
  return out;
}

Result<RecordBatch> GroupAggregateBatch(const RecordBatch& batch,
                                        const std::vector<std::string>& group_by,
                                        const std::vector<AggregateSpec>& aggregates) {
  SKADI_ASSIGN_OR_RETURN(std::vector<const Column*> group_cols,
                         ResolveColumns(batch, group_by));

  // Resolve aggregate input columns (kCount over "*"/empty needs none).
  std::vector<const Column*> agg_cols(aggregates.size(), nullptr);
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggregateSpec& spec = aggregates[a];
    if (spec.kind == AggKind::kCount && (spec.column.empty() || spec.column == "*")) {
      continue;
    }
    const Column* col = batch.ColumnByName(spec.column);
    if (col == nullptr) {
      return Status::NotFound("aggregate column '" + spec.column + "' not in schema " +
                              batch.schema().ToString());
    }
    if (spec.kind != AggKind::kCount && spec.kind != AggKind::kMin &&
        spec.kind != AggKind::kMax && col->type() != DataType::kInt64 &&
        col->type() != DataType::kFloat64) {
      return Status::InvalidArgument("aggregate " + std::string(AggKindName(spec.kind)) +
                                     " requires a numeric column, '" + spec.column +
                                     "' is " + std::string(DataTypeName(col->type())));
    }
    agg_cols[a] = col;
  }

  // group key -> (group ordinal, representative row).
  std::unordered_map<std::string, size_t> group_index;
  std::vector<int64_t> group_rep_row;
  std::vector<std::vector<AggState>> states;  // [group][aggregate]

  auto group_of = [&](int64_t row) -> size_t {
    std::string key = group_by.empty() ? std::string("*") : EncodeKey(group_cols, row);
    auto it = group_index.find(key);
    if (it != group_index.end()) {
      return it->second;
    }
    size_t g = group_rep_row.size();
    group_index.emplace(std::move(key), g);
    group_rep_row.push_back(row);
    states.emplace_back(aggregates.size());
    return g;
  };

  for (int64_t r = 0; r < batch.num_rows(); ++r) {
    size_t g = group_of(r);
    for (size_t a = 0; a < aggregates.size(); ++a) {
      AggState& st = states[g][a];
      const Column* col = agg_cols[a];
      if (col == nullptr) {  // COUNT(*)
        st.count++;
        continue;
      }
      if (col->IsNull(r)) {
        continue;
      }
      st.count++;
      st.has_value = true;
      switch (col->type()) {
        case DataType::kInt64: {
          int64_t v = col->Int64At(r);
          st.isum += v;
          st.fsum += static_cast<double>(v);
          st.imin = std::min(st.imin, v);
          st.imax = std::max(st.imax, v);
          break;
        }
        case DataType::kFloat64: {
          double v = col->Float64At(r);
          st.fsum += v;
          st.fmin = std::min(st.fmin, v);
          st.fmax = std::max(st.fmax, v);
          break;
        }
        case DataType::kString: {
          std::string v(col->StringAt(r));
          if (st.count == 1) {
            st.smin = v;
            st.smax = v;
          } else {
            st.smin = std::min(st.smin, v);
            st.smax = std::max(st.smax, v);
          }
          break;
        }
        case DataType::kBool:
          break;  // min/max over bool unsupported; treated as no-op
      }
    }
  }

  // Global aggregation over an empty input still emits one row of zeros.
  if (group_by.empty() && group_rep_row.empty()) {
    group_rep_row.push_back(-1);
    states.emplace_back(aggregates.size());
  }

  const size_t num_groups = group_rep_row.size();

  std::vector<Field> fields;
  std::vector<Column> columns;

  // Group key columns, in declaration order.
  for (size_t k = 0; k < group_by.size(); ++k) {
    const Column* src = group_cols[k];
    ColumnBuilder builder(src->type());
    for (size_t g = 0; g < num_groups; ++g) {
      builder.AppendFrom(*src, group_rep_row[g]);
    }
    fields.push_back({group_by[k], src->type()});
    columns.push_back(builder.Finish());
  }

  // Aggregate output columns.
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggregateSpec& spec = aggregates[a];
    DataType in_type = agg_cols[a] == nullptr ? DataType::kInt64 : agg_cols[a]->type();
    DataType out_type = AggOutputType(spec.kind, in_type);
    ColumnBuilder builder(out_type);
    for (size_t g = 0; g < num_groups; ++g) {
      const AggState& st = states[g][a];
      switch (spec.kind) {
        case AggKind::kCount:
          builder.AppendInt64(st.count);
          break;
        case AggKind::kSum:
          if (st.count == 0) {
            builder.AppendNull();
          } else if (out_type == DataType::kFloat64) {
            builder.AppendFloat64(st.fsum);
          } else {
            builder.AppendInt64(st.isum);
          }
          break;
        case AggKind::kMean:
          if (st.count == 0) {
            builder.AppendNull();
          } else {
            builder.AppendFloat64(st.fsum / static_cast<double>(st.count));
          }
          break;
        case AggKind::kMin:
        case AggKind::kMax: {
          if (st.count == 0) {
            builder.AppendNull();
            break;
          }
          bool is_min = spec.kind == AggKind::kMin;
          switch (in_type) {
            case DataType::kInt64:
              builder.AppendInt64(is_min ? st.imin : st.imax);
              break;
            case DataType::kFloat64:
              builder.AppendFloat64(is_min ? st.fmin : st.fmax);
              break;
            case DataType::kString:
              builder.AppendString(is_min ? st.smin : st.smax);
              break;
            case DataType::kBool:
              builder.AppendNull();
              break;
          }
          break;
        }
      }
    }
    fields.push_back({spec.name, out_type});
    columns.push_back(builder.Finish());
  }

  return RecordBatch::Make(Schema(std::move(fields)), std::move(columns));
}

Result<RecordBatch> HashJoinBatch(const RecordBatch& left, const RecordBatch& right,
                                  const std::vector<std::string>& left_keys,
                                  const std::vector<std::string>& right_keys) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return Status::InvalidArgument("join requires equal non-empty key lists");
  }
  SKADI_ASSIGN_OR_RETURN(std::vector<const Column*> lkeys,
                         ResolveColumns(left, left_keys));
  SKADI_ASSIGN_OR_RETURN(std::vector<const Column*> rkeys,
                         ResolveColumns(right, right_keys));
  for (size_t k = 0; k < lkeys.size(); ++k) {
    if (lkeys[k]->type() != rkeys[k]->type()) {
      return Status::InvalidArgument("join key type mismatch on '" + left_keys[k] + "'");
    }
  }

  auto row_has_null_key = [](const std::vector<const Column*>& key_cols, int64_t row) {
    for (const Column* c : key_cols) {
      if (c->IsNull(row)) {
        return true;
      }
    }
    return false;
  };

  // Build side: right.
  std::unordered_multimap<std::string, int64_t> build;
  build.reserve(static_cast<size_t>(right.num_rows()));
  for (int64_t r = 0; r < right.num_rows(); ++r) {
    if (row_has_null_key(rkeys, r)) {
      continue;
    }
    build.emplace(EncodeKey(rkeys, r), r);
  }

  // Probe side: left.
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  for (int64_t l = 0; l < left.num_rows(); ++l) {
    if (row_has_null_key(lkeys, l)) {
      continue;
    }
    auto [begin, end] = build.equal_range(EncodeKey(lkeys, l));
    for (auto it = begin; it != end; ++it) {
      left_rows.push_back(l);
      right_rows.push_back(it->second);
    }
  }

  // Assemble output: all left columns, right columns minus keys.
  RecordBatch left_out = left.Take(left_rows);
  RecordBatch right_gathered = right.Take(right_rows);

  std::vector<Field> fields(left_out.schema().fields());
  std::vector<Column> columns;
  columns.reserve(left_out.num_columns());
  for (size_t c = 0; c < left_out.num_columns(); ++c) {
    columns.push_back(left_out.column(c));
  }
  for (size_t c = 0; c < right_gathered.num_columns(); ++c) {
    const std::string& name = right.schema().field(c).name;
    if (std::find(right_keys.begin(), right_keys.end(), name) != right_keys.end()) {
      continue;
    }
    std::string out_name = name;
    if (left.schema().IndexOf(out_name).has_value()) {
      out_name += "_r";
    }
    fields.push_back({out_name, right_gathered.column(c).type()});
    columns.push_back(right_gathered.column(c));
  }
  return RecordBatch::Make(Schema(std::move(fields)), std::move(columns));
}

}  // namespace reference
}  // namespace skadi
