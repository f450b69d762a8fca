// Vectorized relational kernels with optional morsel-driven parallelism.
//
// Inner loops run over raw typed column arrays (validity resolved to a raw
// pointer outside the loop). Keyed kernels share one key index (Grouper:
// direct slots for a narrow int64 key, else open addressing over raw values
// or row_hash.h tuple hashes) and work one block of rows at a time; GROUP BY
// folds each block into columnar per-aggregate state (Accumulator).
// With ComputeOptions{num_threads > 1} and enough rows, kernels split the row
// range into morsels/chunks on the global MorselPool; every partial is merged
// in morsel/chunk order so results are deterministic for a given thread
// count (row order is identical to the sequential path; parallel float sums
// may differ in the final bits from the sequential accumulation order).
#include "src/format/compute.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>

#include "src/common/hash.h"
#include "src/common/morsel_pool.h"
#include "src/format/row_hash.h"

namespace skadi {

std::string_view AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kMean:
      return "mean";
  }
  return "?";
}

namespace {

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

// One output column: `column` gathered at `indices`.
struct Gather {
  const Column* column;
  ArrayView<int64_t> indices;
};

// Runs the gathers, fanning them out over the morsel pool (one column per
// worker) when there are several and the selection is large enough.
std::vector<Column> GatherColumns(const std::vector<Gather>& gathers,
                                  const ComputeOptions& options) {
  std::vector<Column> columns(gathers.size());
  auto gather_range = [&](int64_t begin, int64_t end) {
    for (int64_t c = begin; c < end; ++c) {
      const Gather& g = gathers[static_cast<size_t>(c)];
      columns[static_cast<size_t>(c)] = g.column->Take(g.indices.data(), g.indices.size());
    }
  };
  const int64_t num_columns = static_cast<int64_t>(gathers.size());
  if (num_columns > 1 &&
      options.ShouldParallelize(static_cast<int64_t>(gathers[0].indices.size()))) {
    MorselPool::Global().ParallelChunks(
        num_columns, options.num_threads,
        [&](int /*chunk*/, int64_t begin, int64_t end) { gather_range(begin, end); });
  } else {
    gather_range(0, num_columns);
  }
  return columns;
}

// Gathers `indices` from every column of `batch`.
RecordBatch TakeBatch(const RecordBatch& batch, const std::vector<int64_t>& indices,
                      const ComputeOptions& options) {
  std::vector<Gather> gathers;
  gathers.reserve(batch.num_columns());
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    gathers.push_back({&batch.column(c), indices});
  }
  auto result = RecordBatch::Make(batch.schema(), GatherColumns(gathers, options));
  return std::move(result).value();
}

// True when `keys` is a single non-null int64 column: the key index then
// keys on the raw value (direct slots, or an open-addressing table with no
// verify chain).
bool SingleInt64Key(const std::vector<const Column*>& keys) {
  return keys.size() == 1 && keys[0]->type() == DataType::kInt64 &&
         !keys[0]->has_nulls();
}

size_t RoundUpPow2(size_t n) {
  size_t p = 16;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

// Keyed kernels work one block of rows at a time: the block's hashes, group
// ids and probe results live on the stack, never in a rows-sized vector.
constexpr int64_t kBlockRows = 4096;

// Group id of a probe row whose key tuple is absent (or has a null).
constexpr uint32_t kNoGroup = std::numeric_limits<uint32_t>::max();

// A direct-mapped index over `rows` indexed rows may span fewer than this
// many key values: 16 slots per row, clamped to [4096, 65536] (at most
// 256 KB of slots).
uint64_t DirectSpanLimit(int64_t rows) {
  return static_cast<uint64_t>(std::clamp<int64_t>(16 * rows, 4096, 65536));
}

// The key index behind GROUP BY and the join's build side: maps each
// distinct key tuple of a fixed key column set to a dense group ordinal, in
// first-occurrence order, and remembers each group's first row. Modes:
//   direct — a single non-null int64 key whose value span over the indexed
//            rows is below DirectSpanLimit: slot = value - min, no hash and
//            no probe chain;
//   int64  — any other single non-null int64 key: an open-addressing table
//            (linear probing) keyed by the raw value;
//   hash   — every other key shape: the same table keyed by the tuple hash,
//            equal hashes verified by a typed compare against the group's
//            first row;
//   global — no key columns: every row is group 0.
class Grouper {
 public:
  // Picks the mode and sizes the index for rows [begin, end) of `keys`.
  // Only rows of that range may be added (Assign).
  Grouper(const std::vector<const Column*>& keys, int64_t begin, int64_t end)
      : keys_(keys) {
    if (keys.empty()) {
      mode_ = Mode::kGlobal;
      return;
    }
    if (!SingleInt64Key(keys)) {
      mode_ = Mode::kHash;
      InitTable(end - begin);
      return;
    }
    values_ = keys[0]->ints().data();
    mode_ = Mode::kInt64;
    if (end > begin) {
      // Branch-free min/max: std::minmax_element's pairwise compare
      // mispredicts on unordered keys and costs twice as much.
      int64_t lo = values_[begin];
      int64_t hi = lo;
      for (int64_t r = begin; r < end; ++r) {
        lo = std::min(lo, values_[r]);
        hi = std::max(hi, values_[r]);
      }
      const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
      if (span < DirectSpanLimit(end - begin)) {
        mode_ = Mode::kDirect;
        min_ = lo;
        direct_.assign(span + 1, 0);
        return;
      }
    }
    InitTable(end - begin);
  }

  // Group ids of rows [begin, end) into gids[0 .. end-begin), adding a group
  // for every new key tuple.
  void Assign(int64_t begin, int64_t end, uint32_t* gids) {
    switch (mode_) {
      case Mode::kGlobal:
        if (end > begin && rep_rows_.empty()) {
          rep_rows_.push_back(begin);
        }
        std::fill(gids, gids + (end - begin), 0);
        return;
      case Mode::kDirect:
        for (int64_t r = begin; r < end; ++r) {
          uint32_t& slot = direct_[Offset(values_[r])];
          if (slot == 0) {
            slot = NewGroup(r) + 1;
          }
          gids[r - begin] = slot - 1;
        }
        return;
      case Mode::kInt64:
        for (int64_t r = begin; r < end; ++r) {
          gids[r - begin] = Insert(static_cast<uint64_t>(values_[r]), r,
                                   [](uint32_t) { return true; });
        }
        return;
      case Mode::kHash: {
        uint64_t hashes[kBlockRows];
        for (int64_t b = begin; b < end; b += kBlockRows) {
          const int64_t e = std::min(end, b + kBlockRows);
          HashKeyRows(keys_, b, e, hashes);
          for (int64_t r = b; r < e; ++r) {
            gids[r - begin] = Insert(hashes[r - b], r, [&](uint32_t g) {
              return KeyRowsEqual(keys_, rep_rows_[g], keys_, r);
            });
          }
        }
        return;
      }
    }
  }

  // Group ids of rows [begin, end) of `probe` (key columns type-aligned with
  // the indexed ones) into gids[0 .. end-begin): kNoGroup for a tuple never
  // added and for a row with a null key, which never matches. Read-only, so
  // concurrent Finds are safe.
  void Find(const std::vector<const Column*>& probe, int64_t begin, int64_t end,
            uint32_t* gids) const {
    switch (mode_) {
      case Mode::kGlobal:
        std::fill(gids, gids + (end - begin), rep_rows_.empty() ? kNoGroup : 0);
        break;
      case Mode::kDirect: {
        const int64_t* values = probe[0]->ints().data();
        for (int64_t r = begin; r < end; ++r) {
          const uint64_t at = Offset(values[r]);
          // An empty slot holds 0, and 0 - 1 wraps to kNoGroup.
          gids[r - begin] = at < direct_.size() ? direct_[at] - 1 : kNoGroup;
        }
        break;
      }
      case Mode::kInt64: {
        const int64_t* values = probe[0]->ints().data();
        for (int64_t r = begin; r < end; ++r) {
          gids[r - begin] =
              Lookup(static_cast<uint64_t>(values[r]), [](uint32_t) { return true; });
        }
        break;
      }
      case Mode::kHash: {
        uint64_t hashes[kBlockRows];
        for (int64_t b = begin; b < end; b += kBlockRows) {
          const int64_t e = std::min(end, b + kBlockRows);
          HashKeyRows(probe, b, e, hashes);
          for (int64_t r = b; r < e; ++r) {
            gids[r - begin] = Lookup(hashes[r - b], [&](uint32_t g) {
              return KeyRowsEqual(probe, r, keys_, rep_rows_[g]);
            });
          }
        }
        break;
      }
    }
    for (const Column* col : probe) {
      if (col->has_nulls()) {
        const uint8_t* validity = col->validity().data();
        for (int64_t r = begin; r < end; ++r) {
          if (validity[r] == 0) {
            gids[r - begin] = kNoGroup;
          }
        }
      }
    }
  }

  const std::vector<int64_t>& rep_rows() const { return rep_rows_; }
  size_t num_groups() const { return rep_rows_.size(); }

 private:
  enum class Mode { kGlobal, kDirect, kInt64, kHash };

  struct Slot {
    uint64_t key = 0;  // raw int64 bits (int64 mode) or tuple hash
    uint32_t val = 0;  // 0 = empty, else group ordinal + 1
  };

  uint64_t Offset(int64_t value) const {
    return static_cast<uint64_t>(value) - static_cast<uint64_t>(min_);
  }

  // Four slots per row, and at most 16384 (256 KB) before the first insert;
  // the table grows as distinct tuples arrive. A probe that misses its home
  // slot mispredicts, so short chains matter more than a compact table.
  void InitTable(int64_t rows) {
    mask_ = RoundUpPow2(static_cast<size_t>(std::min<int64_t>(rows, 4096)) * 4) - 1;
    slots_.assign(mask_ + 1, Slot{});
  }

  size_t Home(uint64_t key) const {
    return (mode_ == Mode::kInt64 ? MixU64(key) : key) & mask_;
  }

  uint32_t NewGroup(int64_t row) {
    rep_rows_.push_back(row);
    return static_cast<uint32_t>(rep_rows_.size() - 1);
  }

  // Group of the tuple stored under `key` for which `same(group)` holds
  // (hash mode verifies the row there); adds `row` as a new group if none.
  template <typename Same>
  uint32_t Insert(uint64_t key, int64_t row, Same same) {
    for (size_t pos = Home(key);; pos = (pos + 1) & mask_) {
      Slot& slot = slots_[pos];
      if (slot.val == 0) {
        const uint32_t g = NewGroup(row);
        slot = {key, g + 1};
        // Grow at half load so probe chains stay short.
        if (rep_rows_.size() * 2 >= mask_ + 1) {
          Rehash();
        }
        return g;
      }
      if (slot.key == key && same(slot.val - 1)) {
        return slot.val - 1;
      }
    }
  }

  template <typename Same>
  uint32_t Lookup(uint64_t key, Same same) const {
    for (size_t pos = Home(key);; pos = (pos + 1) & mask_) {
      const Slot& slot = slots_[pos];
      if (slot.val == 0) {
        return kNoGroup;
      }
      if (slot.key == key && same(slot.val - 1)) {
        return slot.val - 1;
      }
    }
  }

  void Rehash() {
    std::vector<Slot> old = std::move(slots_);
    mask_ = (mask_ + 1) * 2 - 1;
    slots_.assign(mask_ + 1, Slot{});
    for (const Slot& s : old) {
      if (s.val == 0) {
        continue;
      }
      size_t pos = Home(s.key);
      while (slots_[pos].val != 0) {
        pos = (pos + 1) & mask_;
      }
      slots_[pos] = s;
    }
  }

  const std::vector<const Column*>& keys_;
  Mode mode_ = Mode::kHash;
  const int64_t* values_ = nullptr;  // the raw key array (direct, int64)
  int64_t min_ = 0;                  // direct: the value of slot 0
  std::vector<uint32_t> direct_;     // direct: 0 = empty, else group + 1
  std::vector<Slot> slots_;          // int64, hash
  size_t mask_ = 0;
  std::vector<int64_t> rep_rows_;
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

// One aggregate's per-group state, struct-of-arrays: the non-null count of
// every group plus the one value array the aggregate's kind and input type
// need (int64 sums or extremes, float sums or extremes, string extremes).
// COUNT and MIN/MAX over bool keep counts only. col == nullptr is COUNT(*).
class Accumulator {
 public:
  Accumulator(AggKind kind, const Column* col)
      : kind_(kind),
        col_(col),
        in_type_(col == nullptr ? DataType::kInt64 : col->type()) {
    if (kind == AggKind::kCount) {
      return;
    }
    const bool is_min = kind == AggKind::kMin;
    const bool extreme = is_min || kind == AggKind::kMax;
    if (kind == AggKind::kMean) {
      values_ = Values::kDouble;  // float sum, also over int64 input
    } else if (in_type_ == DataType::kInt64) {
      values_ = Values::kInt;
      int_init_ = !extreme ? 0
                  : is_min ? std::numeric_limits<int64_t>::max()
                           : std::numeric_limits<int64_t>::min();
    } else if (in_type_ == DataType::kFloat64) {
      values_ = Values::kDouble;
      const double inf = std::numeric_limits<double>::infinity();
      double_init_ = !extreme ? 0.0 : is_min ? inf : -inf;
    } else if (in_type_ == DataType::kString) {
      values_ = Values::kString;
    }
  }

  DataType out_type() const { return AggOutputType(kind_, in_type_); }

  // Grows the state to `groups` groups; new groups start empty.
  void Resize(size_t groups) {
    if (groups <= counts_.size()) {
      return;
    }
    counts_.resize(groups, 0);
    switch (values_) {
      case Values::kNone:
        break;
      case Values::kInt:
        ints_.resize(groups, int_init_);
        break;
      case Values::kDouble:
        doubles_.resize(groups, double_init_);
        break;
      case Values::kString:
        strings_.resize(groups);
        break;
    }
  }

  // Folds rows [begin, end); gids[i] is the group of row begin + i. Nulls in
  // the input column are skipped.
  void Fold(const uint32_t* gids, int64_t begin, int64_t end) {
    const uint8_t* validity =
        col_ != nullptr && col_->has_nulls() ? col_->validity().data() : nullptr;
    // Counts every non-null row and hands it to `update(group, row)`.
    auto each = [&](auto update) {
      for (int64_t r = begin; r < end; ++r) {
        if (validity == nullptr || validity[r] != 0) {
          const uint32_t g = gids[r - begin];
          counts_[g]++;
          update(g, r);
        }
      }
    };
    switch (values_) {
      case Values::kNone:
        each([](uint32_t, int64_t) {});
        break;
      case Values::kInt: {
        const int64_t* v = col_->ints().data();
        if (kind_ == AggKind::kSum) {
          each([&](uint32_t g, int64_t r) { ints_[g] += v[r]; });
        } else if (kind_ == AggKind::kMin) {
          each([&](uint32_t g, int64_t r) { ints_[g] = std::min(ints_[g], v[r]); });
        } else {
          each([&](uint32_t g, int64_t r) { ints_[g] = std::max(ints_[g], v[r]); });
        }
        break;
      }
      case Values::kDouble: {
        if (in_type_ == DataType::kInt64) {  // MEAN over int64
          const int64_t* v = col_->ints().data();
          each([&](uint32_t g, int64_t r) { doubles_[g] += static_cast<double>(v[r]); });
          break;
        }
        const double* v = col_->doubles().data();
        if (kind_ == AggKind::kMin) {
          each([&](uint32_t g, int64_t r) { doubles_[g] = std::min(doubles_[g], v[r]); });
        } else if (kind_ == AggKind::kMax) {
          each([&](uint32_t g, int64_t r) { doubles_[g] = std::max(doubles_[g], v[r]); });
        } else {
          each([&](uint32_t g, int64_t r) { doubles_[g] += v[r]; });
        }
        break;
      }
      case Values::kString:
        each([&](uint32_t g, int64_t r) {
          std::string_view v = col_->StringAt(r);
          if (counts_[g] == 1 || Better(v, strings_[g])) {
            strings_[g].assign(v);
          }
        });
        break;
    }
  }

  // Folds group g of `part` (same aggregate over other rows) into group
  // to[g] of this accumulator, which must already hold that many groups.
  void Merge(const Accumulator& part, const uint32_t* to) {
    for (size_t g = 0; g < part.counts_.size(); ++g) {
      if (part.counts_[g] == 0) {
        continue;
      }
      const uint32_t d = to[g];
      const bool first = counts_[d] == 0;
      counts_[d] += part.counts_[g];
      switch (values_) {
        case Values::kNone:
          break;
        case Values::kInt:
          ints_[d] = kind_ == AggKind::kSum   ? ints_[d] + part.ints_[g]
                     : kind_ == AggKind::kMin ? std::min(ints_[d], part.ints_[g])
                                              : std::max(ints_[d], part.ints_[g]);
          break;
        case Values::kDouble:
          doubles_[d] = kind_ == AggKind::kMin   ? std::min(doubles_[d], part.doubles_[g])
                        : kind_ == AggKind::kMax ? std::max(doubles_[d], part.doubles_[g])
                                                 : doubles_[d] + part.doubles_[g];
          break;
        case Values::kString:
          if (first || Better(part.strings_[g], strings_[d])) {
            strings_[d] = part.strings_[g];
          }
          break;
      }
    }
  }

  // The output column, one row per group; a group with no input value is
  // null (except for COUNT, which reads 0).
  Column Finish() && {
    if (kind_ == AggKind::kCount) {
      return Column::MakeInt64(std::move(counts_));
    }
    const size_t n = counts_.size();
    std::vector<uint8_t> valid(n);
    for (size_t g = 0; g < n; ++g) {
      valid[g] = counts_[g] > 0 ? 1 : 0;
    }
    switch (values_) {
      case Values::kNone:  // MIN/MAX over bool is always null
        return Column::MakeBool(std::vector<uint8_t>(n, 0), std::vector<uint8_t>(n, 0));
      case Values::kInt:
        for (size_t g = 0; g < n; ++g) {
          ints_[g] = valid[g] != 0 ? ints_[g] : 0;
        }
        return Column::MakeInt64(std::move(ints_), std::move(valid));
      case Values::kDouble:
        for (size_t g = 0; g < n; ++g) {
          doubles_[g] = valid[g] == 0               ? 0.0
                        : kind_ == AggKind::kMean ? doubles_[g] / static_cast<double>(counts_[g])
                                                  : doubles_[g];
        }
        return Column::MakeFloat64(std::move(doubles_), std::move(valid));
      case Values::kString:
        return Column::MakeString(std::move(strings_), std::move(valid));
    }
    return Column();
  }

 private:
  enum class Values { kNone, kInt, kDouble, kString };

  // True when `v` should replace the current string extreme `cur`.
  bool Better(std::string_view v, const std::string& cur) const {
    return kind_ == AggKind::kMin ? v < cur : v > cur;
  }

  AggKind kind_;
  const Column* col_;
  DataType in_type_;
  Values values_ = Values::kNone;
  int64_t int_init_ = 0;
  double double_init_ = 0.0;
  std::vector<int64_t> counts_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

// Appends the indices of set mask positions in [begin, end) to `out`.
// The mask is consumed as raw bytes; validity is folded in outside the
// caller's inner loop by resolving the pointer once.
void SelectedIndices(const Column& mask, int64_t begin, int64_t end,
                     std::vector<int64_t>& out) {
  const uint8_t* values = mask.bools().data();
  const uint8_t* validity = mask.has_nulls() ? mask.validity().data() : nullptr;
  if (validity == nullptr) {
    for (int64_t r = begin; r < end; ++r) {
      if (values[r] != 0) {
        out.push_back(r);
      }
    }
  } else {
    for (int64_t r = begin; r < end; ++r) {
      if (validity[r] != 0 && values[r] != 0) {
        out.push_back(r);
      }
    }
  }
}

}  // namespace

Result<RecordBatch> FilterBatch(const RecordBatch& batch, const Expr& predicate,
                                const ComputeOptions& options) {
  SKADI_ASSIGN_OR_RETURN(Column mask, EvalExpr(predicate, batch));
  if (mask.type() != DataType::kBool) {
    return Status::InvalidArgument("filter predicate must be bool, got " +
                                   std::string(DataTypeName(mask.type())));
  }
  const int64_t rows = mask.length();
  std::vector<int64_t> indices;
  if (!options.ShouldParallelize(rows)) {
    indices.reserve(static_cast<size_t>(rows));
    SelectedIndices(mask, 0, rows, indices);
  } else {
    // Chunk-local selections concatenated in chunk order: identical row
    // order to the sequential scan.
    std::vector<std::vector<int64_t>> parts(static_cast<size_t>(options.num_threads));
    MorselPool::Global().ParallelChunks(
        rows, options.num_threads, [&](int chunk, int64_t begin, int64_t end) {
          std::vector<int64_t>& part = parts[static_cast<size_t>(chunk)];
          part.reserve(static_cast<size_t>(end - begin));
          SelectedIndices(mask, begin, end, part);
        });
    size_t total = 0;
    for (const auto& part : parts) {
      total += part.size();
    }
    indices.reserve(total);
    for (const auto& part : parts) {
      indices.insert(indices.end(), part.begin(), part.end());
    }
  }
  if (static_cast<int64_t>(indices.size()) == batch.num_rows()) {
    return batch;  // everything selected: no gather needed
  }
  return TakeBatch(batch, indices, options);
}

Result<RecordBatch> ProjectBatch(const RecordBatch& batch,
                                 const std::vector<ProjectionSpec>& projections,
                                 const ComputeOptions& options) {
  for (const ProjectionSpec& p : projections) {
    if (p.expr == nullptr) {
      return Status::InvalidArgument("projection '" + p.name + "' has no expression");
    }
  }
  std::vector<Result<Column>> results;
  results.reserve(projections.size());
  for (size_t i = 0; i < projections.size(); ++i) {
    results.emplace_back(Column());
  }
  if (projections.size() > 1 && options.ShouldParallelize(batch.num_rows())) {
    // Expressions are immutable and EvalExpr is pure over the batch, so
    // independent projections evaluate concurrently.
    MorselPool::Global().ParallelChunks(
        static_cast<int64_t>(projections.size()), options.num_threads,
        [&](int /*chunk*/, int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            results[static_cast<size_t>(i)] =
                EvalExpr(*projections[static_cast<size_t>(i)].expr, batch);
          }
        });
  } else {
    for (size_t i = 0; i < projections.size(); ++i) {
      results[i] = EvalExpr(*projections[i].expr, batch);
    }
  }
  std::vector<Field> fields;
  std::vector<Column> columns;
  fields.reserve(projections.size());
  columns.reserve(projections.size());
  for (size_t i = 0; i < projections.size(); ++i) {
    SKADI_RETURN_IF_ERROR(results[i].status());
    Column col = std::move(results[i]).value();
    fields.push_back({projections[i].name, col.type()});
    columns.push_back(std::move(col));
  }
  return RecordBatch::Make(Schema(std::move(fields)), std::move(columns));
}

Result<std::vector<RecordBatch>> HashPartitionBatch(
    const RecordBatch& batch, const std::vector<std::string>& key_columns,
    uint32_t num_partitions, const ComputeOptions& options) {
  if (num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be > 0");
  }
  SKADI_ASSIGN_OR_RETURN(std::vector<const Column*> keys,
                         ResolveColumns(batch, key_columns));
  const int64_t rows = batch.num_rows();

  // Partition id per row: a pure function of the key tuple, so chunks can
  // fill disjoint ranges concurrently and the result is independent of the
  // thread count.
  std::vector<uint32_t> partition_ids(static_cast<size_t>(rows));
  auto assign_range = [&](int64_t begin, int64_t end) {
    uint64_t hashes[kBlockRows];
    for (int64_t b = begin; b < end; b += kBlockRows) {
      int64_t e = std::min(end, b + kBlockRows);
      HashKeyRows(keys, b, e, hashes);
      for (int64_t r = b; r < e; ++r) {
        partition_ids[static_cast<size_t>(r)] =
            PartitionOf(hashes[r - b], num_partitions);
      }
    }
  };
  if (options.ShouldParallelize(rows)) {
    MorselPool::Global().ParallelChunks(
        rows, options.num_threads,
        [&](int /*chunk*/, int64_t begin, int64_t end) { assign_range(begin, end); });
  } else {
    assign_range(0, rows);
  }

  // Count first so every per-partition row list is allocated exactly once.
  std::vector<size_t> counts(num_partitions, 0);
  for (int64_t r = 0; r < rows; ++r) {
    counts[partition_ids[static_cast<size_t>(r)]]++;
  }
  std::vector<std::vector<int64_t>> partition_rows(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    partition_rows[p].reserve(counts[p]);
  }
  for (int64_t r = 0; r < rows; ++r) {
    partition_rows[partition_ids[static_cast<size_t>(r)]].push_back(r);
  }

  std::vector<RecordBatch> out(num_partitions);
  auto gather_range = [&](int64_t begin, int64_t end) {
    for (int64_t p = begin; p < end; ++p) {
      out[static_cast<size_t>(p)] = batch.Take(partition_rows[static_cast<size_t>(p)]);
    }
  };
  if (num_partitions > 1 && options.ShouldParallelize(rows)) {
    MorselPool::Global().ParallelChunks(
        static_cast<int64_t>(num_partitions), options.num_threads,
        [&](int /*chunk*/, int64_t begin, int64_t end) { gather_range(begin, end); });
  } else {
    gather_range(0, num_partitions);
  }
  return out;
}

Result<RecordBatch> GroupAggregateBatch(const RecordBatch& batch,
                                        const std::vector<std::string>& group_by,
                                        const std::vector<AggregateSpec>& aggregates,
                                        const ComputeOptions& options) {
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

  const int64_t rows = batch.num_rows();
  auto make_accumulators = [&] {
    std::vector<Accumulator> accs;
    accs.reserve(aggregates.size());
    for (size_t a = 0; a < aggregates.size(); ++a) {
      accs.emplace_back(aggregates[a].kind, agg_cols[a]);
    }
    return accs;
  };
  // Groups rows [begin, end) one block at a time and folds every aggregate
  // over each block while its group ids are still on the stack.
  auto aggregate_range = [&](int64_t begin, int64_t end, Grouper& grouper,
                             std::vector<Accumulator>& accs) {
    uint32_t gids[kBlockRows];
    for (int64_t b = begin; b < end; b += kBlockRows) {
      const int64_t e = std::min(end, b + kBlockRows);
      grouper.Assign(b, e, gids);
      for (Accumulator& acc : accs) {
        acc.Resize(grouper.num_groups());
        acc.Fold(gids, b, e);
      }
    }
  };

  std::vector<int64_t> rep_rows;
  std::vector<Accumulator> accs = make_accumulators();
  if (!options.ShouldParallelize(rows)) {
    Grouper grouper(group_cols, 0, rows);
    aggregate_range(0, rows, grouper, accs);
    rep_rows = grouper.rep_rows();
  } else {
    // Morsel-parallel: each chunk groups its row range into a private index
    // and accumulators. The merge indexes every chunk's group keys,
    // concatenated in chunk order (which keeps the sequential
    // first-occurrence group order), and folds each partial into its group.
    struct Partial {
      std::vector<int64_t> rep_rows;
      std::vector<Accumulator> accs;
    };
    std::vector<Partial> partials(static_cast<size_t>(options.num_threads));
    for (Partial& part : partials) {
      part.accs = make_accumulators();
    }
    MorselPool::Global().ParallelChunks(
        rows, options.num_threads, [&](int chunk, int64_t begin, int64_t end) {
          Partial& part = partials[static_cast<size_t>(chunk)];
          Grouper grouper(group_cols, begin, end);
          aggregate_range(begin, end, grouper, part.accs);
          part.rep_rows = grouper.rep_rows();
        });
    std::vector<int64_t> reps;
    for (const Partial& part : partials) {
      reps.insert(reps.end(), part.rep_rows.begin(), part.rep_rows.end());
    }
    std::vector<Column> rep_key_cols;
    for (const Column* col : group_cols) {
      rep_key_cols.push_back(col->Take(reps));
    }
    std::vector<const Column*> rep_keys;
    for (const Column& col : rep_key_cols) {
      rep_keys.push_back(&col);
    }
    const int64_t num_reps = static_cast<int64_t>(reps.size());
    Grouper merged(rep_keys, 0, num_reps);
    std::vector<uint32_t> to(reps.size());
    merged.Assign(0, num_reps, to.data());
    size_t at = 0;
    for (const Partial& part : partials) {
      for (size_t a = 0; a < accs.size(); ++a) {
        accs[a].Resize(merged.num_groups());
        accs[a].Merge(part.accs[a], to.data() + at);
      }
      at += part.rep_rows.size();
    }
    for (int64_t rep : merged.rep_rows()) {
      rep_rows.push_back(reps[static_cast<size_t>(rep)]);
    }
  }
  if (group_by.empty() && rep_rows.empty()) {
    rep_rows.push_back(-1);  // global agg over empty input: one zero row
  }

  std::vector<Field> fields;
  std::vector<Column> columns;

  // Group key columns, in declaration order, gathered from representatives.
  for (size_t k = 0; k < group_by.size(); ++k) {
    const Column* src = group_cols[k];
    fields.push_back({group_by[k], src->type()});
    columns.push_back(src->Take(rep_rows));
  }

  // Aggregate output columns.
  for (size_t a = 0; a < aggregates.size(); ++a) {
    accs[a].Resize(rep_rows.size());
    fields.push_back({aggregates[a].name, accs[a].out_type()});
    columns.push_back(std::move(accs[a]).Finish());
  }

  return RecordBatch::Make(Schema(std::move(fields)), std::move(columns));
}

Result<RecordBatch> SortBatch(const RecordBatch& batch, const std::vector<SortKey>& keys) {
  std::vector<const Column*> cols;
  std::vector<std::string> names;
  names.reserve(keys.size());
  for (const SortKey& k : keys) {
    names.push_back(k.column);
  }
  SKADI_ASSIGN_OR_RETURN(cols, ResolveColumns(batch, names));

  std::vector<int64_t> indices(static_cast<size_t>(batch.num_rows()));
  std::iota(indices.begin(), indices.end(), 0);

  auto compare_at = [&](const Column& col, int64_t a, int64_t b) -> int {
    bool na = col.IsNull(a);
    bool nb = col.IsNull(b);
    if (na || nb) {
      return na == nb ? 0 : (na ? -1 : 1);  // nulls first in ascending order
    }
    switch (col.type()) {
      case DataType::kInt64: {
        int64_t va = col.Int64At(a);
        int64_t vb = col.Int64At(b);
        return va < vb ? -1 : (va > vb ? 1 : 0);
      }
      case DataType::kFloat64: {
        double va = col.Float64At(a);
        double vb = col.Float64At(b);
        return va < vb ? -1 : (va > vb ? 1 : 0);
      }
      case DataType::kString: {
        int cmp = col.StringAt(a).compare(col.StringAt(b));
        return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
      }
      case DataType::kBool: {
        int va = col.BoolAt(a) ? 1 : 0;
        int vb = col.BoolAt(b) ? 1 : 0;
        return va - vb;
      }
    }
    return 0;
  };

  std::stable_sort(indices.begin(), indices.end(), [&](int64_t a, int64_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      int cmp = compare_at(*cols[k], a, b);
      if (cmp != 0) {
        return keys[k].ascending ? cmp < 0 : cmp > 0;
      }
    }
    return false;
  });

  return batch.Take(indices);
}

Result<RecordBatch> HashJoinBatch(const RecordBatch& left, const RecordBatch& right,
                                  const std::vector<std::string>& left_keys,
                                  const std::vector<std::string>& right_keys,
                                  const ComputeOptions& options) {
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

  // Build side: right, indexed once, with each key's right rows listed
  // contiguously in ascending row order (rows_of[starts[g] .. starts[g+1])).
  const int64_t build_rows = right.num_rows();
  Grouper index(rkeys, 0, build_rows);
  std::vector<uint32_t> build_gids(static_cast<size_t>(build_rows));
  index.Assign(0, build_rows, build_gids.data());
  std::vector<int64_t> starts(index.num_groups() + 1, 0);
  for (uint32_t g : build_gids) {
    starts[g + 1]++;
  }
  std::partial_sum(starts.begin(), starts.end(), starts.begin());
  std::vector<int64_t> rows_of(static_cast<size_t>(build_rows));
  {
    std::vector<int64_t> next(starts.begin(), starts.end() - 1);
    for (int64_t r = 0; r < build_rows; ++r) {
      rows_of[static_cast<size_t>(next[build_gids[static_cast<size_t>(r)]]++)] = r;
    }
  }

  // Probe side: left, one block at a time. Calls emit(l, from, to) for
  // every left row l in [begin, end) whose key matches right rows
  // rows_of[from .. to). A block's matching rows are compacted branch-free
  // first: in a selective join most rows miss, and a per-row branch on the
  // probe result mispredicts.
  auto probe = [&](int64_t begin, int64_t end, auto emit) {
    uint32_t gids[kBlockRows];
    uint32_t hits[kBlockRows];
    for (int64_t b = begin; b < end; b += kBlockRows) {
      const int64_t e = std::min(end, b + kBlockRows);
      index.Find(lkeys, b, e, gids);
      uint32_t n = 0;
      for (uint32_t i = 0; i < static_cast<uint32_t>(e - b); ++i) {
        hits[n] = i;
        n += gids[i] != kNoGroup ? 1 : 0;
      }
      for (uint32_t j = 0; j < n; ++j) {
        const uint32_t g = gids[hits[j]];
        emit(b + hits[j], starts[g], starts[g + 1]);
      }
    }
  };

  // Matched (left row, right row) pairs, in left-row order.
  const int64_t probe_rows = left.num_rows();
  std::vector<int64_t> seq_left;
  std::vector<int64_t> seq_right;
  std::unique_ptr<int64_t[]> par_pairs;
  ArrayView<int64_t> left_rows;
  ArrayView<int64_t> right_rows;
  if (!options.ShouldParallelize(probe_rows)) {
    auto append = [&](int64_t l, int64_t from, int64_t to) {
      for (int64_t i = from; i < to; ++i) {
        seq_left.push_back(l);
        seq_right.push_back(rows_of[static_cast<size_t>(i)]);
      }
    };
    // Size the lists from the first block's match rate, so a large result
    // is not grown by repeated copying (and page faults) as it fills.
    const int64_t first = std::min(probe_rows, kBlockRows);
    probe(0, first, append);
    const size_t expected =
        seq_left.size() * static_cast<size_t>((probe_rows + kBlockRows - 1) / kBlockRows);
    seq_left.reserve(expected);
    seq_right.reserve(expected);
    probe(first, probe_rows, append);
    left_rows = seq_left;
    right_rows = seq_right;
  } else {
    // Morsel-parallel: the index is read-only here, so morsels probe
    // concurrently. A counting pass sizes each morsel's slice of the pair
    // arrays, then every morsel writes its pairs straight into its slice:
    // no per-morsel list grows by copying and none is concatenated.
    const int64_t morsel_rows = std::max<int64_t>(1, options.morsel_rows);
    const int64_t num_morsels = (probe_rows + morsel_rows - 1) / morsel_rows;
    std::vector<int64_t> offsets(static_cast<size_t>(num_morsels) + 1, 0);
    MorselPool::Global().ParallelFor(
        probe_rows, morsel_rows, options.num_threads,
        [&](int64_t morsel, int64_t begin, int64_t end) {
          int64_t count = 0;
          probe(begin, end, [&](int64_t, int64_t from, int64_t to) { count += to - from; });
          offsets[static_cast<size_t>(morsel) + 1] = count;
        });
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    const size_t total = static_cast<size_t>(offsets.back());
    par_pairs = std::make_unique_for_overwrite<int64_t[]>(2 * total);
    int64_t* out_left = par_pairs.get();
    int64_t* out_right = out_left + total;
    MorselPool::Global().ParallelFor(
        probe_rows, morsel_rows, options.num_threads,
        [&](int64_t morsel, int64_t begin, int64_t end) {
          int64_t at = offsets[static_cast<size_t>(morsel)];
          probe(begin, end, [&](int64_t l, int64_t from, int64_t to) {
            for (int64_t i = from; i < to; ++i, ++at) {
              out_left[at] = l;
              out_right[at] = rows_of[static_cast<size_t>(i)];
            }
          });
        });
    left_rows = ArrayView<int64_t>(out_left, total);
    right_rows = ArrayView<int64_t>(out_right, total);
  }

  // Assemble output: all left columns, right columns minus keys (which are
  // never gathered).
  std::vector<Field> fields(left.schema().fields());
  std::vector<Gather> gathers;
  for (size_t c = 0; c < left.num_columns(); ++c) {
    gathers.push_back({&left.column(c), left_rows});
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    const Field& field = right.schema().field(c);
    if (std::find(right_keys.begin(), right_keys.end(), field.name) != right_keys.end()) {
      continue;
    }
    std::string out_name = field.name;
    if (left.schema().IndexOf(out_name).has_value()) {
      out_name += "_r";
    }
    fields.push_back({out_name, field.type});
    gathers.push_back({&right.column(c), right_rows});
  }
  return RecordBatch::Make(Schema(std::move(fields)), GatherColumns(gathers, options));
}

RecordBatch LimitBatch(const RecordBatch& batch, int64_t n) {
  return batch.Slice(0, n);
}

}  // namespace skadi
