// Columnar arrays with optional validity (null) bitmaps.
//
// A Column is an immutable view over contiguous typed storage: fixed-width
// arrays for int64/float64/bool, offsets+bytes for strings (the Arrow
// layout). The storage behind the views is refcounted and comes in two
// flavours:
//   * owned  — vectors built by ColumnBuilder / the Make* factories, held in
//              a shared Storage block (column copies are O(1) and share it);
//   * foreign — a sealed IPC Buffer: the zero-copy deserializer points the
//              views straight into the wire bytes and keeps the Buffer's
//              owner handle alive (View* factories).
// Either way Columns are immutable after construction, so aliasing is safe
// across threads and across object-store eviction (the store entry dies, the
// refcounted bytes do not).
#ifndef SRC_FORMAT_COLUMN_H_
#define SRC_FORMAT_COLUMN_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/array_view.h"
#include "src/common/status.h"
#include "src/format/datatype.h"

namespace skadi {

class Column {
 public:
  Column() = default;

  static Column MakeInt64(std::vector<int64_t> values,
                          std::vector<uint8_t> validity = {});
  static Column MakeFloat64(std::vector<double> values,
                            std::vector<uint8_t> validity = {});
  static Column MakeBool(std::vector<uint8_t> values,
                         std::vector<uint8_t> validity = {});
  static Column MakeString(std::vector<std::string> values,
                           std::vector<uint8_t> validity = {});
  // Adopts an Arrow-layout string column directly (offsets has length+1
  // entries, offsets[0] == 0, monotonic, back() == bytes.size()); lets serde
  // and vectorized gathers skip per-row rebuilds. Invariants are asserted.
  static Column MakeStringFromOffsets(std::vector<uint32_t> offsets,
                                      std::vector<char> bytes,
                                      std::vector<uint8_t> validity = {});

  // --- Zero-copy (foreign-storage) factories ---
  // The column's arrays alias memory kept alive by `owner` (typically a
  // Buffer::owner() handle). `validity` may be nullptr (no nulls).
  // `null_count` < 0 means "unknown, scan the bitmap"; passing the exact
  // count (the IPC header carries it) makes construction O(1).
  static Column ViewInt64(std::shared_ptr<const void> owner, const int64_t* values,
                          int64_t length, const uint8_t* validity = nullptr,
                          int64_t null_count = -1);
  static Column ViewFloat64(std::shared_ptr<const void> owner, const double* values,
                            int64_t length, const uint8_t* validity = nullptr,
                            int64_t null_count = -1);
  static Column ViewBool(std::shared_ptr<const void> owner, const uint8_t* values,
                         int64_t length, const uint8_t* validity = nullptr,
                         int64_t null_count = -1);
  // `offsets` must have length+1 entries with offsets[0] == 0, monotonic,
  // offsets[length] == bytes_size (callers validate wire data first).
  static Column ViewString(std::shared_ptr<const void> owner, const uint32_t* offsets,
                           int64_t length, const char* bytes,
                           const uint8_t* validity = nullptr, int64_t null_count = -1);

  DataType type() const { return type_; }
  int64_t length() const { return length_; }

  // True when the column has a validity bitmap with at least one null.
  bool has_nulls() const { return null_count_ > 0; }
  int64_t null_count() const { return null_count_; }

  bool IsNull(int64_t i) const {
    assert(i >= 0 && i < length_);
    return !validity_.empty() && validity_[static_cast<size_t>(i)] == 0;
  }

  int64_t Int64At(int64_t i) const {
    assert(type_ == DataType::kInt64);
    return ints_[static_cast<size_t>(i)];
  }
  double Float64At(int64_t i) const {
    assert(type_ == DataType::kFloat64);
    return doubles_[static_cast<size_t>(i)];
  }
  bool BoolAt(int64_t i) const {
    assert(type_ == DataType::kBool);
    return bools_[static_cast<size_t>(i)] != 0;
  }
  std::string_view StringAt(int64_t i) const {
    assert(type_ == DataType::kString);
    size_t idx = static_cast<size_t>(i);
    return std::string_view(string_bytes_.data() + string_offsets_[idx],
                            string_offsets_[idx + 1] - string_offsets_[idx]);
  }

  // Approximate in-memory footprint (used for cost accounting & store sizes).
  size_t ByteSize() const;

  // Raw storage accessors for serde and vectorized kernels. Views remain
  // valid for the lifetime of this Column (or any copy of it).
  ArrayView<int64_t> ints() const { return ints_; }
  ArrayView<double> doubles() const { return doubles_; }
  ArrayView<uint8_t> bools() const { return bools_; }
  ArrayView<uint32_t> string_offsets() const { return string_offsets_; }
  ArrayView<char> string_bytes() const { return string_bytes_; }
  ArrayView<uint8_t> validity() const { return validity_; }

  // True when this column's arrays alias storage it does not exclusively
  // own (a foreign buffer or a parent column). Diagnostic only.
  bool is_view() const { return owner_ != nullptr && storage_ == nullptr; }

  // Gathers rows at `indices` into a new column. Out-of-range indices are a
  // programming error (asserted). Typed bulk gather; contiguous ascending
  // runs degrade to SliceRange slices.
  Column Take(const std::vector<int64_t>& indices) const {
    return Take(indices.data(), indices.size());
  }
  // Same, over a raw array of `n` indices.
  Column Take(const int64_t* indices, size_t n) const;

  // Rows [offset, offset+length) as a new column (clamps to bounds).
  // Fixed-width columns alias this column's storage zero-copy (sharing its
  // owner); string columns copy, since their offsets must be rebased.
  Column SliceRange(int64_t offset, int64_t length) const;

  // Value at row i rendered as text ("null" for nulls); for debugging/tests.
  std::string ValueToString(int64_t i) const;

 private:
  friend class ColumnBuilder;

  // Owned backing arrays, shared between column copies and slices.
  struct Storage {
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<uint8_t> bools;
    std::vector<uint32_t> string_offsets;
    std::vector<char> string_bytes;
    std::vector<uint8_t> validity;
  };

  // Points the views at `storage`'s vectors and adopts it as owner.
  void AdoptStorage(std::shared_ptr<Storage> storage);
  // Scans validity_ for nulls; normalizes an all-valid bitmap away.
  void CountNulls();
  // Applies a known null_count (or scans when < 0) and normalizes.
  void SetNullCount(int64_t null_count);

  DataType type_ = DataType::kInt64;
  int64_t length_ = 0;
  int64_t null_count_ = 0;
  // Keeps the viewed bytes alive: the shared Storage block for owned
  // columns, or a foreign handle (e.g. Buffer::owner()) for views. Null only
  // for default-constructed empty columns.
  std::shared_ptr<const void> owner_;
  std::shared_ptr<Storage> storage_;  // non-null iff storage is owned
  ArrayView<int64_t> ints_;
  ArrayView<double> doubles_;
  ArrayView<uint8_t> bools_;
  ArrayView<uint32_t> string_offsets_;  // length+1 entries
  ArrayView<char> string_bytes_;
  ArrayView<uint8_t> validity_;  // empty = all valid; else 1 byte per row
};

// Append-side builder for one column. AppendNull works for any type.
class ColumnBuilder {
 public:
  explicit ColumnBuilder(DataType type) : type_(type) { string_offsets_.push_back(0); }

  DataType type() const { return type_; }
  int64_t length() const { return length_; }

  void AppendInt64(int64_t v);
  void AppendFloat64(double v);
  void AppendBool(bool v);
  void AppendString(std::string_view v);
  void AppendNull();

  // Appends row `i` of `src` (same type), null-preserving.
  void AppendFrom(const Column& src, int64_t i);

  Column Finish();

 private:
  void AppendValid(bool valid);

  DataType type_;
  int64_t length_ = 0;
  bool saw_null_ = false;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::vector<uint32_t> string_offsets_;
  std::vector<char> string_bytes_;
  std::vector<uint8_t> validity_;
};

}  // namespace skadi

#endif  // SRC_FORMAT_COLUMN_H_
