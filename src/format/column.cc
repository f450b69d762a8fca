#include "src/format/column.h"

#include <algorithm>
#include <cstring>

namespace skadi {

std::string_view DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kFloat64:
      return "float64";
    case DataType::kString:
      return "string";
    case DataType::kBool:
      return "bool";
  }
  return "?";
}

void Column::AdoptStorage(std::shared_ptr<Storage> storage) {
  ints_ = storage->ints;
  doubles_ = storage->doubles;
  bools_ = storage->bools;
  string_offsets_ = storage->string_offsets;
  string_bytes_ = storage->string_bytes;
  validity_ = storage->validity;
  storage_ = std::move(storage);
  owner_ = storage_;
}

void Column::CountNulls() {
  null_count_ = 0;
  for (uint8_t v : validity_) {
    if (v == 0) {
      ++null_count_;
    }
  }
  if (null_count_ == 0) {
    validity_ = {};  // normalize: all-valid bitmap == no bitmap
  }
}

void Column::SetNullCount(int64_t null_count) {
  if (null_count < 0) {
    CountNulls();
    return;
  }
  null_count_ = null_count;
  if (null_count_ == 0) {
    validity_ = {};
  }
}

Column Column::MakeInt64(std::vector<int64_t> values, std::vector<uint8_t> validity) {
  Column c;
  c.type_ = DataType::kInt64;
  c.length_ = static_cast<int64_t>(values.size());
  assert(validity.empty() || validity.size() == values.size());
  auto storage = std::make_shared<Storage>();
  storage->ints = std::move(values);
  storage->validity = std::move(validity);
  c.AdoptStorage(std::move(storage));
  c.CountNulls();
  return c;
}

Column Column::MakeFloat64(std::vector<double> values, std::vector<uint8_t> validity) {
  Column c;
  c.type_ = DataType::kFloat64;
  c.length_ = static_cast<int64_t>(values.size());
  assert(validity.empty() || validity.size() == values.size());
  auto storage = std::make_shared<Storage>();
  storage->doubles = std::move(values);
  storage->validity = std::move(validity);
  c.AdoptStorage(std::move(storage));
  c.CountNulls();
  return c;
}

Column Column::MakeBool(std::vector<uint8_t> values, std::vector<uint8_t> validity) {
  Column c;
  c.type_ = DataType::kBool;
  c.length_ = static_cast<int64_t>(values.size());
  assert(validity.empty() || validity.size() == values.size());
  auto storage = std::make_shared<Storage>();
  storage->bools = std::move(values);
  storage->validity = std::move(validity);
  c.AdoptStorage(std::move(storage));
  c.CountNulls();
  return c;
}

Column Column::MakeString(std::vector<std::string> values, std::vector<uint8_t> validity) {
  Column c;
  c.type_ = DataType::kString;
  c.length_ = static_cast<int64_t>(values.size());
  assert(validity.empty() || validity.size() == values.size());
  auto storage = std::make_shared<Storage>();
  storage->string_offsets.reserve(values.size() + 1);
  storage->string_offsets.push_back(0);
  size_t total = 0;
  for (const std::string& s : values) {
    total += s.size();
  }
  storage->string_bytes.reserve(total);
  for (const std::string& s : values) {
    storage->string_bytes.insert(storage->string_bytes.end(), s.begin(), s.end());
    storage->string_offsets.push_back(static_cast<uint32_t>(storage->string_bytes.size()));
  }
  storage->validity = std::move(validity);
  c.AdoptStorage(std::move(storage));
  c.CountNulls();
  return c;
}

Column Column::MakeStringFromOffsets(std::vector<uint32_t> offsets,
                                     std::vector<char> bytes,
                                     std::vector<uint8_t> validity) {
  assert(!offsets.empty() && offsets.front() == 0);
  assert(offsets.back() == bytes.size());
  Column c;
  c.type_ = DataType::kString;
  c.length_ = static_cast<int64_t>(offsets.size()) - 1;
  assert(validity.empty() || validity.size() == static_cast<size_t>(c.length_));
  auto storage = std::make_shared<Storage>();
  storage->string_offsets = std::move(offsets);
  storage->string_bytes = std::move(bytes);
  storage->validity = std::move(validity);
  c.AdoptStorage(std::move(storage));
  c.CountNulls();
  return c;
}

Column Column::ViewInt64(std::shared_ptr<const void> owner, const int64_t* values,
                         int64_t length, const uint8_t* validity, int64_t null_count) {
  Column c;
  c.type_ = DataType::kInt64;
  c.length_ = length;
  c.owner_ = std::move(owner);
  c.ints_ = {values, static_cast<size_t>(length)};
  if (validity != nullptr) {
    c.validity_ = {validity, static_cast<size_t>(length)};
  }
  c.SetNullCount(null_count);
  return c;
}

Column Column::ViewFloat64(std::shared_ptr<const void> owner, const double* values,
                           int64_t length, const uint8_t* validity, int64_t null_count) {
  Column c;
  c.type_ = DataType::kFloat64;
  c.length_ = length;
  c.owner_ = std::move(owner);
  c.doubles_ = {values, static_cast<size_t>(length)};
  if (validity != nullptr) {
    c.validity_ = {validity, static_cast<size_t>(length)};
  }
  c.SetNullCount(null_count);
  return c;
}

Column Column::ViewBool(std::shared_ptr<const void> owner, const uint8_t* values,
                        int64_t length, const uint8_t* validity, int64_t null_count) {
  Column c;
  c.type_ = DataType::kBool;
  c.length_ = length;
  c.owner_ = std::move(owner);
  c.bools_ = {values, static_cast<size_t>(length)};
  if (validity != nullptr) {
    c.validity_ = {validity, static_cast<size_t>(length)};
  }
  c.SetNullCount(null_count);
  return c;
}

Column Column::ViewString(std::shared_ptr<const void> owner, const uint32_t* offsets,
                          int64_t length, const char* bytes, const uint8_t* validity,
                          int64_t null_count) {
  assert(offsets != nullptr && offsets[0] == 0);
  Column c;
  c.type_ = DataType::kString;
  c.length_ = length;
  c.owner_ = std::move(owner);
  c.string_offsets_ = {offsets, static_cast<size_t>(length) + 1};
  c.string_bytes_ = {bytes, static_cast<size_t>(offsets[length])};
  if (validity != nullptr) {
    c.validity_ = {validity, static_cast<size_t>(length)};
  }
  c.SetNullCount(null_count);
  return c;
}

size_t Column::ByteSize() const {
  size_t bytes = 0;
  bytes += ints_.size() * sizeof(int64_t);
  bytes += doubles_.size() * sizeof(double);
  bytes += bools_.size();
  bytes += string_offsets_.size() * sizeof(uint32_t);
  bytes += string_bytes_.size();
  bytes += validity_.size();
  return bytes;
}

Column Column::Take(const int64_t* indices, size_t n) const {
  // Contiguous ascending selections (whole-batch filters, slices expressed as
  // index lists) degrade to a zero-copy/bulk slice.
  if (n > 0 && indices[n - 1] == indices[0] + static_cast<int64_t>(n) - 1) {
    bool contiguous = true;
    for (size_t i = 1; i < n; ++i) {
      if (indices[i] != indices[i - 1] + 1) {
        contiguous = false;
        break;
      }
    }
    if (contiguous) {
      return SliceRange(indices[0], static_cast<int64_t>(n));
    }
  }

  Column c;
  c.type_ = type_;
  c.length_ = static_cast<int64_t>(n);
  auto storage = std::make_shared<Storage>();
  switch (type_) {
    case DataType::kInt64: {
      storage->ints.resize(n);
      const int64_t* src = ints_.data();
      for (size_t i = 0; i < n; ++i) {
        assert(indices[i] >= 0 && indices[i] < length_);
        storage->ints[i] = src[indices[i]];
      }
      break;
    }
    case DataType::kFloat64: {
      storage->doubles.resize(n);
      const double* src = doubles_.data();
      for (size_t i = 0; i < n; ++i) {
        assert(indices[i] >= 0 && indices[i] < length_);
        storage->doubles[i] = src[indices[i]];
      }
      break;
    }
    case DataType::kBool: {
      storage->bools.resize(n);
      const uint8_t* src = bools_.data();
      for (size_t i = 0; i < n; ++i) {
        assert(indices[i] >= 0 && indices[i] < length_);
        storage->bools[i] = src[indices[i]];
      }
      break;
    }
    case DataType::kString: {
      // Pass 1: exact byte total so the data buffer is sized once.
      const uint32_t* offsets = string_offsets_.data();
      size_t total = 0;
      for (size_t i = 0; i < n; ++i) {
        assert(indices[i] >= 0 && indices[i] < length_);
        total += offsets[indices[i] + 1] - offsets[indices[i]];
      }
      storage->string_offsets.resize(n + 1);
      storage->string_bytes.resize(total);
      // Pass 2: copy each row's bytes and write rebased offsets.
      const char* src = string_bytes_.data();
      char* dst = storage->string_bytes.data();
      uint32_t pos = 0;
      storage->string_offsets[0] = 0;
      for (size_t i = 0; i < n; ++i) {
        uint32_t begin = offsets[indices[i]];
        uint32_t len = offsets[indices[i] + 1] - begin;
        std::memcpy(dst + pos, src + begin, len);
        pos += len;
        storage->string_offsets[i + 1] = pos;
      }
      break;
    }
  }
  if (!validity_.empty()) {
    storage->validity.resize(n);
    const uint8_t* src = validity_.data();
    for (size_t i = 0; i < n; ++i) {
      storage->validity[i] = src[indices[i]];
    }
  }
  c.AdoptStorage(std::move(storage));
  c.CountNulls();
  return c;
}

Column Column::SliceRange(int64_t offset, int64_t length) const {
  offset = std::max<int64_t>(0, std::min(offset, length_));
  length = std::max<int64_t>(0, std::min(length, length_ - offset));
  const size_t b = static_cast<size_t>(offset);
  const size_t e = b + static_cast<size_t>(length);
  Column c;
  c.type_ = type_;
  c.length_ = length;
  switch (type_) {
    // Fixed-width slices alias the parent's storage: same refcounted owner,
    // views shifted into the subrange. No bytes move; the slice keeps the
    // whole parent allocation alive (documented in DESIGN.md's zero-copy
    // model — morsel-sized slices of long-lived batches are fine, tiny
    // slices of huge transient batches should Take() instead).
    case DataType::kInt64:
      c.owner_ = owner_;
      c.storage_ = storage_;
      c.ints_ = ints_.subview(b, static_cast<size_t>(length));
      break;
    case DataType::kFloat64:
      c.owner_ = owner_;
      c.storage_ = storage_;
      c.doubles_ = doubles_.subview(b, static_cast<size_t>(length));
      break;
    case DataType::kBool:
      c.owner_ = owner_;
      c.storage_ = storage_;
      c.bools_ = bools_.subview(b, static_cast<size_t>(length));
      break;
    case DataType::kString: {
      // Strings copy: offsets must be rebased to start at 0.
      auto storage = std::make_shared<Storage>();
      const uint32_t base = string_offsets_[b];
      storage->string_offsets.resize(static_cast<size_t>(length) + 1);
      for (size_t i = 0; i <= static_cast<size_t>(length); ++i) {
        storage->string_offsets[i] = string_offsets_[b + i] - base;
      }
      storage->string_bytes.assign(string_bytes_.begin() + base,
                                   string_bytes_.begin() + string_offsets_[e]);
      if (!validity_.empty()) {
        storage->validity.assign(validity_.begin() + b, validity_.begin() + e);
      }
      c.AdoptStorage(std::move(storage));
      c.CountNulls();
      return c;
    }
  }
  if (!validity_.empty()) {
    c.validity_ = validity_.subview(b, static_cast<size_t>(length));
  }
  c.CountNulls();
  return c;
}

std::string Column::ValueToString(int64_t i) const {
  if (IsNull(i)) {
    return "null";
  }
  switch (type_) {
    case DataType::kInt64:
      return std::to_string(Int64At(i));
    case DataType::kFloat64:
      return std::to_string(Float64At(i));
    case DataType::kString:
      return std::string(StringAt(i));
    case DataType::kBool:
      return BoolAt(i) ? "true" : "false";
  }
  return "?";
}

void ColumnBuilder::AppendValid(bool valid) {
  validity_.push_back(valid ? 1 : 0);
  if (!valid) {
    saw_null_ = true;
  }
  ++length_;
}

void ColumnBuilder::AppendInt64(int64_t v) {
  assert(type_ == DataType::kInt64);
  ints_.push_back(v);
  AppendValid(true);
}

void ColumnBuilder::AppendFloat64(double v) {
  assert(type_ == DataType::kFloat64);
  doubles_.push_back(v);
  AppendValid(true);
}

void ColumnBuilder::AppendBool(bool v) {
  assert(type_ == DataType::kBool);
  bools_.push_back(v ? 1 : 0);
  AppendValid(true);
}

void ColumnBuilder::AppendString(std::string_view v) {
  assert(type_ == DataType::kString);
  string_bytes_.insert(string_bytes_.end(), v.begin(), v.end());
  string_offsets_.push_back(static_cast<uint32_t>(string_bytes_.size()));
  AppendValid(true);
}

void ColumnBuilder::AppendNull() {
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kFloat64:
      doubles_.push_back(0.0);
      break;
    case DataType::kBool:
      bools_.push_back(0);
      break;
    case DataType::kString:
      string_offsets_.push_back(static_cast<uint32_t>(string_bytes_.size()));
      break;
  }
  AppendValid(false);
}

void ColumnBuilder::AppendFrom(const Column& src, int64_t i) {
  assert(src.type() == type_);
  if (src.IsNull(i)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt64(src.Int64At(i));
      break;
    case DataType::kFloat64:
      AppendFloat64(src.Float64At(i));
      break;
    case DataType::kBool:
      AppendBool(src.BoolAt(i));
      break;
    case DataType::kString:
      AppendString(src.StringAt(i));
      break;
  }
}

Column ColumnBuilder::Finish() {
  Column c;
  c.type_ = type_;
  c.length_ = length_;
  auto storage = std::make_shared<Column::Storage>();
  storage->ints = std::move(ints_);
  storage->doubles = std::move(doubles_);
  storage->bools = std::move(bools_);
  storage->string_offsets = std::move(string_offsets_);
  storage->string_bytes = std::move(string_bytes_);
  if (saw_null_) {
    storage->validity = std::move(validity_);
  }
  c.AdoptStorage(std::move(storage));
  c.CountNulls();
  // Reset to a valid empty state.
  length_ = 0;
  saw_null_ = false;
  ints_.clear();
  doubles_.clear();
  bools_.clear();
  string_bytes_.clear();
  string_offsets_ = {0};
  validity_.clear();
  return c;
}

}  // namespace skadi
