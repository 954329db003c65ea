#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "arrowlite/buffer.h"
#include "arrowlite/type.h"
#include "common/macros.h"

namespace mainline::arrowlite {

/// An immutable Arrow array: a validity bitmap plus type-dependent buffers.
///
///  - fixed-size types: one values buffer
///  - kString:          int32 offsets buffer + values (bytes) buffer
///  - kDictionary:      int32 indices buffer + a shared dictionary (kString)
///
/// Validity bitmaps are LSB-first (one bit per value, set = non-null); a null
/// validity buffer means the array has no nulls.
class Array {
 public:
  /// Fixed-width array.
  static std::shared_ptr<Array> MakeFixed(Type type, int64_t length,
                                          std::shared_ptr<Buffer> values,
                                          std::shared_ptr<Buffer> validity = nullptr,
                                          int64_t null_count = 0) {
    MAINLINE_ASSERT(TypeWidth(type) > 0, "not a fixed-width type");
    auto result = std::shared_ptr<Array>(new Array(type, length, null_count));
    result->validity_ = std::move(validity);
    result->buffers_.push_back(std::move(values));
    return result;
  }

  /// Variable-length string/binary array.
  static std::shared_ptr<Array> MakeString(int64_t length, std::shared_ptr<Buffer> offsets,
                                           std::shared_ptr<Buffer> values,
                                           std::shared_ptr<Buffer> validity = nullptr,
                                           int64_t null_count = 0) {
    auto result = std::shared_ptr<Array>(new Array(Type::kString, length, null_count));
    result->validity_ = std::move(validity);
    result->buffers_.push_back(std::move(offsets));
    result->buffers_.push_back(std::move(values));
    return result;
  }

  /// Dictionary-encoded array: int32 codes into a string dictionary.
  static std::shared_ptr<Array> MakeDictionary(int64_t length, std::shared_ptr<Buffer> indices,
                                               std::shared_ptr<Array> dictionary,
                                               std::shared_ptr<Buffer> validity = nullptr,
                                               int64_t null_count = 0) {
    auto result = std::shared_ptr<Array>(new Array(Type::kDictionary, length, null_count));
    result->validity_ = std::move(validity);
    result->buffers_.push_back(std::move(indices));
    result->dictionary_ = std::move(dictionary);
    return result;
  }

  Type type() const { return type_; }
  int64_t length() const { return length_; }
  int64_t null_count() const { return null_count_; }
  const std::shared_ptr<Buffer> &validity() const { return validity_; }
  const std::shared_ptr<Buffer> &buffer(int i) const { return buffers_[static_cast<size_t>(i)]; }
  const std::shared_ptr<Array> &dictionary() const { return dictionary_; }

  /// \return true if value `i` is null.
  bool IsNull(int64_t i) const {
    if (validity_ == nullptr) return false;
    const auto *bits = validity_->data_as<uint8_t>();
    return (bits[i / 8] & (1u << (i % 8))) == 0;
  }

  /// Typed fixed-width accessor (no null check).
  template <typename T>
  T Value(int64_t i) const {
    return buffers_[0]->data_as<T>()[i];
  }

  /// String accessor: resolves dictionary indirection for kDictionary.
  std::string_view GetString(int64_t i) const {
    if (type_ == Type::kDictionary) {
      const int32_t code = buffers_[0]->data_as<int32_t>()[i];
      return dictionary_->GetString(code);
    }
    const auto *offsets = buffers_[0]->data_as<int32_t>();
    const auto *chars = buffers_[1]->data_as<char>();
    return {chars + offsets[i], static_cast<size_t>(offsets[i + 1] - offsets[i])};
  }

  /// Deep value equality (used by tests to compare export paths).
  bool Equals(const Array &other) const;

 private:
  Array(Type type, int64_t length, int64_t null_count)
      : type_(type), length_(length), null_count_(null_count) {}

  Type type_;
  int64_t length_;
  int64_t null_count_;
  std::shared_ptr<Buffer> validity_;
  std::vector<std::shared_ptr<Buffer>> buffers_;
  std::shared_ptr<Array> dictionary_;
};

/// A collection of equal-length arrays with a schema — the unit of columnar
/// interchange.
class RecordBatch {
 public:
  RecordBatch(std::shared_ptr<Schema> schema, int64_t num_rows,
              std::vector<std::shared_ptr<Array>> columns)
      : schema_(std::move(schema)), num_rows_(num_rows), columns_(std::move(columns)) {}

  const std::shared_ptr<Schema> &schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  const std::shared_ptr<Array> &column(int i) const { return columns_[static_cast<size_t>(i)]; }

  bool Equals(const RecordBatch &other) const;

 private:
  std::shared_ptr<Schema> schema_;
  int64_t num_rows_;
  std::vector<std::shared_ptr<Array>> columns_;
};

/// Room for the longest text ValueText renders into its buffer: "%.6f" of
/// -DBL_MAX takes 317 characters.
constexpr size_t kValueTextSize = 320;

/// \return value `i` of `array`, which must not be null, as text: integers
/// in decimal, kFloat64 as printf's "%.6f", strings as they are (dictionary
/// codes resolved). A fixed-width value's text is rendered into `buf`; a
/// string's is a view into the array.
std::string_view ValueText(const Array &array, int64_t i, char (&buf)[kValueTextSize]);

}  // namespace mainline::arrowlite
