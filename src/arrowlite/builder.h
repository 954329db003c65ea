#pragma once

#include <charconv>
#include <cstring>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include "arrowlite/array.h"
#include "common/macros.h"

namespace mainline::arrowlite {

/// \return the type a client parsing text builds for a column of `type`:
/// kFloat64 stays, strings and dictionaries come back as kString, and every
/// other fixed-width type as kInt64, since text carries no width.
constexpr Type TextType(Type type) {
  switch (type) {
    case Type::kFloat64:
      return Type::kFloat64;
    case Type::kString:
    case Type::kDictionary:
      return Type::kString;
    default:
      return Type::kInt64;
  }
}

/// Incrementally builds one array of any type but kDictionary, value by
/// value: a fixed-width type's values at TypeWidth(type) bytes each, a
/// string's as int32 offsets plus chars. The validity bitmap is LSB-first
/// and left off the array when no value is null.
class ColumnBuilder {
 public:
  explicit ColumnBuilder(Type type) : type_(type), width_(TypeWidth(type)) {
    MAINLINE_ASSERT(type != Type::kDictionary, "dictionary arrays are not built");
    if (width_ == 0) offsets_.push_back(0);
  }

  Type type() const { return type_; }
  int64_t length() const { return length_; }

  /// Append a fixed-width value from the TypeWidth(type()) bytes at `value`.
  void Append(const byte *value) {
    AppendValidity(true);
    const size_t at = values_.size();
    values_.resize(at + width_);
    std::memcpy(values_.data() + at, value, width_);
  }

  /// Append a fixed-width value given as a C++ value of the type's width.
  template <typename T>
    requires std::is_arithmetic_v<T>
  void Append(T value) {
    MAINLINE_ASSERT(sizeof(T) == width_, "builder width mismatch");
    Append(reinterpret_cast<const byte *>(&value));
  }

  /// Append a string value.
  void Append(std::string_view value) {
    MAINLINE_ASSERT(width_ == 0, "not a string builder");
    AppendValidity(true);
    const auto *chars = reinterpret_cast<const byte *>(value.data());
    values_.insert(values_.end(), chars, chars + value.size());
    offsets_.push_back(static_cast<int32_t>(values_.size()));
  }

  /// Append a null: zeros under a fixed-width one, an empty range of chars
  /// under a string.
  void AppendNull() {
    AppendValidity(false);
    null_count_++;
    if (width_ == 0) {
      offsets_.push_back(static_cast<int32_t>(values_.size()));
    } else {
      values_.resize(values_.size() + width_);
    }
  }

  /// Append the value `text` spells: a decimal for kInt64 and kFloat64, the
  /// text itself for kString. Parses what ValueText renders for those types.
  void AppendText(std::string_view text) {
    const char *end = text.data() + text.size();
    switch (type_) {
      case Type::kInt64: {
        int64_t value = 0;
        std::from_chars(text.data(), end, value);
        Append(value);
        return;
      }
      case Type::kFloat64: {
        double value = 0;
        std::from_chars(text.data(), end, value);
        Append(value);
        return;
      }
      case Type::kString:
        Append(text);
        return;
      default:
        MAINLINE_UNREACHABLE("no text append for this type");
    }
  }

  /// \return the array built so far, leaving the builder empty.
  std::shared_ptr<Array> Finish() {
    std::shared_ptr<Buffer> validity =
        null_count_ == 0 ? nullptr
                         : Buffer::CopyOf(reinterpret_cast<const byte *>(validity_.data()),
                                          validity_.size());
    auto values = Buffer::CopyOf(values_.data(), values_.size());
    std::shared_ptr<Array> result;
    if (width_ == 0) {
      auto offsets = Buffer::CopyOf(reinterpret_cast<const byte *>(offsets_.data()),
                                    offsets_.size() * sizeof(int32_t));
      result = Array::MakeString(length_, std::move(offsets), std::move(values),
                                 std::move(validity), null_count_);
      offsets_.assign(1, 0);
    } else {
      result = Array::MakeFixed(type_, length_, std::move(values), std::move(validity),
                                null_count_);
    }
    values_.clear();
    validity_.clear();
    length_ = null_count_ = 0;
    return result;
  }

 private:
  void AppendValidity(bool valid) {
    const auto byte_idx = static_cast<size_t>(length_ / 8);
    if (byte_idx >= validity_.size()) validity_.resize(byte_idx + 1, 0);
    if (valid) validity_[byte_idx] |= static_cast<uint8_t>(1u << (length_ % 8));
    length_++;
  }

  Type type_;
  uint32_t width_;
  std::vector<byte> values_;      // fixed values, or a string's chars
  std::vector<int32_t> offsets_;  // strings only
  std::vector<uint8_t> validity_;
  int64_t length_ = 0;
  int64_t null_count_ = 0;
};

}  // namespace mainline::arrowlite
