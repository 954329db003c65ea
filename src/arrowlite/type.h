#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>


namespace mainline::arrowlite {

/// Physical Arrow type of an array.
enum class Type : uint8_t {
  kBool = 0,  // stored as one byte per value (simplification of bit-packing)
  kInt8,
  kInt16,
  kInt32,
  kInt64,
  kUInt8,
  kUInt16,
  kUInt32,
  kUInt64,
  kFloat64,
  kString,      // int32 offsets + UTF-8 values buffer
  kDictionary,  // int32 indices + string dictionary
};

/// \return width in bytes of a fixed-size type (0 for variable-size types).
constexpr uint32_t TypeWidth(Type type) {
  switch (type) {
    case Type::kBool:
    case Type::kInt8:
    case Type::kUInt8:
      return 1;
    case Type::kInt16:
    case Type::kUInt16:
      return 2;
    case Type::kInt32:
    case Type::kUInt32:
      return 4;
    case Type::kInt64:
    case Type::kUInt64:
    case Type::kFloat64:
      return 8;
    case Type::kString:
    case Type::kDictionary:
      return 0;
  }
  return 0;
}

/// \return a human-readable name for `type`.
const char *TypeToString(Type type);

/// A named, typed column of a schema.
class Field {
 public:
  Field(std::string name, Type type, bool nullable = true)
      : name_(std::move(name)), type_(type), nullable_(nullable) {}

  const std::string &name() const { return name_; }
  Type type() const { return type_; }
  bool nullable() const { return nullable_; }

  bool Equals(const Field &other) const {
    return name_ == other.name_ && type_ == other.type_ && nullable_ == other.nullable_;
  }

 private:
  std::string name_;
  Type type_;
  bool nullable_;
};

/// An ordered collection of fields describing a table or record batch — the
/// Arrow metadata layer that imposes table structure on buffer collections.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  int num_fields() const { return static_cast<int>(fields_.size()); }
  const Field &field(int i) const { return fields_[static_cast<size_t>(i)]; }
  const std::vector<Field> &fields() const { return fields_; }

  bool Equals(const Schema &other) const {
    if (fields_.size() != other.fields_.size()) return false;
    for (size_t i = 0; i < fields_.size(); i++) {
      if (!fields_[i].Equals(other.fields_[i])) return false;
    }
    return true;
  }

  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

}  // namespace mainline::arrowlite
