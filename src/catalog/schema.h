#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "storage/block_layout.h"

namespace mainline::catalog {

/// SQL value types supported by the engine.
enum class TypeId : uint8_t {
  kBoolean = 0,
  kTinyInt,
  kSmallInt,
  kInteger,
  kBigInt,
  kDecimal,    // stored as double
  kDate,       // days since epoch, uint32
  kTimestamp,  // microseconds since epoch, uint64
  kVarchar,    // stored as a 16-byte VarlenEntry
};

/// \return the storage footprint in bytes of a value of type `type`.
constexpr uint16_t TypeSize(TypeId type) {
  switch (type) {
    case TypeId::kBoolean:
    case TypeId::kTinyInt:
      return 1;
    case TypeId::kSmallInt:
      return 2;
    case TypeId::kInteger:
    case TypeId::kDate:
      return 4;
    case TypeId::kBigInt:
    case TypeId::kDecimal:
    case TypeId::kTimestamp:
      return 8;
    case TypeId::kVarchar:
      return 16;  // VarlenEntry
  }
  return 0;
}

/// \return true if values of `type` are variable-length.
constexpr bool TypeIsVarlen(TypeId type) { return type == TypeId::kVarchar; }

/// \return a human-readable name for `type`.
const char *TypeName(TypeId type);

/// One column of a SQL table definition.
class Column {
 public:
  Column(std::string name, TypeId type, bool nullable = false)
      : name_(std::move(name)), type_(type), nullable_(nullable) {}

  const std::string &Name() const { return name_; }
  TypeId Type() const { return type_; }
  bool Nullable() const { return nullable_; }
  uint16_t AttrSize() const { return TypeSize(type_); }
  bool IsVarlen() const { return TypeIsVarlen(type_); }

 private:
  std::string name_;
  TypeId type_;
  bool nullable_;
};

/// An ordered collection of columns. Schema column position `i` maps onto
/// physical column id `i` of the block layout (the version pointer and
/// bitmaps live outside the column id space).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  const Column &GetColumn(uint16_t i) const { return columns_[i]; }
  uint16_t NumColumns() const { return static_cast<uint16_t>(columns_.size()); }
  const std::vector<Column> &Columns() const { return columns_; }

  /// Position of the column named `name`.
  /// \return column index, or -1 if absent.
  int32_t ColumnIndex(const std::string &name) const {
    for (uint16_t i = 0; i < columns_.size(); i++) {
      if (columns_[i].Name() == name) return i;
    }
    return -1;
  }

  /// Resolve column names to schema positions, sorted ascending — the shape
  /// scan projections (execution::ScanBlock, ProjectedRowInitializer)
  /// expect. An unknown name aborts in every build: silently narrowing a
  /// projection would make queries return wrong answers with no diagnostic.
  std::vector<uint16_t> ResolveColumns(const std::vector<std::string> &names) const {
    std::vector<uint16_t> positions;
    positions.reserve(names.size());
    for (const std::string &name : names) {
      const int32_t idx = ColumnIndex(name);
      if (idx < 0) {
        std::fprintf(stderr, "FATAL: unknown column \"%s\" in projection\n", name.c_str());
        std::abort();
      }
      positions.push_back(static_cast<uint16_t>(idx));
    }
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()), positions.end());
    return positions;
  }

  /// Derive the physical block layout for this schema.
  storage::BlockLayout ToBlockLayout() const {
    std::vector<storage::ColumnSpec> specs;
    specs.reserve(columns_.size());
    for (const Column &col : columns_) specs.push_back({col.AttrSize(), col.IsVarlen()});
    return storage::BlockLayout(specs);
  }

 private:
  std::vector<Column> columns_;
};

}  // namespace mainline::catalog
