#pragma once

#include <cstdint>
#include <vector>

#include "arrowlite/array.h"

namespace mainline::execution::op {

/// Where a double-valued input column lives: in the scanned batch (a scan
/// projection index) or among the chunk's computed columns (a ProjectOp
/// output index). Operators address columns through ColumnRef so a plan can
/// feed an aggregate either raw block storage or a derived expression
/// without the aggregate knowing the difference.
struct ColumnRef {
  enum class Source : uint8_t { kBatch = 0, kComputed };

  Source source = Source::kBatch;
  uint16_t index = 0;

  static constexpr ColumnRef Batch(uint16_t index) { return {Source::kBatch, index}; }
  static constexpr ColumnRef Computed(uint16_t index) { return {Source::kComputed, index}; }
};

/// A double-valued row expression over up to three input columns. The forms
/// are a closed enum rather than a callback so every operator can hoist the
/// form dispatch out of its row loop: the loops that touch each row are the
/// same tight column-at-a-time code the hand-fused kernels used, which is
/// what keeps plan results bit-identical to (and as fast as) those kernels.
struct Expr {
  enum class Kind : uint8_t {
    kColumn,           ///< a
    kMul,              ///< a * b
    kDiscounted,       ///< a * (1 - b)        (extendedprice, discount)
    kDiscountedTaxed,  ///< a * (1 - b) * (1 + c)
  };

  Kind kind = Kind::kColumn;
  ColumnRef a, b, c;

  static constexpr Expr Column(ColumnRef a) { return {Kind::kColumn, a, {}, {}}; }
  static constexpr Expr Mul(ColumnRef a, ColumnRef b) { return {Kind::kMul, a, b, {}}; }
  static constexpr Expr Discounted(ColumnRef a, ColumnRef b) {
    return {Kind::kDiscounted, a, b, {}};
  }
  static constexpr Expr DiscountedTaxed(ColumnRef a, ColumnRef b, ColumnRef c) {
    return {Kind::kDiscountedTaxed, a, b, c};
  }
};

/// A ProjectOp output: one derived double per batch row (values are only
/// defined for rows that were selected when the projection ran), plus the
/// source arrays that carry nulls — consumers must treat a row as null when
/// any of those is null at that row, exactly as if they had evaluated the
/// expression themselves.
struct ComputedColumn {
  std::vector<double> values;
  std::vector<const arrowlite::Array *> null_sources;
};

}  // namespace mainline::execution::op
