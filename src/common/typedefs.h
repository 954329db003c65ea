#pragma once

#include <cstddef>
#include <cstdint>

#include "common/strong_typedef.h"

namespace mainline {

/// Raw untyped storage byte. All storage-layer pointers into blocks are
/// expressed in terms of `byte *`.
using byte = std::byte;

namespace catalog {
/// Oid of a SQL table in the catalog.
STRONG_TYPEDEF(table_oid_t, uint32_t);
/// Oid of an index in the catalog.
STRONG_TYPEDEF(index_oid_t, uint32_t);
/// Oid of a database.
STRONG_TYPEDEF(db_oid_t, uint32_t);
/// Position of a column in a schema (user order).
STRONG_TYPEDEF(col_oid_t, uint16_t);
}  // namespace catalog

namespace storage {
/// Physical column id inside a block layout. The storage layer identifies
/// columns by these ids; the catalog maps schema columns onto them.
STRONG_TYPEDEF(col_id_t, uint16_t);
}  // namespace storage

namespace transaction {
/// A logical timestamp drawn from the global counter. The most significant
/// bit denotes an uncommitted transaction id: because all comparisons are
/// unsigned, uncommitted versions are never visible to any reader.
using timestamp_t = uint64_t;

/// Mask for the "uncommitted" sign bit described in Section 3.1 of the paper.
constexpr timestamp_t kUncommittedMask = timestamp_t{1} << 63;

/// Timestamp value that predates every transaction.
constexpr timestamp_t kInitialTimestamp = 0;

/// Sentinel for "no timestamp"; has the uncommitted bit set so it also
/// compares as never-visible.
constexpr timestamp_t kInvalidTimestamp = ~timestamp_t{0};

/// \return true if `t` is an uncommitted transaction id rather than a commit
/// timestamp.
constexpr bool IsUncommitted(timestamp_t t) { return (t & kUncommittedMask) != 0; }
}  // namespace transaction

}  // namespace mainline
