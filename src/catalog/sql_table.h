#pragma once

#include <vector>

#include "catalog/schema.h"
#include "common/typedefs.h"
#include "storage/data_table.h"
#include "storage/projected_row.h"
#include "storage/raw_block.h"
#include "storage/storage_defs.h"

namespace mainline::catalog {

/// A storage::DataTable with a catalog Schema: maps the schema onto a block
/// layout (schema column `i` == physical column id `i`) and builds
/// projections by schema position. Reads, writes and their log records are
/// all the DataTable's. Lives in catalog/ because it is the point where
/// schemas meet storage — the raw block layer below knows nothing about
/// either.
class SqlTable final : public storage::DataTable {
 public:
  SqlTable(storage::BlockStore *store, const Schema &schema, table_oid_t oid)
      : DataTable(store, schema.ToBlockLayout(), oid), schema_(schema) {}

  /// Build an initializer projecting the given schema columns (by position).
  storage::ProjectedRowInitializer InitializerForColumns(
      const std::vector<uint16_t> &cols) const {
    std::vector<storage::col_id_t> ids;
    ids.reserve(cols.size());
    for (const uint16_t c : cols) ids.emplace_back(c);
    return storage::ProjectedRowInitializer::Create(GetLayout(), ids);
  }

  /// Initializer covering all columns.
  storage::ProjectedRowInitializer FullInitializer() const { return FullRowInitializer(); }

  storage::DataTable &UnderlyingTable() { return *this; }
  const storage::DataTable &UnderlyingTable() const { return *this; }
  const Schema &GetSchema() const { return schema_; }

 private:
  Schema schema_;
};

}  // namespace mainline::catalog
