#include "catalog/catalog.h"

#include "index/index.h"
#include "storage/data_table.h"

namespace mainline::catalog {

Catalog::~Catalog() = default;

table_oid_t Catalog::CreateTable(const std::string &name, const Schema &schema) {
  common::SpinLatch::ScopedSpinLatch guard(&latch_);
  MAINLINE_ASSERT(table_names_.find(name) == table_names_.end(), "table already exists");
  const table_oid_t oid(next_table_oid_++);
  tables_.emplace(oid, TableEntry{name, std::make_unique<catalog::SqlTable>(
                                            block_store_, schema, oid)});
  table_names_.emplace(name, oid);
  return oid;
}

catalog::SqlTable *Catalog::GetTable(table_oid_t oid) {
  common::SpinLatch::ScopedSpinLatch guard(&latch_);
  const auto it = tables_.find(oid);
  return it == tables_.end() ? nullptr : it->second.table.get();
}

catalog::SqlTable *Catalog::GetTable(const std::string &name) {
  common::SpinLatch::ScopedSpinLatch guard(&latch_);
  const auto it = table_names_.find(name);
  return it == table_names_.end() ? nullptr : tables_.at(it->second).table.get();
}

table_oid_t Catalog::GetTableOid(const std::string &name) {
  common::SpinLatch::ScopedSpinLatch guard(&latch_);
  const auto it = table_names_.find(name);
  return it == table_names_.end() ? table_oid_t(0) : it->second;
}

index_oid_t Catalog::RegisterIndex(const std::string &name, table_oid_t table,
                                   std::unique_ptr<index::Index> index) {
  common::SpinLatch::ScopedSpinLatch guard(&latch_);
  const index_oid_t oid(next_index_oid_++);
  indexes_.emplace(oid, IndexEntry{name, table, std::move(index)});
  index_names_.emplace(name, oid);
  return oid;
}

index::Index *Catalog::GetIndex(const std::string &name) {
  common::SpinLatch::ScopedSpinLatch guard(&latch_);
  const auto it = index_names_.find(name);
  return it == index_names_.end() ? nullptr : indexes_.at(it->second).index.get();
}

std::unordered_map<table_oid_t, storage::DataTable *> Catalog::TableMap() {
  common::SpinLatch::ScopedSpinLatch guard(&latch_);
  std::unordered_map<table_oid_t, storage::DataTable *> result;
  for (auto &[oid, entry] : tables_) result.emplace(oid, entry.table.get());
  return result;
}

}  // namespace mainline::catalog
