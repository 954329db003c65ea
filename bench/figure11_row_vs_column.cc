// Figure 11: raw storage speed, row-store vs column-store, varying the
// number of attributes affected. The row-store is simulated by declaring a
// single large column holding all attributes contiguously, exactly as the
// paper does. Inserts write all attributes of the tuple; updates write the
// given number of attributes.
//
// Expected shape (paper): no large difference; column-store wins updates when
// few attributes are touched (smaller footprint); the gap never exceeds ~40%.

#include "bench_util.h"
#include "common/rand_util.h"
#include "storage/data_table.h"

namespace mainline::bench {
namespace {

constexpr uint64_t kOpsDefault = 1000000;

storage::BlockLayout RowLayout(uint16_t num_attrs) {
  return storage::BlockLayout({{static_cast<uint16_t>(num_attrs * 8), false}});
}

storage::BlockLayout ColumnLayout(uint16_t num_attrs) {
  std::vector<storage::ColumnSpec> specs(num_attrs, storage::ColumnSpec{8, false});
  return storage::BlockLayout(specs);
}

/// Throughput (M op/s) of `ops` inserts into a fresh table with `layout`.
double InsertThroughput(const storage::BlockLayout &layout, uint64_t ops) {
  Engine engine;
  storage::DataTable table(&engine.block_store, layout, catalog::table_oid_t(1));
  const auto initializer = storage::ProjectedRowInitializer::CreateFull(layout);
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *txn = engine.txn_manager.BeginTransaction();
  storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
  for (uint16_t i = 0; i < row->NumColumns(); i++) {
    std::memset(row->AccessForceNotNull(i), 0xAB, layout.AttrSize(row->ColumnIds()[i]));
  }
  const double secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < ops; i++) table.Insert(txn, *row);
  });
  engine.txn_manager.Commit(txn);
  return static_cast<double>(ops) / secs / 1e6;
}

/// Throughput of `ops` updates touching `attrs_updated` attributes. For the
/// row layout any update rewrites the whole fused column.
double UpdateThroughput(const storage::BlockLayout &layout, uint16_t attrs_updated,
                        bool row_store, uint64_t ops) {
  Engine engine;
  storage::DataTable table(&engine.block_store, layout, catalog::table_oid_t(1));
  const auto full = storage::ProjectedRowInitializer::CreateFull(layout);
  std::vector<byte> buffer(full.ProjectedRowSize() + 8);
  // Preload 100k tuples to update.
  constexpr uint32_t kTuples = 100000;
  std::vector<storage::TupleSlot> slots;
  slots.reserve(kTuples);
  {
    auto *txn = engine.txn_manager.BeginTransaction();
    storage::ProjectedRow *row = full.InitializeRow(buffer.data());
    for (uint16_t i = 0; i < row->NumColumns(); i++) {
      std::memset(row->AccessForceNotNull(i), 1, layout.AttrSize(row->ColumnIds()[i]));
    }
    for (uint32_t i = 0; i < kTuples; i++) slots.push_back(table.Insert(txn, *row));
    engine.txn_manager.Commit(txn);
  }
  engine.gc.FullGC();

  // Delta: the fused column for the row-store; `attrs_updated` columns for
  // the column-store.
  std::vector<storage::col_id_t> cols;
  if (row_store) {
    cols.emplace_back(0);
  } else {
    for (uint16_t i = 0; i < attrs_updated; i++) cols.emplace_back(i);
  }
  const auto delta_init = storage::ProjectedRowInitializer::Create(layout, cols);
  std::vector<byte> delta_buffer(delta_init.ProjectedRowSize() + 8);
  storage::ProjectedRow *delta = delta_init.InitializeRow(delta_buffer.data());
  for (uint16_t i = 0; i < delta->NumColumns(); i++) {
    std::memset(delta->AccessForceNotNull(i), 2, layout.AttrSize(delta->ColumnIds()[i]));
  }

  common::Xorshift rng(5);
  auto *txn = engine.txn_manager.BeginTransaction();
  const double secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < ops; i++) {
      table.Update(txn, slots[rng.Uniform(0, kTuples - 1)], *delta);
    }
  });
  engine.txn_manager.Commit(txn);
  engine.gc.FullGC();
  return static_cast<double>(ops) / secs / 1e6;
}

}  // namespace
}  // namespace mainline::bench

int main() {
  using namespace mainline::bench;
  const auto ops = static_cast<uint64_t>(EnvInt("MAINLINE_F11_OPS", kOpsDefault));
  std::printf("== Figure 11: row vs column raw storage speed (%lu ops, M op/s) ==\n",
              static_cast<unsigned long>(ops));
  std::printf("%-8s %12s %12s %12s %12s\n", "#attrs", "row-insert", "col-insert",
              "row-update", "col-update");
  for (const uint16_t attrs : {1, 2, 4, 8, 16, 32, 64}) {
    const double row_insert = InsertThroughput(RowLayout(attrs), ops);
    const double col_insert = InsertThroughput(ColumnLayout(attrs), ops);
    const double row_update = UpdateThroughput(RowLayout(attrs), attrs, true, ops);
    const double col_update = UpdateThroughput(ColumnLayout(attrs), attrs, false, ops);
    std::printf("%-8u %12.2f %12.2f %12.2f %12.2f\n", attrs, row_insert, col_insert,
                row_update, col_update);
  }
  return 0;
}
