#include <gtest/gtest.h>

#include "storage/block_layout.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"
#include "transaction/transaction_manager.h"

namespace mainline {

TEST(StorageBasicTest, BlockLayoutComputesSlots) {
  storage::BlockLayout layout({{8, false}, {16, true}, {4, false}});
  EXPECT_GT(layout.NumSlots(), 0u);
  EXPECT_EQ(layout.TupleSize(), 28u);
  EXPECT_TRUE(layout.HasVarlen());
}

TEST(StorageBasicTest, InsertAndSelect) {
  storage::BlockStore block_store(100, 100);
  storage::RecordBufferSegmentPool buffer_pool(1000, 100);
  transaction::TransactionManager txn_manager(&buffer_pool, false, nullptr);

  storage::BlockLayout layout({{8, false}});
  storage::DataTable table(&block_store, layout, catalog::table_oid_t(1));

  auto initializer = storage::ProjectedRowInitializer::CreateFull(layout);
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);

  auto *txn = txn_manager.BeginTransaction();
  storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
  *reinterpret_cast<int64_t *>(row->AccessForceNotNull(0)) = 42;
  storage::TupleSlot slot = table.Insert(txn, *row);
  txn_manager.Commit(txn);

  auto *reader = txn_manager.BeginTransaction();
  storage::ProjectedRow *out = initializer.InitializeRow(buffer.data());
  EXPECT_TRUE(table.Select(reader, slot, out));
  EXPECT_EQ(*reinterpret_cast<int64_t *>(out->AccessForceNotNull(0)), 42);
  txn_manager.Commit(reader);
}

}  // namespace mainline
