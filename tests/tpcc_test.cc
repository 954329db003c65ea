#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "gc/gc_thread.h"
#include "transform/transform_pipeline.h"
#include "workload/row_util.h"
#include "workload/tpcc/tpcc_schemas.h"
#include "workload/tpcc/tpcc_workload.h"

namespace mainline {

using workload::tpcc::Config;
using workload::tpcc::Database;
using workload::tpcc::Worker;

class TPCCTest : public ::testing::Test {
 protected:
  TPCCTest()
      : block_store_(10000, 1000),
        buffer_pool_(0, 10000),
        catalog_(&block_store_),
        txn_manager_(&buffer_pool_, true, nullptr),
        gc_(&txn_manager_),
        db_(&catalog_, [] {
          Config c = Config::Scaled(200, 60);
          c.num_warehouses = 4;  // one per worker, as in the paper's setup
          return c;
        }()) {
    db_.Load(&txn_manager_);
    gc_.FullGC();
  }

  /// Sum a decimal column over all visible tuples.
  double SumColumn(catalog::SqlTable *table, uint16_t col) {
    auto initializer = table->InitializerForColumns({col});
    std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    double total = 0;
    for (auto it = table->begin(); !it.Done(); ++it) {
      storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
      if (table->Select(txn, *it, row)) total += workload::Get<double>(*row, 0);
    }
    txn_manager_.Commit(txn);
    return total;
  }

  uint64_t CountVisible(catalog::SqlTable *table) {
    auto initializer = table->InitializerForColumns({0});
    std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    uint64_t count = 0;
    for (auto it = table->begin(); !it.Done(); ++it) {
      storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
      if (table->Select(txn, *it, row)) count++;
    }
    txn_manager_.Commit(txn);
    return count;
  }

  // Destruction order (reverse of declaration): GC and transaction manager
  // must die before the catalog's tables.
  storage::BlockStore block_store_;
  storage::RecordBufferSegmentPool buffer_pool_;
  catalog::Catalog catalog_;
  transaction::TransactionManager txn_manager_;
  gc::GarbageCollector gc_;
  Database db_;
};

TEST_F(TPCCTest, LoadCardinalities) {
  const Config &c = db_.config;
  const auto w = static_cast<uint64_t>(c.num_warehouses);
  EXPECT_EQ(CountVisible(db_.item), static_cast<uint64_t>(c.num_items));
  EXPECT_EQ(CountVisible(db_.warehouse), w);
  EXPECT_EQ(CountVisible(db_.district),
            w * static_cast<uint64_t>(c.districts_per_warehouse));
  EXPECT_EQ(CountVisible(db_.customer),
            w * static_cast<uint64_t>(c.districts_per_warehouse * c.customers_per_district));
  EXPECT_EQ(CountVisible(db_.order),
            w * static_cast<uint64_t>(c.districts_per_warehouse * c.orders_per_district));
  // The last third of orders per district are undelivered.
  EXPECT_EQ(
      CountVisible(db_.new_order),
      w * static_cast<uint64_t>(c.districts_per_warehouse *
                                (c.orders_per_district - c.orders_per_district * 2 / 3)));
  EXPECT_EQ(db_.item_pk->Size(), static_cast<uint64_t>(c.num_items));
  EXPECT_EQ(CountVisible(db_.stock), w * static_cast<uint64_t>(c.num_items));
}

TEST_F(TPCCTest, EachProcedureCommits) {
  Worker worker(&db_, &txn_manager_, 1, 99);
  uint32_t committed = 0;
  for (int i = 0; i < 50; i++) committed += worker.NewOrderTxn() ? 1 : 0;
  EXPECT_GE(committed, 45u);  // ~1% intentional rollbacks
  EXPECT_TRUE(worker.PaymentTxn());
  EXPECT_TRUE(worker.OrderStatusTxn());
  EXPECT_TRUE(worker.DeliveryTxn());
  EXPECT_TRUE(worker.StockLevelTxn());
  gc_.FullGC();
}

// TPC-C consistency condition 1&2 style check: W_YTD == sum(D_YTD) and
// every district's next order id exceeds its max order id.
TEST_F(TPCCTest, MoneyConservation) {
  Worker worker(&db_, &txn_manager_, 1, 7);
  for (int i = 0; i < 300; i++) worker.RunOne();
  gc_.FullGC();

  const double w_ytd = SumColumn(db_.warehouse, workload::tpcc::W_YTD);
  const double d_ytd_sum = SumColumn(db_.district, workload::tpcc::D_YTD);
  EXPECT_NEAR(w_ytd, d_ytd_sum, 0.01);
}

// Run the full pipeline concurrently: workers + GC thread + transformation
// thread, then verify consistency and that blocks froze.
TEST_F(TPCCTest, ConcurrentWorkloadWithTransformation) {
  transform::AccessObserver observer(2);
  gc_.SetAccessObserver(&observer);
  transform::BlockTransformer transformer(&txn_manager_, &gc_,
                                          transform::GatherMode::kVarlenGather);
  transformer.SetInlineGCPump(false);
  transform::TransformPipeline pipeline(&observer, &transformer, 10);
  // Target the cold-data tables, as the paper does.
  storage::DataTable *targets[] = {&db_.order->UnderlyingTable(),
                                   &db_.order_line->UnderlyingTable(),
                                   &db_.history->UnderlyingTable(),
                                   &db_.item->UnderlyingTable()};
  pipeline.SetTableFilter([&](storage::DataTable *t) {
    for (auto *target : targets) {
      if (t == target) return true;
    }
    return false;
  });

  // ITEM was bulk-loaded before the observer attached; enqueue it manually.
  pipeline.EnqueueTable(&db_.item->UnderlyingTable());

  {
    gc::GarbageCollectorThread gc_thread(&gc_, std::chrono::milliseconds(2));
    pipeline.Start(transform::FreezePolicy::Config::Pinned(std::chrono::milliseconds(5)));

    constexpr int kWorkers = 4;
    std::vector<std::thread> threads;
    std::atomic<uint64_t> total_committed{0};
    for (int t = 0; t < kWorkers; t++) {
      threads.emplace_back([&, t] {
        // One warehouse per client, as in the paper's TPC-C setup.
        Worker worker(&db_, &txn_manager_, t + 1, 1000 + static_cast<uint64_t>(t));
        for (int i = 0; i < 500; i++) worker.RunOne();
        total_committed += worker.Stats().TotalCommitted();
      });
    }
    for (auto &thread : threads) thread.join();
    EXPECT_GT(total_committed.load(), 1500u);
    // Let the pipeline catch up on the now-quiescent database.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    pipeline.Stop();
  }
  gc_.FullGC();

  // Data must still be consistent after compaction/freezing.
  const double w_ytd = SumColumn(db_.warehouse, workload::tpcc::W_YTD);
  const double d_ytd_sum = SumColumn(db_.district, workload::tpcc::D_YTD);
  EXPECT_NEAR(w_ytd, d_ytd_sum, 0.01);

  // ITEM is read-only; every one of its blocks should end up frozen.
  uint64_t item_frozen = 0, item_total = 0;
  for (auto *block : db_.item->UnderlyingTable().Blocks()) {
    item_total++;
    if (block->controller.GetState() == storage::BlockState::kFrozen) item_frozen++;
  }
  EXPECT_EQ(item_frozen, item_total);
  EXPECT_GT(pipeline.Stats().blocks_frozen, 0u);

  // The observer is a local: detach it before it goes out of scope, or the
  // fixture's GC destructor would feed its dangling pointer a final pass.
  gc_.SetAccessObserver(nullptr);
}

}  // namespace mainline
