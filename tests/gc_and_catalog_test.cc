#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/object_pool.h"
#include "gc/garbage_collector.h"
#include "index/bplus_tree.h"
#include "logging/log_manager.h"
#include "storage/undo_record.h"
#include "transform/transform_pipeline.h"
#include "workload/row_util.h"

namespace mainline {

// ---------------------------------------------------------------------------
// Deferred actions (the epoch-protection generalization of Section 4.4).
// ---------------------------------------------------------------------------

TEST(DeferredActionTest, RunsOnlyAfterOverlappingTxnsFinish) {
  storage::RecordBufferSegmentPool pool(1000, 100);
  transaction::TransactionManager txn_manager(&pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);

  auto *overlapping = txn_manager.BeginTransaction();
  std::atomic<bool> ran{false};
  gc.RegisterDeferredAction([&] { ran.store(true); });

  gc.PerformGarbageCollection();
  gc.PerformGarbageCollection();
  EXPECT_FALSE(ran.load()) << "action must wait for the overlapping transaction";

  txn_manager.Commit(overlapping);
  gc.PerformGarbageCollection();
  EXPECT_TRUE(ran.load());
  gc.FullGC();
}

TEST(DeferredActionTest, ActionsRunInRegistrationOrderAcrossEpochs) {
  storage::RecordBufferSegmentPool pool(1000, 100);
  transaction::TransactionManager txn_manager(&pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);
  std::vector<int> order;
  gc.RegisterDeferredAction([&] { order.push_back(1); });
  gc.RegisterDeferredAction([&] { order.push_back(2); });
  gc.FullGC();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

// ---------------------------------------------------------------------------
// Unlink order.
// ---------------------------------------------------------------------------

// With logging, a commit reaches the GC only once its log records are
// flushed, while an abort skips the log, so the GC receives transactions out
// of finish-time order. A run must still unlink every transaction that
// finished before the oldest active one began, even one that arrived behind
// a transaction that must wait.
TEST(GarbageCollectorTest, UnlinksALateHandoffAheadOfAVisibleAbort) {
  const std::string log_path =
      (std::filesystem::temp_directory_path() / "mainline_gc_handoff_test.log").string();
  {
    logging::LogManager log_manager(log_path);  // never started: only ForceFlush drains it
    storage::RecordBufferSegmentPool pool(1000, 100);
    transaction::TransactionManager txn_manager(&pool, true, &log_manager);
    gc::GarbageCollector gc(&txn_manager);

    auto *logged = txn_manager.BeginTransaction();
    txn_manager.Commit(logged);  // waits in the log queue
    auto *reader = txn_manager.BeginTransaction();
    auto *aborted = txn_manager.BeginTransaction();
    txn_manager.Abort(aborted);  // reaches the GC at once

    EXPECT_EQ(gc.PerformGarbageCollection().second, 0u)
        << "the abort finished after the reader began";
    log_manager.ForceFlush();
    EXPECT_EQ(gc.PerformGarbageCollection().second, 1u)
        << "the logged commit finished before the reader began";
    EXPECT_EQ(gc.PerformGarbageCollection().second, 0u) << "the reader is still open";

    txn_manager.Commit(reader);  // waits in the log queue
    EXPECT_EQ(gc.PerformGarbageCollection().second, 1u) << "the abort is visible to no one";
    log_manager.ForceFlush();
    gc.FullGC();
  }
  std::remove(log_path.c_str());
}

/// A long reader pins exactly the versions it can see: a GC run cuts the
/// chain below the reader's snapshot and keeps every record above it, frees
/// nothing the reader might still traverse, and once the reader ends the
/// whole backlog behind it is deallocated.
TEST(GarbageCollectorTest, LongReaderPinsExactlyItsVersions) {
  storage::BlockStore store(100, 10);
  storage::RecordBufferSegmentPool pool(100000, 100);
  catalog::Catalog catalog(&store);
  transaction::TransactionManager txn_manager(&pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);
  auto *table = catalog.GetTable(
      catalog.CreateTable("t", catalog::Schema({{"v", catalog::TypeId::kBigInt}})));
  const auto initializer = table->FullInitializer();
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());

  auto *txn = txn_manager.BeginTransaction();
  workload::Set<int64_t>(row, 0, 0);
  const storage::TupleSlot slot = table->Insert(txn, *row);
  txn_manager.Commit(txn);
  const auto update = [&](int64_t v) {
    auto *writer = txn_manager.BeginTransaction();
    workload::Set<int64_t>(row, 0, v);
    ASSERT_TRUE(table->Update(writer, slot, *row));
    txn_manager.Commit(writer);
  };
  const auto chain_length = [&] {
    int length = 0;
    for (storage::UndoRecord *undo =
             table->UnderlyingTable().Accessor().VersionPtr(slot).load();
         undo != nullptr; undo = undo->Next().load()) {
      length++;
    }
    return length;
  };
  const auto read = [&](transaction::TransactionContext *reader) {
    EXPECT_TRUE(table->Select(reader, slot, row));
    return workload::Get<int64_t>(*row, 0);
  };

  constexpr int kBefore = 20, kAfter = 30;
  for (int64_t v = 1; v <= kBefore; v++) update(v);
  auto *reader = txn_manager.BeginTransaction();
  for (int64_t v = kBefore + 1; v <= kBefore + kAfter; v++) update(v);
  ASSERT_EQ(chain_length(), 1 + kBefore + kAfter);

  // The insert and the updates before the reader are unlinked; the chain
  // keeps exactly the records the reader needs to rebuild its version.
  EXPECT_EQ(gc.PerformGarbageCollection(), std::make_pair(0u, 1u + kBefore));
  for (int pass = 0; pass < 3; pass++) {
    EXPECT_EQ(gc.PerformGarbageCollection(), std::make_pair(0u, 0u)) << "pass " << pass;
    EXPECT_EQ(chain_length(), kAfter);
    EXPECT_EQ(read(reader), kBefore);
  }

  txn_manager.Commit(reader);
  EXPECT_EQ(gc.PerformGarbageCollection(), std::make_pair(1u + kBefore, kAfter + 1u));
  EXPECT_EQ(chain_length(), 0);
  EXPECT_EQ(gc.PerformGarbageCollection(), std::make_pair(kAfter + 1u, 0u));
  EXPECT_EQ(gc.PerformGarbageCollection(), std::make_pair(0u, 0u));
  auto *fresh = txn_manager.BeginTransaction();
  EXPECT_EQ(read(fresh), kBefore + kAfter);
  txn_manager.Commit(fresh);
  gc.FullGC();
}

// ---------------------------------------------------------------------------
// Object pool.
// ---------------------------------------------------------------------------

TEST(ObjectPoolTest, ReusesAndCapsObjects) {
  storage::RecordBufferSegmentPool pool(2, 1);  // at most 2 live, cache 1
  auto *a = pool.Get();
  auto *b = pool.Get();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(pool.Get(), nullptr) << "size limit reached";
  pool.Release(a);
  auto *c = pool.Get();
  EXPECT_EQ(c, a) << "released object is reused";
  pool.Release(b);
  pool.Release(c);
}

// ---------------------------------------------------------------------------
// Catalog.
// ---------------------------------------------------------------------------

TEST(CatalogTest, TablesAndIndexesByNameAndOid) {
  storage::BlockStore store(10, 10);
  catalog::Catalog catalog(&store);
  const catalog::Schema schema({{"k", catalog::TypeId::kBigInt}});
  const catalog::table_oid_t oid = catalog.CreateTable("t1", schema);
  EXPECT_NE(catalog.GetTable(oid), nullptr);
  EXPECT_EQ(catalog.GetTable("t1"), catalog.GetTable(oid));
  EXPECT_EQ(catalog.GetTableOid("t1"), oid);
  EXPECT_EQ(catalog.GetTable("missing"), nullptr);
  EXPECT_EQ(catalog.GetTableOid("missing"), catalog::table_oid_t(0));

  catalog.RegisterIndex("t1_pk", oid, index::MakeIndex<index::BPlusTree>(8));
  EXPECT_NE(catalog.GetIndex("t1_pk"), nullptr);
  EXPECT_EQ(catalog.GetIndex("nope"), nullptr);
  EXPECT_EQ(catalog.TableMap().size(), 1u);
}

// ---------------------------------------------------------------------------
// Access observer + pipeline: cold detection end to end.
// ---------------------------------------------------------------------------

TEST(AccessObserverTest, DetectsColdBlocksAfterThresholdEpochs) {
  storage::BlockStore store(100, 10);
  storage::RecordBufferSegmentPool pool(100000, 100);
  catalog::Catalog catalog(&store);
  transaction::TransactionManager txn_manager(&pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);
  transform::AccessObserver observer(3);
  gc.SetAccessObserver(&observer);

  auto *table = catalog.GetTable(
      catalog.CreateTable("t", catalog::Schema({{"v", catalog::TypeId::kBigInt}})));
  const auto initializer = table->FullInitializer();
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);

  auto *txn = txn_manager.BeginTransaction();
  storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
  workload::Set<int64_t>(row, 0, 1);
  table->Insert(txn, *row);
  txn_manager.Commit(txn);

  gc.PerformGarbageCollection();  // drains the txn, observes the write
  EXPECT_EQ(observer.WatchedBlocks(), 1u);
  EXPECT_TRUE(observer.CollectColdBlocks().empty()) << "not cold yet";

  // Not enough epochs yet.
  gc.PerformGarbageCollection();
  EXPECT_TRUE(observer.CollectColdBlocks().empty());

  // Past the threshold: emitted exactly once, leaves the watch set.
  gc.PerformGarbageCollection();
  gc.PerformGarbageCollection();
  auto cold = observer.CollectColdBlocks();
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_EQ(cold[0]->data_table, &table->UnderlyingTable());
  EXPECT_EQ(observer.WatchedBlocks(), 0u);

  // A new write re-enters the block into the watch set.
  auto *txn2 = txn_manager.BeginTransaction();
  storage::ProjectedRow *row2 = initializer.InitializeRow(buffer.data());
  workload::Set<int64_t>(row2, 0, 2);
  table->Insert(txn2, *row2);
  txn_manager.Commit(txn2);
  gc.PerformGarbageCollection();
  EXPECT_EQ(observer.WatchedBlocks(), 1u);
  gc.SetAccessObserver(nullptr);
  gc.FullGC();
}

/// A GC run reports its writes before it closes the epoch. Closing it first
/// would let a block written in every interval look cold between the run's
/// start and its drain, so the transform would keep compacting a table's
/// insertion block under a steady insert stream.
TEST(AccessObserverTest, GcRunReportsWritesBeforeClosingTheEpoch) {
  struct Recorder final : gc::WriteObserver {
    std::vector<char> calls;
    void NewEpoch() override { calls.push_back('E'); }
    void ObserveWrite(storage::RawBlock *) override { calls.push_back('W'); }
  };
  storage::BlockStore store(100, 10);
  storage::RecordBufferSegmentPool pool(100000, 100);
  catalog::Catalog catalog(&store);
  transaction::TransactionManager txn_manager(&pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);
  Recorder recorder;
  gc.SetAccessObserver(&recorder);

  auto *table = catalog.GetTable(
      catalog.CreateTable("t", catalog::Schema({{"v", catalog::TypeId::kBigInt}})));
  const auto initializer = table->FullInitializer();
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *txn = txn_manager.BeginTransaction();
  storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
  workload::Set<int64_t>(row, 0, 1);
  table->Insert(txn, *row);
  txn_manager.Commit(txn);

  gc.PerformGarbageCollection();
  EXPECT_EQ(recorder.calls, (std::vector<char>{'W', 'E'}));
  gc.SetAccessObserver(nullptr);
  gc.FullGC();
}

TEST(TransformPipelineTest, FreezesColdBlocksEndToEnd) {
  storage::BlockStore store(100, 10);
  storage::RecordBufferSegmentPool pool(100000, 100);
  catalog::Catalog catalog(&store);
  transaction::TransactionManager txn_manager(&pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);
  transform::AccessObserver observer(1);
  gc.SetAccessObserver(&observer);

  auto *table = catalog.GetTable(
      catalog.CreateTable("t", catalog::Schema({{"v", catalog::TypeId::kBigInt},
                                                {"s", catalog::TypeId::kVarchar}})));
  const auto initializer = table->FullInitializer();
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *txn = txn_manager.BeginTransaction();
  for (int64_t i = 0; i < 500; i++) {
    storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
    workload::Set<int64_t>(row, 0, i);
    workload::SetVarchar(row, 1, "some-longer-string-" + std::to_string(i));
    table->Insert(txn, *row);
  }
  txn_manager.Commit(txn);

  transform::BlockTransformer transformer(&txn_manager, &gc);
  transform::TransformPipeline pipeline(&observer, &transformer, 10);

  // Drive GC epochs past the threshold, then one pipeline pass freezes.
  gc.PerformGarbageCollection();
  gc.PerformGarbageCollection();
  gc.PerformGarbageCollection();
  const uint32_t frozen = pipeline.RunOnce();
  EXPECT_EQ(frozen, table->UnderlyingTable().NumBlocks());
  for (auto *block : table->UnderlyingTable().Blocks()) {
    EXPECT_EQ(block->controller.GetState(), storage::BlockState::kFrozen);
  }
  gc.SetAccessObserver(nullptr);
  gc.FullGC();
}

}  // namespace mainline
