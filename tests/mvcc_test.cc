#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/cpu_relax.h"
#include "gc/garbage_collector.h"
#include "metrics/engine_metrics.h"
#include "metrics/metrics_registry.h"
#include "storage/data_table.h"
#include "storage/storage_util.h"
#include "transaction/transaction_manager.h"

namespace mainline {

using storage::BlockLayout;
using storage::BlockStore;
using storage::DataTable;
using storage::ProjectedRow;
using storage::ProjectedRowInitializer;
using storage::RecordBufferSegmentPool;
using storage::TupleSlot;
using transaction::TransactionContext;
using transaction::TransactionManager;

class MVCCTest : public ::testing::Test {
 protected:
  MVCCTest()
      : block_store_(1000, 100),
        buffer_pool_(100000, 1000),
        layout_({{8, false}, {8, false}}),
        table_(&block_store_, layout_, storage::layout_version_t(0)),
        txn_manager_(&buffer_pool_, true, nullptr),
        gc_(&txn_manager_),
        initializer_(ProjectedRowInitializer::CreateFull(layout_)),
        buffer_(initializer_.ProjectedRowSize() + 8) {}

  ProjectedRow *Row() { return initializer_.InitializeRow(buffer_.data()); }

  TupleSlot InsertTuple(int64_t a, int64_t b) {
    auto *txn = txn_manager_.BeginTransaction();
    ProjectedRow *row = Row();
    *reinterpret_cast<int64_t *>(row->AccessForceNotNull(0)) = a;
    *reinterpret_cast<int64_t *>(row->AccessForceNotNull(1)) = b;
    const TupleSlot slot = table_.Insert(txn, *row);
    txn_manager_.Commit(txn);
    return slot;
  }

  /// Read column 0, returning whether visible and the value.
  std::pair<bool, int64_t> Read(TransactionContext *txn, TupleSlot slot) {
    ProjectedRow *row = Row();
    const bool visible = table_.Select(txn, slot, row);
    const int64_t value =
        visible ? *reinterpret_cast<int64_t *>(row->AccessForceNotNull(0)) : -1;
    return {visible, value};
  }

  bool WriteCol0(TransactionContext *txn, TupleSlot slot, int64_t value) {
    std::vector<byte> local(initializer_.ProjectedRowSize() + 8);
    auto delta_init = ProjectedRowInitializer::Create(layout_, {storage::col_id_t(0)});
    ProjectedRow *delta = delta_init.InitializeRow(local.data());
    *reinterpret_cast<int64_t *>(delta->AccessForceNotNull(0)) = value;
    return table_.Update(txn, slot, *delta);
  }

  // Destruction order (reverse of declaration): GC, then the transaction
  // manager, then the table they both reference.
  BlockStore block_store_;
  RecordBufferSegmentPool buffer_pool_;
  BlockLayout layout_;
  DataTable table_;
  TransactionManager txn_manager_;
  gc::GarbageCollector gc_;
  ProjectedRowInitializer initializer_;
  std::vector<byte> buffer_;
};

// A reader that started before a writer commits must not see its update
// (snapshot isolation), and a reader starting after must.
TEST_F(MVCCTest, SnapshotIsolationVisibility) {
  const TupleSlot slot = InsertTuple(1, 10);

  auto *old_reader = txn_manager_.BeginTransaction();
  EXPECT_EQ(Read(old_reader, slot).second, 1);

  auto *writer = txn_manager_.BeginTransaction();
  ASSERT_TRUE(WriteCol0(writer, slot, 2));
  // Uncommitted: invisible to everyone but the writer.
  EXPECT_EQ(Read(old_reader, slot).second, 1);
  EXPECT_EQ(Read(writer, slot).second, 2);
  txn_manager_.Commit(writer);

  // Old reader still sees its snapshot after the commit.
  EXPECT_EQ(Read(old_reader, slot).second, 1);
  txn_manager_.Commit(old_reader);

  auto *new_reader = txn_manager_.BeginTransaction();
  EXPECT_EQ(Read(new_reader, slot).second, 2);
  txn_manager_.Commit(new_reader);
}

// Write-write conflicts are disallowed: the second writer fails.
TEST_F(MVCCTest, WriteWriteConflict) {
  const TupleSlot slot = InsertTuple(1, 10);
  auto *t1 = txn_manager_.BeginTransaction();
  auto *t2 = txn_manager_.BeginTransaction();
  ASSERT_TRUE(WriteCol0(t1, slot, 2));
  EXPECT_FALSE(WriteCol0(t2, slot, 3));  // conflict with uncommitted t1
  txn_manager_.Abort(t2);
  txn_manager_.Commit(t1);

  // A transaction that started before t1 committed conflicts as well
  // (first-committer-wins under SI).
  auto *t3 = txn_manager_.BeginTransaction();
  auto *t4 = txn_manager_.BeginTransaction();
  ASSERT_TRUE(WriteCol0(t3, slot, 4));
  txn_manager_.Commit(t3);
  EXPECT_FALSE(WriteCol0(t4, slot, 5));
  txn_manager_.Abort(t4);
}

// Aborting restores the before-image, and the abort protocol keeps the undo
// record in the chain so concurrent readers repair their copies.
TEST_F(MVCCTest, AbortRestoresData) {
  const TupleSlot slot = InsertTuple(7, 70);
  auto *writer = txn_manager_.BeginTransaction();
  ASSERT_TRUE(WriteCol0(writer, slot, 8));
  auto *reader_during = txn_manager_.BeginTransaction();
  txn_manager_.Abort(writer);

  EXPECT_EQ(Read(reader_during, slot).second, 7);
  txn_manager_.Commit(reader_during);

  auto *reader_after = txn_manager_.BeginTransaction();
  EXPECT_EQ(Read(reader_after, slot).second, 7);
  txn_manager_.Commit(reader_after);
}

// Deleted tuples stay visible to older snapshots through the full-row
// before-image.
TEST_F(MVCCTest, DeleteVisibility) {
  const TupleSlot slot = InsertTuple(5, 50);
  auto *old_reader = txn_manager_.BeginTransaction();

  auto *deleter = txn_manager_.BeginTransaction();
  ASSERT_TRUE(table_.Delete(deleter, slot));
  EXPECT_FALSE(Read(deleter, slot).first);  // own delete visible
  txn_manager_.Commit(deleter);

  EXPECT_TRUE(Read(old_reader, slot).first);
  EXPECT_EQ(Read(old_reader, slot).second, 5);
  txn_manager_.Commit(old_reader);

  auto *new_reader = txn_manager_.BeginTransaction();
  EXPECT_FALSE(Read(new_reader, slot).first);
  txn_manager_.Commit(new_reader);
}

TEST_F(MVCCTest, DeleteAbortResurrects) {
  const TupleSlot slot = InsertTuple(5, 50);
  auto *deleter = txn_manager_.BeginTransaction();
  ASSERT_TRUE(table_.Delete(deleter, slot));
  txn_manager_.Abort(deleter);

  auto *reader = txn_manager_.BeginTransaction();
  EXPECT_TRUE(Read(reader, slot).first);
  txn_manager_.Commit(reader);
}

// Updating a deleted tuple must fail.
TEST_F(MVCCTest, UpdateAfterDeleteFails) {
  const TupleSlot slot = InsertTuple(5, 50);
  auto *deleter = txn_manager_.BeginTransaction();
  ASSERT_TRUE(table_.Delete(deleter, slot));
  txn_manager_.Commit(deleter);

  auto *writer = txn_manager_.BeginTransaction();
  EXPECT_FALSE(WriteCol0(writer, slot, 9));
  txn_manager_.Abort(writer);
}

// An uncommitted insert is invisible to concurrent transactions.
TEST_F(MVCCTest, InsertVisibility) {
  auto *inserter = txn_manager_.BeginTransaction();
  ProjectedRow *row = Row();
  *reinterpret_cast<int64_t *>(row->AccessForceNotNull(0)) = 42;
  *reinterpret_cast<int64_t *>(row->AccessForceNotNull(1)) = 43;
  const TupleSlot slot = table_.Insert(inserter, *row);

  auto *reader = txn_manager_.BeginTransaction();
  EXPECT_FALSE(Read(reader, slot).first);
  EXPECT_TRUE(Read(inserter, slot).first);
  txn_manager_.Commit(inserter);
  // Still invisible: reader's snapshot predates the insert's commit.
  EXPECT_FALSE(Read(reader, slot).first);
  txn_manager_.Commit(reader);
}

// GC prunes version chains and reclaims transactions once nothing can see
// them.
TEST_F(MVCCTest, GarbageCollectionPrunesChains) {
  const TupleSlot slot = InsertTuple(0, 0);
  for (int64_t i = 1; i <= 100; i++) {
    auto *txn = txn_manager_.BeginTransaction();
    ASSERT_TRUE(WriteCol0(txn, slot, i));
    txn_manager_.Commit(txn);
  }
  EXPECT_NE(table_.Accessor().VersionPtr(slot).load(), nullptr);
  auto [deallocated1, unlinked1] = gc_.PerformGarbageCollection();
  EXPECT_GT(unlinked1, 0u);
  auto [deallocated2, unlinked2] = gc_.PerformGarbageCollection();
  EXPECT_GT(deallocated2, 0u);
  EXPECT_EQ(table_.Accessor().VersionPtr(slot).load(), nullptr);

  auto *reader = txn_manager_.BeginTransaction();
  EXPECT_EQ(Read(reader, slot).second, 100);
  txn_manager_.Commit(reader);
}

// GC must not prune versions still visible to an active transaction.
TEST_F(MVCCTest, GCRespectsActiveReaders) {
  const bool metrics_on = metrics::MetricsRegistry::Global().Enabled();
  const TupleSlot slot = InsertTuple(1, 0);
  auto *old_reader = txn_manager_.BeginTransaction();
  auto *writer = txn_manager_.BeginTransaction();
  ASSERT_TRUE(WriteCol0(writer, slot, 2));
  txn_manager_.Commit(writer);

  gc_.PerformGarbageCollection();
  gc_.PerformGarbageCollection();
  // The chain still serves old_reader's snapshot.
  EXPECT_EQ(Read(old_reader, slot).second, 1);

  // Later writers and passes must not reclaim the versions the reader needs;
  // what waits on the reader shows up in the backlog.
  for (int64_t value = 3; value < 8; value++) {
    auto *later = txn_manager_.BeginTransaction();
    ASSERT_TRUE(WriteCol0(later, slot, value));
    txn_manager_.Commit(later);
    gc_.PerformGarbageCollection();
    EXPECT_EQ(Read(old_reader, slot).second, 1);
    if (metrics_on) {
      EXPECT_GT(metrics::Gc().backlog->Value(), 0);
    }
  }

  txn_manager_.Commit(old_reader);
  gc_.PerformGarbageCollection();
  gc_.PerformGarbageCollection();
  EXPECT_EQ(table_.Accessor().VersionPtr(slot).load(), nullptr);
  if (metrics_on) {
    EXPECT_EQ(metrics::Gc().backlog->Value(), 0);
  }
}

// Concurrent single-row counter increments: committed increments must all
// survive (no lost updates), failed writers abort cleanly.
TEST_F(MVCCTest, ConcurrentCounterNoLostUpdates) {
  const TupleSlot slot = InsertTuple(0, 0);
  constexpr int kThreads = 8;
  constexpr int kAttempts = 2000;
  std::atomic<int64_t> committed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      std::vector<byte> local(initializer_.ProjectedRowSize() + 8);
      for (int i = 0; i < kAttempts; i++) {
        auto *txn = txn_manager_.BeginTransaction();
        ProjectedRow *row = initializer_.InitializeRow(local.data());
        if (!table_.Select(txn, slot, row)) {
          txn_manager_.Abort(txn);
          continue;
        }
        const int64_t value = *reinterpret_cast<int64_t *>(row->AccessForceNotNull(0));
        *reinterpret_cast<int64_t *>(row->AccessForceNotNull(0)) = value + 1;
        if (table_.Update(txn, slot, *row)) {
          txn_manager_.Commit(txn);
          committed.fetch_add(1);
        } else {
          txn_manager_.Abort(txn);
        }
      }
    });
  }
  for (auto &thread : threads) thread.join();

  auto *reader = txn_manager_.BeginTransaction();
  EXPECT_EQ(Read(reader, slot).second, committed.load());
  txn_manager_.Commit(reader);
  gc_.FullGC();
}

// A transaction that begins while another is inside its commit — after the
// commit timestamp is drawn, before the undo records are stamped with it —
// must not read around that commit and then overwrite it. A writer that
// updates many rows makes the stamping loop long. A second thread begins as
// soon as the writer's commit timestamp is drawn (CurrentTime() moves),
// reads the row the writer stamps last, and writes it back incremented once
// the commit has returned. The row must count every committed increment.
TEST_F(MVCCTest, BeginNeverLandsInsideACommit) {
  constexpr int kRows = 4096;
  constexpr int kRounds = 40;
  std::vector<TupleSlot> slots;
  for (int i = 0; i < kRows; i++) slots.push_back(InsertTuple(0, 0));
  const TupleSlot last = slots.back();

  std::atomic<transaction::timestamp_t> armed_at{0};
  std::atomic<int> committing{-1}, committed{-1}, reader_done{-1};
  int reader_commits = 0;
  std::thread reader([&] {
    std::vector<byte> local(initializer_.ProjectedRowSize() + 8);
    for (int round = 0; round < kRounds; round++) {
      while (committing.load() < round) std::this_thread::yield();
      const transaction::timestamp_t armed = armed_at.load();
      while (txn_manager_.CurrentTime() <= armed) common::CpuRelax();
      auto *txn = txn_manager_.BeginTransaction();
      ProjectedRow *row = initializer_.InitializeRow(local.data());
      EXPECT_TRUE(table_.Select(txn, last, row));
      const int64_t value = *reinterpret_cast<int64_t *>(row->AccessForceNotNull(0));
      while (committed.load() < round) std::this_thread::yield();
      *reinterpret_cast<int64_t *>(row->AccessForceNotNull(0)) = value + 1;
      if (table_.Update(txn, last, *row)) {
        txn_manager_.Commit(txn);
        reader_commits++;
      } else {
        txn_manager_.Abort(txn);
      }
      reader_done.store(round);
    }
  });
  for (int round = 0; round < kRounds; round++) {
    while (reader_done.load() < round - 1) std::this_thread::yield();
    auto *txn = txn_manager_.BeginTransaction();
    for (const TupleSlot slot : slots) {
      const auto [visible, value] = Read(txn, slot);
      EXPECT_TRUE(visible);
      EXPECT_TRUE(WriteCol0(txn, slot, value + 1));
    }
    armed_at.store(txn_manager_.CurrentTime());
    committing.store(round);
    txn_manager_.Commit(txn);
    committed.store(round);
  }
  reader.join();

  auto *check = txn_manager_.BeginTransaction();
  EXPECT_EQ(Read(check, last).second, kRounds + reader_commits);
  EXPECT_EQ(Read(check, slots.front()).second, kRounds);
  txn_manager_.Commit(check);
  gc_.FullGC();
}

// Concurrent writers + readers + GC: readers always see a consistent
// (a, b) pair where b == -a, the invariant writers maintain.
TEST_F(MVCCTest, ConsistentSnapshotsUnderConcurrency) {
  auto pair_init = ProjectedRowInitializer::CreateFull(layout_);
  const TupleSlot slot = InsertTuple(0, 0);
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    std::vector<byte> local(pair_init.ProjectedRowSize() + 8);
    int64_t next = 1;
    while (!stop.load()) {
      auto *txn = txn_manager_.BeginTransaction();
      ProjectedRow *row = pair_init.InitializeRow(local.data());
      *reinterpret_cast<int64_t *>(row->AccessForceNotNull(0)) = next;
      *reinterpret_cast<int64_t *>(row->AccessForceNotNull(1)) = -next;
      if (table_.Update(txn, slot, *row)) {
        txn_manager_.Commit(txn);
        next++;
      } else {
        txn_manager_.Abort(txn);
      }
    }
  });
  std::thread gc_thread([&] {
    while (!stop.load()) gc_.PerformGarbageCollection();
  });

  std::vector<std::thread> readers;
  std::atomic<bool> violation{false};
  for (int t = 0; t < 4; t++) {
    readers.emplace_back([&] {
      std::vector<byte> local(pair_init.ProjectedRowSize() + 8);
      for (int i = 0; i < 20000 && !violation.load(); i++) {
        auto *txn = txn_manager_.BeginTransaction();
        ProjectedRow *row = pair_init.InitializeRow(local.data());
        if (table_.Select(txn, slot, row)) {
          const int64_t a = *reinterpret_cast<int64_t *>(row->AccessForceNotNull(0));
          const int64_t b = *reinterpret_cast<int64_t *>(row->AccessForceNotNull(1));
          if (b != -a) violation.store(true);
        }
        txn_manager_.Commit(txn);
      }
    });
  }
  for (auto &thread : readers) thread.join();
  stop.store(true);
  writer.join();
  gc_thread.join();
  EXPECT_FALSE(violation.load());
  gc_.FullGC();
}

}  // namespace mainline
