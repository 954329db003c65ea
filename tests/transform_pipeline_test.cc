#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/timer.h"
#include "gc/garbage_collector.h"
#include "gc/gc_thread.h"
#include "transform/access_observer.h"
#include "transform/arrow_reader.h"
#include "transform/block_transformer.h"
#include "transform/freeze_policy.h"
#include "transform/transform_pipeline.h"
#include "workload/row_util.h"

namespace mainline {

using storage::BlockState;
using storage::ProjectedRow;
using storage::TupleSlot;
using transform::BlockTransformer;
using transform::GatherMode;

/// End-to-end coverage of the paper's core loop: transactional inserts into a
/// DataTable, cold detection through the GC-fed AccessObserver, background
/// transformation via TransformPipeline, and zero-copy Arrow reads of the
/// frozen result through ArrowReader.
class TransformPipelineTest : public ::testing::TestWithParam<GatherMode> {
 protected:
  TransformPipelineTest()
      : block_store_(1000, 100),
        buffer_pool_(10000000, 1000),
        catalog_(&block_store_),
        schema_({{"id", catalog::TypeId::kBigInt},
                 {"name", catalog::TypeId::kVarchar, true},
                 {"score", catalog::TypeId::kInteger}}),
        txn_manager_(&buffer_pool_, true, nullptr),
        gc_(&txn_manager_),
        observer_(kColdThreshold),
        transformer_(&txn_manager_, &gc_, GetParam()),
        pipeline_(&observer_, &transformer_, /*group_size=*/4) {
    gc_.SetAccessObserver(&observer_);
    table_ = catalog_.GetTable(catalog_.CreateTable("t", schema_));
  }

  // Detach the observer before members destruct (in reverse order, the
  // observer dies before the GC — whose own destructor still runs a final
  // collection pass that would feed it).
  ~TransformPipelineTest() { gc_.SetAccessObserver(nullptr); }

  static constexpr uint64_t kColdThreshold = 2;

  /// The deterministic row contents for id `i`; `name` is null for
  /// i % 7 == 0 and out-of-line (longer than the inline limit) otherwise.
  static std::string NameFor(int64_t i) {
    return "row-with-an-out-of-line-name-" + std::to_string(i);
  }

  /// Enough rows to span a little over `blocks` full blocks.
  int64_t RowsForBlocks(int64_t blocks) const {
    const auto slots = static_cast<int64_t>(
        table_->UnderlyingTable().GetLayout().NumSlots());
    return blocks * slots + slots / 2;
  }

  std::vector<TupleSlot> Populate(int64_t n) {
    auto initializer = table_->FullInitializer();
    std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
    std::vector<TupleSlot> slots;
    auto *txn = txn_manager_.BeginTransaction();
    for (int64_t i = 0; i < n; i++) {
      ProjectedRow *row = initializer.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, i);
      if (i % 7 == 0) {
        row->SetNull(1);
      } else {
        workload::SetVarchar(row, 1, NameFor(i));
      }
      workload::Set<int32_t>(row, 2, static_cast<int32_t>(i * 3));
      slots.push_back(table_->Insert(txn, *row));
    }
    txn_manager_.Commit(txn);
    return slots;
  }

  /// Advance enough GC epochs for every previously written block to be
  /// emitted as a cold candidate on the next observer poll.
  void AdvancePastColdThreshold() {
    for (uint64_t i = 0; i <= kColdThreshold + 1; i++) gc_.PerformGarbageCollection();
  }

  /// Whether every block but the table's insertion block is frozen (the
  /// insertion block may stay hot: inserts can still claim its slots).
  bool AllButInsertionFrozen() const {
    storage::DataTable &dt = table_->UnderlyingTable();
    for (storage::RawBlock *block : dt.Blocks()) {
      if (block != dt.CurrentInsertionBlock() &&
          block->controller.GetState() != BlockState::kFrozen) {
        return false;
      }
    }
    return true;
  }

  /// Cooperative passes with GC epochs in between, as a GC thread would
  /// provide, until AllButInsertionFrozen or `max_passes` have run. The GC
  /// after each pass also runs the deferred releases of emptied blocks.
  void PassUntilFrozen(int max_passes) {
    for (int pass = 0; pass < max_passes && !AllButInsertionFrozen(); pass++) {
      pipeline_.RunOnce();
      AdvancePastColdThreshold();
    }
  }

  // Destruction order (reverse of declaration): pipeline and GC first, then
  // the transaction manager, then tables.
  storage::BlockStore block_store_;
  storage::RecordBufferSegmentPool buffer_pool_;
  catalog::Catalog catalog_;
  catalog::Schema schema_;
  transaction::TransactionManager txn_manager_;
  gc::GarbageCollector gc_;
  transform::AccessObserver observer_;
  BlockTransformer transformer_;
  transform::TransformPipeline pipeline_;
  catalog::SqlTable *table_;
};

TEST_P(TransformPipelineTest, ColdBlocksFreezeAndReadBackThroughArrow) {
  const int64_t kRows = RowsForBlocks(2);  // spans multiple blocks
  Populate(kRows);
  storage::DataTable &dt = table_->UnderlyingTable();
  ASSERT_GT(dt.Blocks().size(), 1u);

  // Nothing is cold yet: the pipeline must not touch freshly written blocks.
  gc_.PerformGarbageCollection();
  EXPECT_EQ(pipeline_.RunOnce(), 0u);
  for (storage::RawBlock *block : dt.Blocks()) {
    EXPECT_NE(block->controller.GetState(), BlockState::kFrozen);
  }

  // After the cold threshold passes, one pipeline pass freezes every block.
  AdvancePastColdThreshold();
  const uint32_t frozen = pipeline_.RunOnce();
  EXPECT_GT(frozen, 0u);
  std::vector<storage::RawBlock *> blocks = dt.Blocks();
  for (storage::RawBlock *block : blocks) {
    EXPECT_EQ(block->controller.GetState(), BlockState::kFrozen);
  }
  EXPECT_EQ(pipeline_.Stats().blocks_frozen, frozen);

  // Read every frozen block back through the zero-copy Arrow path and check
  // the contents against what was inserted. Compaction may have moved tuples
  // between blocks, so verify the multiset of ids instead of positions.
  std::vector<bool> seen(kRows, false);
  int64_t total_rows = 0;
  for (storage::RawBlock *block : blocks) {
    ASSERT_TRUE(block->controller.TryAcquireRead());
    auto batch = transform::ArrowReader::FromFrozenBlock(schema_, dt, block);
    ASSERT_NE(batch, nullptr);
    ASSERT_EQ(batch->num_columns(), 3);

    // The zero-copy view agrees with a transactional materialization.
    auto *txn = txn_manager_.BeginTransaction();
    auto materialized = transform::ArrowReader::MaterializeBlock(schema_, &dt, block, txn);
    txn_manager_.Commit(txn);
    EXPECT_TRUE(batch->Equals(*materialized));

    const auto &ids = batch->column(0);
    const auto &names = batch->column(1);
    const auto &scores = batch->column(2);
    if (GetParam() == GatherMode::kDictionaryCompression) {
      EXPECT_EQ(names->type(), arrowlite::Type::kDictionary);
    }
    for (int64_t i = 0; i < batch->num_rows(); i++) {
      const int64_t id = ids->Value<int64_t>(i);
      ASSERT_GE(id, 0);
      ASSERT_LT(id, kRows);
      EXPECT_FALSE(seen[static_cast<size_t>(id)]) << "duplicate id " << id;
      seen[static_cast<size_t>(id)] = true;
      EXPECT_EQ(scores->Value<int32_t>(i), static_cast<int32_t>(id * 3));
      if (id % 7 == 0) {
        EXPECT_TRUE(names->IsNull(i)) << "id " << id << " must have a null name";
      } else {
        ASSERT_FALSE(names->IsNull(i));
        EXPECT_EQ(std::string(names->GetString(i)), NameFor(id));
      }
    }
    total_rows += batch->num_rows();
    block->controller.ReleaseRead();
  }
  EXPECT_EQ(total_rows, kRows);
  gc_.FullGC();
}

TEST_P(TransformPipelineTest, CompactionReclaimsDeletedSpaceBeforeFreezing) {
  const int64_t kRows = RowsForBlocks(2);
  const std::vector<TupleSlot> slots = Populate(kRows);
  storage::DataTable &dt = table_->UnderlyingTable();
  const size_t blocks_before = dt.Blocks().size();
  ASSERT_GT(blocks_before, 1u);

  // Delete two thirds so the survivors fit in fewer blocks.
  auto *txn = txn_manager_.BeginTransaction();
  for (size_t i = 0; i < slots.size(); i++) {
    if (i % 3 != 0) {
      ASSERT_TRUE(table_->Delete(txn, slots[i]));
    }
  }
  txn_manager_.Commit(txn);

  AdvancePastColdThreshold();
  EXPECT_GT(pipeline_.RunOnce(), 0u);
  EXPECT_GT(pipeline_.Stats().tuples_moved, 0u);

  // Survivors are all present exactly once in the frozen view.
  std::vector<bool> seen(kRows, false);
  int64_t total_rows = 0;
  for (storage::RawBlock *block : dt.Blocks()) {
    if (block->controller.GetState() != BlockState::kFrozen) continue;
    ASSERT_TRUE(block->controller.TryAcquireRead());
    auto batch = transform::ArrowReader::FromFrozenBlock(schema_, dt, block);
    ASSERT_NE(batch, nullptr);
    for (int64_t i = 0; i < batch->num_rows(); i++) {
      const int64_t id = batch->column(0)->Value<int64_t>(i);
      EXPECT_EQ(id % 3, 0) << "deleted tuples must not reappear";
      EXPECT_FALSE(seen[static_cast<size_t>(id)]);
      seen[static_cast<size_t>(id)] = true;
    }
    total_rows += batch->num_rows();
    block->controller.ReleaseRead();
  }
  EXPECT_EQ(total_rows, (kRows + 2) / 3);
  gc_.FullGC();
}

TEST_P(TransformPipelineTest, ManualEnqueueFreezesBulkLoadedTable) {
  Populate(1000);
  storage::DataTable &dt = table_->UnderlyingTable();
  gc_.FullGC();

  // A bulk-loaded table whose writes predate the observer never shows up as
  // a cold candidate; EnqueueTable force-feeds its blocks to the pipeline.
  pipeline_.EnqueueTable(&dt);
  EXPECT_GT(pipeline_.RunOnce(), 0u);
  for (storage::RawBlock *block : dt.Blocks()) {
    EXPECT_EQ(block->controller.GetState(), BlockState::kFrozen);
  }

  // An update re-heats its block; the pipeline eventually refreezes it once
  // it cools past the threshold again.
  auto initializer = table_->InitializerForColumns({2});
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *txn = txn_manager_.BeginTransaction();
  ProjectedRow *delta = initializer.InitializeRow(buffer.data());
  workload::Set<int32_t>(delta, 0, -1);
  storage::RawBlock *target = dt.Blocks().front();
  ASSERT_TRUE(table_->Update(txn, TupleSlot(target, 3), *delta));
  txn_manager_.Commit(txn);
  EXPECT_EQ(target->controller.GetState(), BlockState::kHot);

  AdvancePastColdThreshold();
  EXPECT_EQ(pipeline_.RunOnce(), 1u);
  EXPECT_EQ(target->controller.GetState(), BlockState::kFrozen);

  ASSERT_TRUE(target->controller.TryAcquireRead());
  auto batch = transform::ArrowReader::FromFrozenBlock(schema_, dt, target);
  ASSERT_NE(batch, nullptr);
  bool found_updated = false;
  for (int64_t i = 0; i < batch->num_rows(); i++) {
    if (batch->column(2)->Value<int32_t>(i) == -1) found_updated = true;
  }
  EXPECT_TRUE(found_updated) << "the updated value must survive refreezing";
  target->controller.ReleaseRead();
  gc_.FullGC();
}

TEST_P(TransformPipelineTest, UserDeletedBlocksAreReclaimed) {
  const int64_t kRows = RowsForBlocks(2);
  const std::vector<TupleSlot> slots = Populate(kRows);
  storage::DataTable &dt = table_->UnderlyingTable();
  const size_t blocks_before = dt.NumBlocks();
  ASSERT_GT(blocks_before, 2u);

  // User transactions (not the compactor) empty every block.
  auto *txn = txn_manager_.BeginTransaction();
  for (const TupleSlot slot : slots) ASSERT_TRUE(table_->Delete(txn, slot));
  txn_manager_.Commit(txn);

  AdvancePastColdThreshold();
  pipeline_.RunOnce();
  gc_.FullGC();  // drains the deferred releases

  // Everything except the insertion block must go back to the block store.
  EXPECT_EQ(dt.NumBlocks(), 1u);
  EXPECT_EQ(dt.FilledSlots(dt.Blocks().front()), 0u);
}

TEST_P(TransformPipelineTest, BackgroundThreadFreezesWithoutManualDriving) {
  Populate(1000);
  storage::DataTable &dt = table_->UnderlyingTable();
  gc_.FullGC();

  pipeline_.Start(transform::FreezePolicy::Config::Pinned(std::chrono::milliseconds(1)));
  pipeline_.EnqueueTable(&dt);
  // The worker owns all transformation work now; just wait for it.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (dt.Blocks().front()->controller.GetState() == BlockState::kFrozen) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pipeline_.Stop();
  EXPECT_EQ(dt.Blocks().front()->controller.GetState(), BlockState::kFrozen);
  gc_.FullGC();
}

/// Regression test for the CompactGroup varlen-leak race (the ~1/30 ASan
/// flake of tpcc_demo): the compaction planner counts never-used slots past
/// the insert head as fillable gaps, so CompactGroup's InsertInto can target
/// the very slot a concurrent user Insert claims with Allocate. Before the
/// fix, Insert published its undo record with a blind store that could erase
/// compaction's already-installed record — both transactions then wrote the
/// slot and committed without seeing a conflict, losing one row and leaking
/// whichever row's out-of-line varlen buffers lost the WriteValues race (the
/// compactor's DeepCopyVarlens copies, in the observed flake).
///
/// The interleaving is sub-microsecond, so the test makes it as likely as
/// possible instead of scripting it: each iteration builds a table whose
/// compaction plan moves kContested tuples into the insertion block's
/// never-used region, then races CompactGroup against two inserter threads
/// aimed at the same slots. The row-count and content assertions catch the
/// lost/corrupted rows directly; under ASan the leak itself fails the suite.
/// Iterations are overridable via MAINLINE_RACE_ITERS (default 24 — the
/// sanitizer job's budget; bump it when hunting).
TEST_P(TransformPipelineTest, CompactionNeverRacesUserInsertsOnNeverUsedSlots) {
  // Wide rows keep blocks small enough to roll over cheaply (~1000 slots).
  std::vector<catalog::Column> columns = {{"id", catalog::TypeId::kBigInt},
                                          {"payload", catalog::TypeId::kVarchar}};
  for (int i = 0; i < 120; i++) {
    columns.emplace_back("fill" + std::to_string(i), catalog::TypeId::kBigInt);
  }
  const catalog::Schema schema{columns};

  // 24-byte payloads: out of line (> the 12-byte inline limit), so every row
  // carries an owned buffer — the allocation the original flake leaked.
  const auto payload_for = [](int64_t id) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "payload-%016lld",
                  static_cast<long long>(id));
    return std::string(buffer);
  };
  const auto insert_row = [&](catalog::SqlTable *table,
                              transaction::TransactionContext *txn,
                              const storage::ProjectedRowInitializer &init,
                              std::vector<byte> *buffer, int64_t id) {
    ProjectedRow *row = init.InitializeRow(buffer->data());
    workload::Set<int64_t>(row, 0, id);
    workload::SetVarchar(row, 1, payload_for(id));
    for (uint16_t c = 2; c < schema.NumColumns(); c++) {
      workload::Set<int64_t>(row, c, id);
    }
    table->Insert(txn, *row);
  };

  const char *iters_env = std::getenv("MAINLINE_RACE_ITERS");
  const int iterations = iters_env == nullptr ? 24 : std::atoi(iters_env);
  constexpr uint32_t kContested = 64;   // moves aimed at never-used slots
  constexpr uint32_t kResidents = 80;   // pre-existing rows in the insertion block
  constexpr uint32_t kInserters = 2;

  for (int iter = 0; iter < iterations; iter++) {
    catalog::SqlTable *table =
        catalog_.GetTable(catalog_.CreateTable("race" + std::to_string(iter), schema));
    storage::DataTable &dt = table->UnderlyingTable();
    const auto slots_per_block = static_cast<int64_t>(dt.GetLayout().NumSlots());
    const auto init = table->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);

    // Roll block 1 over completely, then seed the new insertion block with
    // kResidents rows so the planner picks it as the partial target block.
    auto *txn = txn_manager_.BeginTransaction();
    for (int64_t i = 0; i < slots_per_block + kResidents; i++) {
      insert_row(table, txn, init, &buffer, i);
    }
    txn_manager_.Commit(txn);
    ASSERT_EQ(dt.NumBlocks(), 2u);

    // Thin block 1 down to kContested survivors: the plan now moves exactly
    // those tuples into the insertion block's gaps — which, because the
    // insertion block holds more tuples than any other block in the group,
    // are its NEVER-USED slots [kResidents, kResidents + kContested).
    std::vector<int64_t> expected_ids;
    txn = txn_manager_.BeginTransaction();
    storage::RawBlock *block1 = dt.Blocks().front();
    for (int64_t i = 0; i < slots_per_block; i++) {
      if (i < kContested) {
        expected_ids.push_back(i);
        continue;
      }
      ASSERT_TRUE(table->Delete(txn, TupleSlot(block1, static_cast<uint32_t>(i))));
    }
    txn_manager_.Commit(txn);
    for (int64_t i = slots_per_block; i < slots_per_block + kResidents; i++) {
      expected_ids.push_back(i);
    }
    gc_.FullGC();

    // Race: CompactGroup moves the survivors while inserter threads claim
    // slots from the same never-used region via Allocate.
    std::atomic<bool> start{false};
    std::vector<std::thread> inserters;
    for (uint32_t t = 0; t < kInserters; t++) {
      inserters.emplace_back([&, t] {
        std::vector<byte> local_buffer(init.ProjectedRowSize() + 8);
        while (!start.load(std::memory_order_acquire)) {
        }
        auto *insert_txn = txn_manager_.BeginTransaction();
        for (uint32_t i = 0; i < kContested / kInserters; i++) {
          insert_row(table, insert_txn, init, &local_buffer,
                     1000000 + iter * 1000 + static_cast<int64_t>(t * 100 + i));
        }
        txn_manager_.Commit(insert_txn);
      });
    }
    for (uint32_t t = 0; t < kInserters; t++) {
      for (uint32_t i = 0; i < kContested / kInserters; i++) {
        expected_ids.push_back(1000000 + iter * 1000 + static_cast<int64_t>(t * 100 + i));
      }
    }
    start.store(true, std::memory_order_release);
    // An abort (a user insert won a contested slot first) is a legal outcome;
    // losing or corrupting a committed row is not.
    transformer_.CompactGroup(&dt, dt.Blocks(), nullptr, nullptr);
    for (std::thread &thread : inserters) thread.join();

    // Every expected row must be visible exactly once, with intact contents.
    const auto read_init = table->InitializerForColumns({0, 1});
    std::vector<byte> read_buffer(read_init.ProjectedRowSize() + 8);
    std::vector<int64_t> visible_ids;
    auto *read_txn = txn_manager_.BeginTransaction();
    for (auto it = table->begin(); !it.Done(); ++it) {
      ProjectedRow *row = read_init.InitializeRow(read_buffer.data());
      if (!table->Select(read_txn, *it, row)) continue;
      const int64_t id = workload::Get<int64_t>(*row, 0);
      EXPECT_EQ(workload::GetVarchar(*row, 1), payload_for(id))
          << "row " << id << " corrupted in iteration " << iter;
      visible_ids.push_back(id);
    }
    txn_manager_.Commit(read_txn);

    std::sort(visible_ids.begin(), visible_ids.end());
    std::sort(expected_ids.begin(), expected_ids.end());
    ASSERT_EQ(visible_ids, expected_ids)
        << "a compaction/insert race lost or duplicated rows in iteration " << iter;
    gc_.FullGC();
  }
}

/// Stop() must return promptly even when the worker is parked in a long
/// sleep: the condition-variable wakeup cuts through the period. Regression
/// test for the old fixed-sleep loop, where Stop() blocked for up to a full
/// period (here: 10 seconds).
TEST_P(TransformPipelineTest, StopReturnsPromptlyMidSleep) {
  pipeline_.Start(transform::FreezePolicy::Config::Pinned(std::chrono::seconds(10)));
  // Let the worker finish its first (empty) pass and park in the sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto stop_begin = std::chrono::steady_clock::now();
  pipeline_.Stop();
  const auto stop_took = std::chrono::steady_clock::now() - stop_begin;
  EXPECT_LT(stop_took, std::chrono::seconds(2))
      << "Stop() must interrupt the sleep, not wait out the period";
}

/// Start drives freezing end to end and leaves the controller's period
/// inside its configured band.
TEST_P(TransformPipelineTest, AdaptiveStartFreezesInBackground) {
  Populate(1000);
  storage::DataTable &dt = table_->UnderlyingTable();
  gc_.FullGC();

  transform::FreezePolicy::Config policy;
  policy.min_period = std::chrono::milliseconds(1);
  policy.max_period = std::chrono::milliseconds(20);
  policy.initial_period = std::chrono::milliseconds(1);
  pipeline_.Start(policy);
  pipeline_.EnqueueTable(&dt);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (dt.Blocks().front()->controller.GetState() == BlockState::kFrozen) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pipeline_.Stop();
  EXPECT_EQ(dt.Blocks().front()->controller.GetState(), BlockState::kFrozen);
  EXPECT_GE(pipeline_.CurrentPeriod(), policy.min_period);
  EXPECT_LE(pipeline_.CurrentPeriod(), policy.max_period);
  gc_.FullGC();
}

/// Liveness: a reader that overlaps a compaction holds back the gather of
/// its survivors, but only while it runs. The pass must not wait for it,
/// and once it is gone the survivors must freeze although nothing writes to
/// them again (the observer handed them over before the first pass).
TEST_P(TransformPipelineTest, SurvivorsFreezeOnceAnOverlappingReaderCloses) {
  const std::vector<TupleSlot> slots = Populate(RowsForBlocks(2));
  storage::DataTable &dt = table_->UnderlyingTable();
  ASSERT_GT(dt.NumBlocks(), 2u);
  // Holes, so the compaction moves tuples and its survivors carry versions.
  auto *txn = txn_manager_.BeginTransaction();
  for (size_t i = 1; i < slots.size(); i += 3) ASSERT_TRUE(table_->Delete(txn, slots[i]));
  txn_manager_.Commit(txn);
  AdvancePastColdThreshold();

  // The reader begins before the pass, so the pass's compaction commits
  // while it runs. The pass runs on a helper thread under a watchdog: a
  // pass that waits for the reader would otherwise hang the suite.
  auto *reader = txn_manager_.BeginTransaction();
  std::atomic<bool> pass_done{false};
  std::thread pass([&] {
    pipeline_.RunOnce();
    pass_done.store(true, std::memory_order_release);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pass_done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(pass_done.load(std::memory_order_acquire))
      << "a pass must not wait for a transaction that overlaps a compaction";
  if (pass_done.load(std::memory_order_acquire)) {
    EXPECT_GT(pipeline_.Stats().tuples_moved, 0u);
    for (storage::RawBlock *block : dt.Blocks()) {
      EXPECT_NE(block->controller.GetState(), BlockState::kFrozen)
          << "no survivor may be gathered while an overlapping reader runs";
    }
  }
  txn_manager_.Commit(reader);
  pass.join();

  PassUntilFrozen(4);
  EXPECT_TRUE(AllButInsertionFrozen());
  gc_.FullGC();
}

/// Liveness: an uncommitted write aborts the compaction of a multi-block
/// group. Once the writer is done, the blocks it never touched must freeze
/// without any further write to them.
TEST_P(TransformPipelineTest, BlocksOfAnAbortedCompactionFreezeAfterTheWriterFinishes) {
  const std::vector<TupleSlot> slots = Populate(RowsForBlocks(2));
  storage::DataTable &dt = table_->UnderlyingTable();
  const std::vector<storage::RawBlock *> blocks = dt.Blocks();
  ASSERT_EQ(blocks.size(), 3u);
  ASSERT_EQ(blocks[2], dt.CurrentInsertionBlock());
  // Holes in the first block: the plan moves the insertion block's last
  // tuples into them, all three blocks in one group of four.
  auto *txn = txn_manager_.BeginTransaction();
  for (uint32_t i = 0; i < 10; i++) ASSERT_TRUE(table_->Delete(txn, TupleSlot(blocks[0], i)));
  txn_manager_.Commit(txn);
  AdvancePastColdThreshold();

  // The writer updates every tuple of the insertion block and stays open,
  // so the first move conflicts and the compaction aborts.
  auto initializer = table_->InitializerForColumns({2});
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *writer = txn_manager_.BeginTransaction();
  for (const TupleSlot slot : slots) {
    if (slot.GetBlock() != blocks[2]) continue;
    ProjectedRow *delta = initializer.InitializeRow(buffer.data());
    workload::Set<int32_t>(delta, 0, -1);
    ASSERT_TRUE(table_->Update(writer, slot, *delta));
  }
  EXPECT_EQ(pipeline_.RunOnce(), 0u);
  ASSERT_EQ(pipeline_.Stats().compaction_aborts, 1u);
  txn_manager_.Commit(writer);

  PassUntilFrozen(4);
  EXPECT_EQ(blocks[0]->controller.GetState(), BlockState::kFrozen);
  EXPECT_EQ(blocks[1]->controller.GetState(), BlockState::kFrozen);
  EXPECT_TRUE(AllButInsertionFrozen());
  gc_.FullGC();
}

/// The liveness end state under the background pipeline: a GC thread owns
/// the collector (no inline pumping), and a writer inserts — leaving holes
/// behind — while holding a reader open across its transactions, so
/// compactions keep overlapping running transactions. Once the writer
/// stops, every block but the insertion block must freeze, and every row
/// must still be there exactly once.
TEST_P(TransformPipelineTest, BackgroundPipelineFreezesEverythingAfterAConcurrentWriter) {
  const int64_t loaded = RowsForBlocks(2);
  Populate(loaded);
  storage::DataTable &dt = table_->UnderlyingTable();
  transformer_.SetInlineGCPump(false);
  int64_t expected_rows = loaded;
  {
    gc::GarbageCollectorThread gc_thread(&gc_, std::chrono::milliseconds(1));
    pipeline_.EnqueueTable(&dt);
    pipeline_.Start(transform::FreezePolicy::Config{});

    std::thread writer([&] {
      const auto initializer = table_->FullInitializer();
      std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
      int64_t next_id = loaded;
      const common::Timer window;
      while (window.Elapsed<std::chrono::milliseconds>() < 300) {
        auto *reader = txn_manager_.BeginTransaction();
        for (int round = 0; round < 4; round++) {
          auto *txn = txn_manager_.BeginTransaction();
          for (int i = 0; i < 64; i++, next_id++) {
            ProjectedRow *row = initializer.InitializeRow(buffer.data());
            workload::Set<int64_t>(row, 0, next_id);
            workload::SetVarchar(row, 1, NameFor(next_id));
            workload::Set<int32_t>(row, 2, static_cast<int32_t>(next_id * 3));
            const TupleSlot slot = table_->Insert(txn, *row);
            // Every fourth row is deleted by the transaction that inserted
            // it, which leaves a hole for compaction to fill.
            if (i % 4 == 0) {
              ASSERT_TRUE(table_->Delete(txn, slot));
            } else {
              expected_rows++;
            }
          }
          txn_manager_.Commit(txn);
        }
        txn_manager_.Commit(reader);
      }
    });
    writer.join();

    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!AllButInsertionFrozen() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pipeline_.Stop();
  }
  gc_.FullGC();
  EXPECT_TRUE(AllButInsertionFrozen());
  EXPECT_GT(pipeline_.Stats().blocks_frozen, 0u);

  const auto read_init = table_->InitializerForColumns({0});
  std::vector<byte> read_buffer(read_init.ProjectedRowSize() + 8);
  std::vector<bool> seen(static_cast<size_t>(loaded) + 1000000, false);
  int64_t visible = 0;
  auto *read_txn = txn_manager_.BeginTransaction();
  for (auto it = table_->begin(); !it.Done(); ++it) {
    ProjectedRow *row = read_init.InitializeRow(read_buffer.data());
    if (!table_->Select(read_txn, *it, row)) continue;
    const auto id = static_cast<size_t>(workload::Get<int64_t>(*row, 0));
    ASSERT_LT(id, seen.size());
    EXPECT_FALSE(seen[id]) << "row " << id << " appears twice";
    seen[id] = true;
    visible++;
  }
  txn_manager_.Commit(read_txn);
  EXPECT_EQ(visible, expected_rows);
}

/// Deterministic FreezePolicy unit coverage: the controller is pure
/// state-in/state-out, so synthetic feedback sequences pin its behavior
/// exactly — no threads, no clocks.
using transform::FreezePolicy;

TEST(FreezePolicyTest, ConvergesToMinUnderSustainedBacklog) {
  FreezePolicy::Config config;
  config.min_period = std::chrono::milliseconds(1);
  config.max_period = std::chrono::milliseconds(200);
  config.initial_period = std::chrono::milliseconds(100);
  FreezePolicy policy(config);
  EXPECT_EQ(policy.CurrentPeriod(), config.initial_period);

  // Ten passes of 10x-over-target backlog (cheap passes, so the duty-cycle
  // floor stays at zero): each pass cuts the period by kMaxShrink, so the
  // period must hit and hold the minimum.
  std::chrono::milliseconds last{0};
  for (int i = 0; i < 10; i++) {
    last = policy.OnPassComplete({/*queue_depth=*/10 * FreezePolicy::kTargetQueueDepth,
                                  /*pass_us=*/0, /*blocks_frozen=*/4});
  }
  EXPECT_EQ(last, config.min_period);
  EXPECT_EQ(policy.CurrentPeriod(), config.min_period);
}

TEST(FreezePolicyTest, BacksOffToMaxWhenIdle) {
  FreezePolicy::Config config;
  config.initial_period = std::chrono::milliseconds(10);
  config.max_period = std::chrono::milliseconds(200);
  FreezePolicy policy(config);

  // 10 -> 12.5 -> 15.6 -> ... -> clamp(200): idle passes grow the period by
  // kBackoff each, and the cap holds from then on.
  double expected = 10;
  int passes_at_cap = 0;
  for (int i = 0; i < 40; i++) {
    expected = std::min(expected * FreezePolicy::kBackoff, 200.0);
    EXPECT_EQ(policy.OnPassComplete({0, 0, 0}).count(), std::lround(expected));
    if (expected == 200.0) passes_at_cap++;
  }
  EXPECT_GT(passes_at_cap, 1);
}

TEST(FreezePolicyTest, HoldsInsideTheBand) {
  FreezePolicy::Config config;
  config.initial_period = std::chrono::milliseconds(50);
  FreezePolicy policy(config);
  const uint64_t depth = FreezePolicy::kTargetQueueDepth / 2;

  // Neither backlogged (depth <= target) nor idle (work happened): hold.
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(policy.OnPassComplete({depth, /*pass_us=*/1000, /*blocks_frozen=*/2}).count(),
              50);
  }
  // A non-empty queue with nothing frozen is "waiting", not "idle": the
  // period must hold rather than back off while blocks cool.
  EXPECT_EQ(policy.OnPassComplete({depth, /*pass_us=*/1000, /*blocks_frozen=*/0}).count(),
            50);
}

TEST(FreezePolicyTest, ShrinkIsProportionalAndBounded) {
  FreezePolicy::Config config;
  config.initial_period = std::chrono::milliseconds(100);
  FreezePolicy policy(config);

  // Twice the target halves the period: 100 -> 50.
  EXPECT_EQ(policy.OnPassComplete({2 * FreezePolicy::kTargetQueueDepth, 0, 1}).count(), 50);
  // A huge backlog is still bounded by kMaxShrink: 50 -> 50 * kMaxShrink,
  // not 50 / 1000.
  EXPECT_EQ(policy.OnPassComplete({1000 * FreezePolicy::kTargetQueueDepth, 0, 1}).count(),
            std::lround(50 * FreezePolicy::kMaxShrink));
}

TEST(FreezePolicyTest, DutyCycleFloorProtectsWriters) {
  FreezePolicy::Config config;
  config.initial_period = std::chrono::milliseconds(10);
  config.max_period = std::chrono::milliseconds(500);
  FreezePolicy policy(config);
  const double floor_per_pass_ms =
      (1.0 - FreezePolicy::kMaxDutyCycle) / FreezePolicy::kMaxDutyCycle;

  // Backlog wants to shrink the period, but a 100 ms pass demands at least
  // 100 ms * (1 - d) / d of sleep — the floor wins.
  EXPECT_EQ(policy.OnPassComplete({10 * FreezePolicy::kTargetQueueDepth, 100000, 8}).count(),
            std::lround(100 * floor_per_pass_ms));
  // A cheap pass lifts the floor and the proportional controller resumes.
  const double lifted = 100 * floor_per_pass_ms / 2;
  ASSERT_GT(lifted, floor_per_pass_ms);
  EXPECT_EQ(policy.OnPassComplete({2 * FreezePolicy::kTargetQueueDepth, 1000, 8}).count(),
            std::lround(lifted));
}

/// A fixed cadence is a pinned policy: the clamp into [min, max] comes last,
/// so neither backlog, idleness nor the duty-cycle floor can move it.
TEST(FreezePolicyTest, PinnedPolicyReturnsItsPeriodForAnyFeedback) {
  const std::chrono::milliseconds period(40);
  FreezePolicy policy(FreezePolicy::Config::Pinned(period));
  EXPECT_EQ(policy.CurrentPeriod(), period);
  const FreezePolicy::PassFeedback feedback[] = {
      {0, 0, 0},             // idle: would back off
      {16000, 0, 4},         // deep backlog: would shrink
      {8, 1000, 2},          // in the band: holds
      {160, 10'000'000, 8},  // a 10 s pass: the duty-cycle floor would lift it
      {0, 0, 0},
  };
  for (const auto &pass : feedback) {
    EXPECT_EQ(policy.OnPassComplete(pass), period);
    EXPECT_EQ(policy.CurrentPeriod(), period);
  }
}

TEST(FreezePolicyTest, AllZeroFeedbackAndBrokenConfigStayFinite) {
  // A config with every period out of range repairs to a usable band...
  FreezePolicy::Config broken;
  broken.min_period = std::chrono::milliseconds(-5);
  broken.max_period = std::chrono::milliseconds(-10);
  broken.initial_period = std::chrono::milliseconds(-1);
  FreezePolicy policy(broken);
  const FreezePolicy::Config &repaired = policy.GetConfig();
  EXPECT_GE(repaired.min_period.count(), 1);
  EXPECT_GE(repaired.max_period, repaired.min_period);
  EXPECT_GE(repaired.initial_period, repaired.min_period);
  EXPECT_LE(repaired.initial_period, repaired.max_period);

  // ...and the empty pass (all zeros: no queue, no time, no work) never
  // divides by zero; a long all-zero sequence stays inside the band.
  for (int i = 0; i < 100; i++) {
    const auto period = policy.OnPassComplete({0, 0, 0});
    EXPECT_GE(period, repaired.min_period);
    EXPECT_LE(period, repaired.max_period);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, TransformPipelineTest,
                         ::testing::Values(GatherMode::kVarlenGather,
                                           GatherMode::kDictionaryCompression),
                         [](const auto &info) {
                           return info.param == GatherMode::kVarlenGather ? "Gather"
                                                                          : "Dictionary";
                         });

}  // namespace mainline
