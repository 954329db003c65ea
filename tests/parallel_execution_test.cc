#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/rand_util.h"
#include "common/worker_pool.h"
#include "execution/parallel_scanner.h"
#include "workload/tpch/query_runner.h"
#include "workload/tpch/tpch_queries.h"
#include "gc/garbage_collector.h"
#include "transform/access_observer.h"
#include "transform/block_transformer.h"
#include "transform/transform_pipeline.h"
#include "workload/row_util.h"
#include "workload/tpch/lineitem.h"

namespace mainline {

using execution::ColumnVectorBatch;
using workload::ExecMode;
using execution::ParallelTableScanner;
using workload::QueryRunner;
using execution::ScanStats;
using storage::BlockState;
using storage::ProjectedRow;
using transform::GatherMode;
namespace q = workload::tpch;

/// Coverage of the morsel-parallel execution layer: for every worker count,
/// the parallel engine must return results BIT-IDENTICAL to the scalar
/// tuple-at-a-time reference and the sequential vectorized engine — over
/// hot, mixed, and fully frozen tables, and while writers and the
/// transformation pipeline churn underneath.
class ParallelExecutionTest : public ::testing::TestWithParam<GatherMode> {
 protected:
  ParallelExecutionTest()
      : block_store_(2000, 100),
        buffer_pool_(10000000, 1000),
        catalog_(&block_store_),
        txn_manager_(&buffer_pool_, true, nullptr),
        gc_(&txn_manager_),
        observer_(/*cold_threshold=*/2),
        transformer_(&txn_manager_, &gc_, GetParam()),
        pipeline_(&observer_, &transformer_, /*group_size=*/4) {
    gc_.SetAccessObserver(&observer_);
  }

  // Detach the observer before members destruct (in reverse order, the
  // observer dies before the GC — whose own destructor still runs a final
  // collection pass that would feed it).
  ~ParallelExecutionTest() { gc_.SetAccessObserver(nullptr); }

  /// Rows spanning a little over `blocks` lineitem blocks.
  static uint64_t RowsForBlocks(uint64_t blocks) {
    const uint32_t slots = workload::tpch::LineItemSchema().ToBlockLayout().NumSlots();
    return blocks * slots + slots / 2;
  }

  catalog::SqlTable *Generate(uint64_t rows) {
    catalog::SqlTable *table = workload::tpch::GenerateLineItem(
        &catalog_, &txn_manager_, rows, /*seed=*/7, /*batch_size=*/4096);
    gc_.FullGC();
    return table;
  }

  /// Parallel Q1 + Q6 at `num_threads` against the scalar reference and the
  /// sequential vectorized engine, all inside ONE transaction so every
  /// engine answers from the same snapshot.
  void ExpectParallelAgrees(catalog::SqlTable *table, uint32_t num_threads,
                            ScanStats *stats_out = nullptr) {
    common::WorkerPool pool(num_threads);
    auto *txn = txn_manager_.BeginTransaction();

    ScanStats par_stats;
    const auto q1_par = q::RunQ1Parallel(table, txn, {}, &pool, &par_stats);
    const auto q1_scalar = q::RunQ1Scalar(table, txn, {}, nullptr);
    const auto q1_vec = q::RunQ1Parallel(table, txn, {}, /*pool=*/nullptr);
    ASSERT_EQ(q1_par.size(), q1_scalar.size()) << num_threads << " threads";
    for (size_t i = 0; i < q1_par.size(); i++) {
      EXPECT_TRUE(q1_par[i] == q1_scalar[i])
          << "parallel Q1 group " << q1_par[i].returnflag << "/" << q1_par[i].linestatus
          << " diverged from the scalar reference at " << num_threads << " threads";
      EXPECT_TRUE(q1_par[i] == q1_vec[i])
          << "parallel Q1 diverged from the sequential vectorized engine at " << num_threads
          << " threads";
    }

    ScanStats q6_stats;
    const double q6_par = q::RunQ6Parallel(table, txn, {}, &pool, &q6_stats);
    const double q6_scalar = q::RunQ6Scalar(table, txn, {}, nullptr);
    const double q6_vec = q::RunQ6Parallel(table, txn, {}, /*pool=*/nullptr);
    EXPECT_EQ(q6_par, q6_scalar) << num_threads << " threads";
    EXPECT_EQ(q6_par, q6_vec) << num_threads << " threads";

    txn_manager_.Commit(txn);
    par_stats.Add(q6_stats);
    if (stats_out != nullptr) *stats_out = par_stats;
  }

  storage::BlockStore block_store_;
  storage::RecordBufferSegmentPool buffer_pool_;
  catalog::Catalog catalog_;
  transaction::TransactionManager txn_manager_;
  gc::GarbageCollector gc_;
  transform::AccessObserver observer_;
  transform::BlockTransformer transformer_;
  transform::TransformPipeline pipeline_;
};

TEST_P(ParallelExecutionTest, MatchesScalarAcrossFreezeStatesAndThreadCounts) {
  catalog::SqlTable *table = Generate(RowsForBlocks(3));
  storage::DataTable &dt = table->UnderlyingTable();
  ASSERT_GT(dt.NumBlocks(), 3u);

  // 0% frozen: every morsel materializes.
  ScanStats stats;
  for (const uint32_t threads : {1u, 2u, 4u}) {
    ExpectParallelAgrees(table, threads, &stats);
    EXPECT_EQ(stats.frozen_blocks, 0u);
    EXPECT_GT(stats.hot_blocks, 0u);
  }

  // ~50% frozen: morsels mix both access paths.
  {
    const std::vector<storage::RawBlock *> blocks = dt.Blocks();
    for (size_t i = 0; i < blocks.size() / 2; i++) {
      transformer_.ProcessGroup(&dt, {blocks[i]}, nullptr);
    }
  }
  for (const uint32_t threads : {1u, 2u, 4u}) {
    ExpectParallelAgrees(table, threads, &stats);
    EXPECT_GT(stats.frozen_blocks, 0u);
    EXPECT_GT(stats.hot_blocks, 0u);
  }

  // 100% frozen: zero-copy morsels only.
  pipeline_.EnqueueTable(&dt);
  pipeline_.RunOnce();
  for (storage::RawBlock *block : dt.Blocks()) {
    ASSERT_EQ(block->controller.GetState(), BlockState::kFrozen);
  }
  for (const uint32_t threads : {1u, 2u, 4u}) {
    ExpectParallelAgrees(table, threads, &stats);
    EXPECT_GT(stats.frozen_blocks, 0u);
    EXPECT_EQ(stats.hot_blocks, 0u);
  }
  gc_.FullGC();
}

/// The scanner's bookkeeping: every non-empty block ordinal is consumed
/// exactly once, per-worker stats sum to the merged stats, and the morsel
/// cursor covers the whole table no matter how many workers race on it.
TEST_P(ParallelExecutionTest, MorselsCoverEveryBlockExactlyOnce) {
  const uint64_t expect_rows = RowsForBlocks(2);
  catalog::SqlTable *table = Generate(expect_rows);

  auto *txn = txn_manager_.BeginTransaction();
  ParallelTableScanner scanner(
      table, txn,
      {workload::tpch::L_QUANTITY, workload::tpch::L_EXTENDEDPRICE, workload::tpch::L_SHIPDATE});
  EXPECT_EQ(scanner.BatchIndex(workload::tpch::L_SHIPDATE), 2);

  std::vector<std::atomic<uint32_t>> consumed(scanner.NumBlocks());
  std::atomic<uint64_t> rows{0};
  common::WorkerPool pool(4);
  scanner.Scan(&pool, [&](size_t ordinal, ColumnVectorBatch *batch) {
    consumed[ordinal].fetch_add(1);
    EXPECT_GT(batch->NumRows(), 0);
    EXPECT_EQ(batch->Batch()->num_columns(), 3);
    rows.fetch_add(static_cast<uint64_t>(batch->NumRows()));
  });
  txn_manager_.Commit(txn);

  for (const auto &count : consumed) {
    EXPECT_LE(count.load(), 1u) << "a block ordinal was consumed more than once";
  }
  EXPECT_EQ(rows.load(), expect_rows);
  EXPECT_EQ(scanner.Stats().rows, expect_rows);

  // Per-worker stats partition the merged stats.
  ScanStats summed;
  for (const ScanStats &s : scanner.WorkerStats()) summed.Add(s);
  EXPECT_EQ(summed.rows, scanner.Stats().rows);
  EXPECT_EQ(summed.frozen_blocks, scanner.Stats().frozen_blocks);
  EXPECT_EQ(summed.hot_blocks, scanner.Stats().hot_blocks);
  EXPECT_EQ(scanner.WorkerStats().size(), 4u);
  gc_.FullGC();
}

/// A scanner handed no usable pool must degrade to an inline scan rather
/// than fail or hang — including a pool that was already shut down, whose
/// SubmitTask rejects (the WorkerPool bugfix this PR regression-tests in
/// worker_pool_test as well).
TEST_P(ParallelExecutionTest, DegradesToInlineScanWithoutUsableWorkers) {
  catalog::SqlTable *table = Generate(1000);
  auto *txn = txn_manager_.BeginTransaction();

  uint64_t rows = 0;
  const std::vector<uint16_t> projection = {workload::tpch::L_QUANTITY};
  {
    ParallelTableScanner scanner(table, txn, projection);
    scanner.Scan(nullptr, [&](size_t, ColumnVectorBatch *batch) {
      rows += static_cast<uint64_t>(batch->NumRows());
    });
    EXPECT_EQ(rows, 1000u);
  }
  {
    common::WorkerPool pool(2);
    pool.Shutdown();
    ParallelTableScanner scanner(table, txn, projection);
    rows = 0;
    scanner.Scan(&pool, [&](size_t, ColumnVectorBatch *batch) {
      rows += static_cast<uint64_t>(batch->NumRows());
    });
    EXPECT_EQ(rows, 1000u);
  }
  txn_manager_.Commit(txn);
  gc_.FullGC();
}

/// Regression: a shut-down pool reports zero workers, so the scan degrades
/// to the inline path — whose ScanStats must still land in both the merged
/// Stats() and the WorkerStats() view (one slot for the driving thread).
/// Each worker folds its partial at loop exit, so no exit path drops stats.
TEST_P(ParallelExecutionTest, ShutDownPoolLosesNoScanStats) {
  const uint64_t expect_rows = RowsForBlocks(1);
  catalog::SqlTable *table = Generate(expect_rows);
  auto *txn = txn_manager_.BeginTransaction();

  common::WorkerPool pool(2);
  pool.Shutdown();
  ParallelTableScanner scanner(table, txn, {workload::tpch::L_QUANTITY});
  uint64_t rows = 0;
  scanner.Scan(&pool, [&](size_t, ColumnVectorBatch *batch) {
    rows += static_cast<uint64_t>(batch->NumRows());
  });
  txn_manager_.Commit(txn);

  // The merged stats account for every row the callback saw...
  EXPECT_EQ(rows, expect_rows);
  EXPECT_EQ(scanner.Stats().rows, expect_rows);
  EXPECT_EQ(scanner.Stats().frozen_blocks + scanner.Stats().hot_blocks,
            scanner.NumBlocks());
  // ...and the per-worker view still partitions them exactly: the whole
  // scan ran inline, so it collapses to one slot that carries everything.
  ScanStats summed;
  for (const ScanStats &s : scanner.WorkerStats()) summed.Add(s);
  EXPECT_EQ(scanner.WorkerStats().size(), 1u);
  EXPECT_EQ(summed.rows, scanner.Stats().rows);
  EXPECT_EQ(summed.frozen_blocks, scanner.Stats().frozen_blocks);
  EXPECT_EQ(summed.hot_blocks, scanner.Stats().hot_blocks);
  gc_.FullGC();
}

TEST_P(ParallelExecutionTest, QueryRunnerParallelModeAgreesAndResizes) {
  catalog::SqlTable *table = Generate(RowsForBlocks(1));
  pipeline_.EnqueueTable(&table->UnderlyingTable());
  pipeline_.RunOnce();

  QueryRunner runner(&txn_manager_, /*num_threads=*/2);
  EXPECT_EQ(runner.NumThreads(), 2u);
  const auto q1_par = runner.RunQ1(table);
  const auto q1_ref = runner.RunQ1(table, {}, ExecMode::kScalar);
  EXPECT_TRUE(q1_par.rows == q1_ref.rows);
  EXPECT_EQ(q1_par.stats.rows, q1_ref.stats.rows);

  runner.SetNumThreads(4);
  EXPECT_EQ(runner.NumThreads(), 4u);
  const auto q6_par = runner.RunQ6(table);
  const auto q6_ref = runner.RunQ6(table, {}, ExecMode::kScalar);
  EXPECT_EQ(q6_par.revenue, q6_ref.revenue);

  runner.SetNumThreads(0);  // hardware concurrency, still exact
  const auto q6_hw = runner.RunQ6(table);
  EXPECT_EQ(q6_hw.revenue, q6_ref.revenue);

  runner.SetNumThreads(1);  // inline, no pool, still exact
  EXPECT_EQ(runner.RunQ6(table).revenue, q6_ref.revenue);
  gc_.FullGC();
}

/// The satellite concurrency scenario, parallel edition: Q6 runs on four
/// scan workers while (a) a writer updates, deletes, and inserts rows —
/// re-heating frozen blocks under the scan — and (b) the transformation
/// pipeline keeps re-freezing whatever cools down. Every iteration compares
/// the parallel engine against the scalar reference inside the SAME
/// transaction: any MVCC violation on any worker shows up as a bit-level
/// divergence.
TEST_P(ParallelExecutionTest, Q6ParallelStaysConsistentUnderConcurrentWritesAndTransform) {
  catalog::SqlTable *table = Generate(RowsForBlocks(1));
  storage::DataTable &dt = table->UnderlyingTable();

  pipeline_.EnqueueTable(&dt);
  pipeline_.RunOnce();

  std::atomic<bool> stop{false};

  // The transform thread owns the GC for the duration (single-consumer).
  std::thread transform_thread([&] {
    while (!stop.load(std::memory_order_acquire)) {
      pipeline_.EnqueueTable(&dt);
      pipeline_.RunOnce();
      gc_.PerformGarbageCollection();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread writer([&] {
    common::Xorshift rng(123);
    const auto update_init = table->InitializerForColumns({workload::tpch::L_QUANTITY});
    std::vector<byte> update_buf(update_init.ProjectedRowSize() + 8);
    while (!stop.load(std::memory_order_acquire)) {
      auto *txn = txn_manager_.BeginTransaction();
      bool ok = true;
      uint32_t visited = 0;
      for (auto it = table->begin(); !it.Done() && visited < 150 && ok; ++it, ++visited) {
        const uint64_t dice = rng.Uniform(0, 39);
        if (dice == 0) {
          ok = table->Delete(txn, *it);
        } else if (dice < 8) {
          ProjectedRow *delta = update_init.InitializeRow(update_buf.data());
          workload::Set<double>(delta, 0, static_cast<double>(rng.Uniform(1, 50)));
          ok = table->Update(txn, *it, *delta);
        }
      }
      if (ok) {
        txn_manager_.Commit(txn);
      } else {
        txn_manager_.Abort(txn);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  common::WorkerPool pool(4);
  ScanStats aggregate;
  int iterations = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (iterations < 25 ||
         ((aggregate.frozen_blocks == 0 || aggregate.hot_blocks == 0) &&
          std::chrono::steady_clock::now() < deadline)) {
    auto *txn = txn_manager_.BeginTransaction();
    ScanStats stats;
    const double parallel = q::RunQ6Parallel(table, txn, {}, &pool, &stats);
    const double scalar = q::RunQ6Scalar(table, txn, {}, nullptr);
    EXPECT_EQ(parallel, scalar)
        << "parallel Q6 diverged from the scalar reference in the same snapshot "
        << "(iteration " << iterations << ")";
    txn_manager_.Commit(txn);
    aggregate.Add(stats);
    iterations++;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  transform_thread.join();

  // Both access paths must actually have been exercised across the run.
  EXPECT_GT(aggregate.frozen_blocks, 0u) << "no morsel ever took the zero-copy path";
  EXPECT_GT(aggregate.hot_blocks, 0u) << "no morsel ever took the materialization path";
  gc_.FullGC();
}

INSTANTIATE_TEST_SUITE_P(Modes, ParallelExecutionTest,
                         ::testing::Values(GatherMode::kVarlenGather,
                                           GatherMode::kDictionaryCompression),
                         [](const auto &info) {
                           return info.param == GatherMode::kVarlenGather ? "Gather"
                                                                          : "Dictionary";
                         });

}  // namespace mainline
