#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/rand_util.h"
#include "common/selection_vector.h"
#include "workload/tpch/query_runner.h"
#include "execution/parallel_scanner.h"
#include "execution/scan_block.h"
#include "workload/tpch/tpch_queries.h"
#include "execution/vector_ops.h"
#include "gc/garbage_collector.h"
#include "storage/arrow_block_metadata.h"
#include "transform/access_observer.h"
#include "transform/arrow_reader.h"
#include "transform/block_transformer.h"
#include "transform/transform_pipeline.h"
#include "workload/row_util.h"
#include "workload/tpch/lineitem.h"

namespace mainline {

using execution::AccessPath;
using execution::ColumnVectorBatch;
using workload::ExecMode;
using workload::QueryRunner;
using execution::ParallelTableScanner;
using execution::ScanStats;
using storage::BlockState;
using storage::ProjectedRow;
using transform::GatherMode;
namespace q = workload::tpch;

/// End-to-end coverage of the in-situ execution layer: the dual-path block
/// scan and the Q1/Q6 plans must agree bit-exactly with the
/// scalar tuple-at-a-time reference on hot, mixed, and fully frozen tables,
/// and stay MVCC-consistent while writers and the transformation pipeline
/// churn underneath.
class ExecutionTest : public ::testing::TestWithParam<GatherMode> {
 protected:
  ExecutionTest()
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
  ~ExecutionTest() { gc_.SetAccessObserver(nullptr); }

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

  /// Both queries, both engines, same snapshot semantics: results must be
  /// bit-identical (floating-point == on every aggregate).
  void ExpectEnginesAgree(catalog::SqlTable *table, ScanStats *q6_stats_out = nullptr) {
    QueryRunner runner(&txn_manager_, /*num_threads=*/1);
    const auto q1_vec = runner.RunQ1(table);
    const auto q1_scalar = runner.RunQ1(table, {}, ExecMode::kScalar);
    ASSERT_EQ(q1_vec.rows.size(), q1_scalar.rows.size());
    for (size_t i = 0; i < q1_vec.rows.size(); i++) {
      EXPECT_TRUE(q1_vec.rows[i] == q1_scalar.rows[i])
          << "Q1 group " << q1_vec.rows[i].returnflag << "/" << q1_vec.rows[i].linestatus
          << " diverged from the scalar reference";
    }

    const auto q6_vec = runner.RunQ6(table);
    const auto q6_scalar = runner.RunQ6(table, {}, ExecMode::kScalar);
    EXPECT_EQ(q6_vec.revenue, q6_scalar.revenue);
    EXPECT_EQ(q6_vec.stats.rows, q6_scalar.stats.rows);
    if (q6_stats_out != nullptr) *q6_stats_out = q6_vec.stats;
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

TEST_P(ExecutionTest, ProjectionResolutionAndScannerView) {
  catalog::SqlTable *table = Generate(2000);
  const catalog::Schema &schema = table->GetSchema();

  // Name-based projection resolution: positions come back sorted ascending.
  const std::vector<uint16_t> cols = schema.ResolveColumns(
      {"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"});
  const std::vector<uint16_t> expected = {
      workload::tpch::L_QUANTITY, workload::tpch::L_EXTENDEDPRICE, workload::tpch::L_DISCOUNT,
      workload::tpch::L_SHIPDATE};
  EXPECT_TRUE(cols == expected);

  // A hot-table scan surfaces every row through the materialized path.
  auto *txn = txn_manager_.BeginTransaction();
  ParallelTableScanner scanner(table, txn, cols);
  EXPECT_EQ(scanner.BatchIndex(workload::tpch::L_SHIPDATE), 3);
  uint64_t rows = 0;
  scanner.Scan(/*pool=*/nullptr, [&](size_t, ColumnVectorBatch *batch) {
    EXPECT_EQ(batch->Path(), AccessPath::kHotMaterialized);
    EXPECT_EQ(batch->Batch()->num_columns(), 4);
    const arrowlite::Array &qty = batch->Column(0);
    for (int64_t i = 0; i < batch->NumRows(); i++) {
      const double v = qty.Value<double>(i);
      EXPECT_GE(v, 1.0);
      EXPECT_LE(v, 50.0);
    }
    rows += static_cast<uint64_t>(batch->NumRows());
  });
  txn_manager_.Commit(txn);
  EXPECT_EQ(rows, 2000u);
  EXPECT_EQ(scanner.Stats().rows, 2000u);
  EXPECT_EQ(scanner.Stats().frozen_blocks, 0u);
  EXPECT_GT(scanner.Stats().hot_blocks, 0u);
  gc_.FullGC();
}

TEST_P(ExecutionTest, QueriesMatchScalarAcrossFreezeStates) {
  catalog::SqlTable *table = Generate(RowsForBlocks(2));
  storage::DataTable &dt = table->UnderlyingTable();
  ASSERT_GT(dt.NumBlocks(), 2u);

  // 0% frozen: everything flows through transactional materialization.
  ScanStats stats;
  ExpectEnginesAgree(table, &stats);
  EXPECT_EQ(stats.frozen_blocks, 0u);
  EXPECT_GT(stats.hot_blocks, 0u);

  // ~50% frozen: freeze the first half of the blocks in place.
  {
    const std::vector<storage::RawBlock *> blocks = dt.Blocks();
    for (size_t i = 0; i < blocks.size() / 2; i++) {
      transformer_.ProcessGroup(&dt, {blocks[i]}, nullptr);
    }
  }
  ExpectEnginesAgree(table, &stats);
  EXPECT_GT(stats.frozen_blocks, 0u);
  EXPECT_GT(stats.hot_blocks, 0u);

  // 100% frozen: the whole table through the pipeline; the scan must not
  // materialize a single block.
  pipeline_.EnqueueTable(&dt);
  pipeline_.RunOnce();
  for (storage::RawBlock *block : dt.Blocks()) {
    ASSERT_EQ(block->controller.GetState(), BlockState::kFrozen);
  }
  ExpectEnginesAgree(table, &stats);
  EXPECT_GT(stats.frozen_blocks, 0u);
  EXPECT_EQ(stats.hot_blocks, 0u);
  gc_.FullGC();
}

/// Exercise the vector_ops primitives the queries do not use directly —
/// string-equality filtering (dictionary-code fast path and plain strings),
/// column SUM, COUNT, and MIN/MAX — against a scalar reference, on both
/// access paths.
TEST_P(ExecutionTest, VectorOpsPrimitivesMatchScalarReference) {
  namespace ops = execution::vector_ops;
  catalog::SqlTable *table = Generate(4000);
  storage::DataTable &dt = table->UnderlyingTable();

  const auto run = [&](const char *label) {
    // Scalar reference: rows with l_returnflag == "R".
    double expected_sum_qty = 0;
    uint64_t expected_count = 0;
    uint32_t expected_min_ship = ~0u, expected_max_ship = 0;
    {
      auto *txn = txn_manager_.BeginTransaction();
      const auto init = table->InitializerForColumns(
          {workload::tpch::L_QUANTITY, workload::tpch::L_RETURNFLAG,
           workload::tpch::L_SHIPDATE});
      std::vector<byte> buf(init.ProjectedRowSize() + 8);
      for (auto it = table->begin(); !it.Done(); ++it) {
        ProjectedRow *row = init.InitializeRow(buf.data());
        if (!table->Select(txn, *it, row)) continue;
        if (workload::GetVarchar(*row, 1) != "R") continue;
        expected_sum_qty += workload::Get<double>(*row, 0);
        expected_count++;
        const uint32_t ship = workload::Get<uint32_t>(*row, 2);
        if (ship < expected_min_ship) expected_min_ship = ship;
        if (ship > expected_max_ship) expected_max_ship = ship;
      }
      txn_manager_.Commit(txn);
    }
    ASSERT_GT(expected_count, 0u) << label;

    // Vectorized: FilterStringEq + AccumulateSum/Count/AccumulateMinMax.
    auto *txn = txn_manager_.BeginTransaction();
    ParallelTableScanner scanner(table, txn,
                                 {workload::tpch::L_QUANTITY, workload::tpch::L_RETURNFLAG,
                                  workload::tpch::L_SHIPDATE});
    double sum_qty = 0;
    uint64_t count = 0, none_count = 0;
    uint32_t min_ship = ~0u, max_ship = 0;
    common::SelectionVector sel;
    scanner.Scan(/*pool=*/nullptr, [&](size_t, ColumnVectorBatch *batch) {
      sel.InitFull(static_cast<uint32_t>(batch->NumRows()));
      ops::FilterStringEq(batch->Column(1), &sel, "R");
      ops::AccumulateSum<double>(batch->Column(0), sel, &sum_qty);
      count += ops::Count(sel);
      if (!sel.Empty()) {
        ops::AccumulateMinMax<uint32_t>(batch->Column(2), sel, &min_ship, &max_ship);
      }
      // A flag value that exists in no row: the filter must empty the
      // selection (on the dictionary path: probe miss).
      sel.InitFull(static_cast<uint32_t>(batch->NumRows()));
      ops::FilterStringEq(batch->Column(1), &sel, "Z");
      none_count += ops::Count(sel);
    });
    txn_manager_.Commit(txn);

    EXPECT_EQ(sum_qty, expected_sum_qty) << label;
    EXPECT_EQ(count, expected_count) << label;
    EXPECT_EQ(min_ship, expected_min_ship) << label;
    EXPECT_EQ(max_ship, expected_max_ship) << label;
    EXPECT_EQ(none_count, 0u) << label;
  };

  run("hot (materialized batches)");

  pipeline_.EnqueueTable(&dt);
  pipeline_.RunOnce();
  for (storage::RawBlock *block : dt.Blocks()) {
    ASSERT_EQ(block->controller.GetState(), BlockState::kFrozen);
  }
  run("frozen (zero-copy batches)");
  gc_.FullGC();
}

TEST_P(ExecutionTest, Q1AggregatesAreInternallyConsistent) {
  catalog::SqlTable *table = Generate(5000);
  QueryRunner runner(&txn_manager_, /*num_threads=*/1);

  // With the cutoff above the generator's date range, Q1 groups partition
  // every row.
  q::Q1Params all_rows;
  all_rows.shipdate_max = 1u << 30;
  const auto result = runner.RunQ1(table, all_rows);
  uint64_t grouped = 0;
  for (const q::Q1Row &row : result.rows) {
    grouped += row.count;
    EXPECT_TRUE(row.returnflag == "R" || row.returnflag == "A" || row.returnflag == "N");
    EXPECT_TRUE(row.linestatus == "O" || row.linestatus == "F");
    EXPECT_EQ(row.avg_qty, row.sum_qty / static_cast<double>(row.count));
    EXPECT_GE(row.sum_base_price, row.sum_disc_price);  // discounts only shrink
    EXPECT_LE(row.sum_disc_price, row.sum_charge);      // tax only grows
  }
  EXPECT_EQ(grouped, 5000u);
  // Groups arrive sorted by (returnflag, linestatus).
  for (size_t i = 1; i < result.rows.size(); i++) {
    const auto &a = result.rows[i - 1], &b = result.rows[i];
    EXPECT_TRUE(a.returnflag < b.returnflag ||
                (a.returnflag == b.returnflag && a.linestatus < b.linestatus));
  }
  gc_.FullGC();
}

/// The satellite concurrency scenario: Q6 runs continuously while (a) a
/// writer updates, deletes, and inserts lineitem rows — re-heating frozen
/// blocks through the access controller — and (b) the transformation
/// pipeline keeps compacting and re-freezing whatever cools down. Every
/// iteration runs the vectorized engine and the scalar reference inside the
/// SAME transaction, so any MVCC inconsistency on either access path shows
/// up as a bit-level divergence.
TEST_P(ExecutionTest, Q6StaysConsistentUnderConcurrentWritesAndTransform) {
  catalog::SqlTable *table = Generate(RowsForBlocks(1));
  storage::DataTable &dt = table->UnderlyingTable();

  // Start fully frozen so the scan begins on the zero-copy path.
  pipeline_.EnqueueTable(&dt);
  pipeline_.RunOnce();

  std::atomic<bool> stop{false};

  // The transform thread owns the GC for the duration (it is single-consumer
  // and ProcessGroup pumps it internally while waiting out version chains).
  std::thread transform_thread([&] {
    while (!stop.load(std::memory_order_acquire)) {
      pipeline_.EnqueueTable(&dt);
      pipeline_.RunOnce();
      gc_.PerformGarbageCollection();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread writer([&] {
    common::Xorshift rng(99);
    const auto update_init = table->InitializerForColumns({workload::tpch::L_QUANTITY});
    std::vector<byte> update_buf(update_init.ProjectedRowSize() + 8);
    const auto full_init = table->FullInitializer();
    std::vector<byte> full_buf(full_init.ProjectedRowSize() + 8);
    while (!stop.load(std::memory_order_acquire)) {
      auto *txn = txn_manager_.BeginTransaction();
      bool ok = true;
      uint32_t visited = 0;
      for (auto it = table->begin(); !it.Done() && visited < 200 && ok; ++it, ++visited) {
        const uint64_t dice = rng.Uniform(0, 39);
        if (dice == 0) {
          // Sparse deletes: never enough to empty a block.
          ok = table->Delete(txn, *it);
        } else if (dice < 8) {
          ProjectedRow *delta = update_init.InitializeRow(update_buf.data());
          workload::Set<double>(delta, 0, static_cast<double>(rng.Uniform(1, 50)));
          ok = table->Update(txn, *it, *delta);
        }
      }
      if (ok) {
        // A couple of fresh inserts so the table keeps growing too.
        for (int i = 0; i < 2; i++) {
          ProjectedRow *row = full_init.InitializeRow(full_buf.data());
          using namespace workload;
          Set<int64_t>(row, tpch::L_ORDERKEY, static_cast<int64_t>(rng.Uniform(1, 1000000)));
          Set<int64_t>(row, tpch::L_PARTKEY, 1);
          Set<int64_t>(row, tpch::L_SUPPKEY, 1);
          Set<int32_t>(row, tpch::L_LINENUMBER, 1);
          Set<double>(row, tpch::L_QUANTITY, static_cast<double>(rng.Uniform(1, 50)));
          Set<double>(row, tpch::L_EXTENDEDPRICE, 100.0);
          Set<double>(row, tpch::L_DISCOUNT, 0.06);
          Set<double>(row, tpch::L_TAX, 0.02);
          SetVarchar(row, tpch::L_RETURNFLAG, "N");
          SetVarchar(row, tpch::L_LINESTATUS, "O");
          Set<uint32_t>(row, tpch::L_SHIPDATE, 9100);
          Set<uint32_t>(row, tpch::L_COMMITDATE, 9130);
          Set<uint32_t>(row, tpch::L_RECEIPTDATE, 9115);
          SetVarchar(row, tpch::L_SHIPINSTRUCT, "NONE");
          SetVarchar(row, tpch::L_SHIPMODE, "AIR");
          SetVarchar(row, tpch::L_COMMENT, "concurrent insert");
          table->Insert(txn, *row);
        }
        txn_manager_.Commit(txn);
      } else {
        txn_manager_.Abort(txn);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  ScanStats aggregate;
  int iterations = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (iterations < 30 ||
         ((aggregate.frozen_blocks == 0 || aggregate.hot_blocks == 0) &&
          std::chrono::steady_clock::now() < deadline)) {
    auto *txn = txn_manager_.BeginTransaction();
    ScanStats stats;
    const double vectorized = q::RunQ6Parallel(table, txn, {}, /*pool=*/nullptr, &stats);
    const double scalar = q::RunQ6Scalar(table, txn, {}, nullptr);
    EXPECT_EQ(vectorized, scalar)
        << "vectorized Q6 diverged from the scalar reference in the same snapshot "
        << "(iteration " << iterations << ")";
    txn_manager_.Commit(txn);
    aggregate.Add(stats);
    iterations++;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  transform_thread.join();

  // Both access paths must actually have been exercised.
  EXPECT_GT(aggregate.frozen_blocks, 0u) << "no scan ever took the zero-copy path";
  EXPECT_GT(aggregate.hot_blocks, 0u) << "no scan ever took the materialization path";
  gc_.FullGC();
}

/// Regression test for the frozen-batch field-typing bug: FromFrozenBlock
/// used to tag EVERY varchar field kDictionary as soon as ANY column in the
/// batch was dictionary-compressed, mislabeling plain-gathered columns. The
/// transformer's gather mode is per block, so the mixed state is built by
/// hand: freeze in varlen-gather mode, then convert one column's metadata to
/// dictionary compression — one gathered + one dictionary varchar in the
/// same block.
TEST(FrozenBatchFieldTypingTest, MixedGatherAndDictionaryColumnsTypeIndependently) {
  namespace tpch = workload::tpch;
  storage::BlockStore block_store(200, 10);
  storage::RecordBufferSegmentPool buffer_pool(1000000, 100);
  catalog::Catalog catalog(&block_store);
  transaction::TransactionManager txn_manager(&buffer_pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);
  transform::BlockTransformer transformer(&txn_manager, &gc, GatherMode::kVarlenGather);

  catalog::SqlTable *table =
      workload::tpch::GenerateLineItem(&catalog, &txn_manager, 500, /*seed=*/7,
                                       /*batch_size=*/0);
  gc.FullGC();
  storage::DataTable &dt = table->UnderlyingTable();
  storage::RawBlock *block = dt.Blocks().front();
  ASSERT_EQ(transformer.ProcessGroup(&dt, {block}, nullptr), 1u);
  gc.FullGC();
  ASSERT_EQ(block->controller.GetState(), BlockState::kFrozen);
  storage::ArrowBlockMetadata *metadata = block->arrow_metadata;
  ASSERT_NE(metadata, nullptr);
  const uint32_t n = metadata->NumRecords();
  ASSERT_GT(n, 0u);

  // Convert l_returnflag (3 distinct values) to dictionary compression from
  // its gathered buffers, leaving l_linestatus plain-gathered.
  storage::ArrowColumnInfo &info = metadata->Column(tpch::L_RETURNFLAG);
  ASSERT_EQ(info.type, storage::ArrowColumnType::kGatheredVarlen);
  const auto word_at = [&](uint32_t row) {
    return std::string_view(
        reinterpret_cast<const char *>(info.varlen.values.get()) + info.varlen.offsets[row],
        static_cast<size_t>(info.varlen.offsets[row + 1] - info.varlen.offsets[row]));
  };
  std::map<std::string_view, int32_t> dict;
  for (uint32_t row = 0; row < n; row++) dict.emplace(word_at(row), 0);
  uint64_t dict_bytes = 0;
  int32_t next_code = 0;
  for (auto &[word, code] : dict) {
    code = next_code++;
    dict_bytes += word.size();
  }
  info.dictionary.values = std::make_unique<byte[]>(dict_bytes);
  info.dictionary.offsets = std::make_unique<int32_t[]>(dict.size() + 1);
  info.dictionary.values_size = dict_bytes;
  info.dictionary_size = static_cast<uint32_t>(dict.size());
  uint64_t offset = 0;
  int32_t d = 0;
  for (const auto &[word, code] : dict) {
    info.dictionary.offsets[d++] = static_cast<int32_t>(offset);
    std::memcpy(info.dictionary.values.get() + offset, word.data(), word.size());
    offset += word.size();
  }
  info.dictionary.offsets[d] = static_cast<int32_t>(offset);
  info.indices = std::make_unique<int32_t[]>(n);
  for (uint32_t row = 0; row < n; row++) info.indices[row] = dict.find(word_at(row))->second;
  info.type = storage::ArrowColumnType::kDictionaryCompressed;

  ASSERT_TRUE(block->controller.TryAcquireRead());
  const auto batch = transform::ArrowReader::FromFrozenBlock(table->GetSchema(), dt, block);
  ASSERT_NE(batch, nullptr);

  // Each field must carry ITS column's physical type: the dictionary column
  // kDictionary, the gathered one kString (the bug stamped it kDictionary
  // because a sibling column was compressed), fixed columns untouched.
  const arrowlite::Schema &schema = *batch->schema();
  EXPECT_EQ(schema.field(tpch::L_RETURNFLAG).type(), arrowlite::Type::kDictionary);
  EXPECT_EQ(schema.field(tpch::L_LINESTATUS).type(), arrowlite::Type::kString);
  EXPECT_EQ(schema.field(tpch::L_COMMENT).type(), arrowlite::Type::kString);
  EXPECT_EQ(schema.field(tpch::L_QUANTITY).type(), arrowlite::Type::kFloat64);
  EXPECT_EQ(schema.field(tpch::L_SHIPDATE).type(), arrowlite::Type::kUInt32);

  // The arrays themselves agree with the field tags, and the dictionary
  // round-trips the original values.
  const arrowlite::Array &flag = *batch->column(tpch::L_RETURNFLAG);
  const arrowlite::Array &status = *batch->column(tpch::L_LINESTATUS);
  ASSERT_EQ(flag.type(), arrowlite::Type::kDictionary);
  ASSERT_EQ(status.type(), arrowlite::Type::kString);
  EXPECT_EQ(flag.dictionary()->length(), static_cast<int64_t>(dict.size()));
  for (uint32_t row = 0; row < n; row++) {
    EXPECT_EQ(flag.GetString(row), word_at(row));
  }
  block->controller.ReleaseRead();
  gc.FullGC();
}

INSTANTIATE_TEST_SUITE_P(Modes, ExecutionTest,
                         ::testing::Values(GatherMode::kVarlenGather,
                                           GatherMode::kDictionaryCompression),
                         [](const auto &info) {
                           return info.param == GatherMode::kVarlenGather ? "Gather"
                                                                          : "Dictionary";
                         });

}  // namespace mainline
