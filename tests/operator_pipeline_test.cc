#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "catalog/catalog.h"
#include "common/rand_util.h"
#include "common/worker_pool.h"
#include "execution/operators/pipeline.h"
#include "workload/tpch/query_runner.h"
#include "workload/tpch/tpch_queries.h"
#include "gc/garbage_collector.h"
#include "transform/access_observer.h"
#include "transform/block_transformer.h"
#include "transform/transform_pipeline.h"
#include "workload/row_util.h"
#include "workload/tpch/customer.h"
#include "workload/tpch/lineitem.h"
#include "workload/tpch/orders.h"
#include "workload/tpch/part.h"

namespace mainline {

using workload::ExecMode;
using workload::QueryRunner;
using execution::ScanStats;
using storage::BlockState;
using storage::ProjectedRow;
using transform::GatherMode;
namespace op = execution::op;
namespace q = workload::tpch;
namespace tpch = workload::tpch;

/// Coverage of the push-based operator pipeline API: each operator composed
/// in isolation over hand-built hot, gathered, and dictionary-frozen blocks;
/// the full plan-vs-scalar bit-exact matrix for Q1/Q6/Q12/Q14 across worker
/// counts and freeze states; and Q14 under concurrent writers with the
/// transformation pipeline re-freezing blocks (run under ASan/UBSan in CI).
class OperatorPipelineTest : public ::testing::TestWithParam<GatherMode> {
 protected:
  OperatorPipelineTest()
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

  ~OperatorPipelineTest() override { gc_.SetAccessObserver(nullptr); }

  /// Rows spanning a little over `blocks` lineitem blocks.
  static uint64_t RowsForBlocks(uint64_t blocks) {
    const uint32_t slots = tpch::LineItemSchema().ToBlockLayout().NumSlots();
    return blocks * slots + slots / 2;
  }

  /// A deterministic single-block micro table the operator unit tests can
  /// predict exactly: two doubles, two dates, two short string columns.
  ///   id = i, val = (i % 100) / 7.0, val2 = (i % 11) / 100.0,
  ///   date = 9000 + i % 50, date2 = date + i % 3,
  ///   tag = A/B/C by i % 3, tag2 = X/Y by i % 2
  catalog::SqlTable *MakeMicroTable(const char *name, uint64_t rows) {
    const catalog::Schema schema({{"id", catalog::TypeId::kBigInt},
                                  {"val", catalog::TypeId::kDecimal},
                                  {"val2", catalog::TypeId::kDecimal},
                                  {"date", catalog::TypeId::kDate},
                                  {"date2", catalog::TypeId::kDate},
                                  {"tag", catalog::TypeId::kVarchar},
                                  {"tag2", catalog::TypeId::kVarchar}});
    catalog::SqlTable *table = catalog_.GetTable(catalog_.CreateTable(name, schema));
    const auto init = table->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    static const char *kTags[] = {"A", "B", "C"};
    auto *txn = txn_manager_.BeginTransaction();
    for (uint64_t i = 0; i < rows; i++) {
      ProjectedRow *row = init.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, static_cast<int64_t>(i));
      workload::Set<double>(row, 1, MicroVal(i));
      workload::Set<double>(row, 2, MicroVal2(i));
      workload::Set<uint32_t>(row, 3, MicroDate(i));
      workload::Set<uint32_t>(row, 4, MicroDate(i) + i % 3);
      workload::SetVarchar(row, 5, kTags[i % 3]);
      workload::SetVarchar(row, 6, i % 2 == 0 ? "X" : "Y");
      table->Insert(txn, *row);
    }
    txn_manager_.Commit(txn);
    gc_.FullGC();
    return table;
  }

  static double MicroVal(uint64_t i) { return static_cast<double>(i % 100) / 7.0; }
  static double MicroVal2(uint64_t i) { return static_cast<double>(i % 11) / 100.0; }
  static uint32_t MicroDate(uint64_t i) { return 9000 + static_cast<uint32_t>(i % 50); }

  /// Freeze every block of `table` through the transformation pipeline
  /// (gather mode per test parameter) and assert it took.
  void Freeze(catalog::SqlTable *table) {
    gc_.FullGC();
    pipeline_.EnqueueTable(&table->UnderlyingTable());
    pipeline_.RunOnce();
    for (storage::RawBlock *block : table->UnderlyingTable().Blocks()) {
      ASSERT_EQ(block->controller.GetState(), BlockState::kFrozen);
    }
  }

  /// LINEITEM + ORDERS + PART for the query matrix. PART covers ~30% of the
  /// lineitem partkey space so Q14 joins partially (dangling FKs included);
  /// ORDERS keys above rows/3 dangle the same way for Q12.
  void GenerateTpch(uint64_t rows) {
    lineitem_ = tpch::GenerateLineItem(&catalog_, &txn_manager_, rows, /*seed=*/7,
                                       /*batch_size=*/4096);
    orders_ = tpch::GenerateOrders(&catalog_, &txn_manager_, rows / 3, /*seed=*/11,
                                   /*batch_size=*/4096);
    part_ = tpch::GeneratePart(&catalog_, &txn_manager_, 60000, /*seed=*/13,
                               /*batch_size=*/4096);
    gc_.FullGC();
  }

  /// All four queries at `num_threads`, against the scalar references and
  /// the inline plans, all inside ONE transaction so every engine answers
  /// from the same snapshot.
  void ExpectPlansAgree(uint32_t num_threads, ScanStats *stats_out = nullptr) {
    common::WorkerPool pool(num_threads);
    auto *txn = txn_manager_.BeginTransaction();
    ScanStats stats;

    const auto q1_par = q::RunQ1Parallel(lineitem_, txn, {}, &pool, &stats);
    const auto q1_scalar = q::RunQ1Scalar(lineitem_, txn, {}, nullptr);
    const auto q1_inline = q::RunQ1Parallel(lineitem_, txn, {}, /*pool=*/nullptr);
    ASSERT_EQ(q1_par.size(), q1_scalar.size()) << num_threads << " threads";
    for (size_t i = 0; i < q1_par.size(); i++) {
      EXPECT_TRUE(q1_par[i] == q1_scalar[i])
          << "parallel Q1 plan diverged from the scalar reference at " << num_threads
          << " threads (group " << q1_par[i].returnflag << "/" << q1_par[i].linestatus << ")";
      EXPECT_TRUE(q1_inline[i] == q1_scalar[i]) << "inline Q1 plan diverged";
    }

    const double q6_par = q::RunQ6Parallel(lineitem_, txn, {}, &pool, &stats);
    EXPECT_EQ(q6_par, q::RunQ6Scalar(lineitem_, txn, {}, nullptr))
        << "parallel Q6 plan diverged at " << num_threads << " threads";
    EXPECT_EQ(q6_par, q::RunQ6Parallel(lineitem_, txn, {}, /*pool=*/nullptr));

    const auto q12_par = q::RunQ12Parallel(orders_, lineitem_, txn, {}, &pool, &stats);
    const auto q12_scalar = q::RunQ12Scalar(orders_, lineitem_, txn, {}, nullptr);
    EXPECT_TRUE(q12_par == q12_scalar)
        << "parallel Q12 plan diverged at " << num_threads << " threads";
    EXPECT_TRUE(q::RunQ12Parallel(orders_, lineitem_, txn, {}, /*pool=*/nullptr) == q12_scalar);

    const double q14_par = q::RunQ14Parallel(lineitem_, part_, txn, {}, &pool, &stats);
    EXPECT_EQ(q14_par, q::RunQ14Scalar(lineitem_, part_, txn, {}, nullptr))
        << "parallel Q14 plan diverged at " << num_threads << " threads";
    EXPECT_EQ(q14_par, q::RunQ14Parallel(lineitem_, part_, txn, {}, /*pool=*/nullptr));

    txn_manager_.Commit(txn);
    if (stats_out != nullptr) *stats_out = stats;
  }

  storage::BlockStore block_store_;
  storage::RecordBufferSegmentPool buffer_pool_;
  catalog::Catalog catalog_;
  transaction::TransactionManager txn_manager_;
  gc::GarbageCollector gc_;
  transform::AccessObserver observer_;
  transform::BlockTransformer transformer_;
  transform::TransformPipeline pipeline_;
  catalog::SqlTable *lineitem_ = nullptr;
  catalog::SqlTable *orders_ = nullptr;
  catalog::SqlTable *part_ = nullptr;
};

namespace {

/// Test sink: records, per block ordinal, the int64 ids of the rows (or join
/// matches) that reached it, the match payloads, and optionally one computed
/// column's value — proof the Operator API composes with out-of-tree
/// operators.
class CollectOp final : public op::Operator {
 public:
  struct Row {
    int64_t id;
    uint64_t payload;
    double computed;
  };

  explicit CollectOp(uint16_t id_col, int computed_col = -1)
      : id_col_(id_col), computed_col_(computed_col) {}

  void Prepare(size_t num_blocks) override { per_block_.assign(num_blocks, {}); }

  void Push(op::Chunk *chunk) override {
    std::vector<Row> *rows = &per_block_[chunk->block_ordinal];
    const int64_t *ids = chunk->batch->Column(id_col_).buffer(0)->data_as<int64_t>();
    const auto add = [&](uint32_t row, uint64_t payload) {
      Row r{ids[row], payload, 0.0};
      if (computed_col_ >= 0) {
        r.computed = chunk->computed[static_cast<size_t>(computed_col_)].values[row];
      }
      rows->push_back(r);
    };
    if (chunk->probed) {
      for (const op::JoinMatch &match : chunk->matches) add(match.row, match.payload);
    } else {
      chunk->sel.ForEach([&](uint32_t row) { add(row, 0); });
    }
  }

  /// All collected rows, in block order.
  std::vector<Row> All() const {
    std::vector<Row> all;
    for (const std::vector<Row> &rows : per_block_) {
      all.insert(all.end(), rows.begin(), rows.end());
    }
    return all;
  }

 private:
  uint16_t id_col_;
  int computed_col_;
  std::vector<std::vector<Row>> per_block_;
};

}  // namespace

/// Every predicate kind, alone and chained, against a manually computed
/// expectation — on the hot materialized path, then on the frozen (gathered
/// or dictionary) path.
TEST_P(OperatorPipelineTest, FilterPredicatesSelectExpectedRows) {
  constexpr uint64_t kRows = 3000;
  catalog::SqlTable *table = MakeMicroTable("filters", kRows);

  struct Case {
    const char *name;
    op::Predicate predicate;
    std::function<bool(uint64_t)> expected;
  };
  const std::vector<Case> cases = {
      {"u32_range", op::Predicate::U32InRange(3, 9010, 9020),
       [](uint64_t i) { return MicroDate(i) >= 9010 && MicroDate(i) < 9020; }},
      {"u32_at_most", op::Predicate::U32AtMost(3, 9005),
       [](uint64_t i) { return MicroDate(i) <= 9005; }},
      {"f64_range", op::Predicate::F64InRange(1, 2.0, 5.0),
       [](uint64_t i) { return MicroVal(i) >= 2.0 && MicroVal(i) <= 5.0; }},
      {"f64_below", op::Predicate::F64Below(1, 3.0),
       [](uint64_t i) { return MicroVal(i) < 3.0; }},
      {"u32_lt_column", op::Predicate::U32LessThanColumn(3, 4),
       [](uint64_t i) { return i % 3 != 0; }},  // date2 - date == i % 3
      {"string_in", op::Predicate::StringIn(5, {"A", "C"}),
       [](uint64_t i) { return i % 3 != 1; }},
  };

  const auto check = [&](bool frozen) {
    for (const Case &c : cases) {
      auto *txn = txn_manager_.BeginTransaction();
      ScanStats stats;
      op::PhysicalPlan plan;
      op::Pipeline *pipe = plan.AddPipeline(table, {0, 1, 2, 3, 4, 5, 6});
      pipe->Add<op::FilterOp>(std::vector<op::Predicate>{c.predicate});
      CollectOp *collect = pipe->Add<CollectOp>(/*id_col=*/0);
      plan.Run(txn, nullptr, &stats);
      txn_manager_.Commit(txn);

      std::vector<int64_t> expected;
      for (uint64_t i = 0; i < kRows; i++) {
        if (c.expected(i)) expected.push_back(static_cast<int64_t>(i));
      }
      std::vector<int64_t> got;
      for (const CollectOp::Row &row : collect->All()) got.push_back(row.id);
      EXPECT_EQ(got, expected) << c.name << (frozen ? " (frozen)" : " (hot)");
      if (frozen) {
        EXPECT_GT(stats.frozen_blocks, 0u) << c.name;
        EXPECT_EQ(stats.hot_blocks, 0u) << c.name;
      } else {
        EXPECT_EQ(stats.frozen_blocks, 0u) << c.name;
      }
    }

    // A chain refines left to right; an unsatisfiable tail yields nothing.
    auto *txn = txn_manager_.BeginTransaction();
    op::PhysicalPlan plan;
    op::Pipeline *pipe = plan.AddPipeline(table, {0, 1, 2, 3, 4, 5, 6});
    pipe->Add<op::FilterOp>(std::vector<op::Predicate>{
        op::Predicate::U32InRange(3, 9010, 9020), op::Predicate::StringIn(5, {"B"})});
    CollectOp *collect = pipe->Add<CollectOp>(0);
    op::Pipeline *empty_pipe = plan.AddPipeline(table, {0, 1, 2, 3, 4, 5, 6});
    empty_pipe->Add<op::FilterOp>(
        std::vector<op::Predicate>{op::Predicate::StringIn(5, {"NO-SUCH-TAG"})});
    CollectOp *empty_collect = empty_pipe->Add<CollectOp>(0);
    plan.Run(txn, nullptr, nullptr);
    txn_manager_.Commit(txn);
    std::vector<int64_t> expected;
    for (uint64_t i = 0; i < kRows; i++) {
      if (MicroDate(i) >= 9010 && MicroDate(i) < 9020 && i % 3 == 1) {
        expected.push_back(static_cast<int64_t>(i));
      }
    }
    std::vector<int64_t> got;
    for (const CollectOp::Row &row : collect->All()) got.push_back(row.id);
    EXPECT_EQ(got, expected);
    EXPECT_TRUE(empty_collect->All().empty());
  };

  check(/*frozen=*/false);
  Freeze(table);
  check(/*frozen=*/true);
  gc_.FullGC();
}

/// ProjectOp appends computed columns that downstream operators read through
/// ColumnRef::Computed — values verified bit-exactly against the expression
/// forms, on both access paths.
TEST_P(OperatorPipelineTest, ProjectComputesDerivedColumns) {
  constexpr uint64_t kRows = 2000;
  catalog::SqlTable *table = MakeMicroTable("project", kRows);

  const auto check = [&](const char *label) {
    auto *txn = txn_manager_.BeginTransaction();
    op::PhysicalPlan plan;
    op::Pipeline *pipe = plan.AddPipeline(table, {0, 1, 2, 3, 4, 5, 6});
    pipe->Add<op::FilterOp>(
        std::vector<op::Predicate>{op::Predicate::F64Below(1, 10.0)});
    pipe->Add<op::ProjectOp>(std::vector<op::Expr>{
        op::Expr::Discounted(op::ColumnRef::Batch(1), op::ColumnRef::Batch(2)),
        // The second expression reads the first's output: (val*(1-val2)) * val2.
        op::Expr::Mul(op::ColumnRef::Computed(0), op::ColumnRef::Batch(2))});
    CollectOp *collect = pipe->Add<CollectOp>(0, /*computed_col=*/1);
    plan.Run(txn, nullptr, nullptr);
    txn_manager_.Commit(txn);

    uint64_t checked = 0;
    for (const CollectOp::Row &row : collect->All()) {
      const auto i = static_cast<uint64_t>(row.id);
      ASSERT_LT(MicroVal(i), 10.0);
      EXPECT_EQ(row.computed, (MicroVal(i) * (1.0 - MicroVal2(i))) * MicroVal2(i))
          << label << " row " << i;
      checked++;
    }
    EXPECT_GT(checked, 0u);
  };

  check("hot");
  Freeze(table);
  check("frozen");
  gc_.FullGC();
}

/// HashJoinBuildOp + HashJoinProbeOp composed in isolation: duplicate keys
/// surface every payload in deterministic order, dangling keys match
/// nothing, string payload specs classify via dictionary codes when frozen,
/// and an empty build side pushes nothing downstream.
TEST_P(OperatorPipelineTest, JoinBuildAndProbeCompose) {
  // Build side: keys 0..99, key k repeated 1 + k % 3 times, payload 10k + c.
  const catalog::Schema build_schema(
      {{"key", catalog::TypeId::kBigInt}, {"pay", catalog::TypeId::kBigInt}});
  catalog::SqlTable *build_table =
      catalog_.GetTable(catalog_.CreateTable("join_build", build_schema));
  {
    const auto init = build_table->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    for (int64_t k = 0; k < 100; k++) {
      for (int64_t c = 0; c < 1 + k % 3; c++) {
        ProjectedRow *row = init.InitializeRow(buffer.data());
        workload::Set<int64_t>(row, 0, k);
        workload::Set<int64_t>(row, 1, k * 10 + c);
        build_table->Insert(txn, *row);
      }
    }
    txn_manager_.Commit(txn);
  }
  // Probe side: ids 0..499 probing key id % 150 (a third dangle).
  const catalog::Schema probe_schema(
      {{"id", catalog::TypeId::kBigInt}, {"fk", catalog::TypeId::kBigInt}});
  catalog::SqlTable *probe_table =
      catalog_.GetTable(catalog_.CreateTable("join_probe", probe_schema));
  {
    const auto init = probe_table->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    for (int64_t i = 0; i < 500; i++) {
      ProjectedRow *row = init.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, i);
      workload::Set<int64_t>(row, 1, i % 150);
      probe_table->Insert(txn, *row);
    }
    txn_manager_.Commit(txn);
  }
  gc_.FullGC();

  for (const bool parallel : {false, true}) {
    common::WorkerPool pool(parallel ? 4 : 0);
    auto *txn = txn_manager_.BeginTransaction();
    op::PhysicalPlan plan;
    op::PipelineBuilder builder(&plan);
    builder.Scan(build_table, {0, 1});
    op::HashJoinBuildOp *build = builder.JoinBuild(0, op::PayloadSpec::Int64Column(1));
    op::Pipeline *probe_pipe = plan.AddPipeline(probe_table, {0, 1});
    probe_pipe->Add<op::HashJoinProbeOp>(/*key_col=*/1, build);
    CollectOp *collect = probe_pipe->Add<CollectOp>(0);
    plan.Run(txn, parallel ? &pool : nullptr, nullptr);
    txn_manager_.Commit(txn);

    EXPECT_EQ(build->Table().NumEntries(), 199u);  // sum of 1 + k % 3 over 0..99
    std::vector<CollectOp::Row> rows = collect->All();
    std::vector<std::pair<int64_t, uint64_t>> got;
    for (const CollectOp::Row &row : rows) got.emplace_back(row.id, row.payload);
    std::vector<std::pair<int64_t, uint64_t>> expected;
    for (int64_t i = 0; i < 500; i++) {
      const int64_t key = i % 150;
      if (key >= 100) continue;  // dangling
      for (int64_t c = 0; c < 1 + key % 3; c++) {
        expected.emplace_back(i, static_cast<uint64_t>(key * 10 + c));
      }
    }
    EXPECT_EQ(got, expected) << (parallel ? "parallel" : "inline")
                             << " build changed the match set or order";
  }

  // String payloads: tag in {A} / prefix "A" classify each row, dictionary
  // codes once frozen (per the gather-mode parameter).
  catalog::SqlTable *tagged = MakeMicroTable("join_tagged", 300);
  const auto string_payload_check = [&](const op::PayloadSpec &spec, auto expected_bit) {
    auto *txn = txn_manager_.BeginTransaction();
    op::PhysicalPlan plan;
    op::PipelineBuilder builder(&plan);
    builder.Scan(tagged, {0, 5});
    op::HashJoinBuildOp *build = builder.JoinBuild(/*key_col=*/0, spec);
    op::Pipeline *probe_pipe = plan.AddPipeline(tagged, {0, 5});
    probe_pipe->Add<op::HashJoinProbeOp>(0, build);
    CollectOp *collect = probe_pipe->Add<CollectOp>(0);
    plan.Run(txn, nullptr, nullptr);
    txn_manager_.Commit(txn);
    const std::vector<CollectOp::Row> rows = collect->All();
    ASSERT_EQ(rows.size(), 300u);
    for (const CollectOp::Row &row : rows) {
      EXPECT_EQ(row.payload, expected_bit(static_cast<uint64_t>(row.id)))
          << "id " << row.id;
    }
  };
  string_payload_check(op::PayloadSpec::StringIn(1, {"A", "C"}),
                       [](uint64_t i) { return i % 3 != 1 ? 1u : 0u; });
  Freeze(tagged);
  string_payload_check(op::PayloadSpec::StringPrefix(1, "B"),
                       [](uint64_t i) { return i % 3 == 1 ? 1u : 0u; });

  // Empty build side: probing pushes nothing downstream.
  catalog::SqlTable *no_rows =
      catalog_.GetTable(catalog_.CreateTable("join_empty", build_schema));
  auto *txn = txn_manager_.BeginTransaction();
  op::PhysicalPlan plan;
  op::PipelineBuilder builder(&plan);
  builder.Scan(no_rows, {0, 1});
  op::HashJoinBuildOp *build = builder.JoinBuild(0, op::PayloadSpec::Int64Column(1));
  op::Pipeline *probe_pipe = plan.AddPipeline(probe_table, {0, 1});
  probe_pipe->Add<op::HashJoinProbeOp>(1, build);
  CollectOp *collect = probe_pipe->Add<CollectOp>(0);
  plan.Run(txn, nullptr, nullptr);
  txn_manager_.Commit(txn);
  EXPECT_TRUE(build->Table().Empty());
  EXPECT_TRUE(collect->All().empty());
  gc_.FullGC();
}

/// ProbeEmit::kSemi keeps each input whose key has a build entry exactly
/// once: on an unprobed chunk it refines the selection (null keys dropped,
/// duplicate build keys never multiplying a row) and a downstream build
/// consumes that selection; on a probed chunk it filters the match list;
/// an empty build drops every chunk. Inline and on four workers, hot and
/// frozen.
TEST_P(OperatorPipelineTest, SemiJoinProbeFiltersWithoutMultiplying) {
  const catalog::Schema schema(
      {{"key", catalog::TypeId::kBigInt}, {"pay", catalog::TypeId::kBigInt}});
  // Build side: keys 0..99, key k repeated 1 + k % 3 times, payload 10k + c.
  catalog::SqlTable *build_table = catalog_.GetTable(catalog_.CreateTable("semi_build", schema));
  // Only the even ids, once each: the second semi-probe's key set.
  catalog::SqlTable *evens = catalog_.GetTable(catalog_.CreateTable("semi_evens", schema));
  catalog::SqlTable *no_rows = catalog_.GetTable(catalog_.CreateTable("semi_empty", schema));
  // Probe side: ids 0.. with fk = id % 150 (a third dangle), fk null on
  // every seventh row — one and a half blocks' worth of rows.
  const uint32_t slots = schema.ToBlockLayout().NumSlots();
  const auto kProbeRows = static_cast<int64_t>(slots + slots / 2);
  catalog::SqlTable *probe_table = catalog_.GetTable(catalog_.CreateTable("semi_probe", schema));
  const auto fk_of = [](int64_t id) { return id % 7 == 3 ? -1 : id % 150; };  // -1: null
  {
    const auto init = build_table->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    const auto insert = [&](catalog::SqlTable *table, int64_t key, int64_t pay) {
      ProjectedRow *row = init.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, key);
      workload::Set<int64_t>(row, 1, pay);
      if (pay < 0) row->SetNull(1);
      table->Insert(txn, *row);
    };
    for (int64_t k = 0; k < 100; k++) {
      for (int64_t c = 0; c < 1 + k % 3; c++) insert(build_table, k, k * 10 + c);
    }
    for (int64_t id = 0; id < kProbeRows; id += 2) insert(evens, id, id);
    for (int64_t id = 0; id < kProbeRows; id++) insert(probe_table, id, fk_of(id));
    txn_manager_.Commit(txn);
  }
  gc_.FullGC();
  ASSERT_GT(probe_table->UnderlyingTable().NumBlocks(), 1u);

  std::vector<int64_t> survivors;  // ids whose fk is non-null and has a build entry
  std::vector<std::pair<int64_t, uint64_t>> even_matches;  // each match of an even id
  for (int64_t id = 0; id < kProbeRows; id++) {
    const int64_t fk = fk_of(id);
    if (fk < 0 || fk >= 100) continue;
    survivors.push_back(id);
    if (id % 2 != 0) continue;
    for (int64_t c = 0; c < 1 + fk % 3; c++) {
      even_matches.emplace_back(id, static_cast<uint64_t>(fk * 10 + c));
    }
  }

  const auto check = [&](const char *label) {
    for (const uint32_t workers : {0u, 4u}) {
      common::WorkerPool pool(workers);
      common::WorkerPool *run_pool = workers == 0 ? nullptr : &pool;
      auto *txn = txn_manager_.BeginTransaction();
      op::PhysicalPlan plan;
      op::PipelineBuilder builder(&plan);
      builder.Scan(build_table, {0, 1});
      op::HashJoinBuildOp *build = builder.JoinBuild(0, op::PayloadSpec::Int64Column(1));
      builder.Scan(evens, {0, 1});
      op::HashJoinBuildOp *even_build = builder.JoinBuild(0, op::PayloadSpec::Int64Column(1));
      builder.Scan(no_rows, {0, 1});
      op::HashJoinBuildOp *empty_build = builder.JoinBuild(0, op::PayloadSpec::Int64Column(1));
      // Unprobed: semi-probe on fk, then collect the refined selection.
      op::Pipeline *semi = plan.AddPipeline(probe_table, {0, 1});
      semi->Add<op::HashJoinProbeOp>(1, build, op::ProbeEmit::kSemi);
      CollectOp *semi_rows = semi->Add<CollectOp>(0);
      // Unprobed, feeding a build keyed on id with fk as payload.
      builder.Scan(probe_table, {0, 1}).JoinProbe(1, build, op::ProbeEmit::kSemi);
      op::HashJoinBuildOp *reduced = builder.JoinBuild(0, op::PayloadSpec::Int64Column(1));
      // Probed: every fk match, then keep only the matches of even ids.
      op::Pipeline *chained = plan.AddPipeline(probe_table, {0, 1});
      chained->Add<op::HashJoinProbeOp>(1, build);
      chained->Add<op::HashJoinProbeOp>(0, even_build, op::ProbeEmit::kSemi);
      CollectOp *chained_rows = chained->Add<CollectOp>(0);
      // Empty build: nothing reaches the sink.
      op::Pipeline *empty = plan.AddPipeline(probe_table, {0, 1});
      empty->Add<op::HashJoinProbeOp>(1, empty_build, op::ProbeEmit::kSemi);
      CollectOp *empty_rows = empty->Add<CollectOp>(0);
      plan.Run(txn, run_pool, nullptr);
      txn_manager_.Commit(txn);

      std::vector<int64_t> got;
      for (const CollectOp::Row &row : semi_rows->All()) {
        EXPECT_EQ(row.payload, 0u) << "a semi-probe must leave the chunk unprobed";
        got.push_back(row.id);
      }
      EXPECT_EQ(got, survivors) << label << " " << workers << " workers";

      EXPECT_EQ(reduced->Table().NumEntries(), survivors.size())
          << label << ": the downstream build did not consume the refined selection";
      for (const int64_t id : survivors) {
        std::vector<uint64_t> payloads;
        reduced->Table().ForEachMatch(id, [&](uint64_t p) { payloads.push_back(p); });
        EXPECT_EQ(payloads, std::vector<uint64_t>{static_cast<uint64_t>(fk_of(id))})
            << label << " id " << id;
      }

      std::vector<std::pair<int64_t, uint64_t>> chained_got;
      for (const CollectOp::Row &row : chained_rows->All()) {
        chained_got.emplace_back(row.id, row.payload);
      }
      EXPECT_EQ(chained_got, even_matches)
          << label << " " << workers << " workers: the probed chunk's match list";

      EXPECT_TRUE(empty_rows->All().empty()) << label;
    }
  };
  check("hot");
  Freeze(probe_table);
  check("frozen");
  gc_.FullGC();
}

/// AggregateOp grouped (one and two string columns) and ungrouped, all five
/// aggregate kinds, verified exactly against a manual pass — the micro table
/// fits one block, so the per-block partial IS the final accumulation and a
/// straight loop in row order reproduces it bit-exactly.
TEST_P(OperatorPipelineTest, AggregateGroupedAndUngrouped) {
  constexpr uint64_t kRows = 2500;
  catalog::SqlTable *table = MakeMicroTable("aggregate", kRows);
  ASSERT_EQ(table->UnderlyingTable().NumBlocks(), 1u) << "micro table must stay one block";

  struct Manual {
    double sum = 0;
    uint64_t count = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  const auto manual_of = [&](auto group_of) {
    std::map<std::string, Manual> groups;
    for (uint64_t i = 0; i < kRows; i++) {
      if (!(MicroDate(i) <= 9030)) continue;
      Manual *m = &groups[group_of(i)];
      m->sum += MicroVal(i) * MicroVal2(i);
      m->count++;
      m->min = std::min(m->min, MicroVal(i));
      m->max = std::max(m->max, MicroVal(i));
    }
    return groups;
  };
  const std::vector<op::AggSpec> aggs = {
      op::AggSpec::Sum(op::Expr::Mul(op::ColumnRef::Batch(1), op::ColumnRef::Batch(2))),
      op::AggSpec::Count(),
      op::AggSpec::Min(op::Expr::Column(op::ColumnRef::Batch(1))),
      op::AggSpec::Max(op::Expr::Column(op::ColumnRef::Batch(1)))};

  const auto run = [&](std::vector<uint16_t> group_cols) {
    auto *txn = txn_manager_.BeginTransaction();
    op::PhysicalPlan plan;
    op::PipelineBuilder builder(&plan);
    builder.Scan(table, {0, 1, 2, 3, 4, 5, 6})
        .Filter({op::Predicate::U32AtMost(3, 9030)});
    op::AggregateOp *agg = builder.Aggregate(std::move(group_cols), aggs);
    plan.Run(txn, nullptr, nullptr);
    txn_manager_.Commit(txn);
    return agg->Result();
  };

  const auto check = [&](const char *label) {
    static const char *kTags[] = {"A", "B", "C"};
    // One group column.
    {
      const auto expected = manual_of([](uint64_t i) { return std::string(kTags[i % 3]); });
      const std::vector<op::ResultRow> result = run({5});
      ASSERT_EQ(result.size(), expected.size()) << label;
      size_t r = 0;
      for (const auto &[key, manual] : expected) {  // std::map iterates sorted, like Result
        EXPECT_EQ(result[r].keys[0], key) << label;
        EXPECT_EQ(result[r].values[0].f64, manual.sum) << label << " group " << key;
        EXPECT_EQ(result[r].values[1].u64, manual.count) << label << " group " << key;
        EXPECT_EQ(result[r].values[2].f64, manual.min) << label << " group " << key;
        EXPECT_EQ(result[r].values[3].f64, manual.max) << label << " group " << key;
        r++;
      }
    }
    // Two group columns (dictionary pair-coding when frozen dictionary mode).
    {
      const auto expected = manual_of([](uint64_t i) {
        return std::string(kTags[i % 3]) + "" + (i % 2 == 0 ? "X" : "Y");
      });
      const std::vector<op::ResultRow> result = run({5, 6});
      ASSERT_EQ(result.size(), expected.size()) << label;
      size_t r = 0;
      for (const auto &[key, manual] : expected) {
        EXPECT_EQ(result[r].keys[0] + "" + result[r].keys[1], key) << label;
        EXPECT_EQ(result[r].values[0].f64, manual.sum) << label << " group " << key;
        EXPECT_EQ(result[r].values[1].u64, manual.count) << label << " group " << key;
        r++;
      }
    }
    // Ungrouped: one row, even when nothing qualifies.
    {
      const auto expected = manual_of([](uint64_t) { return std::string(); });
      const std::vector<op::ResultRow> result = run({});
      ASSERT_EQ(result.size(), 1u) << label;
      EXPECT_TRUE(result[0].keys.empty());
      EXPECT_EQ(result[0].values[0].f64, expected.at("").sum) << label;
      EXPECT_EQ(result[0].values[1].u64, expected.at("").count) << label;

      auto *txn = txn_manager_.BeginTransaction();
      op::PhysicalPlan plan;
      op::PipelineBuilder builder(&plan);
      builder.Scan(table, {0, 1, 2, 3, 4, 5, 6})
          .Filter({op::Predicate::U32AtMost(3, 1)});  // nothing qualifies
      op::AggregateOp *agg = builder.Aggregate({}, {op::AggSpec::Count()});
      plan.Run(txn, nullptr, nullptr);
      txn_manager_.Commit(txn);
      ASSERT_EQ(agg->Result().size(), 1u) << label;
      EXPECT_EQ(agg->Result()[0].values[0].u64, 0u) << label;
    }
  };

  check("hot");
  Freeze(table);
  check("frozen");
  gc_.FullGC();
}

/// Grouped aggregation, bit-exact against a row-at-a-time reference built
/// here, over the cases the two-pass resolver must get right: group keys
/// longer than 7 bytes (two differing only after byte 7), an empty key, more
/// than 64 distinct groups (collisions in the packed-key cache), nulls in the
/// aggregate inputs, one and two group columns, and a probed input with a
/// payload-gated sum. Hot, then frozen in the parameter's gather mode. Each
/// table fits one block, so the block partial IS the final accumulation.
TEST_P(OperatorPipelineTest, GroupedAggregateMatchesRowAtATimeReference) {
  constexpr int64_t kRows = 2000;
  constexpr int64_t kBuildKeys = 1000;
  static const std::vector<std::string> kSpecialKeys = {
      "", "A", "seven77", "exactly8", "prefix__one", "prefix__two", "a-much-longer-group-key"};
  const auto key_of = [](int64_t i) {
    const auto k = static_cast<size_t>(i % 97);  // 7 special + 90 short keys
    return k < kSpecialKeys.size() ? kSpecialKeys[k] : "k" + std::to_string(k);
  };
  const auto key2_of = [](int64_t i) {
    static const char *kKeys2[] = {"Z", "", "second-column-key"};
    return std::string(kKeys2[i % 3]);
  };
  const auto val_is_null = [](int64_t i) { return i % 7 == 0; };
  const auto val_of = [](int64_t i) { return static_cast<double>(i % 100) / 7.0; };
  const auto val2_of = [](int64_t i) { return static_cast<double>(i % 11) / 100.0; };
  const auto fk_of = [](int64_t i) { return i % 1500; };  // a third dangle

  const catalog::Schema schema({{"id", catalog::TypeId::kBigInt},
                                {"val", catalog::TypeId::kDecimal, true},
                                {"val2", catalog::TypeId::kDecimal},
                                {"key", catalog::TypeId::kVarchar},
                                {"key2", catalog::TypeId::kVarchar},
                                {"fk", catalog::TypeId::kBigInt}});
  catalog::SqlTable *table = catalog_.GetTable(catalog_.CreateTable("grouped", schema));
  // Build side: unique keys 0..kBuildKeys-1, payload key % 3 (a third zero).
  const catalog::Schema build_schema(
      {{"key", catalog::TypeId::kBigInt}, {"pay", catalog::TypeId::kBigInt}});
  catalog::SqlTable *build_table =
      catalog_.GetTable(catalog_.CreateTable("grouped_build", build_schema));
  {
    auto *txn = txn_manager_.BeginTransaction();
    const auto init = table->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    for (int64_t i = 0; i < kRows; i++) {
      ProjectedRow *row = init.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, i);
      if (val_is_null(i)) {
        row->SetNull(1);
      } else {
        workload::Set<double>(row, 1, val_of(i));
      }
      workload::Set<double>(row, 2, val2_of(i));
      workload::SetVarchar(row, 3, key_of(i));
      workload::SetVarchar(row, 4, key2_of(i));
      workload::Set<int64_t>(row, 5, fk_of(i));
      table->Insert(txn, *row);
    }
    const auto build_init = build_table->FullInitializer();
    std::vector<byte> build_buffer(build_init.ProjectedRowSize() + 8);
    for (int64_t k = 0; k < kBuildKeys; k++) {
      ProjectedRow *row = build_init.InitializeRow(build_buffer.data());
      workload::Set<int64_t>(row, 0, k);
      workload::Set<int64_t>(row, 1, k % 3);
      build_table->Insert(txn, *row);
    }
    txn_manager_.Commit(txn);
    gc_.FullGC();
  }
  ASSERT_EQ(table->UnderlyingTable().NumBlocks(), 1u) << "the table must stay one block";

  // The row-at-a-time reference: every accumulator advanced in row order.
  struct Reference {
    double sum = 0, product = 0, discounted = 0, gated = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    uint64_t count = 0, payload = 0;
  };
  using Groups = std::map<std::vector<std::string>, Reference>;
  const auto reference = [&](size_t num_group_cols, bool probed) {
    Groups groups;
    for (int64_t i = 0; i < kRows; i++) {
      uint64_t payload = 0;
      if (probed) {
        if (fk_of(i) >= kBuildKeys) continue;
        payload = static_cast<uint64_t>(fk_of(i) % 3);
      }
      std::vector<std::string> keys = {key_of(i), key2_of(i)};
      keys.resize(num_group_cols);
      Reference *ref = &groups[keys];
      ref->count++;
      ref->payload += payload;
      if (val_is_null(i)) continue;
      const double v = val_of(i), v2 = val2_of(i);
      ref->sum += v;
      ref->product += v * v2;
      ref->discounted += v * (1.0 - v2);
      if (payload != 0) ref->gated += v;
      if (v < ref->min) ref->min = v;
      if (v > ref->max) ref->max = v;
    }
    return groups;
  };

  const op::ColumnRef val = op::ColumnRef::Batch(1), val2 = op::ColumnRef::Batch(2);
  const std::vector<op::AggSpec> scan_aggs = {
      op::AggSpec::Sum(op::Expr::Column(val)),
      op::AggSpec::Sum(op::Expr::Mul(val, val2)),
      op::AggSpec::Sum(op::Expr::Discounted(val, val2)),
      op::AggSpec::Count(),
      op::AggSpec::Min(op::Expr::Column(val)),
      op::AggSpec::Max(op::Expr::Column(val))};
  const std::vector<op::AggSpec> probe_aggs = {
      op::AggSpec::SumPayload(), op::AggSpec::Count(),
      op::AggSpec::Sum(op::Expr::Column(val), /*payload_gate=*/true),
      op::AggSpec::Sum(op::Expr::Column(val))};

  const auto run = [&](std::vector<uint16_t> group_cols, bool probed, common::WorkerPool *pool) {
    auto *txn = txn_manager_.BeginTransaction();
    op::PhysicalPlan plan;
    op::AggregateOp *agg;
    if (probed) {
      op::PipelineBuilder builder(&plan);
      builder.Scan(build_table, {0, 1});
      op::HashJoinBuildOp *build = builder.JoinBuild(0, op::PayloadSpec::Int64Column(1));
      op::Pipeline *probe = plan.AddPipeline(table, {0, 1, 2, 3, 4, 5});
      probe->Add<op::HashJoinProbeOp>(/*key_col=*/5, build);
      agg = probe->Add<op::AggregateOp>(std::move(group_cols), probe_aggs);
    } else {
      op::PipelineBuilder builder(&plan);
      builder.Scan(table, {0, 1, 2, 3, 4, 5});
      agg = builder.Aggregate(std::move(group_cols), scan_aggs);
    }
    plan.Run(txn, pool, nullptr);
    txn_manager_.Commit(txn);
    return agg->Result();
  };

  const auto check = [&](const char *label) {
    common::WorkerPool pool(2);
    for (common::WorkerPool *p : {static_cast<common::WorkerPool *>(nullptr), &pool}) {
      for (const size_t num_group_cols : {size_t{1}, size_t{2}}) {
        for (const bool probed : {false, true}) {
          std::vector<uint16_t> group_cols = {3, 4};
          group_cols.resize(num_group_cols);
          const Groups expected = reference(num_group_cols, probed);
          const std::vector<op::ResultRow> result = run(group_cols, probed, p);
          const std::string where = std::string(label) + (p == nullptr ? " inline" : " pooled") +
                                    (probed ? " probed " : " scanned ") +
                                    std::to_string(num_group_cols) + " group column(s)";
          ASSERT_EQ(result.size(), expected.size()) << where;
          ASSERT_GT(expected.size(), 64u) << where;
          size_t r = 0;
          for (const auto &[keys, ref] : expected) {  // std::map order == Result order
            const op::ResultRow &row = result[r++];
            ASSERT_EQ(row.keys, keys) << where;
            const std::string group = where + ", group '" + keys[0] + "'";
            if (probed) {
              EXPECT_EQ(row.values[0].u64, ref.payload) << group;
              EXPECT_EQ(row.values[1].u64, ref.count) << group;
              EXPECT_EQ(row.values[2].f64, ref.gated) << group;
              EXPECT_EQ(row.values[3].f64, ref.sum) << group;
            } else {
              EXPECT_EQ(row.values[0].f64, ref.sum) << group;
              EXPECT_EQ(row.values[1].f64, ref.product) << group;
              EXPECT_EQ(row.values[2].f64, ref.discounted) << group;
              EXPECT_EQ(row.values[3].u64, ref.count) << group;
              EXPECT_EQ(row.values[4].f64, ref.min) << group;
              EXPECT_EQ(row.values[5].f64, ref.max) << group;
            }
          }
        }
      }
    }
  };

  check("hot");
  Freeze(table);
  Freeze(build_table);
  check("frozen");
  gc_.FullGC();
}

/// The headline agreement matrix: Q1/Q6/Q12/Q14 as plans vs the scalar
/// references, at 1/2/4/8 workers, over hot, ~50% frozen, and fully frozen
/// tables — bit-exact everywhere, both access paths exercised where the
/// freeze state implies them.
TEST_P(OperatorPipelineTest, PlansMatchScalarAcrossFreezeStatesAndThreadCounts) {
  GenerateTpch(RowsForBlocks(2));
  ASSERT_GT(lineitem_->UnderlyingTable().NumBlocks(), 2u);

  // 0% frozen: every morsel of every scan materializes.
  ScanStats stats;
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    ExpectPlansAgree(threads, &stats);
    EXPECT_EQ(stats.frozen_blocks, 0u);
    EXPECT_GT(stats.hot_blocks, 0u);
  }

  // ~50% frozen (all three tables): morsels mix zero-copy and
  // materialization.
  for (catalog::SqlTable *table : {lineitem_, orders_, part_}) {
    storage::DataTable &dt = table->UnderlyingTable();
    const std::vector<storage::RawBlock *> blocks = dt.Blocks();
    for (size_t i = 0; i < blocks.size() / 2; i++) {
      transformer_.ProcessGroup(&dt, {blocks[i]}, nullptr);
    }
  }
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    ExpectPlansAgree(threads, &stats);
    EXPECT_GT(stats.frozen_blocks, 0u);
    EXPECT_GT(stats.hot_blocks, 0u);
  }

  // 100% frozen: every pipeline streams zero-copy batches.
  for (catalog::SqlTable *table : {lineitem_, orders_, part_}) {
    Freeze(table);
  }
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    ExpectPlansAgree(threads, &stats);
    EXPECT_GT(stats.frozen_blocks, 0u);
    EXPECT_EQ(stats.hot_blocks, 0u);
  }
  gc_.FullGC();
}

/// QueryRunner wiring for the new query: the plan inline and on two threads
/// agrees with the scalar mode, the answer is nontrivial, and the stats span
/// the PART build scan and the LINEITEM probe scan.
TEST_P(OperatorPipelineTest, QueryRunnerRunsQ14InAllModes) {
  GenerateTpch(RowsForBlocks(1));
  pipeline_.EnqueueTable(&lineitem_->UnderlyingTable());
  pipeline_.RunOnce();

  QueryRunner runner(&txn_manager_, /*num_threads=*/1);
  QueryRunner parallel(&txn_manager_, /*num_threads=*/2);
  const q::Tables tables{.lineitem = lineitem_, .part = part_};
  const auto vec = runner.Run(q::Query::kQ14, tables);
  const auto scalar = runner.Run(q::Query::kQ14, tables, ExecMode::kScalar);
  const auto par = parallel.Run(q::Query::kQ14, tables);
  EXPECT_TRUE(vec.answer == scalar.answer);
  EXPECT_TRUE(par.answer == scalar.answer);
  const double promo_revenue = std::get<double>(vec.answer);
  EXPECT_GT(promo_revenue, 0.0) << "the generated workload should join and find promos";
  EXPECT_LT(promo_revenue, 100.0);

  uint64_t expected_rows = 0;
  auto *txn = txn_manager_.BeginTransaction();
  for (catalog::SqlTable *table : {lineitem_, part_}) {
    const auto init = table->InitializerForColumns({0});
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    for (auto it = table->begin(); !it.Done(); ++it) {
      if (table->Select(txn, *it, init.InitializeRow(buffer.data()))) expected_rows++;
    }
  }
  txn_manager_.Commit(txn);
  EXPECT_EQ(vec.stats.rows, expected_rows);
  gc_.FullGC();
}

/// Q14 with an empty PART or an empty LINEITEM is 0 on every engine — the
/// plan's probe pushes nothing and the ungrouped aggregate still produces
/// its zero row.
TEST_P(OperatorPipelineTest, Q14EmptySidesYieldZero) {
  lineitem_ = tpch::GenerateLineItem(&catalog_, &txn_manager_, 2000, /*seed=*/7, 0);
  catalog::SqlTable *no_parts =
      catalog_.GetTable(catalog_.CreateTable("part_empty", tpch::PartSchema()));
  catalog::SqlTable *no_lines =
      catalog_.GetTable(catalog_.CreateTable("lineitem_empty", tpch::LineItemSchema()));
  catalog::SqlTable *some_parts = tpch::GeneratePart(&catalog_, &txn_manager_, 500, 13, 0);
  gc_.FullGC();

  for (const uint32_t threads : {1u, 2u}) {
    QueryRunner runner(&txn_manager_, threads);
    for (const ExecMode mode : {ExecMode::kPlan, ExecMode::kScalar}) {
      EXPECT_TRUE(runner.Run(q::Query::kQ14, {.lineitem = lineitem_, .part = no_parts}, mode)
                      .answer == q::Answer(0.0));
      EXPECT_TRUE(runner.Run(q::Query::kQ14, {.lineitem = no_lines, .part = some_parts}, mode)
                      .answer == q::Answer(0.0));
    }
  }
  gc_.FullGC();
}

/// The query table routes every Query to its own typed functions: RunPlan
/// (inline and on two workers) and RunScalar must each equal that query's
/// typed scalar oracle, over hot and then frozen tables. Plan-versus-scalar
/// agreement alone would miss a dispatch that swapped two queries answering
/// the same type, such as Q6 and Q14.
TEST_P(OperatorPipelineTest, QueryTableRoutesEveryQueryToItsTypedFunctions) {
  GenerateTpch(RowsForBlocks(1));
  // An ORDERS table whose custkeys a CUSTOMER table two thirds its size
  // partly covers, so Q3 both joins and drops rows; Q12 reads it too.
  const uint64_t num_customers = 2000;
  catalog::SqlTable *orders = tpch::GenerateOrders(&catalog_, &txn_manager_, 3000, /*seed=*/11,
                                                   /*batch_size=*/4096, "orders_q3",
                                                   num_customers + num_customers / 2);
  catalog::SqlTable *customer = tpch::GenerateCustomer(&catalog_, &txn_manager_, num_customers,
                                                       /*seed=*/17, /*batch_size=*/4096);
  gc_.FullGC();
  const q::Tables tables{.lineitem = lineitem_, .orders = orders, .part = part_,
                         .customer = customer};

  using Oracle = std::function<q::Answer(transaction::TransactionContext *)>;
  const std::vector<std::tuple<q::Query, const char *, Oracle>> typed = {
      {q::Query::kQ1, "q1", [&](auto *txn) { return q::RunQ1Scalar(lineitem_, txn, {}); }},
      {q::Query::kQ3, "q3",
       [&](auto *txn) { return q::RunQ3Scalar(customer, orders, lineitem_, txn, {}); }},
      {q::Query::kQ6, "q6", [&](auto *txn) { return q::RunQ6Scalar(lineitem_, txn, {}); }},
      {q::Query::kQ12, "q12",
       [&](auto *txn) { return q::RunQ12Scalar(orders, lineitem_, txn, {}); }},
      {q::Query::kQ14, "q14",
       [&](auto *txn) { return q::RunQ14Scalar(lineitem_, part_, txn, {}); }},
  };
  ASSERT_EQ(typed.size(), std::size(q::kQueries));

  const auto check = [&](const char *label) {
    common::WorkerPool pool(2);
    auto *txn = txn_manager_.BeginTransaction();
    for (size_t i = 0; i < typed.size(); i++) {
      const auto &[query, name, oracle] = typed[i];
      EXPECT_EQ(q::kQueries[i], query);
      EXPECT_STREQ(q::QueryName(query), name);
      const q::Answer expected = oracle(txn);
      EXPECT_FALSE(q::IsEmpty(expected)) << label << " " << name;
      EXPECT_TRUE(q::RunScalar(query, tables, txn) == expected) << label << " " << name;
      EXPECT_TRUE(q::RunPlan(query, tables, txn, nullptr) == expected) << label << " " << name;
      EXPECT_TRUE(q::RunPlan(query, tables, txn, &pool) == expected) << label << " " << name;
    }
    txn_manager_.Commit(txn);
  };
  check("hot");
  for (catalog::SqlTable *table : {lineitem_, orders, part_, customer}) Freeze(table);
  check("frozen");
  gc_.FullGC();
}

/// The concurrency scenario: the Q14 plan runs on four scan workers while
/// (a) a writer rewrites lineitem prices and discounts (the FP aggregate's
/// inputs) and deletes rows — re-heating frozen blocks under both scans —
/// and (b) the transformation pipeline keeps re-freezing whatever cools
/// down. Every iteration compares the parallel plan against the scalar
/// reference inside the SAME transaction: any MVCC violation on either side
/// of the join, or any worker-count dependence of the FP sums, shows up as
/// a divergence.
TEST_P(OperatorPipelineTest, Q14ParallelStaysConsistentUnderConcurrentWritesAndTransform) {
  GenerateTpch(RowsForBlocks(1));
  storage::DataTable &lines = lineitem_->UnderlyingTable();
  storage::DataTable &parts = part_->UnderlyingTable();

  for (storage::DataTable *dt : {&lines, &parts}) pipeline_.EnqueueTable(dt);
  pipeline_.RunOnce();

  std::atomic<bool> stop{false};

  // The transform thread owns the GC for the duration (single-consumer).
  std::thread transform_thread([&] {
    while (!stop.load(std::memory_order_acquire)) {
      pipeline_.EnqueueTable(&lines);
      pipeline_.EnqueueTable(&parts);
      pipeline_.RunOnce();
      gc_.PerformGarbageCollection();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread writer([&] {
    common::Xorshift rng(321);
    const auto update_init =
        lineitem_->InitializerForColumns({tpch::L_EXTENDEDPRICE, tpch::L_DISCOUNT});
    std::vector<byte> update_buf(update_init.ProjectedRowSize() + 8);
    while (!stop.load(std::memory_order_acquire)) {
      auto *txn = txn_manager_.BeginTransaction();
      bool ok = true;
      uint32_t visited = 0;
      for (auto it = lineitem_->begin(); !it.Done() && visited < 150 && ok; ++it, ++visited) {
        const uint64_t dice = rng.Uniform(0, 39);
        if (dice == 0) {
          ok = lineitem_->Delete(txn, *it);
        } else if (dice < 8) {
          // Rewrite the promo-revenue inputs, so any stale read on either
          // access path changes the FP sums and cannot hide.
          ProjectedRow *delta = update_init.InitializeRow(update_buf.data());
          workload::Set<double>(delta, 0,
                                static_cast<double>(rng.Uniform(1000, 100000)) / 100.0);
          workload::Set<double>(delta, 1, static_cast<double>(rng.Uniform(0, 10)) / 100.0);
          ok = lineitem_->Update(txn, *it, *delta);
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
    const double parallel = q::RunQ14Parallel(lineitem_, part_, txn, {}, &pool, &stats);
    const double scalar = q::RunQ14Scalar(lineitem_, part_, txn, {}, nullptr);
    EXPECT_EQ(parallel, scalar)
        << "parallel Q14 plan diverged from the scalar reference in the same snapshot "
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

/// A PayloadSpec whose string list is empty is only constructible by
/// bypassing the factories (they assert); the Matches guard still must not
/// dereference strings.front() — it classifies everything as a non-match.
TEST(PayloadSpecGuards, EmptyStringListMatchesNothing) {
  op::PayloadSpec hollow_in;
  hollow_in.kind = op::PayloadSpec::Kind::kStringIn;
  EXPECT_FALSE(hollow_in.Matches("anything"));
  EXPECT_FALSE(hollow_in.Matches(""));

  op::PayloadSpec hollow_prefix;
  hollow_prefix.kind = op::PayloadSpec::Kind::kStringPrefix;
  EXPECT_FALSE(hollow_prefix.Matches("anything"));
  EXPECT_FALSE(hollow_prefix.Matches(""));

  // The factories still classify normally.
  EXPECT_TRUE(op::PayloadSpec::StringIn(0, {"A", "B"}).Matches("B"));
  EXPECT_FALSE(op::PayloadSpec::StringIn(0, {"A", "B"}).Matches("C"));
  EXPECT_TRUE(op::PayloadSpec::StringPrefix(0, "PRO").Matches("PROMO X"));
  EXPECT_FALSE(op::PayloadSpec::StringPrefix(0, "PRO").Matches("PRMO"));
  // An empty prefix is a valid spec: every string starts with "".
  EXPECT_TRUE(op::PayloadSpec::StringPrefix(0, "").Matches("anything"));
}

namespace {

/// Simulates a pathological block — a join-key explosion inflating the match
/// list, a plan stacking projections — then asserts the next blocks' chunks
/// came back shrunk to the retention thresholds. An inline run reuses ONE
/// chunk for every block, so ordinal k observes the Reset after ordinal
/// k-1's inflation.
class InflateOp final : public op::Operator {
 public:
  void Push(op::Chunk *chunk) override {
    switch (chunk->block_ordinal) {
      case 0: {
        chunk->matches.reserve(op::Chunk::kMaxRetainedMatches * 2);
        for (int i = 0; i < 12; i++) chunk->AppendComputed();
        chunk->computed[0].values.reserve(op::Chunk::kMaxRetainedComputedValues * 2);
        break;
      }
      case 1: {
        // Everything above the thresholds was released by Reset...
        EXPECT_LE(chunk->matches.capacity(), op::Chunk::kMaxRetainedMatches);
        EXPECT_LE(chunk->computed.size(), op::Chunk::kMaxRetainedComputedColumns);
        EXPECT_LE(chunk->computed[0].values.capacity(),
                  op::Chunk::kMaxRetainedComputedValues);
        EXPECT_EQ(chunk->num_computed, 0u);
        chunk->matches.reserve(kModestCapacity);
        break;
      }
      default: {
        // ...while a well-behaved block's capacity is retained across Resets.
        EXPECT_GE(chunk->matches.capacity(), kModestCapacity);
        EXPECT_LE(chunk->matches.capacity(), op::Chunk::kMaxRetainedMatches);
        break;
      }
    }
    blocks_seen_++;
  }

  static constexpr size_t kModestCapacity = 1000;
  size_t blocks_seen_ = 0;
};

/// Throws on the first chunk, counts the rest.
class ThrowOnceOp final : public op::Operator {
 public:
  void Push(op::Chunk *chunk) override {
    if (!thrown_) {
      thrown_ = true;
      throw std::runtime_error("injected operator failure");
    }
    rows_ += chunk->sel.Size();
  }

  bool thrown_ = false;
  uint64_t rows_ = 0;
};

}  // namespace

/// The reused chunk's shrink policy: one block inflating the match list or the
/// computed-column stack beyond Chunk's retention thresholds must not pin
/// that capacity for the rest of the run (see InflateOp above).
TEST_P(OperatorPipelineTest, ChunkPoolShrinksPathologicalCapacity) {
  const catalog::Schema schema(
      {{"id", catalog::TypeId::kBigInt}, {"fk", catalog::TypeId::kBigInt}});
  catalog::SqlTable *table = catalog_.GetTable(catalog_.CreateTable("shrink", schema));
  const auto init = table->FullInitializer();
  std::vector<byte> buffer(init.ProjectedRowSize() + 8);
  auto *txn = txn_manager_.BeginTransaction();
  int64_t next_id = 0;
  while (table->UnderlyingTable().NumBlocks() < 4) {
    ProjectedRow *row = init.InitializeRow(buffer.data());
    workload::Set<int64_t>(row, 0, next_id);
    workload::Set<int64_t>(row, 1, next_id % 7);
    table->Insert(txn, *row);
    next_id++;
  }
  txn_manager_.Commit(txn);
  gc_.FullGC();

  txn = txn_manager_.BeginTransaction();
  op::PhysicalPlan plan;
  op::Pipeline *pipe = plan.AddPipeline(table, {0, 1});
  InflateOp *inflate = pipe->Add<InflateOp>();
  plan.Run(txn, nullptr, nullptr);  // inline: one reused chunk, blocks in order
  txn_manager_.Commit(txn);
  EXPECT_GE(inflate->blocks_seen_, 4u);
  gc_.FullGC();
}

/// An operator throwing mid-scan must unwind cleanly through the scan
/// source (the worker's batch releases its block read lock on the way out),
/// and the table must stay fully scannable afterward.
TEST_P(OperatorPipelineTest, ScanSurvivesThrowingOperator) {
  constexpr uint64_t kRows = 2000;
  catalog::SqlTable *table = MakeMicroTable("throwing", kRows);

  const auto check = [&](const char *label) {
    auto *txn = txn_manager_.BeginTransaction();
    op::PhysicalPlan plan;
    op::Pipeline *pipe = plan.AddPipeline(table, {0, 1});
    ThrowOnceOp *thrower = pipe->Add<ThrowOnceOp>();
    bool caught = false;
    try {
      plan.Run(txn, nullptr, nullptr);
    } catch (const std::runtime_error &) {
      caught = true;
    }
    txn_manager_.Commit(txn);
    EXPECT_TRUE(caught) << label << ": the injected failure should propagate";
    EXPECT_TRUE(thrower->thrown_) << label;

    // The same table scans to completion afterward — nothing was torn.
    txn = txn_manager_.BeginTransaction();
    op::PhysicalPlan retry;
    op::Pipeline *retry_pipe = retry.AddPipeline(table, {0, 1});
    CollectOp *collect = retry_pipe->Add<CollectOp>(0);
    retry.Run(txn, nullptr, nullptr);
    txn_manager_.Commit(txn);
    EXPECT_EQ(collect->All().size(), kRows) << label;
  };

  check("hot");
  Freeze(table);
  check("frozen");
  gc_.FullGC();
}

INSTANTIATE_TEST_SUITE_P(Modes, OperatorPipelineTest,
                         ::testing::Values(GatherMode::kVarlenGather,
                                           GatherMode::kDictionaryCompression),
                         [](const auto &info) {
                           return info.param == GatherMode::kVarlenGather ? "Gather"
                                                                          : "Dictionary";
                         });

}  // namespace mainline
