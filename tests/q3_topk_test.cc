#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "catalog/catalog.h"
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

/// Coverage of PR 6's operator-layer growth: probe chaining (a chunk probed
/// by several HashJoinProbeOps in one pipeline, and a HashJoinBuildOp fed
/// from an already probed stream), the TopKOp sink's deterministic total
/// order, and TPC-H Q3 end to end — a hand-computed micro case, the edge
/// matrix (duplicate keys, dangling FKs at every hop, empty tables), and the
/// bit-exact plan-vs-scalar matrix across worker counts and freeze states.
class Q3TopKTest : public ::testing::TestWithParam<GatherMode> {
 protected:
  Q3TopKTest()
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

  ~Q3TopKTest() override { gc_.SetAccessObserver(nullptr); }

  /// Rows spanning a little over `blocks` lineitem blocks.
  static uint64_t RowsForBlocks(uint64_t blocks) {
    const uint32_t slots = tpch::LineItemSchema().ToBlockLayout().NumSlots();
    return blocks * slots + slots / 2;
  }

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

  // -------------------------------------------------------------------------
  // Hand-built Q3 tables: every column is written (defaults for the ones the
  // query never reads), so the rows freeze like generated data.
  // -------------------------------------------------------------------------

  struct CustomerRow {
    int64_t custkey;
    const char *segment;
  };
  catalog::SqlTable *MakeCustomer(const char *name, const std::vector<CustomerRow> &rows) {
    catalog::SqlTable *table =
        catalog_.GetTable(catalog_.CreateTable(name, tpch::CustomerSchema()));
    const auto init = table->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    for (const CustomerRow &r : rows) {
      ProjectedRow *row = init.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, tpch::C_CUSTKEY, r.custkey);
      workload::SetVarchar(row, tpch::C_NAME, "c");
      workload::SetVarchar(row, tpch::C_ADDRESS, "a");
      workload::Set<int32_t>(row, tpch::C_NATIONKEY, 0);
      workload::SetVarchar(row, tpch::C_PHONE, "0");
      workload::Set<double>(row, tpch::C_ACCTBAL, 0.0);
      workload::SetVarchar(row, tpch::C_MKTSEGMENT, r.segment);
      workload::SetVarchar(row, tpch::C_COMMENT, "x");
      table->Insert(txn, *row);
    }
    txn_manager_.Commit(txn);
    return table;
  }

  struct OrderRow {
    int64_t orderkey;
    int64_t custkey;
    uint32_t orderdate;
    int32_t shippriority;
  };
  catalog::SqlTable *MakeOrders(const char *name, const std::vector<OrderRow> &rows) {
    catalog::SqlTable *table =
        catalog_.GetTable(catalog_.CreateTable(name, tpch::OrdersSchema()));
    const auto init = table->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    for (const OrderRow &r : rows) {
      ProjectedRow *row = init.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, tpch::O_ORDERKEY, r.orderkey);
      workload::Set<int64_t>(row, tpch::O_CUSTKEY, r.custkey);
      workload::SetVarchar(row, tpch::O_ORDERSTATUS, "O");
      workload::Set<double>(row, tpch::O_TOTALPRICE, 0.0);
      workload::Set<uint32_t>(row, tpch::O_ORDERDATE, r.orderdate);
      workload::SetVarchar(row, tpch::O_ORDERPRIORITY, "3-MEDIUM");
      workload::SetVarchar(row, tpch::O_CLERK, "c");
      workload::Set<int32_t>(row, tpch::O_SHIPPRIORITY, r.shippriority);
      workload::SetVarchar(row, tpch::O_COMMENT, "x");
      table->Insert(txn, *row);
    }
    txn_manager_.Commit(txn);
    return table;
  }

  struct LineRow {
    int64_t orderkey;
    double extendedprice;
    double discount;
    uint32_t shipdate;
  };
  catalog::SqlTable *MakeLineitem(const char *name, const std::vector<LineRow> &rows) {
    catalog::SqlTable *table =
        catalog_.GetTable(catalog_.CreateTable(name, tpch::LineItemSchema()));
    const auto init = table->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    for (const LineRow &r : rows) {
      ProjectedRow *row = init.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, tpch::L_ORDERKEY, r.orderkey);
      workload::Set<int64_t>(row, tpch::L_PARTKEY, 1);
      workload::Set<int64_t>(row, tpch::L_SUPPKEY, 1);
      workload::Set<int32_t>(row, tpch::L_LINENUMBER, 1);
      workload::Set<double>(row, tpch::L_QUANTITY, 1.0);
      workload::Set<double>(row, tpch::L_EXTENDEDPRICE, r.extendedprice);
      workload::Set<double>(row, tpch::L_DISCOUNT, r.discount);
      workload::Set<double>(row, tpch::L_TAX, 0.0);
      workload::SetVarchar(row, tpch::L_RETURNFLAG, "N");
      workload::SetVarchar(row, tpch::L_LINESTATUS, "O");
      workload::Set<uint32_t>(row, tpch::L_SHIPDATE, r.shipdate);
      workload::Set<uint32_t>(row, tpch::L_COMMITDATE, r.shipdate);
      workload::Set<uint32_t>(row, tpch::L_RECEIPTDATE, r.shipdate);
      workload::SetVarchar(row, tpch::L_SHIPINSTRUCT, "NONE");
      workload::SetVarchar(row, tpch::L_SHIPMODE, "MAIL");
      workload::SetVarchar(row, tpch::L_COMMENT, "x");
      table->Insert(txn, *row);
    }
    txn_manager_.Commit(txn);
    return table;
  }

  /// CUSTOMER + ORDERS + LINEITEM for the generated matrix. A third of the
  /// order custkeys dangle (no customer row), and lineitem orderkeys beyond
  /// the orders count dangle the other way — both FK edges are exercised.
  void GenerateQ3Tables(uint64_t rows) {
    const uint64_t customers = std::max<uint64_t>(rows / 6, 200);
    lineitem_ = tpch::GenerateLineItem(&catalog_, &txn_manager_, rows, /*seed=*/7,
                                       /*batch_size=*/4096);
    orders_ = tpch::GenerateOrders(&catalog_, &txn_manager_, rows / 3, /*seed=*/11,
                                   /*batch_size=*/4096, "orders",
                                   /*num_customers=*/customers + customers / 2);
    customer_ = tpch::GenerateCustomer(&catalog_, &txn_manager_, customers, /*seed=*/17,
                                       /*batch_size=*/4096);
    gc_.FullGC();
  }

  /// Q3 at `num_threads` — parallel plan, inline plan, scalar oracle, all in
  /// ONE transaction — expecting bit-identical rows in identical order.
  void ExpectQ3Agrees(uint32_t num_threads, ScanStats *stats_out = nullptr) {
    common::WorkerPool pool(num_threads);
    auto *txn = txn_manager_.BeginTransaction();
    ScanStats stats;
    const auto par = q::RunQ3Parallel(customer_, orders_, lineitem_, txn, {}, &pool, &stats);
    const auto scalar = q::RunQ3Scalar(customer_, orders_, lineitem_, txn, {}, nullptr);
    const auto inline_rows =
        q::RunQ3Parallel(customer_, orders_, lineitem_, txn, {}, /*pool=*/nullptr);
    txn_manager_.Commit(txn);

    ASSERT_EQ(par.size(), scalar.size()) << num_threads << " threads";
    for (size_t i = 0; i < par.size(); i++) {
      EXPECT_TRUE(par[i] == scalar[i])
          << "parallel Q3 plan diverged from the scalar reference at " << num_threads
          << " threads (rank " << i << ": orderkey " << par[i].orderkey << " vs "
          << scalar[i].orderkey << ")";
    }
    EXPECT_TRUE(inline_rows == scalar) << "inline Q3 plan diverged";
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
  catalog::SqlTable *customer_ = nullptr;
  catalog::SqlTable *orders_ = nullptr;
  catalog::SqlTable *lineitem_ = nullptr;
};

namespace {

/// Test sink recording full match triples — (row id, payload, prior) — per
/// block ordinal, to pin chained-probe semantics exactly.
class MatchCollectOp final : public op::Operator {
 public:
  struct Row {
    int64_t id;
    uint64_t payload;
    uint64_t prior;

    bool operator==(const Row &) const = default;
  };

  explicit MatchCollectOp(uint16_t id_col) : id_col_(id_col) {}

  void Prepare(size_t num_blocks) override { per_block_.assign(num_blocks, {}); }

  void Push(op::Chunk *chunk) override {
    std::vector<Row> *rows = &per_block_[chunk->block_ordinal];
    const int64_t *ids = chunk->batch->Column(id_col_).buffer(0)->data_as<int64_t>();
    for (const op::JoinMatch &match : chunk->matches) {
      rows->push_back({ids[match.row], match.payload, match.prior});
    }
  }

  std::vector<Row> All() const {
    std::vector<Row> all;
    for (const std::vector<Row> &rows : per_block_) {
      all.insert(all.end(), rows.begin(), rows.end());
    }
    return all;
  }

 private:
  uint16_t id_col_;
  std::vector<std::vector<Row>> per_block_;
};

}  // namespace

/// Two chained kEachMatch probes over hand-built tables: the match list is
/// the cross product of both build sides' duplicate keys, in (row, first
/// table's insertion order, second table's insertion order) — and each final
/// match carries the first probe's payload in `prior`. Dangling keys at
/// either hop drop the row; chained through an empty middle table nothing
/// survives. Identical inline and at 4 workers.
TEST_P(Q3TopKTest, ChainedProbesCrossProductWithPriorPayloads) {
  const catalog::Schema kv_schema(
      {{"key", catalog::TypeId::kBigInt}, {"pay", catalog::TypeId::kBigInt}});
  const catalog::Schema probe_schema({{"id", catalog::TypeId::kBigInt},
                                      {"fk_a", catalog::TypeId::kBigInt},
                                      {"fk_b", catalog::TypeId::kBigInt}});
  const auto fill_kv = [&](const char *name,
                           const std::vector<std::pair<int64_t, int64_t>> &rows) {
    catalog::SqlTable *table = catalog_.GetTable(catalog_.CreateTable(name, kv_schema));
    const auto init = table->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    for (const auto &[key, pay] : rows) {
      ProjectedRow *row = init.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, key);
      workload::Set<int64_t>(row, 1, pay);
      table->Insert(txn, *row);
    }
    txn_manager_.Commit(txn);
    return table;
  };

  // Table A: key 1 once (payload 10), key 2 twice (20, 21); key 3 absent.
  catalog::SqlTable *a = fill_kv("chain_a", {{1, 10}, {2, 20}, {2, 21}});
  // Table B: key 5 twice (50, 51), key 6 once (60); key 7 absent.
  catalog::SqlTable *b = fill_kv("chain_b", {{5, 50}, {5, 51}, {6, 60}});
  catalog::SqlTable *empty_kv =
      catalog_.GetTable(catalog_.CreateTable("chain_empty", kv_schema));

  // Probe rows: (id, fk_a, fk_b) — every combination of matching/dangling.
  catalog::SqlTable *probe =
      catalog_.GetTable(catalog_.CreateTable("chain_probe", probe_schema));
  {
    const auto init = probe->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    const std::vector<std::tuple<int64_t, int64_t, int64_t>> rows = {
        {100, 1, 5},  // 1 a-match x 2 b-matches
        {101, 2, 6},  // 2 x 1
        {102, 2, 5},  // 2 x 2
        {103, 3, 5},  // dangles at the first hop
        {104, 1, 7},  // survives the first hop, dangles at the second
        {105, 3, 7},  // dangles at both
    };
    for (const auto &[id, fk_a, fk_b] : rows) {
      ProjectedRow *row = init.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, id);
      workload::Set<int64_t>(row, 1, fk_a);
      workload::Set<int64_t>(row, 2, fk_b);
      probe->Insert(txn, *row);
    }
    txn_manager_.Commit(txn);
  }
  gc_.FullGC();

  const std::vector<MatchCollectOp::Row> expected = {
      {100, 50, 10}, {100, 51, 10},                  // row 100: a=10, b in {50, 51}
      {101, 60, 20}, {101, 60, 21},                  // row 101: a in {20, 21}, b=60
      {102, 50, 20}, {102, 51, 20}, {102, 50, 21}, {102, 51, 21},
  };

  for (const bool parallel : {false, true}) {
    common::WorkerPool pool(parallel ? 4 : 0);
    auto *txn = txn_manager_.BeginTransaction();
    op::PhysicalPlan plan;
    op::PipelineBuilder builder(&plan);
    builder.Scan(a, {0, 1});
    op::HashJoinBuildOp *build_a = builder.JoinBuild(0, op::PayloadSpec::Int64Column(1));
    builder.Scan(b, {0, 1});
    op::HashJoinBuildOp *build_b = builder.JoinBuild(0, op::PayloadSpec::Int64Column(1));
    op::Pipeline *probe_pipe = plan.AddPipeline(probe, {0, 1, 2});
    probe_pipe->Add<op::HashJoinProbeOp>(/*key_col=*/1, build_a);
    probe_pipe->Add<op::HashJoinProbeOp>(/*key_col=*/2, build_b);
    MatchCollectOp *collect = probe_pipe->Add<MatchCollectOp>(/*id_col=*/0);
    plan.Run(txn, parallel ? &pool : nullptr, nullptr);
    txn_manager_.Commit(txn);
    EXPECT_TRUE(collect->All() == expected)
        << (parallel ? "parallel" : "inline") << " chained probe match list diverged";
  }

  // Chained through an empty middle build: nothing reaches the sink, even
  // though the second hop would match.
  auto *txn = txn_manager_.BeginTransaction();
  op::PhysicalPlan plan;
  op::PipelineBuilder builder(&plan);
  builder.Scan(empty_kv, {0, 1});
  op::HashJoinBuildOp *build_empty = builder.JoinBuild(0, op::PayloadSpec::Int64Column(1));
  builder.Scan(b, {0, 1});
  op::HashJoinBuildOp *build_b = builder.JoinBuild(0, op::PayloadSpec::Int64Column(1));
  op::Pipeline *probe_pipe = plan.AddPipeline(probe, {0, 1, 2});
  probe_pipe->Add<op::HashJoinProbeOp>(1, build_empty);
  probe_pipe->Add<op::HashJoinProbeOp>(2, build_b);
  MatchCollectOp *collect = probe_pipe->Add<MatchCollectOp>(0);
  plan.Run(txn, nullptr, nullptr);
  txn_manager_.Commit(txn);
  EXPECT_TRUE(collect->All().empty());
  gc_.FullGC();
}

/// A HashJoinBuildOp downstream of a probe consumes the match list, so join
/// multiplicity carries into the new table: a key matched N times upstream
/// inserts N entries.
TEST_P(Q3TopKTest, BuildFromProbedStreamCarriesMultiplicity) {
  const catalog::Schema kv_schema(
      {{"key", catalog::TypeId::kBigInt}, {"pay", catalog::TypeId::kBigInt}});
  catalog::SqlTable *dims = catalog_.GetTable(catalog_.CreateTable("bm_dims", kv_schema));
  catalog::SqlTable *facts = catalog_.GetTable(catalog_.CreateTable("bm_facts", kv_schema));
  {
    const auto init = dims->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    // Dimension key 1 appears twice, key 2 once.
    for (const auto &[k, p] : std::vector<std::pair<int64_t, int64_t>>{{1, 0}, {1, 0}, {2, 0}}) {
      ProjectedRow *row = init.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, k);
      workload::Set<int64_t>(row, 1, p);
      dims->Insert(txn, *row);
    }
    txn_manager_.Commit(txn);
  }
  {
    const auto init = facts->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    // Facts: key 1 payload 7 (joins twice), key 2 payload 8 (once), key 9
    // dangles.
    for (const auto &[k, p] : std::vector<std::pair<int64_t, int64_t>>{{1, 7}, {2, 8}, {9, 9}}) {
      ProjectedRow *row = init.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, k);
      workload::Set<int64_t>(row, 1, p);
      facts->Insert(txn, *row);
    }
    txn_manager_.Commit(txn);
  }
  gc_.FullGC();

  auto *txn = txn_manager_.BeginTransaction();
  op::PhysicalPlan plan;
  op::PipelineBuilder builder(&plan);
  builder.Scan(dims, {0, 1});
  op::HashJoinBuildOp *dim_build = builder.JoinBuild(0, op::PayloadSpec::Int64Column(1));
  // Pipeline 2: probe facts against dims, then BUILD from the probed stream.
  builder.Scan(facts, {0, 1}).JoinProbe(0, dim_build);
  op::HashJoinBuildOp *fact_build = builder.JoinBuild(0, op::PayloadSpec::Int64Column(1));
  plan.Run(txn, nullptr, nullptr);
  txn_manager_.Commit(txn);

  // Key 1 joined twice -> two entries with payload 7; key 2 once; key 9 none.
  EXPECT_EQ(fact_build->Table().NumEntries(), 3u);
  std::vector<uint64_t> key1_payloads;
  fact_build->Table().ForEachMatch(1, [&](uint64_t p) { key1_payloads.push_back(p); });
  EXPECT_EQ(key1_payloads, (std::vector<uint64_t>{7, 7}));
  std::vector<uint64_t> key9_payloads;
  fact_build->Table().ForEachMatch(9, [&](uint64_t p) { key9_payloads.push_back(p); });
  EXPECT_TRUE(key9_payloads.empty());
  gc_.FullGC();
}

/// TopKOp against a manual stable sort over a multi-block table dense with
/// ties: the (key DESC, date ASC) comparison collapses rows into large tie
/// classes, so the k boundary cuts through one — the result is only correct
/// if the scan-position tie-break holds exactly. Also k = 0, k > n, and
/// inline-vs-4-workers identity.
TEST_P(Q3TopKTest, TopKMatchesStableSortThroughTieClasses) {
  const catalog::Schema schema({{"id", catalog::TypeId::kBigInt},
                                {"key", catalog::TypeId::kDecimal},
                                {"date", catalog::TypeId::kDate}});
  catalog::SqlTable *table = catalog_.GetTable(catalog_.CreateTable("topk", schema));
  const auto init = table->FullInitializer();
  std::vector<byte> buffer(init.ProjectedRowSize() + 8);
  auto *txn = txn_manager_.BeginTransaction();
  int64_t rows = 0;
  // Only 10 distinct (key, date) pairs -> every class spans blocks.
  while (table->UnderlyingTable().NumBlocks() < 4) {
    ProjectedRow *row = init.InitializeRow(buffer.data());
    workload::Set<int64_t>(row, 0, rows);
    workload::Set<double>(row, 1, static_cast<double>(rows % 5) / 2.0);
    workload::Set<uint32_t>(row, 2, 9000 + static_cast<uint32_t>(rows % 2));
    table->Insert(txn, *row);
    rows++;
  }
  txn_manager_.Commit(txn);
  gc_.FullGC();

  // The oracle: rows in scan (insertion) order, stable-sorted by the keys —
  // stability IS the (ordinal, seq) tie-break.
  struct Expected {
    int64_t id;
    double key;
    uint32_t date;
  };
  std::vector<Expected> oracle;
  oracle.reserve(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; i++) {
    oracle.push_back({i, static_cast<double>(i % 5) / 2.0, 9000 + static_cast<uint32_t>(i % 2)});
  }
  std::stable_sort(oracle.begin(), oracle.end(), [](const Expected &a, const Expected &b) {
    if (a.key != b.key) return a.key > b.key;
    return a.date < b.date;
  });

  const auto run = [&](uint32_t k, common::WorkerPool *pool) {
    auto *run_txn = txn_manager_.BeginTransaction();
    op::PhysicalPlan plan;
    op::PipelineBuilder builder(&plan);
    builder.Scan(table, {0, 1, 2});
    op::TopKOp *topk = builder.TopK(
        k,
        {op::SortKey::OfExpr(op::Expr::Column(op::ColumnRef::Batch(1)), /*descending=*/true),
         op::SortKey::U32Column(2)},
        {op::OutputCol::Int64Column(0), op::OutputCol::OfExpr(op::Expr::Column(
                                            op::ColumnRef::Batch(1))),
         op::OutputCol::U32Column(2)});
    plan.Run(run_txn, pool, nullptr);
    txn_manager_.Commit(run_txn);
    return topk->Result();
  };

  const auto check = [&](const char *label) {
    common::WorkerPool pool(4);
    // k cutting mid-tie-class, k = 1, k just below n, k > n, and k = 0.
    for (const uint32_t k :
         {uint32_t{173}, uint32_t{1}, static_cast<uint32_t>(rows - 1),
          static_cast<uint32_t>(rows + 100), uint32_t{0}}) {
      const std::vector<op::TopKRow> inline_result = run(k, nullptr);
      const size_t expected_size = std::min<size_t>(k, static_cast<size_t>(rows));
      ASSERT_EQ(inline_result.size(), expected_size) << label << " k=" << k;
      for (size_t i = 0; i < expected_size; i++) {
        EXPECT_EQ(inline_result[i].cols[0].i64, oracle[i].id)
            << label << " k=" << k << " rank " << i;
        EXPECT_EQ(inline_result[i].cols[1].f64, oracle[i].key) << label << " k=" << k;
        EXPECT_EQ(inline_result[i].cols[2].i64, static_cast<int64_t>(oracle[i].date))
            << label << " k=" << k;
      }
      // Worker count must not change a single row or its order.
      const std::vector<op::TopKRow> parallel_result = run(k, &pool);
      ASSERT_EQ(parallel_result.size(), inline_result.size()) << label << " k=" << k;
      for (size_t i = 0; i < parallel_result.size(); i++) {
        EXPECT_EQ(parallel_result[i].cols[0].i64, inline_result[i].cols[0].i64)
            << label << " k=" << k << " rank " << i << ": 4 workers diverged from inline";
      }
    }
  };

  check("hot");
  Freeze(table);
  check("frozen");
  gc_.FullGC();
}

/// The fully hand-computed Q3 micro case: duplicate customer keys fan out,
/// dangling FKs at every hop drop rows, the date filters gate both sides,
/// revenue folds in lineitem insertion order — checked against literal
/// expected rows on all three engines, hot and frozen, at several limits.
TEST_P(Q3TopKTest, Q3HandComputedMicroCase) {
  customer_ = MakeCustomer("customer", {{1, "BUILDING"},
                                        {2, "AUTOMOBILE"},
                                        {3, "BUILDING"},
                                        {3, "BUILDING"},  // duplicate custkey
                                        {4, "BUILDING"}});
  orders_ = MakeOrders("orders", {{10, 1, 9000, 7},    // revenue 140
                                  {11, 2, 9000, 1},    // wrong segment
                                  {12, 3, 9100, 2},    // duplicate customer -> 2 rows
                                  {13, 99, 9100, 3},   // dangling custkey
                                  {14, 1, 9600, 4},    // fails o_orderdate < 9500
                                  {15, 4, 9100, 5}});  // no qualifying lineitems
  lineitem_ = MakeLineitem("lineitem", {{10, 100.0, 0.1, 9600},   // 90
                                        {10, 123.0, 0.0, 9400},   // fails l_shipdate > 9500
                                        {10, 50.0, 0.0, 9700},    // +50 -> 140
                                        {12, 200.0, 0.5, 9600},   // 100
                                        {15, 77.0, 0.0, 9000},    // fails the date filter
                                        {999, 10.0, 0.0, 9800}});  // dangling orderkey
  gc_.FullGC();

  const std::vector<q::Q3Row> expected = {
      {10, 100.0 * 0.9 + 50.0, 9000, 7},
      {12, 100.0, 9100, 2},
      {12, 100.0, 9100, 2},
  };

  const q::Tables tables{.lineitem = lineitem_, .orders = orders_, .customer = customer_};
  const auto check = [&](const char *label) {
    for (const uint32_t threads : {1u, 4u}) {
      QueryRunner runner(&txn_manager_, threads);
      for (const ExecMode mode : {ExecMode::kPlan, ExecMode::kScalar}) {
        EXPECT_TRUE(runner.Run(q::Query::kQ3, tables, mode).answer == q::Answer(expected))
            << label << " mode " << static_cast<int>(mode) << " at " << threads << " threads";
      }

      // Non-default limits go through the typed plan and oracle; one thread
      // runs the plan inline, as the runner does.
      common::WorkerPool workers(threads);
      common::WorkerPool *pool = threads > 1 ? &workers : nullptr;
      auto *txn = txn_manager_.BeginTransaction();
      q::Q3Params limited;
      limited.limit = 2;
      const std::vector<q::Q3Row> top2(expected.begin(), expected.begin() + 2);
      EXPECT_TRUE(q::RunQ3Parallel(customer_, orders_, lineitem_, txn, limited, pool) == top2)
          << label << " limit 2";
      EXPECT_TRUE(q::RunQ3Scalar(customer_, orders_, lineitem_, txn, limited) == top2)
          << label << " limit 2";

      q::Q3Params none;
      none.limit = 0;
      EXPECT_TRUE(q::RunQ3Parallel(customer_, orders_, lineitem_, txn, none, pool).empty())
          << label << " limit 0";
      EXPECT_TRUE(q::RunQ3Scalar(customer_, orders_, lineitem_, txn, none).empty())
          << label << " limit 0";
      txn_manager_.Commit(txn);
    }
  };

  check("hot");
  for (catalog::SqlTable *table : {customer_, orders_, lineitem_}) Freeze(table);
  check("frozen");
  gc_.FullGC();
}

/// Q3 with any empty input table is empty on every engine.
TEST_P(Q3TopKTest, Q3EmptyTablesYieldNothing) {
  catalog::SqlTable *no_customers =
      catalog_.GetTable(catalog_.CreateTable("customer_none", tpch::CustomerSchema()));
  catalog::SqlTable *no_orders =
      catalog_.GetTable(catalog_.CreateTable("orders_none", tpch::OrdersSchema()));
  catalog::SqlTable *no_lines =
      catalog_.GetTable(catalog_.CreateTable("lineitem_none", tpch::LineItemSchema()));
  catalog::SqlTable *customers = MakeCustomer("customer_some", {{1, "BUILDING"}});
  catalog::SqlTable *orders = MakeOrders("orders_some", {{10, 1, 9000, 0}});
  catalog::SqlTable *lines = MakeLineitem("lineitem_some", {{10, 100.0, 0.0, 9600}});
  gc_.FullGC();

  for (const uint32_t threads : {1u, 2u}) {
    QueryRunner runner(&txn_manager_, threads);
    const auto rows = [&](catalog::SqlTable *customer, catalog::SqlTable *order,
                          catalog::SqlTable *lineitem, ExecMode mode) {
      const q::Tables tables{.lineitem = lineitem, .orders = order, .customer = customer};
      return std::get<std::vector<q::Q3Row>>(runner.Run(q::Query::kQ3, tables, mode).answer);
    };
    for (const ExecMode mode : {ExecMode::kPlan, ExecMode::kScalar}) {
      EXPECT_TRUE(rows(no_customers, orders, lines, mode).empty());
      EXPECT_TRUE(rows(customers, no_orders, lines, mode).empty());
      EXPECT_TRUE(rows(customers, orders, no_lines, mode).empty());
      // Sanity: the non-empty combination does produce the row.
      EXPECT_EQ(rows(customers, orders, lines, mode).size(), 1u);
    }
  }
  gc_.FullGC();
}

/// The headline matrix: generated CUSTOMER/ORDERS/LINEITEM, the Q3 plan vs
/// the scalar oracle at 1/2/4/8 workers over hot, ~50% frozen, and fully
/// frozen tables — bit-exact everywhere, including the LIMIT boundary order.
TEST_P(Q3TopKTest, Q3MatchesScalarAcrossFreezeStatesAndThreadCounts) {
  GenerateQ3Tables(RowsForBlocks(2));
  ASSERT_GT(lineitem_->UnderlyingTable().NumBlocks(), 2u);

  // The generated workload must actually produce a full top list, or the
  // matrix proves nothing.
  {
    auto *txn = txn_manager_.BeginTransaction();
    const auto rows = q::RunQ3Scalar(customer_, orders_, lineitem_, txn, {}, nullptr);
    txn_manager_.Commit(txn);
    ASSERT_EQ(rows.size(), q::Q3Params{}.limit)
        << "generator knobs drifted: Q3 no longer fills its LIMIT";
  }

  ScanStats stats;
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    ExpectQ3Agrees(threads, &stats);
    EXPECT_EQ(stats.frozen_blocks, 0u);
    EXPECT_GT(stats.hot_blocks, 0u);
  }

  for (catalog::SqlTable *table : {customer_, orders_, lineitem_}) {
    storage::DataTable &dt = table->UnderlyingTable();
    const std::vector<storage::RawBlock *> blocks = dt.Blocks();
    for (size_t i = 0; i < blocks.size() / 2; i++) {
      transformer_.ProcessGroup(&dt, {blocks[i]}, nullptr);
    }
  }
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    ExpectQ3Agrees(threads, &stats);
    EXPECT_GT(stats.hot_blocks, 0u);
  }

  for (catalog::SqlTable *table : {customer_, orders_, lineitem_}) Freeze(table);
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    ExpectQ3Agrees(threads, &stats);
    EXPECT_GT(stats.frozen_blocks, 0u);
    EXPECT_EQ(stats.hot_blocks, 0u);
  }
  gc_.FullGC();
}

INSTANTIATE_TEST_SUITE_P(Modes, Q3TopKTest,
                         ::testing::Values(GatherMode::kVarlenGather,
                                           GatherMode::kDictionaryCompression),
                         [](const auto &info) {
                           return info.param == GatherMode::kVarlenGather ? "Gather"
                                                                          : "Dictionary";
                         });

}  // namespace mainline
