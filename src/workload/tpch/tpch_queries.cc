#include "workload/tpch/tpch_queries.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <variant>

#include "common/macros.h"
#include "execution/operators/aggregate_op.h"
#include "execution/operators/expr.h"
#include "execution/operators/filter_op.h"
#include "execution/operators/hash_join_op.h"
#include "execution/operators/pipeline.h"
#include "execution/operators/topk_op.h"
#include "storage/data_table.h"
#include "storage/projected_row.h"
#include "storage/raw_block.h"
#include "workload/row_util.h"
#include "workload/tpch/customer.h"
#include "workload/tpch/lineitem.h"
#include "workload/tpch/orders.h"
#include "workload/tpch/part.h"

namespace mainline::workload::tpch {

using namespace mainline::execution;  // the operator vocabulary the plans compose

namespace {

using workload::tpch::C_CUSTKEY;
using workload::tpch::C_MKTSEGMENT;
using workload::tpch::L_COMMITDATE;
using workload::tpch::L_DISCOUNT;
using workload::tpch::L_EXTENDEDPRICE;
using workload::tpch::L_LINESTATUS;
using workload::tpch::L_ORDERKEY;
using workload::tpch::L_PARTKEY;
using workload::tpch::L_QUANTITY;
using workload::tpch::L_RECEIPTDATE;
using workload::tpch::L_RETURNFLAG;
using workload::tpch::L_SHIPDATE;
using workload::tpch::L_SHIPMODE;
using workload::tpch::L_TAX;
using workload::tpch::O_CUSTKEY;
using workload::tpch::O_ORDERDATE;
using workload::tpch::O_ORDERKEY;
using workload::tpch::O_ORDERPRIORITY;
using workload::tpch::O_SHIPPRIORITY;
using workload::tpch::P_PARTKEY;
using workload::tpch::P_TYPE;

const std::vector<uint16_t> kQ1Projection = {L_QUANTITY,   L_EXTENDEDPRICE, L_DISCOUNT,
                                             L_TAX,        L_RETURNFLAG,    L_LINESTATUS,
                                             L_SHIPDATE};
const std::vector<uint16_t> kQ6Projection = {L_QUANTITY, L_EXTENDEDPRICE, L_DISCOUNT,
                                             L_SHIPDATE};
const std::vector<uint16_t> kQ12OrdersProjection = {O_ORDERKEY, O_ORDERPRIORITY};
const std::vector<uint16_t> kQ12LineitemProjection = {L_ORDERKEY, L_SHIPDATE, L_COMMITDATE,
                                                      L_RECEIPTDATE, L_SHIPMODE};
const std::vector<uint16_t> kQ14PartProjection = {P_PARTKEY, P_TYPE};
const std::vector<uint16_t> kQ14LineitemProjection = {L_PARTKEY, L_EXTENDEDPRICE, L_DISCOUNT,
                                                      L_SHIPDATE};
const std::vector<uint16_t> kQ3CustomerProjection = {C_CUSTKEY, C_MKTSEGMENT};
const std::vector<uint16_t> kQ3OrdersProjection = {O_ORDERKEY, O_CUSTKEY, O_ORDERDATE,
                                                   O_SHIPPRIORITY};
const std::vector<uint16_t> kQ3LineitemProjection = {L_ORDERKEY, L_EXTENDEDPRICE, L_DISCOUNT,
                                                     L_SHIPDATE};

bool IsHighPriority(std::string_view priority) {
  return priority == "1-URGENT" || priority == "2-HIGH";
}

// Finalize helpers shared by the plan compositions and the scalar oracles,
// so the result-shaping arithmetic (Q1's average divisions, Q14's ratio) and
// the output ordering stay identical by construction — an engine can only
// diverge in accumulation, which the per-block merge already pins.

Q1Row MakeQ1Row(std::string returnflag, std::string linestatus, double sum_qty,
                double sum_base_price, double sum_disc_price, double sum_charge,
                double sum_discount, uint64_t count) {
  Q1Row row;
  row.returnflag = std::move(returnflag);
  row.linestatus = std::move(linestatus);
  row.sum_qty = sum_qty;
  row.sum_base_price = sum_base_price;
  row.sum_disc_price = sum_disc_price;
  row.sum_charge = sum_charge;
  row.avg_qty = sum_qty / static_cast<double>(count);
  row.avg_price = sum_base_price / static_cast<double>(count);
  row.avg_disc = sum_discount / static_cast<double>(count);
  row.count = count;
  return row;
}

void SortQ1Rows(std::vector<Q1Row> *rows) {
  std::sort(rows->begin(), rows->end(), [](const Q1Row &a, const Q1Row &b) {
    if (a.returnflag != b.returnflag) return a.returnflag < b.returnflag;
    return a.linestatus < b.linestatus;
  });
}

void SortQ12Rows(std::vector<Q12Row> *rows) {
  std::sort(rows->begin(), rows->end(),
            [](const Q12Row &a, const Q12Row &b) { return a.shipmode < b.shipmode; });
}

double FinalizeQ14(double total_revenue, double promo_revenue) {
  return total_revenue == 0 ? 0.0 : 100.0 * promo_revenue / total_revenue;
}

/// Run `plan` inline (null pool) or morsel-parallel, recording its
/// per-operator profile into `profile` when one is asked for.
void Execute(op::PhysicalPlan *plan, transaction::TransactionContext *txn,
             common::WorkerPool *pool, ScanStats *stats, op::PlanProfile *profile) {
  if (profile != nullptr) plan->SetProfiling(true);
  plan->Run(txn, pool, stats);
  if (profile != nullptr) *profile = plan->Profile();
}

}  // namespace

// ---------------------------------------------------------------------------
// Plan compositions. Each query is wired from the operator building blocks;
// a null pool runs the plan inline, a pool runs every pipeline
// morsel-parallel. The per-block-partial merge inside AggregateOp keeps the
// result identical either way (see the header).
// ---------------------------------------------------------------------------

std::vector<Q1Row> RunQ1Parallel(catalog::SqlTable *table,
                                 transaction::TransactionContext *txn, const Q1Params &params,
                                 common::WorkerPool *pool, ScanStats *stats,
                                 op::PlanProfile *profile) {
  const uint16_t qty = ProjectionIndexOf(kQ1Projection, L_QUANTITY);
  const uint16_t price = ProjectionIndexOf(kQ1Projection, L_EXTENDEDPRICE);
  const uint16_t disc = ProjectionIndexOf(kQ1Projection, L_DISCOUNT);
  const uint16_t tax = ProjectionIndexOf(kQ1Projection, L_TAX);
  const uint16_t flag = ProjectionIndexOf(kQ1Projection, L_RETURNFLAG);
  const uint16_t status = ProjectionIndexOf(kQ1Projection, L_LINESTATUS);
  const uint16_t ship = ProjectionIndexOf(kQ1Projection, L_SHIPDATE);

  op::PhysicalPlan plan;
  op::PipelineBuilder builder(&plan);
  builder.Scan(table, kQ1Projection)
      .Filter({op::Predicate::U32AtMost(ship, params.shipdate_max)});
  op::AggregateOp *agg = builder.Aggregate(
      {flag, status},
      {op::AggSpec::Sum(op::Expr::Column(op::ColumnRef::Batch(qty))),
       op::AggSpec::Sum(op::Expr::Column(op::ColumnRef::Batch(price))),
       op::AggSpec::Sum(
           op::Expr::Discounted(op::ColumnRef::Batch(price), op::ColumnRef::Batch(disc))),
       op::AggSpec::Sum(op::Expr::DiscountedTaxed(
           op::ColumnRef::Batch(price), op::ColumnRef::Batch(disc), op::ColumnRef::Batch(tax))),
       op::AggSpec::Sum(op::Expr::Column(op::ColumnRef::Batch(disc))),
       op::AggSpec::Count()});
  Execute(&plan, txn, pool, stats, profile);

  std::vector<Q1Row> rows;
  rows.reserve(agg->Result().size());
  for (const op::ResultRow &group : agg->Result()) {
    rows.push_back(MakeQ1Row(group.keys[0], group.keys[1], group.values[0].f64,
                             group.values[1].f64, group.values[2].f64, group.values[3].f64,
                             group.values[4].f64, group.values[5].u64));
  }
  SortQ1Rows(&rows);  // already key-sorted by AggregateOp; kept for one shared order
  return rows;
}

double RunQ6Parallel(catalog::SqlTable *table, transaction::TransactionContext *txn,
                     const Q6Params &params, common::WorkerPool *pool, ScanStats *stats,
                     op::PlanProfile *profile) {
  const uint16_t qty = ProjectionIndexOf(kQ6Projection, L_QUANTITY);
  const uint16_t price = ProjectionIndexOf(kQ6Projection, L_EXTENDEDPRICE);
  const uint16_t disc = ProjectionIndexOf(kQ6Projection, L_DISCOUNT);
  const uint16_t ship = ProjectionIndexOf(kQ6Projection, L_SHIPDATE);

  op::PhysicalPlan plan;
  op::PipelineBuilder builder(&plan);
  builder.Scan(table, kQ6Projection)
      .Filter({op::Predicate::U32InRange(ship, params.shipdate_min, params.shipdate_max),
               op::Predicate::F64InRange(disc, params.discount_min, params.discount_max),
               op::Predicate::F64Below(qty, params.quantity_max)});
  op::AggregateOp *agg = builder.Aggregate(
      {}, {op::AggSpec::Sum(
              op::Expr::Mul(op::ColumnRef::Batch(price), op::ColumnRef::Batch(disc)))});
  Execute(&plan, txn, pool, stats, profile);
  return agg->Result().front().values[0].f64;
}

std::vector<Q12Row> RunQ12Parallel(catalog::SqlTable *orders, catalog::SqlTable *lineitem,
                                   transaction::TransactionContext *txn,
                                   const Q12Params &params, common::WorkerPool *pool,
                                   ScanStats *stats, op::PlanProfile *profile) {
  const uint16_t okey = ProjectionIndexOf(kQ12OrdersProjection, O_ORDERKEY);
  const uint16_t prio = ProjectionIndexOf(kQ12OrdersProjection, O_ORDERPRIORITY);
  const uint16_t lkey = ProjectionIndexOf(kQ12LineitemProjection, L_ORDERKEY);
  const uint16_t ship = ProjectionIndexOf(kQ12LineitemProjection, L_SHIPDATE);
  const uint16_t commit = ProjectionIndexOf(kQ12LineitemProjection, L_COMMITDATE);
  const uint16_t receipt = ProjectionIndexOf(kQ12LineitemProjection, L_RECEIPTDATE);
  const uint16_t mode = ProjectionIndexOf(kQ12LineitemProjection, L_SHIPMODE);

  const std::vector<op::Predicate> line_filters = {
      op::Predicate::U32InRange(receipt, params.receiptdate_min, params.receiptdate_max),
      op::Predicate::U32LessThanColumn(commit, receipt),
      op::Predicate::U32LessThanColumn(ship, commit),
      op::Predicate::StringIn(mode, {params.shipmode_a, params.shipmode_b})};

  // Semi-join reduction: only a few percent of lineitems qualify, so the
  // ORDERS build keeps just the orders one of them can reach. It holds
  // exactly the entries a probe can match, in the same block order, so every
  // probe sees the same matches as against a build of all of ORDERS.
  op::PhysicalPlan plan;
  op::PipelineBuilder builder(&plan);
  builder.Scan(lineitem, kQ12LineitemProjection).Filter(line_filters);
  op::HashJoinBuildOp *keys = builder.JoinBuild(lkey, op::PayloadSpec::Int64Column(lkey));
  builder.Scan(orders, kQ12OrdersProjection).JoinProbe(okey, keys, op::ProbeEmit::kSemi);
  op::HashJoinBuildOp *build =
      builder.JoinBuild(okey, op::PayloadSpec::StringIn(prio, {"1-URGENT", "2-HIGH"}));
  builder.Scan(lineitem, kQ12LineitemProjection).Filter(line_filters).JoinProbe(lkey, build);
  op::AggregateOp *agg =
      builder.Aggregate({mode}, {op::AggSpec::SumPayload(), op::AggSpec::Count()});
  Execute(&plan, txn, pool, stats, profile);

  std::vector<Q12Row> rows;
  rows.reserve(agg->Result().size());
  for (const op::ResultRow &group : agg->Result()) {
    Q12Row row;
    row.shipmode = group.keys[0];
    row.high_line_count = group.values[0].u64;
    row.low_line_count = group.values[1].u64 - group.values[0].u64;
    rows.push_back(std::move(row));
  }
  SortQ12Rows(&rows);  // already key-sorted by AggregateOp; kept for one shared order
  return rows;
}

double RunQ14Parallel(catalog::SqlTable *lineitem, catalog::SqlTable *part,
                      transaction::TransactionContext *txn, const Q14Params &params,
                      common::WorkerPool *pool, ScanStats *stats, op::PlanProfile *profile) {
  const uint16_t pkey = ProjectionIndexOf(kQ14PartProjection, P_PARTKEY);
  const uint16_t ptype = ProjectionIndexOf(kQ14PartProjection, P_TYPE);
  const uint16_t lkey = ProjectionIndexOf(kQ14LineitemProjection, L_PARTKEY);
  const uint16_t price = ProjectionIndexOf(kQ14LineitemProjection, L_EXTENDEDPRICE);
  const uint16_t disc = ProjectionIndexOf(kQ14LineitemProjection, L_DISCOUNT);
  const uint16_t ship = ProjectionIndexOf(kQ14LineitemProjection, L_SHIPDATE);

  op::PhysicalPlan plan;
  op::PipelineBuilder builder(&plan);
  builder.Scan(part, kQ14PartProjection);
  op::HashJoinBuildOp *build =
      builder.JoinBuild(pkey, op::PayloadSpec::StringPrefix(ptype, params.promo_prefix));
  // Project the discounted price once; both sums read the shared buffer.
  builder.Scan(lineitem, kQ14LineitemProjection)
      .Filter({op::Predicate::U32InRange(ship, params.shipdate_min, params.shipdate_max)})
      .Project({op::Expr::Discounted(op::ColumnRef::Batch(price), op::ColumnRef::Batch(disc))})
      .JoinProbe(lkey, build);
  op::AggregateOp *agg = builder.Aggregate(
      {}, {op::AggSpec::Sum(op::Expr::Column(op::ColumnRef::Computed(0))),
           op::AggSpec::Sum(op::Expr::Column(op::ColumnRef::Computed(0)),
                            /*payload_gate=*/true)});
  Execute(&plan, txn, pool, stats, profile);

  return FinalizeQ14(agg->Result().front().values[0].f64,
                     agg->Result().front().values[1].f64);
}

std::vector<Q3Row> RunQ3Parallel(catalog::SqlTable *customer, catalog::SqlTable *orders,
                                 catalog::SqlTable *lineitem,
                                 transaction::TransactionContext *txn, const Q3Params &params,
                                 common::WorkerPool *pool, ScanStats *stats,
                                 op::PlanProfile *profile) {
  const uint16_t ckey = ProjectionIndexOf(kQ3CustomerProjection, C_CUSTKEY);
  const uint16_t cseg = ProjectionIndexOf(kQ3CustomerProjection, C_MKTSEGMENT);
  const uint16_t lkey = ProjectionIndexOf(kQ3LineitemProjection, L_ORDERKEY);
  const uint16_t price = ProjectionIndexOf(kQ3LineitemProjection, L_EXTENDEDPRICE);
  const uint16_t disc = ProjectionIndexOf(kQ3LineitemProjection, L_DISCOUNT);
  const uint16_t ship = ProjectionIndexOf(kQ3LineitemProjection, L_SHIPDATE);
  const uint16_t okey = ProjectionIndexOf(kQ3OrdersProjection, O_ORDERKEY);
  const uint16_t ocust = ProjectionIndexOf(kQ3OrdersProjection, O_CUSTKEY);
  const uint16_t odate = ProjectionIndexOf(kQ3OrdersProjection, O_ORDERDATE);
  const uint16_t oprio = ProjectionIndexOf(kQ3OrdersProjection, O_SHIPPRIORITY);

  op::PhysicalPlan plan;
  op::PipelineBuilder builder(&plan);
  builder.Scan(customer, kQ3CustomerProjection)
      .Filter({op::Predicate::StringIn(cseg, {params.segment})});
  op::HashJoinBuildOp *cust_build =
      builder.JoinBuild(ckey, op::PayloadSpec::Int64Column(ckey));
  builder.Scan(lineitem, kQ3LineitemProjection)
      .Filter({op::Predicate::U32InRange(ship, params.date + 1,
                                         std::numeric_limits<uint32_t>::max())})
      .Project(
          {op::Expr::Discounted(op::ColumnRef::Batch(price), op::ColumnRef::Batch(disc))});
  op::HashJoinBuildOp *line_build = builder.JoinBuild(lkey, op::PayloadSpec::F64Computed(0));
  // The chained probes: each orders row fans out per matching customer, then
  // the re-probe folds its lineitem revenues into one double per match.
  builder.Scan(orders, kQ3OrdersProjection)
      .Filter({op::Predicate::U32InRange(odate, 0, params.date)})
      .JoinProbe(ocust, cust_build)
      .JoinProbe(okey, line_build, op::ProbeEmit::kSumPayloadF64);
  op::TopKOp *topk = builder.TopK(
      params.limit,
      {op::SortKey::MatchPayloadF64(/*descending=*/true), op::SortKey::U32Column(odate)},
      {op::OutputCol::Int64Column(okey), op::OutputCol::MatchPayloadF64(),
       op::OutputCol::U32Column(odate), op::OutputCol::Int32Column(oprio)});
  Execute(&plan, txn, pool, stats, profile);

  std::vector<Q3Row> rows;
  rows.reserve(topk->Result().size());
  for (const op::TopKRow &result : topk->Result()) {
    Q3Row row;
    row.orderkey = result.cols[0].i64;
    row.revenue = result.cols[1].f64;
    row.orderdate = static_cast<uint32_t>(result.cols[2].i64);
    row.shippriority = static_cast<int32_t>(result.cols[3].i64);
    rows.push_back(row);
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Scalar tuple-at-a-time references — the bit-exact oracles. They accumulate
// the same per-block partials in the same order as the plans, through the
// classic one-Select-per-slot iterator model.
// ---------------------------------------------------------------------------

namespace {

/// Drive `visit(row)` over every tuple visible to `txn`, one
/// DataTable::Select at a time — the classic iterator-model baseline. The
/// projection must be sorted ascending; `visit` receives ProjectedRow
/// indices in the same order. `block_done()` fires after the last slot of
/// each block, so callers can fold per-block partials in block order —
/// mirroring the pipeline engines' batch boundaries exactly.
template <typename Visit, typename BlockDone>
void ScalarScan(catalog::SqlTable *table, transaction::TransactionContext *txn,
                const std::vector<uint16_t> &projection, ScanStats *stats, Visit visit,
                BlockDone block_done) {
  const storage::ProjectedRowInitializer initializer =
      table->InitializerForColumns(projection);
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  uint64_t rows = 0;
  storage::RawBlock *current = nullptr;
  for (storage::DataTable::SlotIterator it = table->begin(); !it.Done(); ++it) {
    storage::RawBlock *block = it.CurrentBlock();
    if (block != current) {
      if (current != nullptr) block_done();
      current = block;
    }
    storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
    if (!table->Select(txn, *it, row)) continue;
    rows++;
    visit(*row);
  }
  if (current != nullptr) block_done();
  if (stats != nullptr) stats->rows += rows;
}

/// Running aggregates of one scalar-Q1 group, per-block partial or merged
/// global — the same accumulator shape AggregateOp keeps for the plan.
struct Q1Acc {
  std::string returnflag;
  std::string linestatus;
  double sum_qty = 0;
  double sum_base_price = 0;
  double sum_disc_price = 0;
  double sum_charge = 0;
  double sum_discount = 0;
  uint64_t count = 0;
};

uint32_t FindOrAddQ1Group(std::vector<Q1Acc> *groups, std::string_view flag,
                          std::string_view status) {
  for (uint32_t g = 0; g < groups->size(); g++) {
    if ((*groups)[g].returnflag == flag && (*groups)[g].linestatus == status) return g;
  }
  Q1Acc acc;
  acc.returnflag = std::string(flag);
  acc.linestatus = std::string(status);
  groups->push_back(std::move(acc));
  return static_cast<uint32_t>(groups->size() - 1);
}

}  // namespace

std::vector<Q1Row> RunQ1Scalar(catalog::SqlTable *table, transaction::TransactionContext *txn,
                               const Q1Params &params, ScanStats *stats) {
  // Projection indices follow the sorted column order, same as the scanner.
  const uint16_t p_qty = 0, p_price = 1, p_disc = 2, p_tax = 3, p_flag = 4, p_status = 5,
                 p_ship = 6;
  std::vector<Q1Acc> groups;
  std::vector<Q1Acc> partial;
  ScalarScan(
      table, txn, kQ1Projection, stats,
      [&](const storage::ProjectedRow &row) {
        if (workload::Get<uint32_t>(row, p_ship) > params.shipdate_max) return;
        const uint32_t g = FindOrAddQ1Group(&partial, workload::GetVarchar(row, p_flag),
                                            workload::GetVarchar(row, p_status));
        Q1Acc *acc = &partial[g];
        const double qty = workload::Get<double>(row, p_qty);
        const double price = workload::Get<double>(row, p_price);
        const double disc = workload::Get<double>(row, p_disc);
        const double tax = workload::Get<double>(row, p_tax);
        acc->sum_qty += qty;
        acc->sum_base_price += price;
        const double disc_price = price * (1.0 - disc);
        acc->sum_disc_price += disc_price;
        acc->sum_charge += disc_price * (1.0 + tax);
        acc->sum_discount += disc;
        acc->count++;
      },
      [&] {
        // Merge the block's partial in discovery order — ONE addition per
        // aggregate per (block, group), the canonical reduction shape.
        for (const Q1Acc &acc : partial) {
          Q1Acc *dst = &groups[FindOrAddQ1Group(&groups, acc.returnflag, acc.linestatus)];
          dst->sum_qty += acc.sum_qty;
          dst->sum_base_price += acc.sum_base_price;
          dst->sum_disc_price += acc.sum_disc_price;
          dst->sum_charge += acc.sum_charge;
          dst->sum_discount += acc.sum_discount;
          dst->count += acc.count;
        }
        partial.clear();
      });

  std::vector<Q1Row> rows;
  rows.reserve(groups.size());
  for (Q1Acc &acc : groups) {
    rows.push_back(MakeQ1Row(std::move(acc.returnflag), std::move(acc.linestatus),
                             acc.sum_qty, acc.sum_base_price, acc.sum_disc_price,
                             acc.sum_charge, acc.sum_discount, acc.count));
  }
  SortQ1Rows(&rows);
  return rows;
}

double RunQ6Scalar(catalog::SqlTable *table, transaction::TransactionContext *txn,
                   const Q6Params &params, ScanStats *stats) {
  const uint16_t p_qty = 0, p_price = 1, p_disc = 2, p_ship = 3;
  double revenue = 0;
  double block_revenue = 0;
  uint64_t block_selected = 0;
  ScalarScan(
      table, txn, kQ6Projection, stats,
      [&](const storage::ProjectedRow &row) {
        const uint32_t ship = workload::Get<uint32_t>(row, p_ship);
        if (ship < params.shipdate_min || ship >= params.shipdate_max) return;
        const double disc = workload::Get<double>(row, p_disc);
        if (disc < params.discount_min || disc > params.discount_max) return;
        if (workload::Get<double>(row, p_qty) >= params.quantity_max) return;
        block_selected++;
        block_revenue += workload::Get<double>(row, p_price) * disc;
      },
      [&] {
        if (block_selected != 0) revenue += block_revenue;
        block_revenue = 0;
        block_selected = 0;
      });
  return revenue;
}

namespace {

/// Running counts of one scalar-Q12 group (a ship mode).
struct Q12Acc {
  std::string shipmode;
  uint64_t high = 0;
  uint64_t low = 0;
};

uint32_t FindOrAddQ12Group(std::vector<Q12Acc> *groups, std::string_view mode) {
  for (uint32_t g = 0; g < groups->size(); g++) {
    if ((*groups)[g].shipmode == mode) return g;
  }
  Q12Acc acc;
  acc.shipmode = std::string(mode);
  groups->push_back(std::move(acc));
  return static_cast<uint32_t>(groups->size() - 1);
}

}  // namespace

std::vector<Q12Row> RunQ12Scalar(catalog::SqlTable *orders, catalog::SqlTable *lineitem,
                                 transaction::TransactionContext *txn, const Q12Params &params,
                                 ScanStats *stats) {
  // Build: one Select per ORDERS slot, in scan order.
  std::unordered_multimap<int64_t, uint64_t> ht;
  const uint16_t p_okey = 0, p_prio = 1;
  ScalarScan(
      orders, txn, kQ12OrdersProjection, stats,
      [&](const storage::ProjectedRow &row) {
        ht.emplace(workload::Get<int64_t>(row, p_okey),
                   IsHighPriority(workload::GetVarchar(row, p_prio)) ? 1 : 0);
      },
      [] {});

  // Probe: row predicates in the same order as the plan's filters.
  const uint16_t p_lkey = 0, p_ship = 1, p_commit = 2, p_receipt = 3, p_mode = 4;
  std::vector<Q12Acc> groups;
  std::vector<Q12Acc> partial;
  ScalarScan(
      lineitem, txn, kQ12LineitemProjection, stats,
      [&](const storage::ProjectedRow &row) {
        const uint32_t receipt = workload::Get<uint32_t>(row, p_receipt);
        if (receipt < params.receiptdate_min || receipt >= params.receiptdate_max) return;
        const uint32_t commit = workload::Get<uint32_t>(row, p_commit);
        if (commit >= receipt) return;
        if (workload::Get<uint32_t>(row, p_ship) >= commit) return;
        const std::string_view mode = workload::GetVarchar(row, p_mode);
        if (mode != params.shipmode_a && mode != params.shipmode_b) return;
        // analyze-waive(determinism): equal_range walk over the build-side
        // multimap folds into commutative integer counts (high/low line
        // tallies), so bucket iteration order cannot reach the result.
        const auto [begin, end] = ht.equal_range(workload::Get<int64_t>(row, p_lkey));
        if (begin == end) return;
        Q12Acc *acc = &partial[FindOrAddQ12Group(&partial, mode)];
        for (auto it = begin; it != end; ++it) {
          acc->high += it->second;
          acc->low += 1 - it->second;
        }
      },
      [&] {
        for (const Q12Acc &acc : partial) {
          Q12Acc *dst = &groups[FindOrAddQ12Group(&groups, acc.shipmode)];
          dst->high += acc.high;
          dst->low += acc.low;
        }
        partial.clear();
      });

  std::vector<Q12Row> rows;
  rows.reserve(groups.size());
  for (Q12Acc &acc : groups) {
    Q12Row row;
    row.shipmode = std::move(acc.shipmode);
    row.high_line_count = acc.high;
    row.low_line_count = acc.low;
    rows.push_back(std::move(row));
  }
  SortQ12Rows(&rows);
  return rows;
}

double RunQ14Scalar(catalog::SqlTable *lineitem, catalog::SqlTable *part,
                    transaction::TransactionContext *txn, const Q14Params &params,
                    ScanStats *stats) {
  // Build: payload is the "is PROMO part" bit, as in the plan.
  std::unordered_multimap<int64_t, uint64_t> ht;
  const uint16_t p_pkey = 0, p_type = 1;
  ScalarScan(
      part, txn, kQ14PartProjection, stats,
      [&](const storage::ProjectedRow &row) {
        ht.emplace(workload::Get<int64_t>(row, p_pkey),
                   workload::GetVarchar(row, p_type).starts_with(params.promo_prefix) ? 1 : 0);
      },
      [] {});

  // Probe: same accumulators, same per-match order as the plan — total
  // revenue unconditionally, promo revenue gated on the payload bit.
  const uint16_t p_lkey = 0, p_price = 1, p_disc = 2, p_ship = 3;
  double total = 0, promo = 0;
  double block_total = 0, block_promo = 0;
  uint64_t block_matched = 0;
  ScalarScan(
      lineitem, txn, kQ14LineitemProjection, stats,
      [&](const storage::ProjectedRow &row) {
        const uint32_t ship = workload::Get<uint32_t>(row, p_ship);
        if (ship < params.shipdate_min || ship >= params.shipdate_max) return;
        const double disc_price = workload::Get<double>(row, p_price) *
                                  (1.0 - workload::Get<double>(row, p_disc));
        // analyze-waive(determinism): the equal_range walk accumulates
        // commutative sums (block totals and a match count); iteration order
        // over the bucket cannot change the folded result.
        const auto [begin, end] = ht.equal_range(workload::Get<int64_t>(row, p_lkey));
        for (auto it = begin; it != end; ++it) {
          block_matched++;
          block_total += disc_price;
          if (it->second != 0) block_promo += disc_price;
        }
      },
      [&] {
        if (block_matched != 0) {
          total += block_total;
          promo += block_promo;
        }
        block_total = 0;
        block_promo = 0;
        block_matched = 0;
      });
  return FinalizeQ14(total, promo);
}

std::vector<Q3Row> RunQ3Scalar(catalog::SqlTable *customer, catalog::SqlTable *orders,
                               catalog::SqlTable *lineitem,
                               transaction::TransactionContext *txn, const Q3Params &params,
                               ScanStats *stats) {
  // Build 1: how many customers of the segment carry each key — the plan's
  // per-match fan-out, counted (the matches are indistinguishable, so the
  // multiplicity is all that survives).
  std::unordered_map<int64_t, uint64_t> segment_customers;
  const uint16_t p_ckey = 0, p_cseg = 1;
  ScalarScan(
      customer, txn, kQ3CustomerProjection, stats,
      [&](const storage::ProjectedRow &row) {
        if (workload::GetVarchar(row, p_cseg) != params.segment) return;
        segment_customers[workload::Get<int64_t>(row, p_ckey)]++;
      },
      [] {});

  // Build 2: each order's qualifying revenues, appended in lineitem scan
  // order — the insertion order the plan's hash table replays, so folding
  // the vector left-to-right reproduces the probe's sum bit-exactly.
  std::unordered_map<int64_t, std::vector<double>> revenues;
  const uint16_t p_lkey = 0, p_price = 1, p_disc = 2, p_ship = 3;
  ScalarScan(
      lineitem, txn, kQ3LineitemProjection, stats,
      [&](const storage::ProjectedRow &row) {
        if (workload::Get<uint32_t>(row, p_ship) <= params.date) return;
        revenues[workload::Get<int64_t>(row, p_lkey)].push_back(
            workload::Get<double>(row, p_price) *
            (1.0 - workload::Get<double>(row, p_disc)));
      },
      [] {});

  // Probe: one candidate per (order, matching customer), stamped with its
  // scan position — (block ordinal, within-block emit sequence) — the same
  // tie-break the Top-K sink ends its comparison with.
  struct Candidate {
    double revenue = 0;
    uint64_t ordinal = 0;
    uint64_t seq = 0;
    Q3Row row;
  };
  std::vector<Candidate> candidates;
  const uint16_t p_okey = 0, p_ocust = 1, p_odate = 2, p_oprio = 3;
  uint64_t ordinal = 0;
  uint64_t seq = 0;
  ScalarScan(
      orders, txn, kQ3OrdersProjection, stats,
      [&](const storage::ProjectedRow &row) {
        const uint32_t orderdate = workload::Get<uint32_t>(row, p_odate);
        if (orderdate >= params.date) return;
        const auto customers = segment_customers.find(workload::Get<int64_t>(row, p_ocust));
        if (customers == segment_customers.end()) return;
        const auto lines = revenues.find(workload::Get<int64_t>(row, p_okey));
        if (lines == revenues.end()) return;
        double revenue = 0;
        for (const double line : lines->second) revenue += line;
        Candidate candidate;
        candidate.revenue = revenue;
        candidate.ordinal = ordinal;
        candidate.row.orderkey = workload::Get<int64_t>(row, p_okey);
        candidate.row.revenue = revenue;
        candidate.row.orderdate = orderdate;
        candidate.row.shippriority = workload::Get<int32_t>(row, p_oprio);
        for (uint64_t i = 0; i < customers->second; i++) {
          candidate.seq = seq++;
          candidates.push_back(candidate);
        }
      },
      [&] {
        ordinal++;
        seq = 0;
      });

  std::sort(candidates.begin(), candidates.end(), [](const Candidate &a, const Candidate &b) {
    if (a.revenue != b.revenue) return a.revenue > b.revenue;
    if (a.row.orderdate != b.row.orderdate) return a.row.orderdate < b.row.orderdate;
    if (a.ordinal != b.ordinal) return a.ordinal < b.ordinal;
    return a.seq < b.seq;
  });
  if (candidates.size() > params.limit) candidates.resize(params.limit);

  std::vector<Q3Row> rows;
  rows.reserve(candidates.size());
  for (const Candidate &candidate : candidates) rows.push_back(candidate.row);
  return rows;
}

// ---------------------------------------------------------------------------
// The query table: one dispatch over the typed functions above.
// ---------------------------------------------------------------------------

const char *QueryName(Query query) {
  static constexpr const char *kNames[] = {"q1", "q3", "q6", "q12", "q14"};
  return kNames[static_cast<size_t>(query)];
}

bool IsEmpty(const Answer &answer) {
  return std::visit(
      [](const auto &value) {
        if constexpr (std::is_same_v<std::decay_t<decltype(value)>, double>) {
          return value == 0;
        } else {
          return value.empty();
        }
      },
      answer);
}

Answer RunPlan(Query query, const Tables &tables, transaction::TransactionContext *txn,
               common::WorkerPool *pool, ScanStats *stats, op::PlanProfile *profile) {
  switch (query) {
    case Query::kQ1:
      return RunQ1Parallel(tables.lineitem, txn, {}, pool, stats, profile);
    case Query::kQ3:
      return RunQ3Parallel(tables.customer, tables.orders, tables.lineitem, txn, {}, pool,
                           stats, profile);
    case Query::kQ6:
      return RunQ6Parallel(tables.lineitem, txn, {}, pool, stats, profile);
    case Query::kQ12:
      return RunQ12Parallel(tables.orders, tables.lineitem, txn, {}, pool, stats, profile);
    case Query::kQ14:
      return RunQ14Parallel(tables.lineitem, tables.part, txn, {}, pool, stats, profile);
  }
  MAINLINE_UNREACHABLE("unknown query");
}

Answer RunScalar(Query query, const Tables &tables, transaction::TransactionContext *txn,
                 ScanStats *stats) {
  switch (query) {
    case Query::kQ1:
      return RunQ1Scalar(tables.lineitem, txn, {}, stats);
    case Query::kQ3:
      return RunQ3Scalar(tables.customer, tables.orders, tables.lineitem, txn, {}, stats);
    case Query::kQ6:
      return RunQ6Scalar(tables.lineitem, txn, {}, stats);
    case Query::kQ12:
      return RunQ12Scalar(tables.orders, tables.lineitem, txn, {}, stats);
    case Query::kQ14:
      return RunQ14Scalar(tables.lineitem, tables.part, txn, {}, stats);
  }
  MAINLINE_UNREACHABLE("unknown query");
}

}  // namespace mainline::workload::tpch
