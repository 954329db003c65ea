#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/worker_pool.h"
#include "execution/operators/plan_profile.h"
#include "execution/scan_block.h"
#include "catalog/sql_table.h"
#include "transaction/transaction_context.h"

namespace mainline::workload::tpch {

// Moved here from execution/: the query compositions know TPC-H column
// layouts (workload knowledge), while the operator building blocks they
// compose stay below in execution/. These aliases keep the signatures
// spelled the way the execution layer defines them.
using execution::ScanStats;
namespace op = execution::op;

/// The TPC-H queries below are compositions over the push-based operator
/// pipeline API (execution/operators/): each RunQxParallel function wires a
/// PhysicalPlan out of ScanSource / FilterOp / ProjectOp / hash-join /
/// AggregateOp building blocks and runs it morsel-parallel over `pool`'s
/// workers, or inline on the calling thread when `pool` is null. There is
/// no per-query kernel code; the tuple-at-a-time RunQxScalar references
/// remain as the bit-exact oracles the plans are verified against.
///
/// Every plan shares `txn` across its workers, so `txn` must stay read-only
/// while the plan runs. A non-null `stats` accumulates scan counters; a
/// non-null `profile` receives the plan's per-operator profile.
///
/// All engines share one canonical accumulation order: floating-point
/// aggregates are built as PER-BLOCK partials — each accumulated
/// row-at-a-time in slot order from zero — and the partials are folded into
/// the final result in block (allocation) order. Fixing the reduction-tree
/// shape at block granularity is what makes every engine's answer
/// bit-identical regardless of worker count: a parallel scan computes the
/// same partials on different threads and merges them in the same order.
/// AggregateOp implements exactly this shape, so every plan inherits it.

/// Parameters of TPC-H Q1 (pricing summary report). Dates are the engine's
/// day numbers; the default cutoff keeps ~90% of the rows the lineitem
/// generator produces, mirroring the official query's DATE '1998-12-01' -
/// 90 days.
struct Q1Params {
  uint32_t shipdate_max = 10340;  ///< l_shipdate <= shipdate_max
};

/// One Q1 result group. Defaulted equality makes the bit-exactness check
/// between the pipeline engines and the scalar reference a plain ==.
struct Q1Row {
  std::string returnflag;
  std::string linestatus;
  double sum_qty = 0;
  double sum_base_price = 0;
  double sum_disc_price = 0;
  double sum_charge = 0;
  double avg_qty = 0;
  double avg_price = 0;
  double avg_disc = 0;
  uint64_t count = 0;

  bool operator==(const Q1Row &) const = default;
};

/// Parameters of TPC-H Q6 (forecasting revenue change).
struct Q6Params {
  uint32_t shipdate_min = 9000;  ///< l_shipdate >= shipdate_min
  uint32_t shipdate_max = 9365;  ///< l_shipdate <  shipdate_max
  double discount_min = 0.05;    ///< l_discount >= discount_min
  double discount_max = 0.07;    ///< l_discount <= discount_max
  double quantity_max = 24.0;    ///< l_quantity <  quantity_max
};

/// Q1 as an operator plan (scan -> filter -> grouped aggregate on
/// (l_returnflag, l_linestatus)). Results are sorted by (returnflag,
/// linestatus), as the query specifies. Bit-exact with RunQ1Scalar for any
/// worker count, inline included.
std::vector<Q1Row> RunQ1Parallel(catalog::SqlTable *table,
                                 transaction::TransactionContext *txn, const Q1Params &params,
                                 common::WorkerPool *pool, ScanStats *stats = nullptr,
                                 op::PlanProfile *profile = nullptr);

/// Q6 as an operator plan (scan -> three filters -> ungrouped
/// sum(l_extendedprice * l_discount)); same contract as RunQ1Parallel.
double RunQ6Parallel(catalog::SqlTable *table, transaction::TransactionContext *txn,
                     const Q6Params &params, common::WorkerPool *pool,
                     ScanStats *stats = nullptr, op::PlanProfile *profile = nullptr);

/// Parameters of TPC-H Q12 (shipping modes and order priority). The two ship
/// modes mirror the official query's ('MAIL', 'SHIP') pair; the receipt-date
/// window is the engine's day numbers, one year wide against the lineitem
/// generator's [8001, 10530] receipt range.
struct Q12Params {
  std::string shipmode_a = "MAIL";
  std::string shipmode_b = "SHIP";
  uint32_t receiptdate_min = 9000;  ///< l_receiptdate >= receiptdate_min
  uint32_t receiptdate_max = 9365;  ///< l_receiptdate <  receiptdate_max
};

/// One Q12 result group: line counts by ship mode, split by whether the
/// joined order's priority is urgent/high. Counts are integers, so equality
/// between engines is exact by construction — what the join contributes to
/// bit-exactness is producing the same multiset of matches at any worker
/// count.
struct Q12Row {
  std::string shipmode;
  uint64_t high_line_count = 0;
  uint64_t low_line_count = 0;

  bool operator==(const Q12Row &) const = default;
};

/// Q12 as a two-pipeline plan: hash-join build over ORDERS (key o_orderkey,
/// payload = "is urgent/high" bit), then a probe pipeline streaming LINEITEM
/// through the date/shipmode filters into a grouped aggregate on l_shipmode.
/// With a pool, the build scan, partition build, and probe scan all run
/// over it. Bit-exact with RunQ12Scalar for any worker count. `orders` and
/// `lineitem` must use OrdersSchema()/LineItemSchema() column positions.
std::vector<Q12Row> RunQ12Parallel(catalog::SqlTable *orders, catalog::SqlTable *lineitem,
                                   transaction::TransactionContext *txn,
                                   const Q12Params &params, common::WorkerPool *pool,
                                   ScanStats *stats = nullptr,
                                   op::PlanProfile *profile = nullptr);

/// Scalar tuple-at-a-time Q12 reference: a std::unordered_multimap build over
/// one Select-per-slot scan of ORDERS, probed one lineitem tuple at a time.
std::vector<Q12Row> RunQ12Scalar(catalog::SqlTable *orders, catalog::SqlTable *lineitem,
                                 transaction::TransactionContext *txn, const Q12Params &params,
                                 ScanStats *stats = nullptr);

/// Parameters of TPC-H Q14 (promotion effect). The official query's window
/// is one month; the default here is a year of the engine's day numbers so
/// the query stays meaningfully selective against small PART tables (part
/// keys above the generated count dangle, shrinking the match rate).
struct Q14Params {
  uint32_t shipdate_min = 9000;         ///< l_shipdate >= shipdate_min
  uint32_t shipdate_max = 9365;         ///< l_shipdate <  shipdate_max
  std::string promo_prefix = "PROMO";   ///< p_type LIKE '<prefix>%'
};

/// Q14 as a two-pipeline plan — and the proof the operator API generalizes:
/// the first FP aggregate over a join, composed purely from existing
/// operators with no query-specific kernel. Pipeline 1 builds the hash
/// table over PART (key p_partkey, payload = "is PROMO part" bit);
/// pipeline 2 streams LINEITEM through the shipdate filter, projects
/// l_extendedprice * (1 - l_discount) once, probes, and sums the projected
/// column twice — unconditionally and gated on the payload bit. The result
/// is 100 * promo_revenue / total_revenue (0 when nothing matched).
/// Bit-exact with RunQ14Scalar for any worker count. `lineitem`/`part` must
/// use LineItemSchema()/PartSchema() column positions.
double RunQ14Parallel(catalog::SqlTable *lineitem, catalog::SqlTable *part,
                      transaction::TransactionContext *txn, const Q14Params &params,
                      common::WorkerPool *pool, ScanStats *stats = nullptr,
                      op::PlanProfile *profile = nullptr);

/// Scalar tuple-at-a-time Q14 reference, accumulating the same per-block
/// partials in the same order as the plan.
double RunQ14Scalar(catalog::SqlTable *lineitem, catalog::SqlTable *part,
                    transaction::TransactionContext *txn, const Q14Params &params,
                    ScanStats *stats = nullptr);

/// Parameters of TPC-H Q3 (shipping priority). The date is the engine's day
/// number, splitting the generators' date ranges roughly down the middle
/// (orders before it, shipments after it); the segment is one of dbgen's
/// five market segments, keeping about one customer in five.
struct Q3Params {
  std::string segment = "BUILDING";  ///< c_mktsegment = segment
  uint32_t date = 9500;              ///< o_orderdate < date, l_shipdate > date
  uint32_t limit = 10;               ///< ORDER BY revenue DESC, o_orderdate LIMIT limit
};

/// One Q3 result row: an order still open at the cutoff, its pending revenue
/// summed over the qualifying lineitems. Revenue accumulates in lineitem
/// scan order (see RunQ3Parallel), so equality between engines is bit-exact.
struct Q3Row {
  int64_t orderkey = 0;
  double revenue = 0;
  uint32_t orderdate = 0;
  int32_t shippriority = 0;

  bool operator==(const Q3Row &) const = default;
};

/// Q3 as a three-pipeline plan — the first multi-way join, exercising probe
/// chaining: pipeline 1 builds a hash table over the segment's customers;
/// pipeline 2 streams LINEITEM through the shipdate filter, projects each
/// line's revenue l_extendedprice * (1 - l_discount), and builds a second
/// table keyed on l_orderkey with the revenue bits as payload; pipeline 3
/// streams ORDERS through the orderdate filter, probes the customer table
/// (each match carried forward), re-probes the chunk against the lineitem
/// table folding every matching line's revenue into one per-order double
/// (added in the table's deterministic match order), and feeds a Top-K sink
/// ordered by (revenue DESC, o_orderdate). Ties beyond the sort keys break
/// on scan position, so the LIMIT boundary is one deterministic answer —
/// bit-exact against RunQ3Scalar at any worker count, order included. The
/// tables must use CustomerSchema()/OrdersSchema()/LineItemSchema() column
/// positions.
std::vector<Q3Row> RunQ3Parallel(catalog::SqlTable *customer, catalog::SqlTable *orders,
                                 catalog::SqlTable *lineitem,
                                 transaction::TransactionContext *txn, const Q3Params &params,
                                 common::WorkerPool *pool, ScanStats *stats = nullptr,
                                 op::PlanProfile *profile = nullptr);

/// Scalar tuple-at-a-time Q3 reference: hash maps built one Select at a
/// time, each order's revenue folded over its lineitems in lineitem scan
/// order, candidates ranked by (revenue DESC, orderdate, scan position) —
/// the same total order the plan's Top-K sink keeps.
std::vector<Q3Row> RunQ3Scalar(catalog::SqlTable *customer, catalog::SqlTable *orders,
                               catalog::SqlTable *lineitem,
                               transaction::TransactionContext *txn, const Q3Params &params,
                               ScanStats *stats = nullptr);

/// Scalar tuple-at-a-time Q1 reference: one DataTable::Select per slot, row
/// predicates in scan order, partials per block — the baseline figure16
/// compares the other engines against, and the oracle the execution tests
/// demand bit-equal results from.
std::vector<Q1Row> RunQ1Scalar(catalog::SqlTable *table, transaction::TransactionContext *txn,
                               const Q1Params &params, ScanStats *stats = nullptr);

/// Scalar tuple-at-a-time Q6 reference.
double RunQ6Scalar(catalog::SqlTable *table, transaction::TransactionContext *txn,
                   const Q6Params &params, ScanStats *stats = nullptr);

}  // namespace mainline::workload::tpch
