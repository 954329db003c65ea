#pragma once

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/worker_pool.h"
#include "execution/operators/plan_profile.h"
#include "execution/scan_block.h"
#include "transaction/transaction_context.h"
#include "workload/tpch/tpch_queries.h"
#include "catalog/sql_table.h"
#include "transaction/transaction_manager.h"

namespace mainline::workload {

using execution::ScanStats;
namespace op = execution::op;

/// Which engine answers a query: the operator-pipeline plan, or the
/// tuple-at-a-time scalar reference it is benchmarked (and verified)
/// against. Both return bit-identical results at any thread count (see
/// tpch_queries.h on the canonical per-block accumulation order).
enum class ExecMode : uint8_t { kPlan = 0, kScalar };

/// Facade over the execution layer: begins a snapshot transaction, runs the
/// query plan through the chosen engine, commits, and reports scan
/// statistics — the one-call entry point examples, benchmarks, and external
/// embedders use for in-situ analytics over live tables. The per-query
/// methods are thin wrappers around one Execute helper, so adding a query
/// costs a plan composition (tpch_queries.cc) plus a few lines here.
///
/// The `num_threads` knob (constructor argument or SetNumThreads; 0 =
/// hardware concurrency) decides how a plan runs: with one thread it runs
/// inline on the calling thread and no pool is ever built; with more, it
/// runs morsel-parallel over a worker pool the runner owns, created lazily
/// on the first plan query.
class QueryRunner {
 public:
  explicit QueryRunner(transaction::TransactionManager *txn_manager, uint32_t num_threads = 0)
      : txn_manager_(txn_manager), num_threads_(ResolveThreads(num_threads)) {}

  DISALLOW_COPY_AND_MOVE(QueryRunner)

  /// \return thread count plan queries will use.
  uint32_t NumThreads() const { return num_threads_; }

  /// Resize the plan worker pool (0 = hardware concurrency). The old pool,
  /// if any, is drained and joined; the next multi-threaded plan query
  /// builds a fresh one.
  void SetNumThreads(uint32_t num_threads) {
    num_threads_ = ResolveThreads(num_threads);
    pool_.reset();
  }

  /// Toggle per-operator profiling for subsequent plan-based queries (the
  /// scalar reference engine has no plan to profile). Results are bit-exact
  /// with profiling on or off; the cost is one timer read per operator per
  /// block. Read the record back with LastProfile.
  void SetProfiling(bool on) { profiling_ = on; }
  bool Profiling() const { return profiling_; }

  /// The profile of the most recent profiled plan-based query (empty when
  /// profiling is off, no query has run yet, or the last query was kScalar).
  const op::PlanProfile &LastProfile() const { return last_profile_; }

  struct Q1Result {
    std::vector<tpch::Q1Row> rows;
    ScanStats stats;
  };

  struct Q6Result {
    double revenue = 0;
    ScanStats stats;
  };

  /// Q12's stats cover both scans: the ORDERS build and the LINEITEM probe
  /// (rows = orders rows + lineitem rows).
  struct Q12Result {
    std::vector<tpch::Q12Row> rows;
    ScanStats stats;
  };

  /// Q14's stats cover both scans: the PART build and the LINEITEM probe.
  struct Q14Result {
    double promo_revenue = 0;
    ScanStats stats;
  };

  /// Q3's stats cover all three scans: the CUSTOMER and LINEITEM builds and
  /// the ORDERS probe.
  struct Q3Result {
    std::vector<tpch::Q3Row> rows;
    ScanStats stats;
  };

  Q1Result RunQ1(catalog::SqlTable *table, const tpch::Q1Params &params = {},
                 ExecMode mode = ExecMode::kPlan) {
    return Execute<Q1Result>(mode, [&](auto *txn, auto *pool, Q1Result *result) {
      result->rows = mode == ExecMode::kScalar
                         ? tpch::RunQ1Scalar(table, txn, params, &result->stats)
                         : tpch::RunQ1Parallel(table, txn, params, pool, &result->stats,
                                               ProfileOut(mode));
    });
  }

  Q6Result RunQ6(catalog::SqlTable *table, const tpch::Q6Params &params = {},
                 ExecMode mode = ExecMode::kPlan) {
    return Execute<Q6Result>(mode, [&](auto *txn, auto *pool, Q6Result *result) {
      result->revenue = mode == ExecMode::kScalar
                            ? tpch::RunQ6Scalar(table, txn, params, &result->stats)
                            : tpch::RunQ6Parallel(table, txn, params, pool, &result->stats,
                                                  ProfileOut(mode));
    });
  }

  Q12Result RunQ12(catalog::SqlTable *orders, catalog::SqlTable *lineitem,
                   const tpch::Q12Params &params = {}, ExecMode mode = ExecMode::kPlan) {
    return Execute<Q12Result>(mode, [&](auto *txn, auto *pool, Q12Result *result) {
      result->rows =
          mode == ExecMode::kScalar
              ? tpch::RunQ12Scalar(orders, lineitem, txn, params, &result->stats)
              : tpch::RunQ12Parallel(orders, lineitem, txn, params, pool, &result->stats,
                                     ProfileOut(mode));
    });
  }

  Q14Result RunQ14(catalog::SqlTable *lineitem, catalog::SqlTable *part,
                   const tpch::Q14Params &params = {}, ExecMode mode = ExecMode::kPlan) {
    return Execute<Q14Result>(mode, [&](auto *txn, auto *pool, Q14Result *result) {
      result->promo_revenue =
          mode == ExecMode::kScalar
              ? tpch::RunQ14Scalar(lineitem, part, txn, params, &result->stats)
              : tpch::RunQ14Parallel(lineitem, part, txn, params, pool, &result->stats,
                                     ProfileOut(mode));
    });
  }

  Q3Result RunQ3(catalog::SqlTable *customer, catalog::SqlTable *orders,
                 catalog::SqlTable *lineitem, const tpch::Q3Params &params = {},
                 ExecMode mode = ExecMode::kPlan) {
    return Execute<Q3Result>(mode, [&](auto *txn, auto *pool, Q3Result *result) {
      result->rows =
          mode == ExecMode::kScalar
              ? tpch::RunQ3Scalar(customer, orders, lineitem, txn, params, &result->stats)
              : tpch::RunQ3Parallel(customer, orders, lineitem, txn, params, pool,
                                    &result->stats, ProfileOut(mode));
    });
  }

 private:
  /// The txn/dispatch/stats/commit plumbing every query shares: begin a
  /// snapshot transaction, hand the query the worker pool its plan runs over
  /// (none for kScalar or a single thread — a null pool runs a plan inline),
  /// commit, return. `query(txn, pool, &result)` fills the result in
  /// between.
  template <typename Result, typename Query>
  Result Execute(ExecMode mode, Query &&query) {
    // A profiled run replaces the record wholesale; a profiled scalar run
    // leaves it empty rather than stale.
    if (profiling_) last_profile_ = op::PlanProfile{};
    Result result;
    transaction::TransactionContext *txn = txn_manager_->BeginTransaction();
    query(txn, mode == ExecMode::kPlan && num_threads_ > 1 ? Pool() : nullptr, &result);
    txn_manager_->Commit(txn);
    return result;
  }

  static uint32_t ResolveThreads(uint32_t num_threads) {
    if (num_threads != 0) return num_threads;
    const uint32_t hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  common::WorkerPool *Pool() {
    if (pool_ == nullptr) pool_ = std::make_unique<common::WorkerPool>(num_threads_);
    return pool_.get();
  }

  /// Where a plan-based query should record its profile: the runner's slot
  /// when profiling is on, nowhere otherwise (a null out-param keeps the
  /// plan's hot path at a single null check per chunk).
  op::PlanProfile *ProfileOut(ExecMode mode) {
    if (!profiling_ || mode == ExecMode::kScalar) return nullptr;
    return &last_profile_;
  }

  transaction::TransactionManager *txn_manager_;
  uint32_t num_threads_;
  std::unique_ptr<common::WorkerPool> pool_;
  bool profiling_ = false;
  op::PlanProfile last_profile_;
};

}  // namespace mainline::workload
