#pragma once

#include <memory>
#include <thread>

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
/// embedders use for in-situ analytics over live tables. Queries come from
/// the tpch::Query table, so adding one costs a plan composition and a
/// dispatch case (tpch_queries.cc), nothing here.
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

  /// A query's answer and the scan counters of every scan it ran (a plan
  /// may scan one table twice: Q12 scans LINEITEM for its key set and again
  /// for its probe).
  struct Result {
    tpch::Answer answer;
    ScanStats stats;
  };

  /// Begin a snapshot transaction, answer `query` over `tables` with the
  /// chosen engine (a plan runs over the runner's pool, or inline with one
  /// thread), commit.
  Result Run(tpch::Query query, const tpch::Tables &tables, ExecMode mode = ExecMode::kPlan) {
    // A profiled run replaces the record wholesale; a profiled scalar run
    // leaves it empty rather than stale.
    if (profiling_) last_profile_ = op::PlanProfile{};
    Result result;
    transaction::TransactionContext *txn = txn_manager_->BeginTransaction();
    if (mode == ExecMode::kScalar) {
      result.answer = tpch::RunScalar(query, tables, txn, &result.stats);
    } else {
      result.answer = tpch::RunPlan(query, tables, txn, num_threads_ > 1 ? Pool() : nullptr,
                                    &result.stats, profiling_ ? &last_profile_ : nullptr);
    }
    txn_manager_->Commit(txn);
    return result;
  }

 private:
  static uint32_t ResolveThreads(uint32_t num_threads) {
    if (num_threads != 0) return num_threads;
    const uint32_t hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  common::WorkerPool *Pool() {
    if (pool_ == nullptr) pool_ = std::make_unique<common::WorkerPool>(num_threads_);
    return pool_.get();
  }

  transaction::TransactionManager *txn_manager_;
  uint32_t num_threads_;
  std::unique_ptr<common::WorkerPool> pool_;
  bool profiling_ = false;
  op::PlanProfile last_profile_;
};

}  // namespace mainline::workload
