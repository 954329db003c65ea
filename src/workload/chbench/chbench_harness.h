#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/sql_table.h"
#include "common/macros.h"
#include "common/worker_pool.h"
#include "gc/garbage_collector.h"
#include "metrics/metrics_registry.h"
#include "transaction/transaction_manager.h"
#include "transform/freeze_policy.h"
#include "workload/tpcc/tpcc_db.h"

namespace mainline::workload::chbench {

/// Scale and traffic knobs of the CH-benCHmark-style HTAP harness.
struct Config {
  /// TPC-C terminal count. Setup() raises the warehouse count to match, so
  /// every terminal keeps the paper's one-warehouse-per-client shape.
  uint32_t terminals = 4;
  /// Morsel-parallel workers each analytical plan runs over.
  uint32_t query_workers = 2;
  /// Length of one measured window.
  double duration_seconds = 3.0;
  /// OLTP scale (warehouse count is derived from `terminals`, see above).
  tpcc::Config tpcc_scale = tpcc::Config::Scaled(10000, 300);

  /// Initial analytical population. ORDERS is generated with exactly
  /// `lineitem_rows` orders so every initial l_orderkey joins (the
  /// generators' dense-key contract), and the fresh-order feed allocates
  /// keys strictly above `lineitem_rows` so it can never collide.
  uint64_t lineitem_rows = 200000;
  uint64_t part_rows = 20000;
  /// LINEITEM rows each terminal appends (under one fresh ORDERS row) after
  /// every TPC-C transaction — the order-entry → fact-table bridge that
  /// makes the analytical tables a moving target.
  uint64_t feed_rows_per_txn = 16;
  /// Every how-many-th run of each query is cross-checked bit-exact against
  /// its scalar oracle in the same snapshot (1 = every run, 0 = never).
  uint32_t oracle_every = 4;

  /// Background maintenance cadence.
  std::chrono::milliseconds gc_period{10};
  /// GC epochs without modification before a block is transform-eligible.
  uint64_t cold_epochs = 1;
  /// Blocks per compaction group.
  uint32_t group_size = 8;

  /// Pipeline cadence: feedback-controlled, or fixed when pinned
  /// (FreezePolicy::Config::Pinned).
  transform::FreezePolicy::Config policy;
};

/// Latency and oracle outcomes of one analytical query over a window.
/// Percentiles come from the window's metrics delta (chbench.q*_us
/// histograms), through MetricsSnapshot::ValueAtQuantile.
struct QueryStats {
  std::string name;
  uint64_t runs = 0;
  uint64_t oracle_checks = 0;
  uint64_t oracle_mismatches = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
};

/// Everything one Run() window measured.
struct Result {
  double seconds = 0;
  uint64_t tpcc_committed = 0;
  uint64_t tpcc_aborted = 0;
  double txns_per_second = 0;
  uint64_t feed_txns = 0;
  uint64_t feed_rows = 0;

  std::vector<QueryStats> queries;  ///< q1, q6, q12, q14 in order
  uint64_t oracle_checks = 0;       ///< totals over all queries
  uint64_t oracle_mismatches = 0;

  /// Freshness: the window's transform.freeze_lag_us delta.
  uint64_t freeze_lag_samples = 0;
  double freeze_lag_p50_us = 0;
  double freeze_lag_p95_us = 0;
  double freeze_lag_p99_us = 0;
  uint64_t transform_passes = 0;
  uint64_t blocks_frozen = 0;

  /// Observer pressure, sampled by the coordinator between query runs.
  /// Bounded behavior shows as a second-half maximum no worse than the
  /// first's; a too-slow cadence shows as monotonic growth instead.
  int64_t queue_depth_max_first_half = 0;
  int64_t queue_depth_max_second_half = 0;
  int64_t queue_depth_end = 0;
  std::chrono::milliseconds final_period{0};

  /// End-of-window frozen coverage over the analytical tables (%).
  double frozen_pct = 0;

  /// Every sampled analytical answer matched its same-snapshot oracle.
  bool BitExact() const { return oracle_mismatches == 0; }
};

/// The HTAP scenario the paper pitches, in one object: N TPC-C terminals
/// hammer their warehouses (and feed fresh orders into the TPC-H tables)
/// while Q1/Q6/Q12/Q14 plans run morsel-parallel over those same tables and
/// the TransformPipeline freezes cold blocks in the background.
///
/// Run() is synchronous and owns all transient machinery for its window —
/// terminal tasks on a WorkerPool, a query pool, the GC thread, and a fresh
/// observer + pipeline — so back-to-back windows (fixed cadence, then
/// adaptive) measure on identical wiring. The coordinator thread drives the
/// analytics loop itself: each sample begins one transaction, runs the plan
/// morsel-parallel, periodically re-runs the scalar oracle *in that same
/// transaction*, and demands bit-equality. Under concurrent writers this is
/// the strongest correctness statement the engine makes: whatever the
/// terminals are doing, a snapshot's answer is exact.
class ChBenchHarness {
 public:
  ChBenchHarness(catalog::Catalog *catalog, transaction::TransactionManager *txn_manager,
                 gc::GarbageCollector *gc, const Config &config);

  DISALLOW_COPY_AND_MOVE(ChBenchHarness)

  /// Create and load the TPC-C database and the TPC-H analytical tables.
  void Setup();

  /// One timed HTAP window. Requires Setup(). The caller must not pump the
  /// GC concurrently — Run() owns a GarbageCollectorThread for the window.
  Result Run();

  tpcc::Database *Db() { return db_.get(); }
  catalog::SqlTable *LineItem() { return lineitem_; }
  catalog::SqlTable *OrdersTable() { return orders_; }
  catalog::SqlTable *PartTable() { return part_; }

 private:
  struct TerminalStats {
    uint64_t committed = 0;
    uint64_t aborted = 0;
    uint64_t feed_txns = 0;
    uint64_t feed_rows = 0;
  };

  /// One terminal: the TPC-C mix against its home warehouse, then one
  /// fresh-order feed transaction (`feed_rows_per_txn` lineitems under a new
  /// terminal-strided order key) after every mix transaction. Runs on a pool
  /// worker until `*stop`; results land in `*out` (one slot per terminal,
  /// read by the coordinator only after the pool quiesces).
  void RunTerminal(uint32_t index, const std::atomic<bool> *stop, TerminalStats *out);

  /// Run one sample of the mix's `which`-th query (q1, q6, q12, q14) under a
  /// fresh snapshot, recording latency and — every `oracle_every`-th run —
  /// the same-snapshot oracle verdict into `stats`.
  void RunQuerySample(uint32_t which, common::WorkerPool *pool, QueryStats *stats);

  catalog::Catalog *catalog_;
  transaction::TransactionManager *txn_manager_;
  gc::GarbageCollector *gc_;
  Config config_;

  std::unique_ptr<tpcc::Database> db_;
  catalog::SqlTable *lineitem_ = nullptr;
  catalog::SqlTable *orders_ = nullptr;
  catalog::SqlTable *part_ = nullptr;
  /// First fresh-order key; terminal `i` draws base + i, base + i + N, ...
  uint64_t feed_orderkey_base_ = 0;

  /// chbench.* metric handles (global registry; registration is idempotent).
  metrics::Counter *txns_counter_;
  metrics::Counter *feed_rows_counter_;
  metrics::Counter *queries_counter_;
  metrics::Counter *oracle_checks_counter_;
  metrics::Counter *oracle_mismatches_counter_;
  metrics::Histogram *query_us_[4];
};

}  // namespace mainline::workload::chbench
