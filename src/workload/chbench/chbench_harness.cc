#include "workload/chbench/chbench_harness.h"

#include <algorithm>

#include "common/rand_util.h"
#include "common/timer.h"
#include "gc/gc_thread.h"
#include "storage/block_access_controller.h"
#include "storage/data_table.h"
#include "storage/projected_row.h"
#include "storage/raw_block.h"
#include "transaction/transaction_context.h"
#include "transform/access_observer.h"
#include "transform/block_transformer.h"
#include "transform/transform_pipeline.h"
#include "workload/row_util.h"
#include "workload/tpcc/tpcc_workload.h"
#include "workload/tpch/lineitem.h"
#include "workload/tpch/orders.h"
#include "workload/tpch/part.h"
#include "workload/tpch/tpch_queries.h"

namespace mainline::workload::chbench {

namespace {

/// The analytics mix the coordinator cycles through, in order.
constexpr tpch::Query kMix[4] = {tpch::Query::kQ1, tpch::Query::kQ6, tpch::Query::kQ12,
                                 tpch::Query::kQ14};

/// "chbench.q1_us" and so on.
std::string LatencyHistogram(tpch::Query query) {
  return std::string("chbench.") + tpch::QueryName(query) + "_us";
}

/// Query latency buckets: 100 us to 5 s (15 bounds + overflow, within
/// Histogram::kMaxBuckets).
const std::vector<uint64_t> kLatencyBoundsUs = {
    100,    250,    500,    1000,    2500,    5000,    10000,   25000,
    50000,  100000, 250000, 500000,  1000000, 2500000, 5000000};

}  // namespace

ChBenchHarness::ChBenchHarness(catalog::Catalog *catalog,
                               transaction::TransactionManager *txn_manager,
                               gc::GarbageCollector *gc, const Config &config)
    : catalog_(catalog), txn_manager_(txn_manager), gc_(gc), config_(config) {
  metrics::MetricsRegistry &registry = metrics::MetricsRegistry::Global();
  txns_counter_ = registry.RegisterCounter("chbench.txns");
  feed_rows_counter_ = registry.RegisterCounter("chbench.feed_rows");
  queries_counter_ = registry.RegisterCounter("chbench.queries");
  oracle_checks_counter_ = registry.RegisterCounter("chbench.oracle_checks");
  oracle_mismatches_counter_ = registry.RegisterCounter("chbench.oracle_mismatches");
  for (uint32_t q = 0; q < 4; q++) {
    query_us_[q] = registry.RegisterHistogram(LatencyHistogram(kMix[q]), kLatencyBoundsUs);
  }
}

void ChBenchHarness::Setup() {
  // One warehouse per terminal, the paper's TPC-C client shape.
  if (config_.tpcc_scale.num_warehouses < static_cast<int32_t>(config_.terminals)) {
    config_.tpcc_scale.num_warehouses = static_cast<int32_t>(config_.terminals);
  }
  db_ = std::make_unique<tpcc::Database>(catalog_, config_.tpcc_scale);
  db_->Load(txn_manager_, config_.terminals);

  lineitem_ = tpch::GenerateLineItem(catalog_, txn_manager_, config_.lineitem_rows);
  // Dense order keys 1..lineitem_rows cover every generated l_orderkey; the
  // feed starts strictly above so fresh keys never collide with the load.
  orders_ = tpch::GenerateOrders(catalog_, txn_manager_, config_.lineitem_rows);
  part_ = tpch::GeneratePart(catalog_, txn_manager_, config_.part_rows);
  feed_orderkey_base_ = config_.lineitem_rows + 1;
  gc_->FullGC();
}

void ChBenchHarness::RunTerminal(uint32_t index, const std::atomic<bool> *stop,
                                 TerminalStats *out) {
  static const char *kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                                      "5-LOW"};
  static const char *kModes[] = {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"};
  static const char *kFlags[] = {"R", "A", "N"};

  const auto home_warehouse =
      static_cast<int32_t>(index % static_cast<uint32_t>(db_->config.num_warehouses)) + 1;
  tpcc::Worker worker(db_.get(), txn_manager_, home_warehouse, 0x5eed + index);
  common::Xorshift rng(0xfeed0000ULL + index);
  uint64_t next_orderkey = feed_orderkey_base_ + index;

  const storage::ProjectedRowInitializer orders_init = orders_->FullInitializer();
  const storage::ProjectedRowInitializer lineitem_init = lineitem_->FullInitializer();
  std::vector<byte> orders_buffer(orders_init.ProjectedRowSize() + 8);
  std::vector<byte> lineitem_buffer(lineitem_init.ProjectedRowSize() + 8);

  while (!stop->load(std::memory_order_acquire)) {
    worker.RunOne();

    // The CH-benCHmark bridge: order entry feeds the analytical fact table.
    // One fresh order + its lineitems per mix transaction, under an order
    // key only this terminal allocates (strided by terminal count), so the
    // feed is deterministic per terminal and Q12's join stays resolvable.
    const uint64_t orderkey = next_orderkey;
    next_orderkey += config_.terminals;
    transaction::TransactionContext *txn = txn_manager_->BeginTransaction();
    storage::ProjectedRow *order_row = orders_init.InitializeRow(orders_buffer.data());
    Set<int64_t>(order_row, tpch::O_ORDERKEY, static_cast<int64_t>(orderkey));
    Set<int64_t>(order_row, tpch::O_CUSTKEY, static_cast<int64_t>(rng.Uniform(1, 150000)));
    SetVarchar(order_row, tpch::O_ORDERSTATUS, "O");
    Set<double>(order_row, tpch::O_TOTALPRICE,
                static_cast<double>(rng.Uniform(85000, 55500000)) / 100.0);
    Set<uint32_t>(order_row, tpch::O_ORDERDATE, static_cast<uint32_t>(rng.Uniform(7900, 10480)));
    SetVarchar(order_row, tpch::O_ORDERPRIORITY, kPriorities[rng.Uniform(0, 4)]);
    SetVarchar(order_row, tpch::O_CLERK, "Clerk#chbench");
    Set<int32_t>(order_row, tpch::O_SHIPPRIORITY, 0);
    SetVarchar(order_row, tpch::O_COMMENT, rng.AlphaString(8, 24));
    orders_->Insert(txn, *order_row);

    for (uint64_t line = 0; line < config_.feed_rows_per_txn; line++) {
      storage::ProjectedRow *row = lineitem_init.InitializeRow(lineitem_buffer.data());
      Set<int64_t>(row, tpch::L_ORDERKEY, static_cast<int64_t>(orderkey));
      Set<int64_t>(row, tpch::L_PARTKEY, static_cast<int64_t>(rng.Uniform(1, 200000)));
      Set<int64_t>(row, tpch::L_SUPPKEY, static_cast<int64_t>(rng.Uniform(1, 10000)));
      Set<int32_t>(row, tpch::L_LINENUMBER, static_cast<int32_t>(line + 1));
      Set<double>(row, tpch::L_QUANTITY, static_cast<double>(rng.Uniform(1, 50)));
      Set<double>(row, tpch::L_EXTENDEDPRICE,
                  static_cast<double>(rng.Uniform(1000, 100000)) / 100.0);
      Set<double>(row, tpch::L_DISCOUNT, static_cast<double>(rng.Uniform(0, 10)) / 100.0);
      Set<double>(row, tpch::L_TAX, static_cast<double>(rng.Uniform(0, 8)) / 100.0);
      SetVarchar(row, tpch::L_RETURNFLAG, kFlags[rng.Uniform(0, 2)]);
      SetVarchar(row, tpch::L_LINESTATUS, rng.Uniform(0, 1) == 0 ? "O" : "F");
      const auto ship = static_cast<uint32_t>(rng.Uniform(8000, 10500));
      Set<uint32_t>(row, tpch::L_SHIPDATE, ship);
      Set<uint32_t>(row, tpch::L_COMMITDATE, ship + static_cast<uint32_t>(rng.Uniform(1, 60)));
      Set<uint32_t>(row, tpch::L_RECEIPTDATE, ship + static_cast<uint32_t>(rng.Uniform(1, 30)));
      SetVarchar(row, tpch::L_SHIPINSTRUCT, "NONE");
      SetVarchar(row, tpch::L_SHIPMODE, kModes[rng.Uniform(0, 6)]);
      SetVarchar(row, tpch::L_COMMENT, rng.AlphaString(10, 43));
      lineitem_->Insert(txn, *row);
    }
    txn_manager_->Commit(txn);
    out->feed_txns++;
    out->feed_rows += config_.feed_rows_per_txn;
  }

  out->committed = worker.Stats().TotalCommitted();
  out->aborted = worker.Stats().aborted;
  txns_counter_->Add(out->committed);
  feed_rows_counter_->Add(out->feed_rows);
}

void ChBenchHarness::RunQuerySample(uint32_t which, common::WorkerPool *pool,
                                    QueryStats *stats) {
  const bool check = config_.oracle_every != 0 && stats->runs % config_.oracle_every == 0;
  // One snapshot for plan and oracle: whatever the terminals commit while
  // this sample runs, both sides answer as of this transaction's start, so
  // bit-equality is meaningful under full write concurrency.
  const tpch::Tables tables{lineitem_, orders_, part_, nullptr};
  transaction::TransactionContext *txn = txn_manager_->BeginTransaction();
  const common::Timer timer;
  const tpch::Answer answer = tpch::RunPlan(kMix[which], tables, txn, pool);
  const uint64_t latency_us = timer.Elapsed<>();
  const bool mismatch = check && answer != tpch::RunScalar(kMix[which], tables, txn);
  txn_manager_->Commit(txn);

  query_us_[which]->Observe(latency_us);
  queries_counter_->Add(1);
  stats->runs++;
  if (check) {
    stats->oracle_checks++;
    oracle_checks_counter_->Add(1);
    if (mismatch) {
      stats->oracle_mismatches++;
      oracle_mismatches_counter_->Add(1);
    }
  }
}

Result ChBenchHarness::Run() {
  transform::AccessObserver observer(config_.cold_epochs);
  transform::BlockTransformer transformer(txn_manager_, gc_,
                                          transform::GatherMode::kVarlenGather);
  transformer.SetInlineGCPump(false);
  transform::TransformPipeline pipeline(&observer, &transformer, config_.group_size);
  storage::DataTable *targets[] = {
      &db_->order->UnderlyingTable(),    &db_->order_line->UnderlyingTable(),
      &db_->history->UnderlyingTable(),  &db_->item->UnderlyingTable(),
      &lineitem_->UnderlyingTable(),     &orders_->UnderlyingTable(),
      &part_->UnderlyingTable()};
  pipeline.SetTableFilter([targets](storage::DataTable *table) {
    for (storage::DataTable *target : targets) {
      if (table == target) return true;
    }
    return false;
  });

  Result result;
  result.queries.resize(4);
  for (uint32_t q = 0; q < 4; q++) result.queries[q].name = tpch::QueryName(kMix[q]);
  std::vector<TerminalStats> terminal_stats(config_.terminals);

  const metrics::MetricsSnapshot before = metrics::MetricsRegistry::Global().Snapshot();
  double measured_seconds = 0;
  {
    gc::GarbageCollectorThread gc_thread(gc_, config_.gc_period);
    gc_->SetAccessObserver(&observer);
    // Bulk-loaded, read-mostly tables predate the observer; seed them.
    pipeline.EnqueueTable(&db_->item->UnderlyingTable());
    pipeline.EnqueueTable(&lineitem_->UnderlyingTable());
    pipeline.EnqueueTable(&orders_->UnderlyingTable());
    pipeline.EnqueueTable(&part_->UnderlyingTable());
    pipeline.Start(config_.policy);

    std::atomic<bool> stop{false};
    common::WorkerPool terminal_pool(config_.terminals);
    for (uint32_t t = 0; t < config_.terminals; t++) {
      TerminalStats *slot = &terminal_stats[t];
      terminal_pool.SubmitTask([this, t, &stop, slot] { RunTerminal(t, &stop, slot); });
    }

    // The coordinator is the analytics driver: it cycles Q1 -> Q6 -> Q12 ->
    // Q14 for the whole window, sampling observer pressure between runs.
    common::WorkerPool query_pool(config_.query_workers);
    const common::Timer window;
    uint32_t next_query = 0;
    while (window.ElapsedSeconds() < config_.duration_seconds) {
      RunQuerySample(next_query % 4, &query_pool, &result.queries[next_query % 4]);
      next_query++;
      const auto depth = static_cast<int64_t>(observer.WatchedBlocks());
      if (window.ElapsedSeconds() < config_.duration_seconds / 2) {
        result.queue_depth_max_first_half =
            std::max(result.queue_depth_max_first_half, depth);
      } else {
        result.queue_depth_max_second_half =
            std::max(result.queue_depth_max_second_half, depth);
      }
    }
    measured_seconds = window.ElapsedSeconds();

    stop.store(true, std::memory_order_release);
    terminal_pool.WaitUntilAllFinished();
    pipeline.Stop();
    result.final_period = pipeline.CurrentPeriod();
    result.queue_depth_end = static_cast<int64_t>(observer.WatchedBlocks());
    gc_->SetAccessObserver(nullptr);
  }
  const metrics::MetricsSnapshot delta =
      metrics::MetricsRegistry::Global().Snapshot().Delta(before);

  result.seconds = measured_seconds;
  for (const TerminalStats &stats : terminal_stats) {
    result.tpcc_committed += stats.committed;
    result.tpcc_aborted += stats.aborted;
    result.feed_txns += stats.feed_txns;
    result.feed_rows += stats.feed_rows;
  }
  result.txns_per_second =
      static_cast<double>(result.tpcc_committed + result.feed_txns) / result.seconds;

  for (uint32_t q = 0; q < 4; q++) {
    QueryStats &stats = result.queries[q];
    const std::string histogram = LatencyHistogram(kMix[q]);
    stats.p50_us = delta.ValueAtQuantile(histogram, 0.50);
    stats.p95_us = delta.ValueAtQuantile(histogram, 0.95);
    stats.p99_us = delta.ValueAtQuantile(histogram, 0.99);
    result.oracle_checks += stats.oracle_checks;
    result.oracle_mismatches += stats.oracle_mismatches;
  }

  const auto lag = delta.histograms.find("transform.freeze_lag_us");
  if (lag != delta.histograms.end()) {
    result.freeze_lag_samples = lag->second.total;
    result.freeze_lag_p50_us = lag->second.ValueAtQuantile(0.50);
    result.freeze_lag_p95_us = lag->second.ValueAtQuantile(0.95);
    result.freeze_lag_p99_us = lag->second.ValueAtQuantile(0.99);
  }
  const auto passes = delta.counters.find("transform.passes");
  if (passes != delta.counters.end()) result.transform_passes = passes->second;
  const auto frozen = delta.counters.find("transform.blocks_frozen");
  if (frozen != delta.counters.end()) result.blocks_frozen = frozen->second;

  uint64_t frozen_blocks = 0;
  uint64_t total_blocks = 0;
  for (catalog::SqlTable *table : {lineitem_, orders_, part_}) {
    for (storage::RawBlock *block : table->UnderlyingTable().Blocks()) {
      total_blocks++;
      if (block->controller.GetState() == storage::BlockState::kFrozen) frozen_blocks++;
    }
  }
  if (total_blocks > 0) {
    result.frozen_pct =
        100.0 * static_cast<double>(frozen_blocks) / static_cast<double>(total_blocks);
  }
  return result;
}

}  // namespace mainline::workload::chbench
