// analytics: 2 M LINEITEM rows (~310 blocks, about 3x the 105 MB LLC) plus
// ORDERS, PART and CUSTOMER, all frozen during set-up through
// BlockTransformer::ProcessGroup. The measured window runs a fixed number of
// cycles of Q1, Q3, Q6, Q12 and Q14 — morsel-parallel on a 4-worker pool,
// one after another (a closed loop of one analyst) — each followed by an
// Arrow Flight export of LINEITEM. Every answer is compared bit-exactly with
// its scalar oracle, and every export with a scan of the same table. The
// write path — logging, GC work, hot blocks — is bypassed.

#include <memory>
#include <string>
#include <vector>

#include "export/protocols.h"
#include "harness.h"
#include "queries.h"
#include "storage/raw_block.h"
#include "transform/block_transformer.h"
#include "workload/tpch/customer.h"
#include "workload/tpch/lineitem.h"
#include "workload/tpch/orders.h"
#include "workload/tpch/part.h"

namespace mainline::e2e {

namespace tpch = workload::tpch;

namespace {

// Query cycles per budget second, sized on the reference host so the
// measured window lasts about --seconds.
constexpr double kCyclesPerSecond = 4.5;
constexpr uint32_t kWorkers = 4;
constexpr uint32_t kGroupSize = 8;  // blocks per compaction group
constexpr Query kCycle[] = {Query::kQ1, Query::kQ3, Query::kQ6, Query::kQ12, Query::kQ14};

struct AnalyticsWorld {
  AnalyticsWorld() : engine("") {}
  Engine engine;
  TpchTables tables;
  transform::TransformStats freeze;
};

/// Freeze every block of `table` in compaction groups, timed per group.
void FreezeTable(Engine *engine, catalog::SqlTable *table, transform::TransformStats *stats) {
  transform::BlockTransformer transformer(&engine->txn_manager, &engine->gc);
  const std::vector<storage::RawBlock *> blocks = table->UnderlyingTable().Blocks();
  for (size_t i = 0; i < blocks.size(); i += kGroupSize) {
    const std::vector<storage::RawBlock *> group(
        blocks.begin() + static_cast<long>(i),
        blocks.begin() + static_cast<long>(std::min(blocks.size(), i + kGroupSize)));
    trace::Span span("transform.freeze");
    transformer.ProcessGroup(&table->UnderlyingTable(), group, stats);
  }
}

/// What the client received: its row count and the same sums ScanLineItem
/// takes, read from the landed Arrow batches.
LineItemChecksum ClientChecksum(const exporter::ArrowFlightExporter &flight) {
  LineItemChecksum sum;
  for (const auto &batch : flight.ClientBatches()) {
    const arrowlite::Array &orderkey = *batch->column(tpch::L_ORDERKEY);
    const arrowlite::Array &quantity = *batch->column(tpch::L_QUANTITY);
    for (int64_t i = 0; i < batch->num_rows(); i++) {
      sum.orderkey_sum += orderkey.Value<int64_t>(i);
      sum.quantity_sum += quantity.Value<double>(i);
    }
    sum.rows += static_cast<uint64_t>(batch->num_rows());
  }
  return sum;
}

}  // namespace

void RunAnalytics(const Options &options, Report *report) {
  const uint64_t lineitem_rows = options.smoke ? 20000 : 2000000;
  const uint64_t part_rows = options.smoke ? 2000 : 200000;
  const uint64_t customer_rows = options.smoke ? 1500 : 150000;
  const double budget = options.smoke ? 0.2 : options.seconds;
  const auto cycles = std::max<uint64_t>(1, static_cast<uint64_t>(kCyclesPerSecond * budget));
  report->Knob("workers", kWorkers);
  report->Knob("lineitem_rows", static_cast<double>(lineitem_rows));
  report->Knob("orders_rows", static_cast<double>(lineitem_rows / 2));
  report->Knob("part_rows", static_cast<double>(part_rows));
  report->Knob("customer_rows", static_cast<double>(customer_rows));
  report->Knob("cycles", static_cast<double>(cycles));
  report->Knob("warmup_cycles", 1);
  report->Knob("wal", "off");

  auto world = RepeatSetup<AnalyticsWorld>(options, report, [&] {
    trace::Span span("setup.load");
    auto w = std::make_unique<AnalyticsWorld>();
    catalog::Catalog *catalog = &w->engine.catalog;
    transaction::TransactionManager *tm = &w->engine.txn_manager;
    TpchTables &t = w->tables;
    t.lineitem = tpch::GenerateLineItem(catalog, tm, lineitem_rows, options.seed);
    // GenerateLineItem advances the order key at most once per row and
    // about once per three rows on average: half the rows covers every key.
    t.orders = tpch::GenerateOrders(catalog, tm, lineitem_rows / 2, options.seed + 1, 10000,
                                    "orders", customer_rows);
    t.part = tpch::GeneratePart(catalog, tm, part_rows, options.seed + 2);
    t.customer = tpch::GenerateCustomer(catalog, tm, customer_rows, options.seed + 3);
    w->engine.gc.FullGC();
    for (catalog::SqlTable *table : {t.lineitem, t.orders, t.part, t.customer}) {
      FreezeTable(&w->engine, table, &w->freeze);
    }
    w->engine.gc.FullGC();
    return w;
  });
  Engine &engine = world->engine;
  const TpchTables &tables = world->tables;
  const double frozen_pct =
      FrozenPct({&tables.lineitem->UnderlyingTable(), &tables.orders->UnderlyingTable(),
                 &tables.part->UnderlyingTable(), &tables.customer->UnderlyingTable()});

  // References, untimed: each query's oracle answer and a scan of LINEITEM.
  std::vector<Answer> oracle;
  {
    transaction::TransactionContext *txn = engine.txn_manager.BeginTransaction();
    for (const Query query : kCycle) oracle.push_back(RunOracle(query, tables, txn));
    engine.txn_manager.Commit(txn);
  }
  const LineItemChecksum scanned = ScanLineItem(&engine, tables.lineitem);

  // Arrow data is at most the block bytes plus the gathered varlen buffers.
  exporter::ClientBuffer client((tables.lineitem->UnderlyingTable().NumBlocks() + 4) *
                                (storage::kBlockSize + storage::kBlockSize / 2));
  exporter::ArrowFlightExporter flight(&client);

  QueryLatencies queries;
  OperatorCosts operator_costs;
  std::vector<OpSample> ops;
  Samples export_ms;
  Samples export_gbps;
  exporter::ExportResult last_export;
  uint64_t mismatches = 0;
  uint64_t bad_exports = 0;
  std::string export_detail = "every export matched the scan: " + scanned.ToString();

  common::WorkerPool pool(kWorkers);
  GcLoop gc_loop(&engine.gc, std::chrono::milliseconds(10));
  CpuSampler cpu;
  int64_t window_start = 0;
  std::unique_ptr<RegistryWindow> registry;
  for (uint64_t cycle = 0; cycle < cycles + 1; cycle++) {
    const bool measured = cycle > 0;  // the first cycle warms up
    if (cycle == 1) {
      registry = std::make_unique<RegistryWindow>();
      window_start = NowNs();
    }
    for (size_t q = 0; q < std::size(kCycle); q++) {
      transaction::TransactionContext *txn = engine.txn_manager.BeginTransaction();
      execution::op::PlanProfile profile;
      const int64_t start = NowNs();
      Answer answer;
      {
        trace::Span span(QuerySpan(kCycle[q]));
        answer = RunPlan(kCycle[q], tables, txn, &pool, trace::Enabled() ? &profile : nullptr);
      }
      const int64_t end = NowNs();
      engine.txn_manager.Commit(txn);
      if (!(answer == oracle[q])) mismatches++;
      if (!measured) continue;
      queries.Add(kCycle[q], static_cast<double>(end - start) / 1e6);
      ops.push_back({end, static_cast<float>(end - start) / 1e3f});
      if (trace::Enabled()) operator_costs.Add(profile, kWorkers);
    }
    {
      trace::Span span("export.flight");
      last_export = flight.Export(tables.lineitem, &engine.txn_manager);
    }
    const LineItemChecksum received = ClientChecksum(flight);
    if (!(received == scanned)) {
      bad_exports++;
      export_detail = "scan " + scanned.ToString() + ", client received " + received.ToString();
    }
    if (measured) {
      export_ms.Add(static_cast<double>(last_export.micros) / 1e3);
      export_gbps.Add(static_cast<double>(last_export.wire_bytes) /
                      static_cast<double>(last_export.micros) / 1e3);
    }
  }
  const Window window = CloseWindow(window_start, NowNs());
  cpu.Stop();
  const metrics::MetricsSnapshot delta = registry->Delta();
  const double gc_drain_ms = gc_loop.Drain();

  report->AddAttempted((cycles + 1) * (std::size(kCycle) + 1));
  report->Check("analytics.oracle", mismatches == 0,
                std::to_string(mismatches) + " plan answers differed from their scalar oracle",
                std::max<uint64_t>(mismatches, 1));
  report->Check("analytics.export", bad_exports == 0, export_detail,
                std::max<uint64_t>(bad_exports, 1));
  report->Check("analytics.frozen", frozen_pct == 100.0,
                std::to_string(frozen_pct) + "% of blocks frozen by set-up");
  ReportOps(report, &ops, window, cpu);
  ReportRegistry(report, delta);
  ReportGc(report, &gc_loop, gc_drain_ms);
  queries.ReportTo(report);
  operator_costs.ReportTo(report);
  report->Layer("export.ms", export_ms.Median(), "ms", export_ms.Count());
  report->Layer("export.gbps", export_gbps.Median(), "GB/s", export_gbps.Count());
  report->Layer("export.wire_bytes", static_cast<double>(last_export.wire_bytes), "bytes", 1);
  report->Layer("export.frozen_blocks", static_cast<double>(last_export.frozen_blocks), "count",
                1);
  report->Layer("export.hot_blocks", static_cast<double>(last_export.hot_blocks), "count", 1);
  ReportTransform(report, world->freeze, frozen_pct);
}

}  // namespace mainline::e2e
