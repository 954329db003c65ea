// Figure 20 (extension experiment, no direct paper counterpart): the HTAP
// scenario the paper pitches but never benchmarks end to end — CH-benCHmark
// style. N TPC-C terminals hammer their warehouses and feed fresh orders
// into the TPC-H tables while Q1/Q6/Q12/Q14 plans run morsel-parallel over
// those same tables and the TransformPipeline freezes cold blocks in the
// background. Two windows on identical, freshly loaded engines: the fixed
// cadence an operator would have to hand-tune, then the freeze-rate
// feedback controller (transform/freeze_policy.h).
//
// Expected shape: txn throughput within a few percent between modes (the
// controller's duty-cycle floor keeps it out of the writers' way); under the
// adaptive cadence the observer's cold-block backlog stays bounded (second-
// half maximum at or below the first-half's) and freshness lag recovers,
// where the uncalibrated fixed cadence lets the backlog ratchet upward.
// Every sampled query answer must match its scalar oracle bit-exactly in
// the same snapshot — the binary exits non-zero on any divergence.

#include <cinttypes>
#include <memory>

#include "bench_util.h"
#include "common/worker_pool.h"
#include "execution/operators/plan_profile.h"
#include "metrics/metrics_registry.h"
#include "workload/chbench/chbench_harness.h"
#include "workload/tpch/tpch_queries.h"

namespace mainline::bench {
namespace {

workload::chbench::Config HarnessConfig(bool adaptive) {
  workload::chbench::Config config;
  config.terminals = static_cast<uint32_t>(EnvInt("MAINLINE_F20_TERMINALS", 4));
  config.query_workers = static_cast<uint32_t>(EnvInt("MAINLINE_F20_QUERY_WORKERS", 2));
  config.duration_seconds = EnvDouble("MAINLINE_F20_SECONDS", 3.0);
  config.tpcc_scale = workload::tpcc::Config::Scaled(
      static_cast<int32_t>(EnvInt("MAINLINE_F20_ITEMS", 10000)),
      static_cast<int32_t>(EnvInt("MAINLINE_F20_CUSTOMERS", 300)));
  config.lineitem_rows = static_cast<uint64_t>(EnvInt("MAINLINE_F20_ROWS", 300000));
  config.part_rows = static_cast<uint64_t>(EnvInt("MAINLINE_F20_PARTS", 20000));
  config.feed_rows_per_txn = static_cast<uint64_t>(EnvInt("MAINLINE_F20_FEED_ROWS", 16));
  config.oracle_every = static_cast<uint32_t>(EnvInt("MAINLINE_F20_ORACLE_EVERY", 4));
  // The fixed window's period is deliberately the kind of uncalibrated guess
  // a fixed cadence forces on operators; the adaptive controller is compared
  // against it.
  if (!adaptive) {
    config.policy = transform::FreezePolicy::Config::Pinned(
        std::chrono::milliseconds(EnvInt("MAINLINE_F20_FIXED_PERIOD_MS", 100)));
  }
  return config;
}

void PrintMode(const char *label, const workload::chbench::Result &result) {
  std::printf(
      "%-9s %10.1f %8" PRIu64 " %8" PRIu64 " %11" PRIu64 " / %-6" PRIu64
      " %9" PRIu64 " / %-9" PRIu64 " %6" PRIu64 " %9.1f %8.1f %7.1f %9lld\n",
      label, result.txns_per_second / 1000.0, result.tpcc_committed, result.feed_rows,
      result.oracle_checks, result.oracle_mismatches,
      static_cast<uint64_t>(result.queue_depth_max_first_half),
      static_cast<uint64_t>(result.queue_depth_max_second_half),
      static_cast<uint64_t>(result.queue_depth_end), result.freeze_lag_p95_us / 1000.0,
      result.frozen_pct, static_cast<double>(result.transform_passes),
      static_cast<long long>(result.final_period.count()));
  for (const workload::chbench::QueryStats &query : result.queries) {
    std::printf("   %-4s runs %6" PRIu64 "  p50 %9.0f us  p95 %9.0f us  p99 %9.0f us\n",
                query.name.c_str(), query.runs, query.p50_us, query.p95_us, query.p99_us);
  }
}

}  // namespace
}  // namespace mainline::bench

int main() {
  using namespace mainline::bench;
  namespace chbench = mainline::workload::chbench;
  namespace tpch = mainline::workload::tpch;

  std::printf(
      "== Figure 20: CH-benCHmark HTAP — TPC-C terminals + Q1/Q6/Q12/Q14 + background "
      "transform ==\n");

  uint64_t mismatches = 0;
  std::unique_ptr<Engine> adaptive_engine;
  std::unique_ptr<chbench::ChBenchHarness> adaptive_harness;

  std::printf("%-9s %10s %8s %8s %18s %21s %6s %9s %8s %7s %9s\n", "mode", "ktps",
              "tpcc", "feed", "oracle ok/bad", "queue max 1st/2nd", "end",
              "lag p95ms", "%frozen", "passes", "period ms");
  for (const bool adaptive : {false, true}) {
    auto engine = std::make_unique<Engine>(60000);
    auto harness = std::make_unique<chbench::ChBenchHarness>(
        &engine->catalog, &engine->txn_manager, &engine->gc, HarnessConfig(adaptive));
    harness->Setup();
    const chbench::Result result = harness->Run();
    mismatches += result.oracle_mismatches;
    PrintMode(adaptive ? "adaptive" : "fixed", result);
    if (adaptive) {
      adaptive_engine = std::move(engine);
      adaptive_harness = std::move(harness);
    }
  }

  // One profiled Q12 over the adaptive engine's (now partly frozen) tables:
  // the EXPLAIN ANALYZE record the metrics contract requires per bench.
  mainline::execution::op::PlanProfile profile;
  {
    mainline::common::WorkerPool pool(
        static_cast<uint32_t>(EnvInt("MAINLINE_F20_QUERY_WORKERS", 2)));
    auto *txn = adaptive_engine->txn_manager.BeginTransaction();
    tpch::RunQ12Parallel(adaptive_harness->OrdersTable(), adaptive_harness->LineItem(), txn,
                         tpch::Q12Params(), &pool, nullptr, &profile);
    adaptive_engine->txn_manager.Commit(txn);
  }
  std::printf("METRICS_JSON {\"engine\":%s,\"profiles\":{\"q12\":%s}}\n",
              mainline::metrics::MetricsRegistry::Global().Snapshot().ToJson().c_str(),
              profile.ToJson().c_str());

  if (mismatches != 0) {
    std::printf("ORACLE DIVERGENCE: %" PRIu64 " sampled answers mismatched\n", mismatches);
    return 1;
  }
  return 0;
}
