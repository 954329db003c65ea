// Figure 18 (extension experiment, no direct paper counterpart): what
// per-operator profiling (EXPLAIN ANALYZE) costs the operator-pipeline plans.
// TPC-H Q6 runs inline over a fully frozen LINEITEM — the paper's in-situ
// sweet spot, and the thinnest per-chunk path, so the worst case for the
// per-operator timer reads — once unprofiled and once profiled.
//
// Expected shape: profiling stays within a few percent (1.05x is the bar)
// because the profiler reads one timer per operator per block, not per row.
// The binary exits non-zero when the overhead exceeds the bar or cannot be
// measured.

#include <algorithm>
#include <cinttypes>
#include <string>

#include "bench_util.h"
#include "metrics/metrics_registry.h"
#include "transform/block_transformer.h"
#include "workload/tpch/lineitem.h"
#include "workload/tpch/orders.h"
#include "workload/tpch/query_runner.h"

namespace mainline::bench {
namespace {

/// Generate LINEITEM + ORDERS and freeze every block of both tables.
std::unique_ptr<Engine> BuildFrozenTables(uint64_t rows, uint64_t num_orders,
                                          uint64_t txn_rows,
                                          catalog::SqlTable **lineitem_out,
                                          catalog::SqlTable **orders_out) {
  auto engine = std::make_unique<Engine>();
  catalog::SqlTable *lineitem = workload::tpch::GenerateLineItem(
      &engine->catalog, &engine->txn_manager, rows, /*seed=*/7, txn_rows);
  catalog::SqlTable *orders = workload::tpch::GenerateOrders(
      &engine->catalog, &engine->txn_manager, num_orders, /*seed=*/11, txn_rows);
  engine->gc.FullGC();
  transform::BlockTransformer transformer(&engine->txn_manager, &engine->gc);
  for (catalog::SqlTable *table : {lineitem, orders}) {
    storage::DataTable &dt = table->UnderlyingTable();
    for (storage::RawBlock *block : dt.Blocks()) {
      transformer.ProcessGroup(&dt, {block}, nullptr);
    }
  }
  engine->gc.FullGC();
  *lineitem_out = lineitem;
  *orders_out = orders;
  return engine;
}

}  // namespace
}  // namespace mainline::bench

int main() {
  using namespace mainline;
  using namespace mainline::bench;
  const int64_t rows = EnvInt("MAINLINE_F18_ROWS", 2000000);
  if (rows <= 0) {
    std::printf("MAINLINE_F18_ROWS must be positive (got %" PRId64 ")\n", rows);
    return 1;
  }
  const auto num_rows = static_cast<uint64_t>(rows);
  const int64_t reps = EnvInt("MAINLINE_F18_REPS", 3);

  catalog::SqlTable *lineitem = nullptr;
  catalog::SqlTable *orders = nullptr;
  auto engine =
      BuildFrozenTables(num_rows, num_rows / 3, /*txn_rows=*/10000, &lineitem, &orders);
  // One thread: every plan runs inline on this thread.
  workload::QueryRunner runner(&engine->txn_manager, /*num_threads=*/1);

  // Profiling overhead gate: EXPLAIN ANALYZE must stay near-free. Best-of at
  // least 3 reps to damp noise; the ratio bar is a knob because CI machines
  // are noisy. A ratio that is not a number (nothing was timed) fails too.
  const double max_overhead = EnvDouble("MAINLINE_F18_PROFILE_MAX_OVERHEAD", 1.05);
  const int64_t gate_reps = std::max<int64_t>(reps, 3);
  runner.SetProfiling(false);
  const double plain = MRowsPerSecond(num_rows, gate_reps, [&] { runner.RunQ6(lineitem); });
  runner.SetProfiling(true);
  const double profiled = MRowsPerSecond(num_rows, gate_reps, [&] { runner.RunQ6(lineitem); });
  const double overhead = plain / profiled;
  const bool ok = overhead <= max_overhead;
  std::printf("== Figure 18: profiling overhead, Q6 inline, 100%% frozen LINEITEM %" PRIu64
              " rows (M rows/s, best of %" PRId64 ") ==\n%10s %10s %10s\n%10.1f %10.1f %9.3fx\n",
              num_rows, gate_reps, "plain", "profiled", "overhead", plain, profiled, overhead);
  std::printf("profiling overhead %.3fx (bar %.2fx): %s\n", overhead, max_overhead,
              ok ? "ok" : "EXCEEDED");

  // Machine-readable tail line: the engine-wide metrics snapshot plus the
  // last profiled Q6/Q12 plans, for run_benches.sh to fold into BENCH_*.json
  // (and scripts/validate_metrics_json.py to gate in CI). The two plans run
  // on two threads, so the snapshot covers the worker pool too.
  runner.SetNumThreads(2);
  runner.RunQ6(lineitem);
  const std::string q6_profile = runner.LastProfile().ToJson();
  runner.RunQ12(orders, lineitem);
  const std::string q12_profile = runner.LastProfile().ToJson();
  std::printf("METRICS_JSON {\"engine\":%s,\"profiles\":{\"q6\":%s,\"q12\":%s}}\n",
              metrics::MetricsRegistry::Global().Snapshot().ToJson().c_str(),
              q6_profile.c_str(), q12_profile.c_str());
  return ok ? 0 : 1;
}
