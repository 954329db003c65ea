// Figure 19 (extension experiment, no direct paper counterpart): TPC-H Q3 —
// the engine's first multi-way join (CUSTOMER ⋈ ORDERS ⋈ LINEITEM) with an
// ORDER BY revenue LIMIT sink — over fully frozen tables, the paper's
// in-situ sweet spot. The three-pipeline plan (probe chaining through both
// hash tables, revenue folded during the LINEITEM probe, Top-K heap sink)
// runs tuple-at-a-time scalar, vectorized inline, and morsel-parallel
// across a worker sweep.
//
// Expected shape: the vectorized plan beats the scalar reference by the
// usual batch-dispatch margin, and the parallel engine scales with workers
// until the (small) build pipelines bound the speedup. Every engine must
// agree bit-exactly — full result rows, order included, so the LIMIT
// boundary's deterministic tie-break is exercised — and the binary exits
// non-zero on any mismatch.

#include <cinttypes>
#include <vector>

#include "bench_util.h"
#include "workload/tpch/query_runner.h"
#include "metrics/metrics_registry.h"
#include "transform/block_transformer.h"
#include "workload/tpch/customer.h"
#include "workload/tpch/lineitem.h"
#include "workload/tpch/orders.h"

namespace mainline::bench {
namespace {

/// Generate CUSTOMER + ORDERS + LINEITEM and freeze every block of all
/// three. A third of the order custkeys dangle past the customer table, so
/// the first join edge drops rows like real (filtered) data would.
std::unique_ptr<Engine> BuildFrozenTables(uint64_t rows, uint64_t num_orders,
                                          uint64_t num_customers, uint64_t txn_rows,
                                          catalog::SqlTable **customer_out,
                                          catalog::SqlTable **orders_out,
                                          catalog::SqlTable **lineitem_out) {
  auto engine = std::make_unique<Engine>();
  catalog::SqlTable *lineitem = workload::tpch::GenerateLineItem(
      &engine->catalog, &engine->txn_manager, rows, /*seed=*/7, txn_rows);
  catalog::SqlTable *orders = workload::tpch::GenerateOrders(
      &engine->catalog, &engine->txn_manager, num_orders, /*seed=*/11, txn_rows, "orders",
      num_customers + num_customers / 2);
  catalog::SqlTable *customer = workload::tpch::GenerateCustomer(
      &engine->catalog, &engine->txn_manager, num_customers, /*seed=*/17, txn_rows);
  engine->gc.FullGC();
  transform::BlockTransformer transformer(&engine->txn_manager, &engine->gc);
  for (catalog::SqlTable *table : {lineitem, orders, customer}) {
    storage::DataTable &dt = table->UnderlyingTable();
    for (storage::RawBlock *block : dt.Blocks()) {
      transformer.ProcessGroup(&dt, {block}, nullptr);
    }
  }
  engine->gc.FullGC();
  *customer_out = customer;
  *orders_out = orders;
  *lineitem_out = lineitem;
  return engine;
}

}  // namespace
}  // namespace mainline::bench

int main() {
  using namespace mainline;
  using namespace mainline::bench;
  using workload::ExecMode;
  const auto rows = static_cast<uint64_t>(EnvInt("MAINLINE_F19_ROWS", 2000000));
  const auto num_orders = static_cast<uint64_t>(
      EnvInt("MAINLINE_F19_ORDERS", static_cast<int64_t>(rows / 3)));
  const auto num_customers = static_cast<uint64_t>(
      EnvInt("MAINLINE_F19_CUSTOMERS", static_cast<int64_t>(rows / 6)));
  const auto txn_rows = static_cast<uint64_t>(EnvInt("MAINLINE_F19_TXN_ROWS", 10000));
  const int64_t reps = EnvInt("MAINLINE_F19_REPS", 3);
  const std::vector<uint32_t> thread_list = EnvThreadList("MAINLINE_F19_THREADS");
  // Throughput normalizes by every row the query touches: all three scans.
  const uint64_t scanned = rows + num_orders + num_customers;

  catalog::SqlTable *customer = nullptr;
  catalog::SqlTable *orders = nullptr;
  catalog::SqlTable *lineitem = nullptr;
  auto engine = BuildFrozenTables(rows, num_orders, num_customers, txn_rows, &customer,
                                  &orders, &lineitem);
  workload::QueryRunner runner(&engine->txn_manager, /*num_threads=*/1);

  std::printf("== Figure 19: TPC-H Q3 three-way join + top-k, 100%% frozen "
              "(M scanned rows/s, best of %" PRId64 "), LINEITEM %" PRIu64
              " rows, ORDERS %" PRIu64 " rows, CUSTOMER %" PRIu64 " rows ==\n",
              reps, rows, num_orders, num_customers);

  bool all_match = true;

  // Correctness gate first: full rows, order included, on every engine.
  const auto scalar_ref = runner.RunQ3(customer, orders, lineitem, {}, ExecMode::kScalar);
  const auto vectorized = runner.RunQ3(customer, orders, lineitem, {});
  if (scalar_ref.rows.empty() || !(vectorized.rows == scalar_ref.rows)) {
    std::printf("Q3 RESULT MISMATCH (scalar %zu rows, vectorized %zu rows)\n",
                scalar_ref.rows.size(), vectorized.rows.size());
    all_match = false;
  } else {
    std::printf("%-12s %10s\n", "engine", "M rows/s");
    const double s = MRowsPerSecond(scanned, reps, [&] {
      runner.RunQ3(customer, orders, lineitem, {}, ExecMode::kScalar);
    });
    const double v = MRowsPerSecond(scanned, reps,
                                    [&] { runner.RunQ3(customer, orders, lineitem); });
    std::printf("%-12s %10.1f\n", "scalar", s);
    std::printf("%-12s %10.1f   (%.2fx scalar)\n", "vectorized", v, v / s);
  }

  // Morsel-parallel sweep, correctness-gated per worker count.
  std::printf("\n== Figure 19 threads sweep: morsel-parallel Q3 "
              "(M scanned rows/s, best of %" PRId64 ") ==\n",
              reps);
  std::printf("%-8s %10s\n", "threads", "q3-par");
  for (const uint32_t threads : thread_list) {
    runner.SetNumThreads(threads);
    const auto par = runner.RunQ3(customer, orders, lineitem);
    if (!(par.rows == scalar_ref.rows)) {
      std::printf("PARALLEL RESULT MISMATCH at %u threads\n", threads);
      all_match = false;
      continue;
    }
    const double p =
        MRowsPerSecond(scanned, reps, [&] { runner.RunQ3(customer, orders, lineitem); });
    std::printf("%-8u %10.1f\n", threads, p);
  }

  // Machine-readable tail line: the engine-wide metrics snapshot plus the
  // profiled Q3 three-pipeline plan, for run_benches.sh to fold into
  // BENCH_*.json (and scripts/validate_metrics_json.py to gate in CI).
  {
    runner.SetNumThreads(1);
    runner.SetProfiling(true);
    runner.RunQ3(customer, orders, lineitem);
    std::printf("METRICS_JSON {\"engine\":%s,\"profiles\":{\"q3\":%s}}\n",
                metrics::MetricsRegistry::Global().Snapshot().ToJson().c_str(),
                runner.LastProfile().ToJson().c_str());
  }
  return all_match ? 0 : 1;
}
