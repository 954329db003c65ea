// Figure 17 (extension experiment, no direct paper counterpart): in-situ
// hash-join throughput — TPC-H Q12 (ORDERS ⋈ LINEITEM, group by
// l_shipmode) as the frozen fraction varies, against a tuple-at-a-time
// scalar baseline, plus a worker-threads sweep of the morsel-parallel
// engine (parallel build AND parallel probe).
//
// Expected shape: like figure16, the scalar engine is flat while the
// vectorized engine scales with the frozen fraction — but the join adds a
// build phase whose hash table is shared read-only by every probe worker,
// so the threads sweep shows the probe scaling like a scan while the build
// amortizes across partitions. All engines must agree exactly on every
// result at every worker count; the binary exits non-zero on any mismatch.

#include <cinttypes>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/tpch/query_runner.h"
#include "transform/block_transformer.h"
#include "workload/tpch/lineitem.h"
#include "workload/tpch/orders.h"

namespace mainline::bench {
namespace {

/// Generate LINEITEM + ORDERS and freeze the first `percent_frozen`% of each
/// table's blocks.
std::unique_ptr<Engine> BuildTables(uint64_t rows, uint64_t num_orders, uint64_t txn_rows,
                                    uint32_t percent_frozen, catalog::SqlTable **lineitem_out,
                                    catalog::SqlTable **orders_out, uint64_t *frozen_out) {
  auto engine = std::make_unique<Engine>();
  catalog::SqlTable *lineitem = workload::tpch::GenerateLineItem(
      &engine->catalog, &engine->txn_manager, rows, /*seed=*/7, txn_rows);
  catalog::SqlTable *orders = workload::tpch::GenerateOrders(
      &engine->catalog, &engine->txn_manager, num_orders, /*seed=*/11, txn_rows);
  engine->gc.FullGC();

  transform::BlockTransformer transformer(&engine->txn_manager, &engine->gc);
  uint64_t frozen = 0;
  for (catalog::SqlTable *table : {lineitem, orders}) {
    storage::DataTable &dt = table->UnderlyingTable();
    const auto blocks = dt.Blocks();
    const auto to_freeze = static_cast<size_t>(blocks.size() * percent_frozen / 100);
    for (size_t i = 0; i < to_freeze; i++) {
      frozen += transformer.ProcessGroup(&dt, {blocks[i]}, nullptr);
    }
  }
  engine->gc.FullGC();
  *lineitem_out = lineitem;
  *orders_out = orders;
  *frozen_out = frozen;
  return engine;
}

}  // namespace
}  // namespace mainline::bench

int main() {
  using namespace mainline;
  using namespace mainline::bench;
  using workload::ExecMode;
  const auto rows = static_cast<uint64_t>(EnvInt("MAINLINE_F17_ROWS", 2000000));
  const auto num_orders =
      static_cast<uint64_t>(EnvInt("MAINLINE_F17_ORDERS", static_cast<int64_t>(rows / 3)));
  const auto txn_rows = static_cast<uint64_t>(EnvInt("MAINLINE_F17_TXN_ROWS", 10000));
  const int64_t reps = EnvInt("MAINLINE_F17_REPS", 3);
  const std::vector<uint32_t> thread_list = EnvThreadList("MAINLINE_F17_THREADS");

  std::printf("== Figure 17: in-situ hash join (Q12) throughput (M lineitem rows/s, best of "
              "%" PRId64 "), LINEITEM %" PRIu64 " rows, ORDERS %" PRIu64 " rows ==\n",
              reps, rows, num_orders);
  std::printf("%-9s %8s %10s %10s %16s\n", "%frozen", "blocks", "q12-vec", "q12-scalar",
              "q12 vec/scalar");

  bool all_match = true;
  std::vector<std::string> sweep_lines;
  for (const uint32_t frozen_pct : {0u, 50u, 100u}) {
    catalog::SqlTable *lineitem = nullptr;
    catalog::SqlTable *orders = nullptr;
    uint64_t frozen_blocks = 0;
    auto engine = BuildTables(rows, num_orders, txn_rows, frozen_pct, &lineitem, &orders,
                              &frozen_blocks);
    workload::QueryRunner runner(&engine->txn_manager, /*num_threads=*/1);

    // Correctness gate: the engines must agree exactly before timing.
    const auto vec = runner.RunQ12(orders, lineitem);
    const auto scalar = runner.RunQ12(orders, lineitem, {}, ExecMode::kScalar);
    if (!(vec.rows == scalar.rows) || vec.rows.empty()) {
      std::printf("RESULT MISMATCH at %u%% frozen\n", frozen_pct);
      all_match = false;
      continue;
    }

    const double v = MRowsPerSecond(rows, reps, [&] { runner.RunQ12(orders, lineitem); });
    const double s = MRowsPerSecond(
        rows, reps, [&] { runner.RunQ12(orders, lineitem, {}, ExecMode::kScalar); });
    std::printf("%-9u %8" PRIu64 " %10.1f %10.1f %15.1fx\n", frozen_pct, frozen_blocks, v, s,
                v / s);

    // Threads sweep: morsel-parallel build + probe at each worker count,
    // gated exactly against the scalar reference before timing.
    double one_thread = 0;
    for (const uint32_t threads : thread_list) {
      runner.SetNumThreads(threads);
      const auto par = runner.RunQ12(orders, lineitem);
      if (!(par.rows == scalar.rows)) {
        std::printf("PARALLEL RESULT MISMATCH at %u%% frozen, %u threads\n", frozen_pct,
                    threads);
        all_match = false;
        continue;
      }
      const double p = MRowsPerSecond(rows, reps, [&] { runner.RunQ12(orders, lineitem); });
      if (one_thread == 0) one_thread = p;
      char line[160];
      std::snprintf(line, sizeof(line), "%-9u %8u %10.1f %20.2fx", frozen_pct, threads, p,
                    one_thread > 0 ? p / one_thread : 1.0);
      sweep_lines.emplace_back(line);
    }
    engine->gc.FullGC();
  }

  std::printf("\n== Figure 17 threads sweep: morsel-parallel join (M lineitem rows/s, best of "
              "%" PRId64 ") ==\n",
              reps);
  std::printf("%-9s %8s %10s %21s\n", "%frozen", "threads", "q12-par", "q12 speedup-vs-first");
  for (const std::string &line : sweep_lines) std::printf("%s\n", line.c_str());
  return all_match ? 0 : 1;
}
