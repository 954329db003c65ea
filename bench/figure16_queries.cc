// Figures 16-19 (extension experiments, no direct paper counterpart): in-situ
// TPC-H throughput of the operator-pipeline plans against a tuple-at-a-time
// scalar baseline, for every query of the tpch::Query table — Q1 and Q6 scan
// LINEITEM, Q12 and Q14 add a hash join, Q3 a three-way join with a top-k
// sink — at 0/50/100% frozen, plus a morsel-parallel worker sweep and what
// per-operator profiling (EXPLAIN ANALYZE) costs a plan.
//
// Expected shape: scalar throughput is flat — it pays a per-tuple Select at
// every frozen fraction. The plans' throughput grows with the frozen
// fraction: a frozen block is read zero-copy straight out of block storage
// (the paper's Figure 1 "in-situ analytics" promise), while a hot block must
// first be transactionally materialized into vectors. The sweep shows the
// morsel-parallel engine multiplying whichever per-block path applies until
// memory bandwidth or the core count caps it; a join's build bounds it
// sooner. Profiling stays within a few percent (1.05x is the bar): it reads
// one timer per operator per block, not per row.
//
// Every plan must agree bit-exactly with its scalar oracle, inline and at
// every worker count. The binary exits 1 on a mismatch, on an empty answer
// (which could not tell two queries apart), or when the profiling overhead
// exceeds the bar or cannot be measured.

#include <algorithm>
#include <cinttypes>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.h"
#include "metrics/metrics_registry.h"
#include "transform/block_transformer.h"
#include "workload/tpch/customer.h"
#include "workload/tpch/lineitem.h"
#include "workload/tpch/orders.h"
#include "workload/tpch/part.h"
#include "workload/tpch/query_runner.h"

namespace mainline::bench {
namespace {

namespace tpch = workload::tpch;

/// Generate LINEITEM (`rows`), ORDERS and PART (rows/3 each) and CUSTOMER
/// (rows/6), and freeze the first `percent_frozen`% of each table's blocks.
/// A third of the order custkeys dangle past CUSTOMER, so Q3's first join
/// edge drops rows as real (filtered) data would.
std::unique_ptr<Engine> BuildTables(uint64_t rows, uint32_t percent_frozen, tpch::Tables *tables,
                                    uint64_t *frozen_blocks, uint64_t *total_blocks) {
  constexpr uint64_t kTxnRows = 10000;
  auto engine = std::make_unique<Engine>();
  catalog::Catalog *catalog = &engine->catalog;
  transaction::TransactionManager *txns = &engine->txn_manager;
  const uint64_t customers = rows / 6;
  tables->lineitem = tpch::GenerateLineItem(catalog, txns, rows, /*seed=*/7, kTxnRows);
  tables->orders = tpch::GenerateOrders(catalog, txns, rows / 3, /*seed=*/11, kTxnRows,
                                        "orders", customers + customers / 2);
  tables->part = tpch::GeneratePart(catalog, txns, rows / 3, /*seed=*/13, kTxnRows);
  tables->customer = tpch::GenerateCustomer(catalog, txns, customers, /*seed=*/17, kTxnRows);
  engine->gc.FullGC();

  transform::BlockTransformer transformer(txns, &engine->gc);
  *frozen_blocks = 0;
  *total_blocks = 0;
  for (catalog::SqlTable *table :
       {tables->lineitem, tables->orders, tables->part, tables->customer}) {
    storage::DataTable &dt = table->UnderlyingTable();
    const auto blocks = dt.Blocks();
    const auto to_freeze = static_cast<size_t>(blocks.size() * percent_frozen / 100);
    for (size_t i = 0; i < to_freeze; i++) {
      *frozen_blocks += transformer.ProcessGroup(&dt, {blocks[i]}, nullptr);
    }
    *total_blocks += blocks.size();
  }
  engine->gc.FullGC();
  return engine;
}

}  // namespace
}  // namespace mainline::bench

int main() {
  using namespace mainline;
  using namespace mainline::bench;
  using workload::ExecMode;
  using workload::QueryRunner;
  const int64_t rows = EnvInt("MAINLINE_F16_ROWS", 2000000);
  const int64_t reps = EnvInt("MAINLINE_F16_REPS", 3);
  if (rows <= 0 || reps <= 0) {
    std::printf("MAINLINE_F16_ROWS and MAINLINE_F16_REPS must be positive (got %" PRId64
                " and %" PRId64 ")\n",
                rows, reps);
    return 1;
  }
  const std::vector<uint32_t> thread_list = EnvThreadList("MAINLINE_F16_THREADS");
  const double max_overhead = EnvDouble("MAINLINE_F16_PROFILE_MAX_OVERHEAD", 1.05);
  constexpr size_t kNumQueries = std::size(tpch::kQueries);

  std::printf("== Figure 16: in-situ TPC-H, plan inline vs scalar (M rows/s over every table "
              "a query reads, best of %" PRId64 "), LINEITEM %" PRId64
              " rows, ORDERS and PART %" PRId64 ", CUSTOMER %" PRId64 " ==\n",
              reps, rows, rows / 3, rows / 6);
  std::printf("%-8s %14s %6s %10s %10s %12s\n", "%frozen", "frozen/blocks", "query", "plan",
              "scalar", "plan/scalar");

  bool ok = true;
  std::vector<std::string> sweep_lines;
  std::unique_ptr<Engine> engine;
  tpch::Tables tables;
  for (const uint32_t frozen_pct : {0u, 50u, 100u}) {
    engine.reset();
    uint64_t frozen_blocks = 0;
    uint64_t total_blocks = 0;
    engine = BuildTables(static_cast<uint64_t>(rows), frozen_pct, &tables, &frozen_blocks,
                         &total_blocks);
    QueryRunner runner(&engine->txn_manager, /*num_threads=*/1);

    // Correctness gate before timing: the inline plan against the oracle.
    // The oracle's scan counters count each table the query reads once, the
    // throughput denominator.
    tpch::Answer oracle[kNumQueries];
    uint64_t scanned[kNumQueries];
    for (size_t q = 0; q < kNumQueries; q++) {
      const tpch::Query query = tpch::kQueries[q];
      const QueryRunner::Result scalar = runner.Run(query, tables, ExecMode::kScalar);
      oracle[q] = scalar.answer;
      scanned[q] = scalar.stats.rows;
      if (tpch::IsEmpty(scalar.answer) || !(runner.Run(query, tables).answer == scalar.answer)) {
        std::printf("RESULT MISMATCH (or empty answer) for %s at %u%% frozen\n",
                    tpch::QueryName(query), frozen_pct);
        ok = false;
        continue;
      }
      const double s = MRowsPerSecond(scanned[q], reps,
                                      [&] { runner.Run(query, tables, ExecMode::kScalar); });
      const double p = MRowsPerSecond(scanned[q], reps, [&] { runner.Run(query, tables); });
      std::printf("%-8u %6" PRIu64 "/%-7" PRIu64 " %6s %10.1f %10.1f %11.1fx\n", frozen_pct,
                  frozen_blocks, total_blocks, tpch::QueryName(query), p, s, p / s);
    }

    // Worker sweep: every query's morsel-parallel plan at each worker
    // count, gated against the oracle before timing.
    for (const uint32_t threads : thread_list) {
      runner.SetNumThreads(threads);
      char head[32];
      std::snprintf(head, sizeof(head), "%-8u %8u", frozen_pct, threads);
      std::string line = head;
      for (size_t q = 0; q < kNumQueries; q++) {
        const tpch::Query query = tpch::kQueries[q];
        char cell[16];
        if (!(runner.Run(query, tables).answer == oracle[q])) {
          std::printf("PARALLEL RESULT MISMATCH for %s at %u%% frozen, %u threads\n",
                      tpch::QueryName(query), frozen_pct, threads);
          ok = false;
          std::snprintf(cell, sizeof(cell), " %9s", "MISMATCH");
        } else {
          std::snprintf(cell, sizeof(cell), " %9.1f",
                        MRowsPerSecond(scanned[q], reps, [&] { runner.Run(query, tables); }));
        }
        line += cell;
      }
      sweep_lines.push_back(line);
    }
    engine->gc.FullGC();
  }

  std::printf("\n== Figure 16 threads sweep: morsel-parallel plans (M rows/s, best of %" PRId64
              ") ==\n%-8s %8s",
              reps, "%frozen", "threads");
  for (const tpch::Query query : tpch::kQueries) std::printf(" %9s", tpch::QueryName(query));
  std::printf("\n");
  for (const std::string &line : sweep_lines) std::printf("%s\n", line.c_str());

  // Profiling-overhead gate over the last (100% frozen) tables: Q6 inline,
  // the thinnest per-chunk path and so the worst case for per-operator timer
  // reads. Unprofiled and profiled runs alternate, so drift in the host's
  // speed hits both alike; each side keeps its best. A ratio that is not a
  // number (nothing was timed) fails too.
  QueryRunner runner(&engine->txn_manager, /*num_threads=*/1);
  const auto q6_rows = static_cast<uint64_t>(rows);
  const int64_t gate_reps = std::max<int64_t>(reps, 3);
  double plain = 0;
  double profiled = 0;
  for (int64_t r = 0; r < gate_reps; r++) {
    for (const bool profiling : {false, true}) {
      runner.SetProfiling(profiling);
      double &best = profiling ? profiled : plain;
      best = std::max(best, MRowsPerSecond(q6_rows, 1,
                                           [&] { runner.Run(tpch::Query::kQ6, tables); }));
    }
  }
  const double overhead = plain / profiled;
  const bool overhead_ok = overhead <= max_overhead;
  std::printf("\n== Figure 18: profiling overhead, Q6 inline, 100%% frozen (M rows/s, best of "
              "%" PRId64 " interleaved) ==\n%10s %10s %10s\n%10.1f %10.1f %9.3fx\n",
              gate_reps, "plain", "profiled", "overhead", plain, profiled, overhead);
  std::printf("profiling overhead %.3fx (bar %.2fx): %s\n", overhead, max_overhead,
              overhead_ok ? "ok" : "EXCEEDED");

  // Machine-readable tail line: the engine-wide metrics snapshot plus every
  // query's profiled plan on two workers (so the snapshot covers the worker
  // pool too), for run_benches.sh to fold into BENCH_*.json and
  // scripts/validate_metrics_json.py to gate in CI.
  runner.SetNumThreads(2);
  runner.SetProfiling(true);
  std::string profiles;
  for (const tpch::Query query : tpch::kQueries) {
    runner.Run(query, tables);
    profiles += std::string(profiles.empty() ? "" : ",") + "\"" + tpch::QueryName(query) +
                "\":" + runner.LastProfile().ToJson();
  }
  std::printf("METRICS_JSON {\"engine\":%s,\"profiles\":{%s}}\n",
              metrics::MetricsRegistry::Global().Snapshot().ToJson().c_str(), profiles.c_str());
  engine->gc.FullGC();
  return ok && overhead_ok ? 0 : 1;
}
