// Figure 16 (extension experiment, no direct paper counterpart): in-situ
// query throughput of the vectorized execution engine over LINEITEM as the
// frozen fraction varies, against a tuple-at-a-time scalar baseline — plus a
// worker-threads sweep of the morsel-parallel engine.
//
// Expected shape: scalar throughput is flat — it pays a per-tuple Select at
// every frozen fraction. The vectorized engine's throughput *scales with the
// frozen fraction*: a frozen block is queried zero-copy straight out of
// block storage (the paper's Figure 1 "in-situ analytics" promise, an order
// of magnitude over scalar at 100% frozen), while a hot block must first be
// transactionally materialized into vectors. The threads sweep then shows
// the morsel-parallel engine multiplying whichever per-block path applies:
// blocks are independent morsels, so throughput scales with workers until
// memory bandwidth (or the machine's core count) caps it.
//
// All engines must agree bit-exactly on every result — including the
// parallel engine at every worker count — and the binary exits non-zero on
// any mismatch.

#include <cinttypes>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/tpch/query_runner.h"
#include "transform/block_transformer.h"
#include "workload/tpch/lineitem.h"

namespace mainline::bench {
namespace {

/// Generate LINEITEM and freeze the first `percent_frozen`% of its blocks.
std::unique_ptr<Engine> BuildLineItem(uint64_t rows, uint64_t txn_rows,
                                      uint32_t percent_frozen, catalog::SqlTable **out,
                                      uint64_t *frozen_out) {
  auto engine = std::make_unique<Engine>();
  catalog::SqlTable *table = workload::tpch::GenerateLineItem(
      &engine->catalog, &engine->txn_manager, rows, /*seed=*/7, txn_rows);
  engine->gc.FullGC();

  transform::BlockTransformer transformer(&engine->txn_manager, &engine->gc);
  storage::DataTable &dt = table->UnderlyingTable();
  const auto blocks = dt.Blocks();
  const auto to_freeze = static_cast<size_t>(blocks.size() * percent_frozen / 100);
  uint64_t frozen = 0;
  for (size_t i = 0; i < to_freeze; i++) {
    frozen += transformer.ProcessGroup(&dt, {blocks[i]}, nullptr);
  }
  engine->gc.FullGC();
  *out = table;
  *frozen_out = frozen;
  return engine;
}

}  // namespace
}  // namespace mainline::bench

int main() {
  using namespace mainline;
  using namespace mainline::bench;
  using workload::ExecMode;
  const auto rows = static_cast<uint64_t>(EnvInt("MAINLINE_F16_ROWS", 2000000));
  const auto txn_rows = static_cast<uint64_t>(EnvInt("MAINLINE_F16_TXN_ROWS", 10000));
  const int64_t reps = EnvInt("MAINLINE_F16_REPS", 3);
  const std::vector<uint32_t> thread_list = EnvThreadList("MAINLINE_F16_THREADS");

  std::printf(
      "== Figure 16: in-situ Q1/Q6 throughput (Mrows/s, best of %" PRId64
      "), LINEITEM %" PRIu64 " rows ==\n",
      reps, rows);
  std::printf("%-9s %8s %10s %10s %10s %10s %14s\n", "%frozen", "blocks", "q1-vec",
              "q1-scalar", "q6-vec", "q6-scalar", "q6 vec/scalar");

  bool all_match = true;
  std::vector<std::string> sweep_lines;
  for (const uint32_t frozen_pct : {0u, 50u, 100u}) {
    catalog::SqlTable *table = nullptr;
    uint64_t frozen_blocks = 0;
    auto engine = BuildLineItem(rows, txn_rows, frozen_pct, &table, &frozen_blocks);
    workload::QueryRunner runner(&engine->txn_manager, /*num_threads=*/1);

    // Correctness gate: the engines must agree bit-exactly before timing.
    const auto q1_vec = runner.RunQ1(table);
    const auto q1_scalar = runner.RunQ1(table, {}, ExecMode::kScalar);
    const auto q6_vec = runner.RunQ6(table);
    const auto q6_scalar = runner.RunQ6(table, {}, ExecMode::kScalar);
    if (!(q1_vec.rows == q1_scalar.rows) || q6_vec.revenue != q6_scalar.revenue) {
      std::printf("RESULT MISMATCH at %u%% frozen\n", frozen_pct);
      all_match = false;
      continue;
    }

    const double q1v = MRowsPerSecond(rows, reps, [&] { runner.RunQ1(table); });
    const double q1s =
        MRowsPerSecond(rows, reps, [&] { runner.RunQ1(table, {}, ExecMode::kScalar); });
    const double q6v = MRowsPerSecond(rows, reps, [&] { runner.RunQ6(table); });
    const double q6s =
        MRowsPerSecond(rows, reps, [&] { runner.RunQ6(table, {}, ExecMode::kScalar); });
    std::printf("%-9u %8" PRIu64 " %10.1f %10.1f %10.1f %10.1f %13.1fx\n", frozen_pct,
                frozen_blocks, q1v, q1s, q6v, q6s, q6v / q6s);

    // Threads sweep: the morsel-parallel engine at each worker count, gated
    // bit-exactly against the scalar reference before timing.
    double q6_one_thread = 0;
    for (const uint32_t threads : thread_list) {
      runner.SetNumThreads(threads);
      const auto q1_par = runner.RunQ1(table);
      const auto q6_par = runner.RunQ6(table);
      if (!(q1_par.rows == q1_scalar.rows) || q6_par.revenue != q6_scalar.revenue) {
        std::printf("PARALLEL RESULT MISMATCH at %u%% frozen, %u threads\n", frozen_pct,
                    threads);
        all_match = false;
        continue;
      }
      const double q1p = MRowsPerSecond(rows, reps, [&] { runner.RunQ1(table); });
      const double q6p = MRowsPerSecond(rows, reps, [&] { runner.RunQ6(table); });
      // Baseline = the first entry that actually produced a timing (a gated
      // failure above leaves it unset).
      if (q6_one_thread == 0) q6_one_thread = q6p;
      char line[160];
      std::snprintf(line, sizeof(line), "%-9u %8u %10.1f %10.1f %17.2fx", frozen_pct,
                    threads, q1p, q6p,
                    q6_one_thread > 0 ? q6p / q6_one_thread : 1.0);
      sweep_lines.emplace_back(line);
    }
    engine->gc.FullGC();
  }

  std::printf(
      "\n== Figure 16 threads sweep: morsel-parallel engine (Mrows/s, best of %" PRId64
      ") ==\n",
      reps);
  std::printf("%-9s %8s %10s %10s %18s\n", "%frozen", "threads", "q1-par", "q6-par",
              "q6 speedup-vs-first");
  for (const std::string &line : sweep_lines) std::printf("%s\n", line.c_str());
  return all_match ? 0 : 1;
}
