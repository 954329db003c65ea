// In-situ TPC-H: generate LINEITEM, ORDERS, PART, and CUSTOMER, answer Q1
// and Q6 (single table), Q12 (hash join ORDERS ⋈ LINEITEM), Q14 (hash join
// LINEITEM ⋈ PART, FP promo-revenue ratio), and Q3 (three-way join
// CUSTOMER ⋈ ORDERS ⋈ LINEITEM with ORDER BY revenue LIMIT 10) with
// operator-pipeline plans while the tables are hot, freeze them through the
// transformation pipeline, and answer them again — now zero-copy straight
// out of the frozen Arrow blocks. Each round also runs the same plans
// morsel-parallel across all hardware threads. Every run is checked
// bit-exactly against the tuple-at-a-time scalar reference (the plans'
// per-block accumulation makes their results independent of the worker
// count), so this doubles as an end-to-end smoke test (non-zero exit on any
// divergence).
//
//   $ ./build/examples/tpch_query
//   $ ./build/examples/tpch_query --explain   # + EXPLAIN ANALYZE of Q3
//
// With --explain, the frozen round ends with a profiled Q3 run and its
// per-operator EXPLAIN ANALYZE report (rows in/out, selectivity, inclusive/
// exclusive time per operator, per-pipeline scan stats).
//
// Knobs: MAINLINE_TPCH_ROWS (default 200000), MAINLINE_TPCH_ORDERS (default
// rows / 3), MAINLINE_TPCH_PARTS (default rows / 3), MAINLINE_TPCH_CUSTOMERS
// (default rows / 6; a third of the order custkeys dangle past it),
// MAINLINE_TPCH_TXN_ROWS (rows per generator transaction, default 10000),
// MAINLINE_TPCH_THREADS (parallel-engine workers, default hardware
// concurrency).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <variant>
#include <vector>

#include "catalog/catalog.h"
#include "workload/tpch/query_runner.h"
#include "gc/garbage_collector.h"
#include "transform/access_observer.h"
#include "transform/block_transformer.h"
#include "transform/transform_pipeline.h"
#include "workload/tpch/customer.h"
#include "workload/tpch/lineitem.h"
#include "workload/tpch/orders.h"
#include "workload/tpch/part.h"

using namespace mainline;
using workload::ExecMode;
using workload::QueryRunner;
namespace q = workload::tpch;

namespace {

int64_t EnvInt(const char *name, int64_t def) {
  const char *value = std::getenv(name);
  return value == nullptr ? def : std::atoll(value);
}

/// Run every query as an inline plan, as `parallel`'s multi-threaded plan,
/// and on the scalar reference; print the answers, and verify the engines
/// agree bit-exactly.
/// \param runner a one-thread runner: its plans run inline
/// \return true if every answer matched.
bool RunAndCheck(QueryRunner *runner, QueryRunner *parallel, const q::Tables &tables,
                 const char *label) {
  bool ok = true;
  q::Answer answers[std::size(q::kQueries)];
  execution::ScanStats q1_stats;
  for (const q::Query query : q::kQueries) {
    const QueryRunner::Result plan = runner->Run(query, tables);
    const q::Answer scalar = runner->Run(query, tables, ExecMode::kScalar).answer;
    const q::Answer par = parallel->Run(query, tables).answer;
    if (!(plan.answer == scalar && par == scalar)) {
      std::printf("%s: engines DIVERGE\n", q::QueryName(query));
      ok = false;
    }
    if (query == q::Query::kQ1) q1_stats = plan.stats;
    answers[static_cast<size_t>(query)] = plan.answer;
  }
  const auto answer_of = [&](q::Query query) -> const q::Answer & {
    return answers[static_cast<size_t>(query)];
  };

  std::printf("\n-- %s: %llu rows, %llu blocks zero-copy, %llu blocks materialized --\n",
              label, static_cast<unsigned long long>(q1_stats.rows),
              static_cast<unsigned long long>(q1_stats.frozen_blocks),
              static_cast<unsigned long long>(q1_stats.hot_blocks));
  std::printf("Q1  %-4s %-4s %14s %16s %16s %10s\n", "flag", "stat", "sum_qty",
              "sum_disc_price", "sum_charge", "count");
  for (const q::Q1Row &row : std::get<std::vector<q::Q1Row>>(answer_of(q::Query::kQ1))) {
    std::printf("    %-4s %-4s %14.2f %16.2f %16.2f %10llu\n", row.returnflag.c_str(),
                row.linestatus.c_str(), row.sum_qty, row.sum_disc_price, row.sum_charge,
                static_cast<unsigned long long>(row.count));
  }
  std::printf("Q6  revenue = %.4f\n", std::get<double>(answer_of(q::Query::kQ6)));
  std::printf("Q12 %-9s %16s %16s   (hash join ORDERS x LINEITEM)\n", "shipmode",
              "high_line_count", "low_line_count");
  for (const q::Q12Row &row : std::get<std::vector<q::Q12Row>>(answer_of(q::Query::kQ12))) {
    std::printf("    %-9s %16llu %16llu\n", row.shipmode.c_str(),
                static_cast<unsigned long long>(row.high_line_count),
                static_cast<unsigned long long>(row.low_line_count));
  }

  std::printf("Q14 promo revenue = %.4f%%   (hash join LINEITEM x PART)\n",
              std::get<double>(answer_of(q::Query::kQ14)));
  const auto &q3 = std::get<std::vector<q::Q3Row>>(answer_of(q::Query::kQ3));
  std::printf("Q3  %10s %14s %10s %9s   (CUSTOMER x ORDERS x LINEITEM, top %zu)\n",
              "orderkey", "revenue", "orderdate", "priority", q3.size());
  for (const q::Q3Row &row : q3) {
    std::printf("    %10lld %14.4f %10u %9d\n", static_cast<long long>(row.orderkey),
                row.revenue, row.orderdate, row.shippriority);
  }

  std::printf("engines agree bit-exactly (inline + %u-thread plans vs scalar): %s\n",
              parallel->NumThreads(), ok ? "yes" : "NO — MISMATCH");
  return ok;
}

}  // namespace

int main(int argc, char **argv) {
  bool explain = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else {
      std::fprintf(stderr, "usage: %s [--explain]\n", argv[0]);
      return 2;
    }
  }

  storage::BlockStore block_store(5000, 100);
  storage::RecordBufferSegmentPool buffer_pool(0, 1000);
  catalog::Catalog catalog(&block_store);
  transaction::TransactionManager txn_manager(&buffer_pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);

  const auto rows = static_cast<uint64_t>(EnvInt("MAINLINE_TPCH_ROWS", 200000));
  const auto num_orders = static_cast<uint64_t>(
      EnvInt("MAINLINE_TPCH_ORDERS", static_cast<int64_t>(rows / 3)));
  const auto num_parts = static_cast<uint64_t>(
      EnvInt("MAINLINE_TPCH_PARTS", static_cast<int64_t>(rows / 3)));
  const auto num_customers = static_cast<uint64_t>(
      EnvInt("MAINLINE_TPCH_CUSTOMERS", static_cast<int64_t>(rows / 6)));
  const auto txn_rows = static_cast<uint64_t>(EnvInt("MAINLINE_TPCH_TXN_ROWS", 10000));
  std::printf(
      "generating LINEITEM (%llu rows) + ORDERS (%llu rows) + PART (%llu rows) + "
      "CUSTOMER (%llu rows)...\n",
      static_cast<unsigned long long>(rows), static_cast<unsigned long long>(num_orders),
      static_cast<unsigned long long>(num_parts),
      static_cast<unsigned long long>(num_customers));
  catalog::SqlTable *lineitem =
      workload::tpch::GenerateLineItem(&catalog, &txn_manager, rows, /*seed=*/7, txn_rows);
  // A third of the order custkeys point past the customer table, so Q3's
  // first join edge has dangling FKs to drop, like the test matrix.
  catalog::SqlTable *orders =
      workload::tpch::GenerateOrders(&catalog, &txn_manager, num_orders, /*seed=*/11, txn_rows,
                                     "orders", num_customers + num_customers / 2);
  catalog::SqlTable *part =
      workload::tpch::GeneratePart(&catalog, &txn_manager, num_parts, /*seed=*/13, txn_rows);
  catalog::SqlTable *customer = workload::tpch::GenerateCustomer(
      &catalog, &txn_manager, num_customers, /*seed=*/17, txn_rows);
  gc.FullGC();

  const q::Tables tables{lineitem, orders, part, customer};
  QueryRunner runner(&txn_manager, /*num_threads=*/1);
  QueryRunner parallel(&txn_manager,
                       static_cast<uint32_t>(EnvInt("MAINLINE_TPCH_THREADS", 0)));
  bool ok = RunAndCheck(&runner, &parallel, tables, "hot tables (100% materialized)");

  // The tables go cold; the transformation pipeline freezes them into
  // canonical Arrow, and the same queries now run in situ.
  transform::AccessObserver observer(/*cold_threshold=*/2);
  transform::BlockTransformer transformer(&txn_manager, &gc);
  transform::TransformPipeline pipeline(&observer, &transformer, /*group_size=*/4);
  pipeline.EnqueueTable(&lineitem->UnderlyingTable());
  pipeline.EnqueueTable(&orders->UnderlyingTable());
  pipeline.EnqueueTable(&part->UnderlyingTable());
  pipeline.EnqueueTable(&customer->UnderlyingTable());
  const uint32_t frozen = pipeline.RunOnce();
  std::printf("\nfroze %u of %zu blocks (all tables)\n", frozen,
              lineitem->UnderlyingTable().NumBlocks() +
                  orders->UnderlyingTable().NumBlocks() +
                  part->UnderlyingTable().NumBlocks() +
                  customer->UnderlyingTable().NumBlocks());

  ok = RunAndCheck(&runner, &parallel, tables, "frozen tables (in-situ, zero-copy)") && ok;

  if (explain) {
    // EXPLAIN ANALYZE: rerun Q3 over the frozen tables with per-operator
    // profiling on. The answer is bit-identical to the unprofiled runs
    // above; the extra output is the plan's per-operator record.
    parallel.SetProfiling(true);
    const QueryRunner::Result profiled = parallel.Run(q::Query::kQ3, tables);
    parallel.SetProfiling(false);
    std::printf("\n-- EXPLAIN ANALYZE: Q3, frozen tables, %u-thread plan --\n%s",
                parallel.NumThreads(), parallel.LastProfile().ToString().c_str());
    if (q::IsEmpty(profiled.answer)) {
      std::printf("EXPLAIN ANALYZE run returned no rows\n");
      ok = false;
    }
  }

  gc.FullGC();
  return ok ? 0 : 1;
}
