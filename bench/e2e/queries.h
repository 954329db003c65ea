#pragma once

// The analytical side shared by the analytics and htap workloads: one entry
// point per TPC-H query that runs the morsel-parallel plan or its scalar
// oracle, a comparable answer type, and the per-operator cost aggregation
// taken from traced runs' plan profiles.

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "catalog/sql_table.h"
#include "common/worker_pool.h"
#include "execution/operators/plan_profile.h"
#include "harness.h"
#include "transaction/transaction_context.h"
#include "workload/tpch/tpch_queries.h"

namespace mainline::e2e {

enum class Query : uint8_t { kQ1, kQ3, kQ6, kQ12, kQ14 };

/// "q1", "q3", ...
const char *QueryName(Query query);
/// The span name of one timed query ("query.q1", ...).
const char *QuerySpan(Query query);

struct TpchTables {
  catalog::SqlTable *lineitem = nullptr;
  catalog::SqlTable *orders = nullptr;
  catalog::SqlTable *part = nullptr;
  catalog::SqlTable *customer = nullptr;  // Q3 only
};

/// A query's result, compared bit-exactly between plan and oracle.
using Answer = std::variant<std::vector<workload::tpch::Q1Row>,
                            std::vector<workload::tpch::Q3Row>, double,
                            std::vector<workload::tpch::Q12Row>>;

/// Run the plan morsel-parallel over `pool` inside `txn`.
Answer RunPlan(Query query, const TpchTables &tables, transaction::TransactionContext *txn,
               common::WorkerPool *pool, execution::op::PlanProfile *profile);

/// Run the scalar tuple-at-a-time oracle inside `txn`.
Answer RunOracle(Query query, const TpchTables &tables, transaction::TransactionContext *txn);

/// Per-operator cost summed over traced plan runs: exclusive nanoseconds and
/// rows in, keyed by operator kind (scan, filter, project, join_build,
/// join_probe, agg, topk).
class OperatorCosts {
 public:
  void Add(const execution::op::PlanProfile &profile, uint32_t workers);
  /// Report exec.<kind>_ns_per_row for every kind (0 where no rows went in).
  void ReportTo(Report *report) const;

 private:
  struct Cost {
    double ns = 0;
    uint64_t rows = 0;
  };
  std::map<std::string, Cost> costs_;
};

/// Per-query latency samples, reported as exec.<q>_ms (median) and
/// exec.<q>_p90_ms for every query of the benchmark (0 where not run), and
/// their total as exec.queries.
class QueryLatencies {
 public:
  void Add(Query query, double ms) { samples_[static_cast<size_t>(query)].Add(ms); }
  Samples &Of(Query query) { return samples_[static_cast<size_t>(query)]; }
  void ReportTo(Report *report);

 private:
  Samples samples_[5];
};

}  // namespace mainline::e2e
