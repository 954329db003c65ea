#include "queries.h"

#include <algorithm>

namespace mainline::e2e {

namespace tpch = workload::tpch;

namespace {

constexpr Query kAllQueries[] = {Query::kQ1, Query::kQ3, Query::kQ6, Query::kQ12, Query::kQ14};

/// Indexed by Query. Span names are literals: spans keep the pointer.
constexpr struct {
  const char *name;
  const char *span;
} kNames[] = {{"q1", "query.q1"},
              {"q3", "query.q3"},
              {"q6", "query.q6"},
              {"q12", "query.q12"},
              {"q14", "query.q14"}};

/// Operator label (execution/operators/*.h Label()) -> reported kind.
const char *KindOf(const std::string &label) {
  if (label == "Filter") return "filter";
  if (label == "Project") return "project";
  if (label == "HashJoinBuild") return "join_build";
  if (label == "HashJoinProbe") return "join_probe";
  if (label == "Aggregate") return "agg";
  if (label == "TopK") return "topk";
  return nullptr;
}

}  // namespace

const char *QueryName(Query query) { return kNames[static_cast<size_t>(query)].name; }

const char *QuerySpan(Query query) { return kNames[static_cast<size_t>(query)].span; }

Answer RunPlan(Query query, const TpchTables &tables, transaction::TransactionContext *txn,
               common::WorkerPool *pool, execution::op::PlanProfile *profile) {
  trace::Span span("exec.plan");
  switch (query) {
    case Query::kQ1:
      return tpch::RunQ1Parallel(tables.lineitem, txn, tpch::Q1Params(), pool, nullptr, profile);
    case Query::kQ3:
      return tpch::RunQ3Parallel(tables.customer, tables.orders, tables.lineitem, txn,
                                 tpch::Q3Params(), pool, nullptr, profile);
    case Query::kQ6:
      return tpch::RunQ6Parallel(tables.lineitem, txn, tpch::Q6Params(), pool, nullptr, profile);
    case Query::kQ12:
      return tpch::RunQ12Parallel(tables.orders, tables.lineitem, txn, tpch::Q12Params(), pool,
                                  nullptr, profile);
    case Query::kQ14:
      return tpch::RunQ14Parallel(tables.lineitem, tables.part, txn, tpch::Q14Params(), pool,
                                  nullptr, profile);
  }
  return 0.0;
}

Answer RunOracle(Query query, const TpchTables &tables, transaction::TransactionContext *txn) {
  trace::Span span("check.oracle");
  switch (query) {
    case Query::kQ1:
      return tpch::RunQ1Scalar(tables.lineitem, txn, tpch::Q1Params());
    case Query::kQ3:
      return tpch::RunQ3Scalar(tables.customer, tables.orders, tables.lineitem, txn,
                               tpch::Q3Params());
    case Query::kQ6:
      return tpch::RunQ6Scalar(tables.lineitem, txn, tpch::Q6Params());
    case Query::kQ12:
      return tpch::RunQ12Scalar(tables.orders, tables.lineitem, txn, tpch::Q12Params());
    case Query::kQ14:
      return tpch::RunQ14Scalar(tables.lineitem, tables.part, txn, tpch::Q14Params());
  }
  return 0.0;
}

void OperatorCosts::Add(const execution::op::PlanProfile &profile, uint32_t workers) {
  for (const execution::op::PipelineProfile &pipe : profile.pipelines) {
    // The scan is not an operator of its own: estimate its cost as the
    // pipeline's worker-time (scan phase wall time x workers) minus what the
    // first operator's Push, which includes everything downstream, consumed.
    const double worker_ns =
        static_cast<double>(pipe.wall_ns - std::min(pipe.finish_ns, pipe.wall_ns)) * workers;
    const double pushed_ns =
        pipe.operators.empty() ? 0 : static_cast<double>(pipe.operators.front().inclusive_ns);
    costs_["scan"].ns += std::max(0.0, worker_ns - pushed_ns);
    costs_["scan"].rows += pipe.scan.rows;
    for (const execution::op::OperatorProfile &op : pipe.operators) {
      const char *kind = KindOf(op.label);
      if (kind == nullptr) continue;
      costs_[kind].ns += static_cast<double>(op.exclusive_ns);
      costs_[kind].rows += op.rows_in;
    }
  }
}

void OperatorCosts::ReportTo(Report *report) const {
  for (const char *kind :
       {"scan", "filter", "project", "join_build", "join_probe", "agg", "topk"}) {
    const auto it = costs_.find(kind);
    const double ns = it == costs_.end() ? 0 : it->second.ns;
    const uint64_t rows = it == costs_.end() ? 0 : it->second.rows;
    report->Layer(std::string("exec.") + kind + "_ns_per_row",
                  rows == 0 ? 0 : ns / static_cast<double>(rows), "ns", rows);
  }
}

void QueryLatencies::ReportTo(Report *report) {
  uint64_t runs = 0;
  for (const Query query : kAllQueries) {
    Samples &samples = Of(query);
    const std::string name = std::string("exec.") + QueryName(query);
    report->Layer(name + "_ms", samples.Median(), "ms", samples.Count());
    report->Layer(name + "_p90_ms", samples.Percentile(0.9), "ms", samples.Count());
    runs += samples.Count();
  }
  report->Layer("exec.queries", static_cast<double>(runs), "count", 1);
}

}  // namespace mainline::e2e
