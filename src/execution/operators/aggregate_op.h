#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/worker_pool.h"
#include "execution/operators/operator.h"

namespace mainline::execution::op {

/// One aggregate of an AggregateOp, as data.
struct AggSpec {
  enum class Kind : uint8_t {
    kSum,         ///< double sum of `expr` over qualifying rows/matches
    kCount,       ///< number of qualifying rows/matches (COUNT(*))
    kSumPayload,  ///< integer sum of the join payload (downstream of a probe)
    kMin,         ///< running minimum of `expr`
    kMax,         ///< running maximum of `expr`
  };

  Kind kind = Kind::kCount;
  Expr expr;  ///< input of kSum/kMin/kMax; unused otherwise
  /// kSum only: accumulate a match only when its join payload is non-zero —
  /// SQL's `SUM(x) FILTER (WHERE <payload bit>)`, the shape of Q14's promo
  /// revenue. Requires a probe upstream.
  bool payload_gate = false;

  static AggSpec Sum(Expr expr, bool payload_gate = false) {
    AggSpec a;
    a.kind = Kind::kSum;
    a.expr = expr;
    a.payload_gate = payload_gate;
    return a;
  }
  static AggSpec Count() {
    AggSpec a;
    a.kind = Kind::kCount;
    return a;
  }
  static AggSpec SumPayload() {
    AggSpec a;
    a.kind = Kind::kSumPayload;
    return a;
  }
  static AggSpec Min(Expr expr) {
    AggSpec a;
    a.kind = Kind::kMin;
    a.expr = expr;
    return a;
  }
  static AggSpec Max(Expr expr) {
    AggSpec a;
    a.kind = Kind::kMax;
    a.expr = expr;
    return a;
  }
};

/// One aggregate's accumulator/result: `f64` for kSum/kMin/kMax, `u64` for
/// kCount/kSumPayload.
struct AggValue {
  double f64 = 0;
  uint64_t u64 = 0;
};

/// One result group: the group-by key values (empty for an ungrouped
/// aggregate) and one AggValue per AggSpec, in spec order.
struct ResultRow {
  std::vector<std::string> keys;
  std::vector<AggValue> values;
};

/// Grouped or ungrouped aggregation sink — the canonical per-block-ordinal
/// reduction of tpch_queries.h as an operator: Push accumulates one block's
/// partial, and Finish folds the partials into the final result in block
/// order, one addition per aggregate per (block, group). A grouped Push runs
/// in two passes: pass 1 resolves every selected row or join match to a
/// group index (groups discovered in row/match order), pass 2 runs one tight
/// loop per aggregate over a flat per-group accumulator array. Each
/// accumulator still takes its inputs in row/match order, so the fixed
/// reduction-tree shape — what makes a plan's floating-point result
/// bit-identical to the scalar tuple-at-a-time reference at any worker
/// count — is unchanged.
///
/// Group-by columns are batch indices of string columns (at most two —
/// enough for every TPC-H shape shipped so far). Dictionary-encoded batches
/// resolve groups by code (pair-coded for two columns) without touching the
/// strings in the loop; plain keys of at most 7 bytes resolve as packed
/// words through a small cache. Group values must be non-null. An ungrouped
/// aggregate always produces exactly one result row even when nothing
/// qualified — sums and counts at zero, kMin/kMax at their identities
/// (+inf/-inf; pair them with a kCount to distinguish "empty" from data). A
/// grouped aggregate produces one row per discovered group, sorted
/// lexicographically by keys.
class AggregateOp final : public Operator {
 public:
  AggregateOp(std::vector<uint16_t> group_cols, std::vector<AggSpec> aggs);

  void Prepare(size_t num_blocks) override {
    partials_.assign(num_blocks, {});
    result_.clear();
  }

  void Push(Chunk *chunk) override;

  std::string Label() const override { return "Aggregate"; }

  void Finish(common::WorkerPool *pool) override;

  /// Final rows; valid once the plan has Run.
  const std::vector<ResultRow> &Result() const { return result_; }

 private:
  /// A group's accumulators inside one block partial (or the global merge).
  struct GroupAcc {
    std::vector<std::string> keys;
    std::vector<AggValue> values;
  };
  /// One block's groups, in discovery order.
  using Partial = std::vector<GroupAcc>;

  class Resolver;

  GroupAcc NewGroup(std::vector<std::string> keys) const;
  void UngroupedPush(Chunk *chunk, const std::vector<BoundExpr> &bound);

  static uint32_t FindOrAddGroup(Partial *partial, const std::vector<std::string> &keys,
                                 const AggregateOp &op);

  std::vector<uint16_t> group_cols_;
  std::vector<AggSpec> aggs_;
  bool needs_payload_ = false;
  std::vector<Partial> partials_;
  std::vector<ResultRow> result_;
};

}  // namespace mainline::execution::op
