#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "catalog/sql_table.h"
#include "common/timer.h"
#include "common/worker_pool.h"
#include "execution/operators/aggregate_op.h"
#include "execution/operators/filter_op.h"
#include "execution/operators/hash_join_op.h"
#include "execution/operators/project_op.h"
#include "execution/operators/scan_source.h"
#include "execution/operators/topk_op.h"
#include "transaction/transaction_context.h"

namespace mainline::execution::op {

/// One push-based pipeline: a ScanSource feeding a chain of operators. The
/// pipeline owns its operators; Add wires each new operator as the previous
/// one's successor, so construction order is chain order.
class Pipeline {
 public:
  Pipeline(catalog::SqlTable *table, std::vector<uint16_t> projection)
      : source_(table, std::move(projection)) {}

  DISALLOW_COPY_AND_MOVE(Pipeline)

  /// Construct an operator at the end of the chain. \return the operator,
  /// non-owning (handy for keeping a handle to a sink).
  template <typename OpT, typename... Args>
  OpT *Add(Args &&...args) {
    auto owned = std::make_unique<OpT>(std::forward<Args>(args)...);
    OpT *raw = owned.get();
    if (!ops_.empty()) ops_.back()->SetNext(raw);
    ops_.push_back(std::move(owned));
    return raw;
  }

  ScanSource &Source() { return source_; }

  /// Run to completion: Prepare every operator, stream the scan, then Finish
  /// in chain order. Inline when `pool` is null, morsel-parallel otherwise.
  /// When `profile` is non-null the run is profiled into it: per-operator
  /// rows/chunks/time recorders are attached for this run only (detached —
  /// back to a single null check per chunk — when `profile` is null).
  void Run(transaction::TransactionContext *txn, common::WorkerPool *pool, ScanStats *stats,
           PipelineProfile *profile = nullptr) {
    MAINLINE_ASSERT(!ops_.empty(), "a pipeline needs at least one operator");
    if (profile != nullptr && profilers_.size() != ops_.size()) {
      profilers_.clear();
      for (size_t i = 0; i < ops_.size(); i++) {
        profilers_.push_back(std::make_unique<OperatorProfiler>());
      }
    }
    for (size_t i = 0; i < ops_.size(); i++) {
      ops_[i]->SetProfiler(profile == nullptr ? nullptr : profilers_[i].get());
    }

    const common::Timer wall_timer;
    source_.Run(
        txn, pool, ops_.front().get(),
        [this, profile](size_t num_blocks) {
          for (const auto &op : ops_) op->Prepare(num_blocks);
          if (profile != nullptr) {
            for (const auto &profiler : profilers_) profiler->Prepare(num_blocks);
          }
        },
        stats, profile);
    const common::Timer finish_timer;
    if (profile == nullptr) {
      for (const auto &op : ops_) op->Finish(pool);
      return;
    }
    profile->operators.assign(ops_.size(), OperatorProfile{});
    for (size_t i = 0; i < ops_.size(); i++) {
      const common::Timer op_timer;
      ops_[i]->Finish(pool);
      profile->operators[i].finish_ns = op_timer.Elapsed<std::chrono::nanoseconds>();
    }
    profile->finish_ns = finish_timer.Elapsed<std::chrono::nanoseconds>();
    profile->wall_ns = wall_timer.Elapsed<std::chrono::nanoseconds>();
    for (size_t i = 0; i < ops_.size(); i++) {
      OperatorProfile &record = profile->operators[i];
      record.label = ops_[i]->Label();
      ops_[i]->Describe(&record);
      record.rows_in = profilers_[i]->TotalRows();
      // An operator's output is exactly what the next operator saw; the
      // chain's last operator is a sink.
      record.rows_out = i + 1 < ops_.size() ? profilers_[i + 1]->TotalRows() : 0;
      record.chunks = profilers_[i]->TotalChunks();
      record.inclusive_ns = profilers_[i]->TotalElapsedNs();
      const uint64_t next_ns =
          i + 1 < ops_.size() ? profilers_[i + 1]->TotalElapsedNs() : 0;
      // Saturate: clock granularity can make a nested measurement read a
      // hair longer than its enclosing one.
      record.exclusive_ns = record.inclusive_ns > next_ns ? record.inclusive_ns - next_ns : 0;
    }
  }

 private:
  ScanSource source_;
  std::vector<std::unique_ptr<Operator>> ops_;
  /// One recorder per operator, created on the first profiled Run and reused
  /// (Prepare resets them) — unprofiled runs never allocate these.
  std::vector<std::unique_ptr<OperatorProfiler>> profilers_;
};

/// A query as data: pipelines executed in insertion order (so a hash-join
/// build pipeline completes before the pipeline probing its table starts).
/// Plans are reusable — Run again for a fresh execution, against the same or
/// a different snapshot — but a single Run must finish before the next
/// begins.
class PhysicalPlan {
 public:
  PhysicalPlan() = default;

  DISALLOW_COPY_AND_MOVE(PhysicalPlan)

  Pipeline *AddPipeline(catalog::SqlTable *table, std::vector<uint16_t> projection) {
    pipelines_.push_back(std::make_unique<Pipeline>(table, std::move(projection)));
    return pipelines_.back().get();
  }

  /// Execute every pipeline in order. `txn` must stay read-only while the
  /// plan runs; a null (or zero-worker) pool degrades every pipeline to an
  /// inline scan. `stats` accumulates all pipelines' scan counters. With
  /// profiling on (SetProfiling), the run also records a PlanProfile —
  /// results are bit-identical either way.
  void Run(transaction::TransactionContext *txn, common::WorkerPool *pool = nullptr,
           ScanStats *stats = nullptr) {
    if (!profiling_) {
      for (const auto &pipeline : pipelines_) pipeline->Run(txn, pool, stats);
      return;
    }
    profile_.pipelines.clear();
    profile_.pipelines.reserve(pipelines_.size());
    for (const auto &pipeline : pipelines_) {
      pipeline->Run(txn, pool, stats, &profile_.pipelines.emplace_back());
    }
  }

  /// Toggle per-operator profiling for subsequent Runs (default off).
  void SetProfiling(bool on) { profiling_ = on; }
  bool Profiling() const { return profiling_; }

  /// The last profiled Run's record (empty if none yet).
  const PlanProfile &Profile() const { return profile_; }

  /// EXPLAIN ANALYZE rendering of the last profiled Run.
  std::string Explain() const { return profile_.ToString(); }

  /// Machine-readable form of the last profiled Run.
  std::string ProfileJson() const { return profile_.ToJson(); }

 private:
  std::vector<std::unique_ptr<Pipeline>> pipelines_;
  bool profiling_ = false;
  PlanProfile profile_;
};

/// Fluent sugar for wiring a PhysicalPlan: Scan starts a pipeline, the
/// chainable calls append operators to it, and the sink calls (JoinBuild,
/// Aggregate) return the operator handle the caller reads results from.
///
///   op::PhysicalPlan plan;
///   op::PipelineBuilder builder(&plan);
///   builder.Scan(orders, {O_ORDERKEY, O_ORDERPRIORITY});
///   auto *build = builder.JoinBuild(0, op::PayloadSpec::StringIn(1, {"1-URGENT", "2-HIGH"}));
///   builder.Scan(lineitem, projection).Filter({...}).JoinProbe(key, build);
///   auto *agg = builder.Aggregate({mode_col}, {op::AggSpec::SumPayload(), op::AggSpec::Count()});
///   plan.Run(txn, pool, &stats);
class PipelineBuilder {
 public:
  explicit PipelineBuilder(PhysicalPlan *plan) : plan_(plan) {}

  PipelineBuilder &Scan(catalog::SqlTable *table, std::vector<uint16_t> projection) {
    current_ = plan_->AddPipeline(table, std::move(projection));
    return *this;
  }

  PipelineBuilder &Filter(std::vector<Predicate> predicates) {
    Current()->Add<FilterOp>(std::move(predicates));
    return *this;
  }

  PipelineBuilder &Project(std::vector<Expr> exprs) {
    Current()->Add<ProjectOp>(std::move(exprs));
    return *this;
  }

  HashJoinBuildOp *JoinBuild(uint16_t key_col, PayloadSpec payload) {
    return Current()->Add<HashJoinBuildOp>(key_col, std::move(payload));
  }

  PipelineBuilder &JoinProbe(uint16_t key_col, const HashJoinBuildOp *build,
                             ProbeEmit emit = ProbeEmit::kEachMatch) {
    Current()->Add<HashJoinProbeOp>(key_col, build, emit);
    return *this;
  }

  AggregateOp *Aggregate(std::vector<uint16_t> group_cols, std::vector<AggSpec> aggs) {
    return Current()->Add<AggregateOp>(std::move(group_cols), std::move(aggs));
  }

  TopKOp *TopK(uint32_t k, std::vector<SortKey> keys, std::vector<OutputCol> outputs) {
    return Current()->Add<TopKOp>(k, std::move(keys), std::move(outputs));
  }

 private:
  Pipeline *Current() {
    MAINLINE_ASSERT(current_ != nullptr, "call Scan before adding operators");
    return current_;
  }

  PhysicalPlan *plan_;
  Pipeline *current_ = nullptr;
};

}  // namespace mainline::execution::op
