#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "arrowlite/array.h"
#include "common/macros.h"
#include "common/selection_vector.h"
#include "common/timer.h"
#include "common/worker_pool.h"
#include "execution/operators/expr.h"
#include "execution/operators/plan_profile.h"
#include "transform/block_batch.h"

namespace mainline::execution::op {

/// One probe-side match: the batch row that matched and the 8-byte payload
/// its build-side partner carries. A row appears once per matching build
/// entry, in the JoinHashTable's deterministic match order. When a chunk is
/// probed more than once (multi-way joins), each probe consumes the previous
/// match list and carries the consumed match's payload along in `prior` — so
/// a CUSTOMER⋈ORDERS match survives the LINEITEM probe that follows it.
struct JoinMatch {
  uint32_t row;
  uint64_t payload;
  uint64_t prior = 0;
};

/// The unit of data flowing down a pipeline: one block's BlockBatch plus
/// everything the operators so far have derived from it — the selection
/// vector filters refine, the match list a join probe produces, and the
/// computed columns projections append. A chunk lives on the scanning worker
/// for exactly one block; operators must never retain pointers into it past
/// Push (frozen-path batches release their block read lock as soon as the
/// chunk has been pushed).
class Chunk {
 public:
  /// Ordinal of the source block in the scan's block-list snapshot. Sink
  /// operators key their partial state by this, so merging partials in
  /// ordinal order reproduces the sequential scan's result bit-exactly at
  /// any worker count (the canonical reduction shape of tpch_queries.h).
  size_t block_ordinal = 0;
  const transform::BlockBatch *batch = nullptr;
  /// Rows still alive, in ascending batch order.
  common::SelectionVector sel;
  /// True once a HashJoinProbeOp ran: downstream operators iterate `matches`
  /// (which may repeat rows, for duplicate build keys) instead of `sel`.
  bool probed = false;
  std::vector<JoinMatch> matches;
  /// ProjectOp outputs, in projection order; addressed by
  /// ColumnRef::Computed(i). Only the first `num_computed` entries are live
  /// for the current block — the tail is recycled buffer capacity from
  /// earlier blocks.
  std::vector<ComputedColumn> computed;
  size_t num_computed = 0;

  /// Shrink thresholds for Reset: a scan worker's chunk keeps its containers'
  /// capacity across blocks, but one pathological block (a skewed join key
  /// exploding the match list, a plan stacking projections) must not pin
  /// worst-case buffers for the rest of the run. Capacity at or below the
  /// threshold is retained — it covers every block of a well-behaved scan
  /// (block layouts cap out well under 64K slots) — and anything above is
  /// released on the next Reset.
  static constexpr size_t kMaxRetainedMatches = size_t{1} << 16;
  static constexpr size_t kMaxRetainedComputedValues = size_t{1} << 16;
  static constexpr size_t kMaxRetainedComputedColumns = 8;

  /// Rebind to a new block, keeping the containers' capacity — including the
  /// computed columns' value buffers (a worker reuses its chunk across blocks
  /// so the steady-state per-block cost is an InitFull, not allocations) — up
  /// to the shrink thresholds above.
  void Reset(size_t ordinal, const transform::BlockBatch *new_batch) {
    block_ordinal = ordinal;
    batch = new_batch;
    sel.InitFull(static_cast<uint32_t>(new_batch->NumRows()));
    probed = false;
    if (matches.capacity() > kMaxRetainedMatches) {
      std::vector<JoinMatch>().swap(matches);  // clear() would keep the buffer
    } else {
      matches.clear();
    }
    if (computed.size() > kMaxRetainedComputedColumns) {
      computed.resize(kMaxRetainedComputedColumns);
    }
    for (ComputedColumn &col : computed) {
      if (col.values.capacity() > kMaxRetainedComputedValues) {
        std::vector<double>().swap(col.values);
      }
    }
    num_computed = 0;
  }

  /// Claim the next computed-column slot (ProjectOp's append), reusing a
  /// recycled buffer when one is available.
  ComputedColumn *AppendComputed() {
    if (num_computed == computed.size()) computed.emplace_back();
    ComputedColumn *col = &computed[num_computed++];
    col->null_sources.clear();
    return col;
  }
};

/// A push-based vectorized operator. A pipeline wires operators into a
/// chain; the ScanSource pushes one chunk per non-empty block into the first
/// operator, and each operator refines the chunk and pushes it onward (or
/// absorbs it, for sinks like aggregates and join builds).
///
/// Threading contract: Push runs on scan worker threads, concurrently with
/// itself for different block ordinals. An operator may only touch the chunk
/// and per-ordinal state indexed by `chunk->block_ordinal` (disjoint writes
/// need no locks). Prepare and Finish run on the driving thread, before the
/// first and after the last Push of a run; Finish runs in pipeline order, so
/// a sink can merge its per-ordinal partials in block order there.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Reset per-run state; `num_blocks` is the ordinal space of the coming
  /// scan. Operators stay reusable: a plan can be Run repeatedly.
  virtual void Prepare(size_t num_blocks) { (void)num_blocks; }

  /// Consume one chunk (worker thread; see the threading contract above).
  virtual void Push(Chunk *chunk) = 0;

  /// Post-scan hook (driving thread). `pool` is the run's worker pool (may
  /// be nullptr) for operators whose finish phase parallelizes.
  virtual void Finish(common::WorkerPool *pool) { (void)pool; }

  /// Display name in EXPLAIN output.
  virtual std::string Label() const { return "Operator"; }

  /// Fill the operator-specific fields of this run's EXPLAIN record (driving
  /// thread, after Finish).
  virtual void Describe(OperatorProfile *record) const { (void)record; }

  void SetNext(Operator *next) { next_ = next; }

  /// Attach this run's profiling recorder (nullptr detaches). Set on the
  /// driving thread before the scan starts.
  void SetProfiler(OperatorProfiler *profiler) { profiler_ = profiler; }

  /// The entry point pipelines (and PushNext) use to hand a chunk to this
  /// operator. Unprofiled this is exactly Push — one null-pointer test on
  /// the hot path; profiled it also records rows-in under this chunk's block
  /// ordinal and the call's inclusive wall time. Profiling never touches the
  /// chunk, so operator output is bit-identical either way.
  void Consume(Chunk *chunk) {
    if (profiler_ == nullptr) {
      Push(chunk);
      return;
    }
    profiler_->RecordRows(chunk->block_ordinal,
                          chunk->probed ? chunk->matches.size() : chunk->sel.Size());
    const common::Timer timer;
    Push(chunk);
    profiler_->RecordElapsed(timer.Elapsed<std::chrono::nanoseconds>());
  }

 protected:
  /// Hand the chunk to the next operator, if any — the tail of every
  /// non-sink Push.
  void PushNext(Chunk *chunk) {
    if (next_ != nullptr) next_->Consume(chunk);
  }

  Operator *next_ = nullptr;
  OperatorProfiler *profiler_ = nullptr;
};

/// Bind an Expr's column references against one chunk: raw value pointers
/// for the tight per-row loops, plus the source arrays that actually carry
/// nulls (empty for the common null-free case, which lets callers hoist the
/// null check out of the loop entirely).
struct BoundExpr {
  Expr::Kind kind = Expr::Kind::kColumn;
  const double *a = nullptr;
  const double *b = nullptr;
  const double *c = nullptr;
  std::vector<const arrowlite::Array *> null_sources;

  /// Call `fn(value)` with the per-row functor of this expression's form,
  /// `value(row)` being the expression's value at `row`: the one place the
  /// four forms are written down. A caller evaluating many rows dispatches
  /// once and loops over `value`.
  template <typename Fn>
  decltype(auto) Dispatch(Fn &&fn) const {
    switch (kind) {
      case Expr::Kind::kColumn:
        return fn([a = a](uint32_t row) { return a[row]; });
      case Expr::Kind::kMul:
        return fn([a = a, b = b](uint32_t row) { return a[row] * b[row]; });
      case Expr::Kind::kDiscounted:
        return fn([a = a, b = b](uint32_t row) { return a[row] * (1.0 - b[row]); });
      case Expr::Kind::kDiscountedTaxed:
        break;
    }
    return fn([a = a, b = b, c = c](uint32_t row) {
      return a[row] * (1.0 - b[row]) * (1.0 + c[row]);
    });
  }

  double Eval(uint32_t row) const {
    return Dispatch([row](const auto &value) { return value(row); });
  }

  bool NullFree() const { return null_sources.empty(); }

  bool IsNull(uint32_t row) const {
    for (const arrowlite::Array *source : null_sources) {
      if (source->IsNull(row)) return true;
    }
    return false;
  }
};

inline const double *BindColumn(const ColumnRef &ref, const Chunk &chunk,
                                std::vector<const arrowlite::Array *> *null_sources) {
  if (ref.source == ColumnRef::Source::kComputed) {
    MAINLINE_ASSERT(ref.index < chunk.num_computed, "computed column not projected yet");
    const ComputedColumn &col = chunk.computed[ref.index];
    null_sources->insert(null_sources->end(), col.null_sources.begin(),
                         col.null_sources.end());
    return col.values.data();
  }
  const arrowlite::Array &col = chunk.batch->Column(ref.index);
  if (col.null_count() != 0) null_sources->push_back(&col);
  return col.buffer(0)->data_as<double>();
}

inline BoundExpr Bind(const Expr &expr, const Chunk &chunk) {
  BoundExpr bound;
  bound.kind = expr.kind;
  bound.a = BindColumn(expr.a, chunk, &bound.null_sources);
  if (expr.kind != Expr::Kind::kColumn) bound.b = BindColumn(expr.b, chunk, &bound.null_sources);
  if (expr.kind == Expr::Kind::kDiscountedTaxed) {
    bound.c = BindColumn(expr.c, chunk, &bound.null_sources);
  }
  return bound;
}

}  // namespace mainline::execution::op
