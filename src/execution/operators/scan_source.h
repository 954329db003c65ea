#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/macros.h"
#include "common/worker_pool.h"
#include "execution/operators/operator.h"
#include "execution/scan_block.h"
#include "catalog/sql_table.h"
#include "transaction/transaction_context.h"

namespace mainline::execution::op {

/// The source of a pipeline: a morsel-driven parallel scan that streams one
/// Chunk per non-empty block into an operator chain. Run snapshots the block
/// list once, and a shared atomic cursor hands out block-granular morsels to
/// the workers of a common::WorkerPool, or to the calling thread alone when
/// the pool is null or has no workers. Blocks are the natural morsel: each
/// carries its own access controller (Section 4.1), so ScanBlock's dual
/// access path needs no cross-worker coordination.
///
/// Chunks carry block ordinals (positions in the snapshot) at any worker
/// count, so sinks that merge per-ordinal partials in block order produce
/// results independent of the worker count and bit-identical to a
/// sequential scan. Each worker reuses one chunk and one batch for all of
/// its blocks, so the steady-state per-block cost is re-initializing the
/// selection vector, not allocating one.
class ScanSource {
 public:
  /// \param table table to scan
  /// \param projection schema column positions, sorted ascending and
  ///        duplicate-free (catalog::Schema::ResolveColumns produces this)
  ScanSource(catalog::SqlTable *table, std::vector<uint16_t> projection)
      : table_(table), projection_(std::move(projection)) {}

  DISALLOW_COPY_AND_MOVE(ScanSource)

  const std::vector<uint16_t> &Projection() const { return projection_; }

  /// \return the batch column index of schema column `schema_pos`.
  uint16_t BatchIndex(uint16_t schema_pos) const {
    return ProjectionIndexOf(projection_, schema_pos);
  }

  /// Run the scan to completion. `prepare(num_blocks)` fires once after the
  /// block list is snapshotted and before the first chunk; then every
  /// non-empty block is pushed into `root` (worker threads when `pool` has
  /// workers; the calling thread otherwise). The pool must be otherwise idle
  /// (common::RunTasks waits on the whole pool). `txn` must stay read-only
  /// for the duration (workers share it). Scan counters accumulate into `stats`
  /// (may be nullptr). When `profile` is non-null its source, block count,
  /// and this run's scan stats (alone, not accumulated) are filled in.
  void Run(transaction::TransactionContext *txn, common::WorkerPool *pool, Operator *root,
           const std::function<void(size_t num_blocks)> &prepare, ScanStats *stats,
           PipelineProfile *profile = nullptr);

 private:
  catalog::SqlTable *table_;
  std::vector<uint16_t> projection_;
};

}  // namespace mainline::execution::op
