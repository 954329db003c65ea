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

/// The source of a pipeline: wraps the dual hot/frozen access path of
/// ParallelTableScanner and streams one Chunk per non-empty
/// block into an operator chain — inline on the calling thread when no pool
/// is given, morsel-parallel over the pool's workers otherwise. Either way
/// the chunks carry block ordinals from the same snapshot, so sinks that
/// merge per-ordinal partials in block order produce identical results.
///
/// Chunks are pooled across blocks (a scan reuses at most one chunk per
/// worker), so steady-state per-block cost is re-initializing the selection
/// vector, not allocating one.
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
  /// workers; the calling thread otherwise). `txn` must stay read-only for
  /// the duration (workers share it). Scan counters accumulate into `stats`
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
