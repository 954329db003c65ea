#pragma once

#include <cstdint>
#include <vector>

#include "execution/column_vector_batch.h"
#include "catalog/sql_table.h"
#include "storage/raw_block.h"
#include "transaction/transaction_context.h"

namespace mainline::execution {

/// \return the index of `schema_pos` within the sorted, duplicate-free
/// `projection`. Aborts (in every build) when the column is not projected:
/// any index returned here would silently read the wrong column. Runs once
/// per column per scan, never per tuple.
uint16_t ProjectionIndexOf(const std::vector<uint16_t> &projection, uint16_t schema_pos);

/// Counters for one scan: how many blocks each access path served, and how
/// many visible rows came out. Reported by QueryRunner and figure16.
struct ScanStats {
  uint64_t frozen_blocks = 0;  ///< blocks read zero-copy in place
  uint64_t hot_blocks = 0;     ///< blocks transactionally materialized
  uint64_t rows = 0;           ///< visible rows produced

  void Add(const ScanStats &other) {
    frozen_blocks += other.frozen_blocks;
    hot_blocks += other.hot_blocks;
    rows += other.rows;
  }
};

/// Scan one block of a SqlTable with the paper's dual access path (Section
/// 4.1): the morsel op::ScanSource::Run hands to each worker. A
/// block that is frozen is read in situ: its buffers are wrapped into
/// zero-copy Arrow arrays under the block's read lock, with no per-tuple work
/// at all. A hot (or cooling/freezing) block falls back to early
/// materialization, resolving each tuple's visible version through `txn`
/// with ProjectedRow. Both paths surface the same ColumnVectorBatch view, so
/// operators upstream are path-oblivious.
///
/// Snapshot semantics: the hot path is MVCC-consistent by construction
/// (DataTable::Select). The frozen path is consistent with the same snapshot
/// because (a) a block only freezes after every transaction that overlapped
/// its compaction has finished, so a block can never freeze under a snapshot
/// that predates its frozen contents, and (b) any later writer flips the
/// block hot *before* modifying it, which makes TryAcquireRead fail and
/// routes the scan to the transactional path.
///
/// Thread-safe for concurrent calls sharing one read-only `txn`: both paths
/// only read transaction state.
/// \param projection schema column positions, sorted ascending and
///        duplicate-free (catalog::Schema::ResolveColumns produces this)
/// \return true if `out` now holds a non-empty batch (empty blocks still
///         count toward `stats`' block counters).
bool ScanBlock(catalog::SqlTable *table, transaction::TransactionContext *txn,
               const std::vector<uint16_t> &projection, storage::RawBlock *block,
               ColumnVectorBatch *out, ScanStats *stats);

}  // namespace mainline::execution
