#pragma once

#include <cstdint>
#include <vector>

#include "catalog/sql_table.h"
#include "storage/raw_block.h"
#include "transaction/transaction_context.h"
#include "transform/block_batch.h"

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

/// Scan one block of a SqlTable: the morsel op::ScanSource::Run hands to
/// each worker. The block is read through transform::ArrowReader::ReadBlock
/// with the paper's dual access path (Section 4.1): a frozen block's buffers
/// are wrapped into zero-copy Arrow arrays, and `out` holds the block's read
/// lock; a hot (or cooling/freezing) block is materialized through `txn`.
/// Both paths surface the same BlockBatch view, so operators upstream are
/// path-oblivious, and both read `txn`'s snapshot (see ReadBlock).
/// Thread-safe for concurrent calls sharing one read-only `txn`.
/// \param projection schema column positions, sorted ascending and
///        duplicate-free (catalog::Schema::ResolveColumns produces this)
/// \return true if `out` now holds a non-empty batch (empty blocks still
///         count toward `stats`' block counters).
bool ScanBlock(catalog::SqlTable *table, transaction::TransactionContext *txn,
               const std::vector<uint16_t> &projection, storage::RawBlock *block,
               transform::BlockBatch *out, ScanStats *stats);

}  // namespace mainline::execution
