#pragma once

#include <memory>
#include <vector>

#include "arrowlite/array.h"
#include "arrowlite/type.h"
#include "catalog/schema.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"
#include "transaction/transaction_context.h"
#include "transform/block_batch.h"

namespace mainline::transform {

/// Bridges frozen blocks and the arrowlite columnar API (Section 5): a
/// frozen block *is* Arrow data, so a RecordBatch over it is just metadata
/// wrapping the block's buffers — no copies, no serialization.
class ArrowReader {
 public:
  ArrowReader() = delete;

  /// Map a catalog type to its Arrow physical type.
  static arrowlite::Type ToArrowType(catalog::TypeId type, bool dictionary = false);

  /// Derive the Arrow schema of a table.
  static std::shared_ptr<arrowlite::Schema> ToArrowSchema(const catalog::Schema &schema,
                                                          bool dictionary = false);

  /// Read one block of `table` with the paper's dual access path (Sections
  /// 4.1 and 5), the one place a scan or an export decides between the two.
  /// A frozen block is wrapped in place (FromFrozenBlock), and the batch
  /// holds its read lock. Any other block, and a frozen one without Arrow
  /// metadata, is materialized through `txn` (MaterializeBlock).
  ///
  /// Snapshot semantics: the materialized path is MVCC-consistent by
  /// construction. The in-place path is consistent with the same snapshot
  /// because (a) a block only freezes after every transaction that
  /// overlapped its compaction has finished, so a block can never freeze
  /// under a snapshot that predates its frozen contents, and (b) any later
  /// writer flips the block hot *before* modifying it, which makes the read
  /// lock unavailable and routes the read through `txn`. Reading every block
  /// of a table through one `txn` therefore yields one snapshot of it.
  ///
  /// Thread-safe for concurrent calls sharing one read-only `txn`: both paths
  /// only read transaction state. `projection` is as for MaterializeBlock.
  static BlockBatch ReadBlock(const catalog::Schema &schema, storage::DataTable *table,
                              storage::RawBlock *block, transaction::TransactionContext *txn,
                              const std::vector<uint16_t> *projection = nullptr);

  /// Build a zero-copy RecordBatch over a frozen block. The caller must hold
  /// the block's read lock (BlockAccessController::TryAcquireRead) for the
  /// lifetime of the batch. `projection` (schema column positions, sorted
  /// ascending) restricts the batch to those columns; nullptr means all — for
  /// frozen blocks a projection is pure metadata savings, since no column
  /// data is copied either way.
  /// \return the batch, or nullptr if the block carries no Arrow metadata.
  static std::shared_ptr<arrowlite::RecordBatch> FromFrozenBlock(
      const catalog::Schema &schema, const storage::DataTable &table,
      storage::RawBlock *block, const std::vector<uint16_t> *projection = nullptr);

  /// Materialize a transactional snapshot of a (typically hot) block into a
  /// freshly built RecordBatch, resolving versions through `txn`. This is the
  /// expensive path Arrow-native storage avoids for cold data, and also the
  /// "Snapshot" baseline of Figure 12. `projection` (schema column positions,
  /// sorted ascending) restricts both the batch and the per-tuple work to
  /// those columns; nullptr means all.
  ///
  /// Slots without a version chain — the bulk of a hot block once the GC has
  /// pruned insert records — are gathered column-at-a-time straight from
  /// block storage (copy first, validate the version pointer after, the same
  /// torn-read protocol DataTable::Select uses); only slots with a live chain
  /// pay a per-tuple Select.
  static std::shared_ptr<arrowlite::RecordBatch> MaterializeBlock(
      const catalog::Schema &schema, storage::DataTable *table, storage::RawBlock *block,
      transaction::TransactionContext *txn, const std::vector<uint16_t> *projection = nullptr);
};

}  // namespace mainline::transform
