#include "execution/scan_block.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "catalog/schema.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"
#include "transform/arrow_reader.h"

namespace mainline::execution {

uint16_t ProjectionIndexOf(const std::vector<uint16_t> &projection, uint16_t schema_pos) {
  const auto it = std::lower_bound(projection.begin(), projection.end(), schema_pos);
  if (it == projection.end() || *it != schema_pos) {
    std::fprintf(stderr, "FATAL: schema column %u is not in the scan projection\n",
                 schema_pos);
    std::abort();
  }
  return static_cast<uint16_t>(it - projection.begin());
}

bool ScanBlock(catalog::SqlTable *table, transaction::TransactionContext *txn,
               const std::vector<uint16_t> &projection, storage::RawBlock *block,
               ColumnVectorBatch *out, ScanStats *stats) {
  storage::DataTable &data_table = table->UnderlyingTable();
  const catalog::Schema &schema = table->GetSchema();

  if (block->controller.TryAcquireRead()) {
    // Frozen path: wrap the block's buffers, no copies. The read lock
    // travels with the batch and is released when the caller is done.
    auto batch =
        transform::ArrowReader::FromFrozenBlock(schema, data_table, block, &projection);
    if (batch != nullptr) {
      stats->frozen_blocks++;
      if (batch->num_rows() == 0) {
        block->controller.ReleaseRead();
        return false;
      }
      stats->rows += static_cast<uint64_t>(batch->num_rows());
      out->Reset(std::move(batch), block);
      return true;
    }
    // Frozen but no Arrow metadata: should not happen, but the
    // transactional path is always correct, so fall through to it.
    block->controller.ReleaseRead();
  }

  // Hot path: early materialization of the visible version of every tuple
  // through the scan transaction.
  auto batch =
      transform::ArrowReader::MaterializeBlock(schema, &data_table, block, txn, &projection);
  stats->hot_blocks++;
  if (batch->num_rows() == 0) return false;
  stats->rows += static_cast<uint64_t>(batch->num_rows());
  out->Reset(std::move(batch), nullptr);
  return true;
}

}  // namespace mainline::execution
