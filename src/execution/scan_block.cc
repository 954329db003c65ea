#include "execution/scan_block.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

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
               transform::BlockBatch *out, ScanStats *stats) {
  *out = transform::ArrowReader::ReadBlock(table->GetSchema(), &table->UnderlyingTable(), block,
                                           txn, &projection);
  (out->InPlace() ? stats->frozen_blocks : stats->hot_blocks)++;
  if (out->NumRows() == 0) {
    out->Release();
    return false;
  }
  stats->rows += static_cast<uint64_t>(out->NumRows());
  return true;
}

}  // namespace mainline::execution
