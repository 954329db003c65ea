#include "storage/tuple_access_strategy.h"

#include <cstring>

namespace mainline::storage {

void TupleAccessStrategy::InitializeRawBlock(DataTable *table, RawBlock *block) const {
  block->data_table = table;
  // relaxed: initialization of a block no other thread can reach yet; the
  // caller's publication into the block list orders these stores.
  block->insert_head.store(0, std::memory_order_relaxed);
  block->arrow_metadata = nullptr;
  block->last_touched_epoch.store(0, std::memory_order_relaxed);
  block->controller.Initialize();

  const uint32_t num_slots = layout_.NumSlots();
  AllocationBitmap(block)->Clear(num_slots);
  std::memset(reinterpret_cast<byte *>(block) + layout_.VersionPtrOffset(), 0,
              sizeof(UndoRecord *) * num_slots);
  for (uint16_t i = 0; i < layout_.NumColumns(); i++) {
    ColumnNullBitmap(block, col_id_t(i))->Clear(num_slots);
  }
}

}  // namespace mainline::storage
