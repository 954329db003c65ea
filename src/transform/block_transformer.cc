#include "transform/block_transformer.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string_view>
#include <thread>

#include "common/timer.h"
#include "common/typedefs.h"
#include "storage/arrow_block_metadata.h"
#include "storage/block_access_controller.h"
#include "storage/block_layout.h"
#include "storage/projected_row.h"
#include "storage/raw_block.h"
#include "storage/storage_defs.h"
#include "storage/storage_util.h"
#include "storage/tuple_access_strategy.h"
#include "storage/varlen_entry.h"
#include "transaction/transaction_context.h"
#include "transform/compaction_planner.h"

namespace mainline::transform {

bool BlockTransformer::CompactGroup(storage::DataTable *table,
                                    const std::vector<storage::RawBlock *> &group,
                                    TransformStats *stats,
                                    transaction::timestamp_t *commit_ts_out,
                                    std::vector<storage::RawBlock *> *survivors_out) {
  TransformStats local;
  TransformStats *out = stats == nullptr ? &local : stats;
  const common::Timer timer;
  const CompactionPlan plan = CompactionPlanner::Plan(*table, group, /*optimal=*/false);

  transaction::TransactionContext *txn = txn_manager_->BeginTransaction();
  const storage::ProjectedRowInitializer &initializer = table->FullRowInitializer();
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  bool failed = false;

  for (const auto &[from, to] : plan.moves) {
    storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
    // A tuple that is invisible or contended means a user transaction got
    // here first; yield to it (Section 4.2: the transformation must be
    // cheap to abort).
    if (!table->Select(txn, from, row) || !table->Delete(txn, from)) {
      failed = true;
      break;
    }
    storage::StorageUtil::DeepCopyVarlens(table->GetLayout(), row);
    if (!table->InsertInto(txn, to, *row)) {
      // The copies are registered as the transaction's loose varlens even
      // on failure; the abort below reclaims them.
      failed = true;
      break;
    }
    out->tuples_moved++;
    out->write_set_size += 2;  // delete + insert
  }

  if (failed) {
    const transaction::timestamp_t abort_ts = txn_manager_->Abort(txn);
    if (commit_ts_out != nullptr) *commit_ts_out = abort_ts;
    out->compaction_aborts++;
  } else {
    // Mark the whole group cooling *before* committing: any transaction
    // that raced the status check must then overlap this compaction
    // transaction, which is what lets phase 2 detect it (Figure 9).
    for (storage::RawBlock *block : group) block->controller.TrySetCooling();
    const transaction::timestamp_t commit_ts = txn_manager_->Commit(txn);
    if (commit_ts_out != nullptr) *commit_ts_out = commit_ts;
    // Emptied blocks are detached once every transaction that might still
    // reconstruct their deleted tuples has finished. Blocks that entered
    // the group already empty (user deletes, or a previous pass whose
    // release was declined) are scheduled too; ScheduleBlockRelease
    // guarantees at most one release in flight per block, and ReleaseBlock
    // re-checks identity and emptiness at execution time, so a block that
    // raced back into use is declined rather than freed.
    for (const auto *list : {&plan.emptied_blocks, &plan.already_empty_blocks}) {
      for (storage::RawBlock *block : *list) {
        if (block == table->CurrentInsertionBlock()) continue;
        if (!table->ScheduleBlockRelease(block)) continue;
        gc_->RegisterDeferredAction([table, block] { table->ReleaseBlock(block); });
        if (list == &plan.emptied_blocks) out->blocks_freed++;
      }
    }
    if (survivors_out != nullptr) *survivors_out = plan.target_blocks;
  }
  out->compaction_us += timer.Elapsed<>();
  return !failed;
}

GatherOutcome BlockTransformer::GatherBlock(storage::DataTable *table,
                                            storage::RawBlock *block, TransformStats *stats) {
  TransformStats local;
  TransformStats *out = stats == nullptr ? &local : stats;
  const common::Timer timer;
  const storage::BlockLayout &layout = table->GetLayout();

  if (block->controller.GetState() != storage::BlockState::kCooling) {
    return GatherOutcome::kPreempted;
  }
  // The single-pass scan of the version-pointer column: any residual
  // version means a transaction raced us, or the GC has yet to prune.
  if (table->HasActiveVersions(block)) return GatherOutcome::kVersions;
  // The allocated slots must form a contiguous prefix for Arrow; otherwise
  // the block needs another compaction pass.
  const uint32_t filled = table->FilledSlots(block);
  const auto *bitmap = table->Accessor().AllocationBitmap(block);
  for (uint32_t i = 0; i < filled; i++) {
    if (!bitmap->Test(i)) return GatherOutcome::kNotCompact;
  }
  // Take the exclusive lock; fails if a user transaction preempted cooling.
  if (!block->controller.TrySetFreezing()) return GatherOutcome::kPreempted;

  auto *metadata = new storage::ArrowBlockMetadata(filled, layout.NumColumns());
  std::vector<const byte *> old_buffers;
  if (mode_ == GatherMode::kVarlenGather) {
    GatherVarlen(table, block, filled, metadata, &old_buffers);
  } else {
    GatherDictionary(table, block, filled, metadata, &old_buffers);
  }

  // Null counts for fixed-length columns (varlen ones are filled by the
  // gather passes above, in the same scan).
  for (uint16_t i = 0; i < layout.NumColumns(); i++) {
    const storage::col_id_t col(i);
    if (layout.IsVarlen(col)) continue;
    auto &info = metadata->Column(i);
    info.type = storage::ArrowColumnType::kFixed;
    info.null_count =
        filled - table->Accessor().ColumnNullBitmap(block, col)->CountSet(filled);
  }

  storage::ArrowBlockMetadata *old_metadata = block->arrow_metadata;
  block->arrow_metadata = metadata;
  block->controller.SetFrozen();

  // Readers concurrent with this gather may still hold pointers into the
  // replaced buffers; free them only after every such reader has finished
  // (epoch protection via the GC, Section 4.4).
  if (!old_buffers.empty() || old_metadata != nullptr) {
    gc_->RegisterDeferredAction([old_buffers, old_metadata] {
      for (const byte *buffer : old_buffers) delete[] buffer;
      delete old_metadata;
    });
  }
  out->blocks_frozen++;
  out->gather_us += timer.Elapsed<>();
  return GatherOutcome::kFrozen;
}

void BlockTransformer::GatherVarlen(storage::DataTable *table, storage::RawBlock *block,
                                    uint32_t num_records,
                                    storage::ArrowBlockMetadata *metadata,
                                    std::vector<const byte *> *old_buffers) {
  const storage::BlockLayout &layout = table->GetLayout();
  const storage::TupleAccessStrategy &accessor = table->Accessor();
  for (uint16_t i = 0; i < layout.NumColumns(); i++) {
    const storage::col_id_t col(i);
    if (!layout.IsVarlen(col)) continue;
    auto &info = metadata->Column(i);
    info.type = storage::ArrowColumnType::kGatheredVarlen;

    // First pass: total size.
    uint64_t total = 0;
    uint32_t null_count = 0;
    for (uint32_t row = 0; row < num_records; row++) {
      const storage::TupleSlot slot(block, row);
      const byte *value = accessor.AccessWithNullCheck(slot, col);
      if (value == nullptr) {
        null_count++;
        continue;
      }
      total += reinterpret_cast<const storage::VarlenEntry *>(value)->Size();
    }
    info.null_count = null_count;
    info.varlen.values = std::make_unique<byte[]>(total);
    info.varlen.offsets = std::make_unique<int32_t[]>(num_records + 1);
    info.varlen.values_size = total;

    // Second pass: copy values and repoint block entries into the gathered
    // buffer. Entries are updated in place; torn 16-byte reads by concurrent
    // transactional readers are harmless because both the old and the new
    // pointer target hold identical bytes and the old buffer outlives all
    // such readers (deferred reclamation).
    uint64_t offset = 0;
    for (uint32_t row = 0; row < num_records; row++) {
      info.varlen.offsets[row] = static_cast<int32_t>(offset);
      const storage::TupleSlot slot(block, row);
      byte *value = accessor.AccessWithNullCheck(slot, col);
      if (value == nullptr) continue;
      auto *entry = reinterpret_cast<storage::VarlenEntry *>(value);
      const uint32_t size = entry->Size();
      std::memcpy(info.varlen.values.get() + offset, entry->Content(), size);
      if (entry->NeedReclaim()) old_buffers->push_back(entry->Content());
      if (!entry->IsInlined()) {
        *entry = storage::VarlenEntry::Create(info.varlen.values.get() + offset, size, false);
      }
      offset += size;
    }
    info.varlen.offsets[num_records] = static_cast<int32_t>(offset);
  }
}

void BlockTransformer::GatherDictionary(storage::DataTable *table, storage::RawBlock *block,
                                        uint32_t num_records,
                                        storage::ArrowBlockMetadata *metadata,
                                        std::vector<const byte *> *old_buffers) {
  const storage::BlockLayout &layout = table->GetLayout();
  const storage::TupleAccessStrategy &accessor = table->Accessor();
  for (uint16_t i = 0; i < layout.NumColumns(); i++) {
    const storage::col_id_t col(i);
    if (!layout.IsVarlen(col)) continue;
    auto &info = metadata->Column(i);
    info.type = storage::ArrowColumnType::kDictionaryCompressed;

    // First scan: build the sorted dictionary (Section 4.4: an order of
    // magnitude more expensive than a plain gather).
    std::map<std::string_view, int32_t> dictionary;
    uint32_t null_count = 0;
    for (uint32_t row = 0; row < num_records; row++) {
      const storage::TupleSlot slot(block, row);
      const byte *value = accessor.AccessWithNullCheck(slot, col);
      if (value == nullptr) {
        null_count++;
        continue;
      }
      dictionary.emplace(reinterpret_cast<const storage::VarlenEntry *>(value)->StringView(),
                         0);
    }
    info.null_count = null_count;

    uint64_t dict_bytes = 0;
    int32_t code = 0;
    for (auto &[word, idx] : dictionary) {
      idx = code++;
      dict_bytes += word.size();
    }
    info.dictionary_size = static_cast<uint32_t>(dictionary.size());
    info.dictionary.values = std::make_unique<byte[]>(dict_bytes);
    info.dictionary.offsets = std::make_unique<int32_t[]>(dictionary.size() + 1);
    info.dictionary.values_size = dict_bytes;
    uint64_t offset = 0;
    {
      int32_t d = 0;
      for (const auto &[word, idx] : dictionary) {
        info.dictionary.offsets[d++] = static_cast<int32_t>(offset);
        std::memcpy(info.dictionary.values.get() + offset, word.data(), word.size());
        offset += word.size();
      }
      info.dictionary.offsets[d] = static_cast<int32_t>(offset);
    }

    // Second scan: emit codes and repoint entries at their dictionary word.
    info.indices = std::make_unique<int32_t[]>(num_records);
    for (uint32_t row = 0; row < num_records; row++) {
      const storage::TupleSlot slot(block, row);
      byte *value = accessor.AccessWithNullCheck(slot, col);
      if (value == nullptr) {
        info.indices[row] = 0;
        continue;
      }
      auto *entry = reinterpret_cast<storage::VarlenEntry *>(value);
      // Look up by content; the map keys point into entry buffers that are
      // still alive during this critical section.
      const auto it = dictionary.find(entry->StringView());
      const int32_t word_code = it->second;
      info.indices[row] = word_code;
      if (entry->NeedReclaim()) old_buffers->push_back(entry->Content());
      if (!entry->IsInlined()) {
        *entry = storage::VarlenEntry::Create(
            info.dictionary.values.get() + info.dictionary.offsets[word_code], entry->Size(),
            false);
      }
    }
  }
}

std::vector<GatherOutcome> BlockTransformer::GatherCooled(
    const std::vector<storage::RawBlock *> &blocks, TransformStats *stats) {
  // The gather scan requires all version chains pruned, the compaction's
  // own included. A preempted block's versions belong to a user writer.
  const auto unpruned = [](storage::RawBlock *block) {
    return block->controller.GetState() == storage::BlockState::kCooling &&
           block->data_table->HasActiveVersions(block);
  };
  for (int pump = 0; pump_gc_ && pump < 64 && std::ranges::any_of(blocks, unpruned); pump++) {
    gc_->PerformGarbageCollection();
  }
  std::vector<GatherOutcome> outcomes;
  for (auto *block : blocks) outcomes.push_back(GatherBlock(block->data_table, block, stats));
  return outcomes;
}

uint32_t BlockTransformer::ProcessGroup(storage::DataTable *table,
                                        const std::vector<storage::RawBlock *> &group,
                                        TransformStats *stats) {
  transaction::timestamp_t commit_ts = transaction::kInvalidTimestamp;
  std::vector<storage::RawBlock *> survivors;
  if (!CompactGroup(table, group, stats, &commit_ts, &survivors)) return 0;
  while (!BarrierPassed(commit_ts)) std::this_thread::yield();
  const std::vector<GatherOutcome> outcomes = GatherCooled(survivors, stats);
  return static_cast<uint32_t>(std::ranges::count(outcomes, GatherOutcome::kFrozen));
}

}  // namespace mainline::transform
