#pragma once

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/typedefs.h"
#include "gc/garbage_collector.h"
#include "storage/arrow_block_metadata.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"
#include "storage/storage_defs.h"
#include "transaction/transaction_context.h"
#include "transaction/transaction_manager.h"

namespace mainline::transform {

/// What the gathering phase emits for variable-length columns (Section 4.4).
enum class GatherMode : uint8_t {
  /// Contiguous Arrow varbinary buffers (values + int32 offsets).
  kVarlenGather = 0,
  /// Parquet/ORC-style dictionary compression (sorted dictionary + codes).
  kDictionaryCompression,
};

/// What one gather attempt did to a cooling block.
enum class GatherOutcome : uint8_t {
  kFrozen = 0,  ///< the block is frozen
  kVersions,    ///< version chains remain; retry once the GC prunes them
  kPreempted,   ///< a user write flipped the block hot
  kNotCompact,  ///< filled slots are not a prefix; compact it again
};

/// Counters reported by the transformation pipeline, used by the Figure 12-14
/// benchmarks.
struct TransformStats {
  uint64_t tuples_moved = 0;
  /// Blocks emptied by compaction and scheduled for release. The deferred
  /// release re-validates and can decline (insertion block, concurrent
  /// refill), so in racy schedules this may overcount actual frees by the
  /// number of declined blocks.
  uint64_t blocks_freed = 0;
  uint64_t blocks_frozen = 0;
  uint64_t compaction_aborts = 0;
  /// Operations in compaction transactions (each move = delete + insert).
  uint64_t write_set_size = 0;
  uint64_t compaction_us = 0;
  uint64_t gather_us = 0;
};

/// The two-phase relaxed-Arrow-to-canonical-Arrow transformation of
/// Section 4.3:
///
/// **Phase 1 (compaction)** runs one transaction per compaction group that
/// shuffles tuples (delete + insert pairs) to make the group's tuples
/// logically contiguous, marks the group's blocks *cooling* before
/// committing, and registers emptied blocks for recycling.
///
/// **Phase 2 (gathering)** runs once every transaction that overlapped the
/// compaction transaction has finished (closing the check-and-miss race of
/// Figure 9), verifies that no version chains remain, takes the *freezing*
/// exclusive lock, copies variable-length values into contiguous Arrow
/// buffers (or builds dictionaries), computes Arrow metadata, and marks the
/// block *frozen*.
///
/// Replaced buffers are reclaimed through the GC's deferred actions, so
/// in-flight readers never observe freed memory.
class BlockTransformer {
 public:
  BlockTransformer(transaction::TransactionManager *txn_manager, gc::GarbageCollector *gc,
                   GatherMode mode = GatherMode::kVarlenGather)
      : txn_manager_(txn_manager), gc_(gc), mode_(mode) {}

  DISALLOW_COPY_AND_MOVE(BlockTransformer)

  /// Run phase 1 on a compaction group.
  /// \param table owning table
  /// \param group blocks to compact together
  /// \param stats accumulates counters (may be nullptr)
  /// \param commit_ts_out receives the compaction transaction's commit
  ///        timestamp (gate for phase 2), or its abort timestamp if it
  ///        aborted; may be nullptr
  /// \param survivors_out receives the blocks still holding tuples after
  ///        compaction (the candidates for gathering); may be nullptr.
  ///        Emptied blocks are scheduled for recycling and must not be
  ///        touched again.
  /// \return true if compaction committed, false if it aborted on a conflict
  ///         with user transactions (requeue the group).
  bool CompactGroup(storage::DataTable *table, const std::vector<storage::RawBlock *> &group,
                    TransformStats *stats, transaction::timestamp_t *commit_ts_out,
                    std::vector<storage::RawBlock *> *survivors_out = nullptr);

  /// Figure 9's barrier: every running transaction began after `compacted_at`.
  bool BarrierPassed(transaction::timestamp_t compacted_at) {
    return compacted_at < txn_manager_->OldestTransactionStartTime();
  }

  /// Run phase 2 on one block (state must be cooling) past its barrier.
  GatherOutcome GatherBlock(storage::DataTable *table, storage::RawBlock *block,
                            TransformStats *stats);

  /// One GatherBlock attempt for each block past its barrier, after running
  /// the GC (if pumping inline, at most 64 times) until no cooling block
  /// holds a version chain. \return the outcomes, in order.
  std::vector<GatherOutcome> GatherCooled(const std::vector<storage::RawBlock *> &blocks,
                                          TransformStats *stats);

  /// Both phases for one group: compact, wait for the barrier, then
  /// GatherCooled the survivors. Blocking, for synchronous callers (set-up,
  /// benchmarks); the TransformPipeline checks the barrier instead.
  /// \return number of blocks frozen.
  uint32_t ProcessGroup(storage::DataTable *table,
                        const std::vector<storage::RawBlock *> &group, TransformStats *stats);

  /// Whether gathering may run the GC itself to prune the versions left
  /// between the phases (default). Disable when a dedicated GC thread owns
  /// the collector (GC state is single-consumer).
  void SetInlineGCPump(bool pump) { pump_gc_ = pump; }

 private:
  void GatherVarlen(storage::DataTable *table, storage::RawBlock *block, uint32_t num_records,
                    storage::ArrowBlockMetadata *metadata,
                    std::vector<const byte *> *old_buffers);
  void GatherDictionary(storage::DataTable *table, storage::RawBlock *block,
                        uint32_t num_records, storage::ArrowBlockMetadata *metadata,
                        std::vector<const byte *> *old_buffers);

  transaction::TransactionManager *txn_manager_;
  gc::GarbageCollector *gc_;
  GatherMode mode_;
  bool pump_gc_ = true;
};

}  // namespace mainline::transform
