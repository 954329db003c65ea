#include "execution/operators/scan_source.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "metrics/engine_metrics.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"
#include "transform/block_batch.h"

namespace mainline::execution::op {

void ScanSource::Run(transaction::TransactionContext *txn, common::WorkerPool *pool,
                     Operator *root, const std::function<void(size_t)> &prepare,
                     ScanStats *stats, PipelineProfile *profile) {
  MAINLINE_ASSERT(!projection_.empty(), "scan projection must name at least one column");
  MAINLINE_ASSERT(std::is_sorted(projection_.begin(), projection_.end()) &&
                      std::adjacent_find(projection_.begin(), projection_.end()) ==
                          projection_.end(),
                  "scan projection must be sorted ascending and duplicate-free");
  MAINLINE_ASSERT(projection_.back() < table_->GetSchema().NumColumns(),
                  "scan projection column out of range");
  const std::vector<storage::RawBlock *> blocks = table_->UnderlyingTable().Blocks();
  prepare(blocks.size());

  // One task per pool worker, each draining the shared cursor into its own
  // chunk, batch and stats slot: morsel dispatch is the atomic fetch_add,
  // not the task queue, so the queue sees O(workers) entries rather than
  // O(blocks), and workers share nothing but the read-only transaction.
  const uint32_t workers = pool == nullptr ? 0 : pool->NumWorkers();
  std::vector<ScanStats> worker_stats(std::max<uint32_t>(1, workers));
  std::atomic<size_t> cursor{0};
  common::RunTasks(pool, worker_stats.size(), [&](uint64_t worker) {
    ScanStats *slot = &worker_stats[worker];
    Chunk chunk;
    transform::BlockBatch batch;
    while (true) {
      // relaxed: morsel dispatch needs only a unique ordinal per worker;
      // block contents are synchronized by the storage layer, not by this
      // counter.
      const size_t ordinal = cursor.fetch_add(1, std::memory_order_relaxed);
      if (ordinal >= blocks.size()) break;
      if (!ScanBlock(table_, txn, projection_, blocks[ordinal], &batch, slot)) continue;
      chunk.Reset(ordinal, &batch);
      root->Consume(&chunk);
      batch.Release();
    }
  });

  ScanStats total;
  for (const ScanStats &worker : worker_stats) total.Add(worker);
  metrics::ScanMetrics &scan_metrics = metrics::Scan();
  scan_metrics.morsel_scans->Add(1);
  scan_metrics.rows->Add(total.rows);
  scan_metrics.frozen_blocks->Add(total.frozen_blocks);
  scan_metrics.hot_blocks->Add(total.hot_blocks);
  if (stats != nullptr) stats->Add(total);
  if (profile != nullptr) {
    profile->source = "table#" + std::to_string(table_->Oid().UnderlyingValue());
    profile->num_blocks = blocks.size();
    profile->scan = total;
  }
}

}  // namespace mainline::execution::op
