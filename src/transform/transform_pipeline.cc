#include "transform/transform_pipeline.h"

#include <unordered_set>

#include "common/timer.h"
#include "metrics/engine_metrics.h"
#include "storage/block_access_controller.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"

namespace mainline::transform {

uint32_t TransformPipeline::RunOnce(TransformStats *pass_stats) {
  const common::Timer pass_timer;
  // Group candidates per table, validating that each block still belongs to
  // the table we observed (it may have been recycled since).
  std::unordered_map<storage::DataTable *, std::vector<storage::RawBlock *>> per_table;
  std::vector<std::pair<storage::RawBlock *, storage::DataTable *>> candidates;
  {
    common::SpinLatch::ScopedSpinLatch guard(&manual_latch_);
    candidates.swap(manual_queue_);
  }
  for (auto &[block, table] : observer_->CollectColdBlocks()) candidates.emplace_back(block, table);
  // The same block can arrive through both the manual queue and the observer;
  // a duplicate inside one compaction group would make the planner count its
  // tuples twice and compact the block onto itself.
  std::unordered_set<storage::RawBlock *> dedup;
  for (auto &[block, table] : candidates) {
    if (block->data_table != table || table == nullptr) continue;
    if (table_filter_ && !table_filter_(table)) continue;
    if (block->controller.GetState() == storage::BlockState::kFrozen) continue;
    if (!dedup.insert(block).second) continue;
    per_table[table].push_back(block);
  }

  metrics::TransformMetrics &transform_metrics = metrics::Transform();
  // Freshness lag is measured from this pass's cold-collection point to each
  // group reaching frozen (the watch set holds no per-block timestamps, so
  // the epochs a block waited before collection are not included).
  const common::Timer collect_timer;
  uint32_t frozen = 0;
  TransformStats pass;
  for (auto &[table, blocks] : per_table) {
    for (size_t i = 0; i < blocks.size(); i += group_size_) {
      const size_t end = std::min(blocks.size(), i + group_size_);
      const std::vector<storage::RawBlock *> group(blocks.begin() + static_cast<long>(i),
                                                   blocks.begin() + static_cast<long>(end));
      const uint32_t group_frozen = transformer_->ProcessGroup(table, group, &pass);
      if (group_frozen > 0) transform_metrics.freeze_lag_us->Observe(collect_timer.Elapsed<>());
      frozen += group_frozen;
    }
  }

  {
    common::SpinLatch::ScopedSpinLatch guard(&stats_latch_);
    stats_.tuples_moved += pass.tuples_moved;
    stats_.blocks_freed += pass.blocks_freed;
    stats_.blocks_frozen += pass.blocks_frozen;
    stats_.compaction_aborts += pass.compaction_aborts;
    stats_.gather_retries += pass.gather_retries;
    stats_.write_set_size += pass.write_set_size;
    stats_.compaction_us += pass.compaction_us;
    stats_.gather_us += pass.gather_us;
  }
  if (pass_stats != nullptr) *pass_stats = pass;

  transform_metrics.passes->Add(1);
  transform_metrics.blocks_frozen->Add(pass.blocks_frozen);
  transform_metrics.blocks_freed->Add(pass.blocks_freed);
  transform_metrics.tuples_moved->Add(pass.tuples_moved);
  transform_metrics.compaction_aborts->Add(pass.compaction_aborts);
  transform_metrics.observer_queue_depth->Set(
      static_cast<int64_t>(observer_->WatchedBlocks()));
  transform_metrics.pass_us->Observe(pass_timer.Elapsed<>());
  return frozen;
}

void TransformPipeline::Run() {
  while (run_.load(std::memory_order_acquire)) {
    const common::Timer pass_timer;
    const uint32_t frozen = RunOnce();
    const std::chrono::milliseconds delay =
        policy_.OnPassComplete({observer_->WatchedBlocks(), pass_timer.Elapsed<>(), frozen});
    // relaxed: reporting only — CurrentPeriod is a gauge-style reading.
    period_ms_.store(delay.count(), std::memory_order_relaxed);
    common::MutexGuard guard(&sleep_mutex_);
    // Deliberately not a predicate loop: `wake_` only cuts the sleep short
    // for shutdown, and a spurious wakeup merely runs the next pass early —
    // harmless to the cadence heuristic. What matters is that the wake_
    // check and the wait are under one mutex, so Stop's notify cannot land
    // between them and be lost.
    if (!wake_) sleep_cv_.WaitFor(&guard, delay);
  }
}

void TransformPipeline::Start(const FreezePolicy::Config &policy) {
  // ordering: seq_cst exchange on the once-per-lifetime start path — the
  // full fence is free here and exactly one caller observes the transition.
  if (run_.exchange(true)) return;
  policy_ = FreezePolicy(policy);
  // relaxed: published to the worker by the std::thread constructor below.
  period_ms_.store(policy_.CurrentPeriod().count(), std::memory_order_relaxed);
  {
    common::MutexGuard guard(&sleep_mutex_);
    wake_ = false;
  }
  worker_ = std::thread([this] { Run(); });
}

void TransformPipeline::Stop() {
  // ordering: seq_cst exchange, mirror of Start — cold path; the winner of
  // the transition is the one caller that joins the worker.
  if (!run_.exchange(false)) return;
  {
    common::MutexGuard guard(&sleep_mutex_);
    wake_ = true;
  }
  sleep_cv_.NotifyAll();
  if (worker_.joinable()) worker_.join();
}

}  // namespace mainline::transform
