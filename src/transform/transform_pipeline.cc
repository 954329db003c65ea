#include "transform/transform_pipeline.h"

#include <algorithm>
#include <vector>

#include "metrics/engine_metrics.h"
#include "storage/block_access_controller.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"

namespace mainline::transform {

using common::Timer;

uint32_t TransformPipeline::RunOnce() {
  const Timer pass_timer;
  // The table filter is the caller's code: it runs outside the latch.
  std::vector<storage::RawBlock *> cold = observer_->CollectColdBlocks();
  std::erase_if(cold, [this](storage::RawBlock *block) {
    storage::DataTable *const table = block->data_table;
    return table == nullptr || (table_filter_ && !table_filter_(table));
  });
  std::unordered_map<storage::DataTable *, std::vector<storage::RawBlock *>> to_compact;
  std::vector<storage::RawBlock *> cooling;  // past their barrier
  {
    common::SpinLatch::ScopedSpinLatch guard(&pending_latch_);
    // A block leaves once frozen or released, or once a user write re-heated
    // it after its compaction (the observer hands it back).
    const auto gone = [](storage::RawBlock *block, const Candidate &candidate) {
      const storage::BlockState state = block->controller.GetState();
      return candidate.table == nullptr || block->data_table != candidate.table ||
             state == storage::BlockState::kFrozen ||
             (state == storage::BlockState::kHot &&
              candidate.compacted_at != transaction::kInvalidTimestamp);
    };
    std::erase_if(pending_, [&gone](const auto &entry) { return gone(entry.first, entry.second); });
    for (storage::RawBlock *block : cold) {
      const Candidate fresh{block->data_table};
      if (!gone(block, fresh)) pending_.try_emplace(block, fresh);
    }
    for (const auto &[block, candidate] : pending_) {
      if (candidate.compacted_at != transaction::kInvalidTimestamp) {
        if (transformer_->BarrierPassed(candidate.compacted_at)) cooling.push_back(block);
      } else if (transformer_->BarrierPassed(candidate.retry_after)) {
        to_compact[candidate.table].push_back(block);
      }
    }
  }

  // A committed group keeps only its survivors, now cooling (the emptied
  // blocks go back to the block store). An aborted group drops the blocks
  // written since their intake, which the observer hands back once cold, and
  // retries the rest once every transaction that overlapped the abort, the
  // writer it conflicted with included, has finished.
  TransformStats pass;
  for (auto &[table, blocks] : to_compact) {
    for (size_t i = 0; i < blocks.size(); i += group_size_) {
      const std::vector<storage::RawBlock *> group(
          blocks.begin() + static_cast<long>(i),
          blocks.begin() + static_cast<long>(std::min(blocks.size(), i + group_size_)));
      transaction::timestamp_t commit_ts = transaction::kInvalidTimestamp;
      std::vector<storage::RawBlock *> survivors;
      const bool committed =
          transformer_->CompactGroup(table, group, &pass, &commit_ts, &survivors);
      common::SpinLatch::ScopedSpinLatch guard(&pending_latch_);
      for (storage::RawBlock *block : group) {
        if (committed ? std::ranges::find(survivors, block) == survivors.end()
                      : observer_->Watches(block)) {
          pending_.erase(block);
        } else if (!committed) {
          pending_.at(block).retry_after = commit_ts;
        }
      }
      for (storage::RawBlock *block : survivors) pending_.at(block).compacted_at = commit_ts;
      if (committed && transformer_->BarrierPassed(commit_ts)) {
        cooling.insert(cooling.end(), survivors.begin(), survivors.end());
      }
    }
  }

  const std::vector<GatherOutcome> outcomes = transformer_->GatherCooled(cooling, &pass);
  metrics::TransformMetrics &transform_metrics = metrics::Transform();
  {
    common::SpinLatch::ScopedSpinLatch guard(&pending_latch_);
    for (size_t i = 0; i < cooling.size(); i++) {
      Candidate &candidate = pending_.at(cooling[i]);
      if (outcomes[i] == GatherOutcome::kFrozen) {
        transform_metrics.freeze_lag_us->Observe(candidate.intake.Elapsed<>());
        pending_.erase(cooling[i]);
      } else if (outcomes[i] == GatherOutcome::kNotCompact) {
        candidate.compacted_at = transaction::kInvalidTimestamp;
      }
    }
  }

  {
    common::SpinLatch::ScopedSpinLatch guard(&stats_latch_);
    stats_.tuples_moved += pass.tuples_moved;
    stats_.blocks_freed += pass.blocks_freed;
    stats_.blocks_frozen += pass.blocks_frozen;
    stats_.compaction_aborts += pass.compaction_aborts;
    stats_.write_set_size += pass.write_set_size;
    stats_.compaction_us += pass.compaction_us;
    stats_.gather_us += pass.gather_us;
  }

  transform_metrics.passes->Add(1);
  transform_metrics.blocks_frozen->Add(pass.blocks_frozen);
  transform_metrics.blocks_freed->Add(pass.blocks_freed);
  transform_metrics.tuples_moved->Add(pass.tuples_moved);
  transform_metrics.compaction_aborts->Add(pass.compaction_aborts);
  transform_metrics.observer_queue_depth->Set(static_cast<int64_t>(QueueDepth()));
  transform_metrics.pass_us->Observe(pass_timer.Elapsed<>());
  return static_cast<uint32_t>(pass.blocks_frozen);
}

void TransformPipeline::Run() {
  while (run_.load(std::memory_order_acquire)) {
    const Timer pass_timer;
    const uint32_t frozen = RunOnce();
    const std::chrono::milliseconds delay =
        policy_.OnPassComplete({QueueDepth(), pass_timer.Elapsed<>(), frozen});
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
