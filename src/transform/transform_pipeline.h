#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <unordered_map>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/spin_latch.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "common/typedefs.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"
#include "transform/access_observer.h"
#include "transform/block_transformer.h"
#include "transform/freeze_policy.h"

namespace mainline::transform {

/// The background transformation pipeline of Figure 8. One candidate set,
/// fed by the access observer (cold blocks) and EnqueueTable, holds each
/// block until it is frozen or leaves its table, or until the observer will
/// hand it back (a write re-heated it). A pass compacts the hot candidates
/// in groups per table, then tries once to gather each cooling one past
/// Figure 9's barrier, which it checks and never waits on. Runs on a
/// dedicated thread (Start/Stop) or cooperatively (RunOnce).
class TransformPipeline {
 public:
  /// \param observer source of cold-block candidates (fed by the GC)
  /// \param transformer two-phase compact+gather engine
  /// \param group_size blocks per compaction group (Figure 14's knob)
  TransformPipeline(AccessObserver *observer, BlockTransformer *transformer,
                    uint32_t group_size)
      : observer_(observer), transformer_(transformer), group_size_(group_size) {}

  DISALLOW_COPY_AND_MOVE(TransformPipeline)

  ~TransformPipeline() { Stop(); }

  /// Restrict transformation to tables for which `filter` returns true
  /// (the paper targets only the tables that generate cold data).
  void SetTableFilter(std::function<bool(storage::DataTable *)> filter) {
    table_filter_ = std::move(filter);
  }

  /// Add every current block of `table` to the candidate set (e.g. a
  /// bulk-loaded, read-mostly table whose writes predate the observer).
  void EnqueueTable(storage::DataTable *table) EXCLUDES(pending_latch_) {
    if (table_filter_ && !table_filter_(table)) return;
    common::SpinLatch::ScopedSpinLatch guard(&pending_latch_);
    for (storage::RawBlock *block : table->Blocks()) pending_.try_emplace(block, Candidate{table});
  }

  /// One pass over the candidate set. Each pass also feeds the engine
  /// metrics registry (transform.* counters, the queue-depth gauge, and the
  /// pass/freeze-lag histograms).
  /// \return number of blocks frozen in this pass.
  uint32_t RunOnce() EXCLUDES(pending_latch_, stats_latch_);

  /// Spawn the background thread under feedback control: after every pass a
  /// FreezePolicy built from `policy` picks the delay before the next one
  /// from the queue depth and the pass duration, so freshness lag
  /// stays bounded under write bursts without hand-tuning a period (see
  /// transform/freeze_policy.h for the control law). A fixed cadence is a
  /// pinned policy: min_period = max_period = initial_period.
  void Start(const FreezePolicy::Config &policy) EXCLUDES(sleep_mutex_);

  /// Join the background thread. Returns promptly even mid-sleep: the loop
  /// waits on a condition variable this notifies, so shutdown latency does
  /// not scale with the (possibly controller-lengthened) period.
  void Stop() EXCLUDES(sleep_mutex_);

  /// The loop's current inter-pass delay: the controller's latest decision.
  /// Exposed for monitoring and tests.
  std::chrono::milliseconds CurrentPeriod() const {
    // relaxed: a point-in-time reading for reporting, like a metrics gauge;
    // it orders nothing.
    return std::chrono::milliseconds(period_ms_.load(std::memory_order_relaxed));
  }

  /// Lifetime accumulation over every pass this pipeline has run. Returns a
  /// snapshot by value: when the pipeline runs on its background thread
  /// (Start), a reference into stats_ would race with the accumulation at
  /// the end of each concurrent RunOnce.
  TransformStats Stats() const EXCLUDES(stats_latch_) {
    common::SpinLatch::ScopedSpinLatch guard(&stats_latch_);
    return stats_;
  }

 private:
  struct Candidate {
    storage::DataTable *table;
    /// Commit time of its compaction; kInvalidTimestamp until it commits.
    transaction::timestamp_t compacted_at = transaction::kInvalidTimestamp;
    transaction::timestamp_t retry_after = transaction::kInitialTimestamp;  ///< last abort
    common::Timer intake{};  ///< started at intake, for transform.freeze_lag_us
  };

  /// Watched plus pending blocks.
  uint64_t QueueDepth() EXCLUDES(pending_latch_) {
    const uint64_t watched = observer_->WatchedBlocks();
    common::SpinLatch::ScopedSpinLatch guard(&pending_latch_);
    return watched + pending_.size();
  }

  /// The background loop body.
  void Run() EXCLUDES(pending_latch_, stats_latch_, sleep_mutex_);

  AccessObserver *observer_;
  BlockTransformer *transformer_;
  uint32_t group_size_;
  std::function<bool(storage::DataTable *)> table_filter_;
  mutable common::SpinLatch stats_latch_;
  TransformStats stats_ GUARDED_BY(stats_latch_);
  common::SpinLatch pending_latch_;
  std::unordered_map<storage::RawBlock *, Candidate> pending_ GUARDED_BY(pending_latch_);

  std::thread worker_;
  std::atomic<bool> run_{false};
  /// The controller's latest decision, for CurrentPeriod.
  std::atomic<int64_t> period_ms_{10};
  /// Touched exclusively by Start (before the worker spawns) and the worker.
  FreezePolicy policy_{FreezePolicy::Config{}};
  /// The inter-pass sleep. Stop() cannot signal through `run_` alone: the
  /// loop's "still running?" check and its wait must be one atomic step
  /// under a mutex, or a notify landing between them is lost and Stop blocks
  /// a full period — exactly the latency this cv exists to remove.
  common::Mutex sleep_mutex_;
  common::ConditionVariable sleep_cv_;
  bool wake_ GUARDED_BY(sleep_mutex_) = false;
};

}  // namespace mainline::transform
