#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/spin_latch.h"
#include "common/thread_annotations.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"
#include "transform/access_observer.h"
#include "transform/block_transformer.h"
#include "transform/freeze_policy.h"

namespace mainline::transform {

/// The background transformation pipeline of Figure 8: pulls cold-block
/// candidates from the access observer, groups them per table into compaction
/// groups, and runs the two-phase transformer over each group. Runs either on
/// a dedicated thread (Start/Stop) or cooperatively (RunOnce).
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

  /// Manually enqueue every current block of `table` as a cold candidate
  /// (e.g. a bulk-loaded, read-mostly table whose writes predate the
  /// observer).
  void EnqueueTable(storage::DataTable *table) EXCLUDES(manual_latch_) {
    common::SpinLatch::ScopedSpinLatch guard(&manual_latch_);
    for (storage::RawBlock *block : table->Blocks()) manual_queue_.emplace_back(block, table);
  }

  /// One pass: collect cold blocks, form groups, transform them. Each pass
  /// also feeds the engine metrics registry (transform.* counters, the
  /// observer queue-depth gauge, and the pass/freeze-lag histograms).
  /// \param pass_stats when non-null, receives this pass's TransformStats
  ///        alone (the lifetime accumulation stays available via Stats()).
  /// \return number of blocks frozen in this pass.
  uint32_t RunOnce(TransformStats *pass_stats = nullptr) EXCLUDES(manual_latch_, stats_latch_);

  /// Spawn the background thread under feedback control: after every pass a
  /// FreezePolicy built from `policy` picks the delay before the next one
  /// from the observer's queue depth and the pass duration, so freshness lag
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
  AccessObserver *observer_;
  BlockTransformer *transformer_;
  uint32_t group_size_;
  std::function<bool(storage::DataTable *)> table_filter_;
  mutable common::SpinLatch stats_latch_;
  TransformStats stats_ GUARDED_BY(stats_latch_);
  common::SpinLatch manual_latch_;
  std::vector<std::pair<storage::RawBlock *, storage::DataTable *>> manual_queue_
      GUARDED_BY(manual_latch_);

  /// The background loop body.
  void Run() EXCLUDES(manual_latch_, stats_latch_, sleep_mutex_);

  std::thread worker_;
  std::atomic<bool> run_{false};
  /// The controller's latest decision, for CurrentPeriod.
  std::atomic<int64_t> period_ms_{10};
  /// Touched exclusively by Start (before the worker spawns) and the worker.
  FreezePolicy policy_;
  /// The inter-pass sleep. Stop() cannot signal through `run_` alone: the
  /// loop's "still running?" check and its wait must be one atomic step
  /// under a mutex, or a notify landing between them is lost and Stop blocks
  /// a full period — exactly the latency this cv exists to remove.
  common::Mutex sleep_mutex_;
  common::ConditionVariable sleep_cv_;
  bool wake_ GUARDED_BY(sleep_mutex_) = false;
};

}  // namespace mainline::transform
