#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/macros.h"
#include "common/spin_latch.h"
#include "common/thread_annotations.h"
#include "gc/write_observer.h"
#include "storage/raw_block.h"

namespace mainline::transform {

/// Tracks block access statistics without touching the transaction critical
/// path (Section 4.2). The garbage collector, which already scans every
/// transaction's undo records, reports each modified block here; the
/// observer approximates the modification time with the GC invocation epoch
/// ("GC epoch"). Blocks that have not been modified for
/// `cold_threshold_epochs` GC epochs are emitted as cold candidates for the
/// transformation pipeline.
class AccessObserver final : public gc::WriteObserver {
 public:
  /// \param cold_threshold_epochs number of GC epochs without modification
  ///        after which a block is considered cold
  explicit AccessObserver(uint64_t cold_threshold_epochs)
      : cold_threshold_(cold_threshold_epochs) {}

  DISALLOW_COPY_AND_MOVE(AccessObserver)

  /// Called by the GC at the end of each run: the epoch counts completed runs.
  // relaxed: the GC thread is the only writer, but the transformation thread
  // reads the epoch concurrently (CollectColdBlocks), so a plain uint64_t
  // here was a data race — coldness is a heuristic, so no ordering is needed
  // beyond tear-free reads.
  void NewEpoch() override { epoch_.fetch_add(1, std::memory_order_relaxed); }

  /// Called by the GC for every block touched by a transaction it processed;
  /// the block is stamped with the epoch the current run closes.
  void ObserveWrite(storage::RawBlock *block) override EXCLUDES(latch_) {
    // relaxed: load and store — the touch stamp is a coldness heuristic;
    // an off-by-one epoch merely delays or hastens a freeze candidate.
    block->last_touched_epoch.store(epoch_.load(std::memory_order_relaxed) + 1,
                                    std::memory_order_relaxed);
    common::SpinLatch::ScopedSpinLatch guard(&latch_);
    watched_.insert(block);
  }

  /// Collect blocks whose last modification is at least the cold threshold
  /// behind the current epoch. Collected blocks leave the watch set (they
  /// re-enter when modified again).
  std::vector<storage::RawBlock *> CollectColdBlocks() EXCLUDES(latch_) {
    std::vector<storage::RawBlock *> result;
    // relaxed: reading the heuristic epoch; see NewEpoch.
    const uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    common::SpinLatch::ScopedSpinLatch guard(&latch_);
    for (auto it = watched_.begin(); it != watched_.end();) {
      // relaxed: stale touch stamps only shift when a block is deemed cold;
      // the compactor re-validates ownership before acting on it.
      const uint64_t last = (*it)->last_touched_epoch.load(std::memory_order_relaxed);
      if (epoch >= last + cold_threshold_) {
        result.push_back(*it);
        it = watched_.erase(it);
      } else {
        ++it;
      }
    }
    return result;
  }

  /// \return whether `block` is watched, i.e. will be collected once cold.
  bool Watches(storage::RawBlock *block) EXCLUDES(latch_) {
    common::SpinLatch::ScopedSpinLatch guard(&latch_);
    return watched_.contains(block);
  }

  /// \return number of blocks currently watched.
  size_t WatchedBlocks() EXCLUDES(latch_) {
    common::SpinLatch::ScopedSpinLatch guard(&latch_);
    return watched_.size();
  }

 private:
  const uint64_t cold_threshold_;
  std::atomic<uint64_t> epoch_{0};
  common::SpinLatch latch_;
  std::unordered_set<storage::RawBlock *> watched_ GUARDED_BY(latch_);
};

}  // namespace mainline::transform
