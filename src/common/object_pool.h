#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/spin_latch.h"
#include "common/thread_annotations.h"

namespace mainline::common {

/// A thread-safe pool of reusable heap objects.
///
/// Undo/redo buffer segments and 1 MB blocks are allocated at a high rate;
/// recycling them through a pool avoids malloc churn on the transaction
/// critical path. `Allocator` must provide `T *New()`, `void Reuse(T *)` and
/// `void Delete(T *)`.
///
/// The pool keeps at most `reuse_limit` free objects; beyond that, released
/// objects are deleted. `size_limit` caps the total number of objects handed
/// out plus cached (0 = unlimited).
template <typename T, class Allocator>
class ObjectPool {
 public:
  explicit ObjectPool(uint64_t size_limit = 0, uint64_t reuse_limit = 64)
      : size_limit_(size_limit), reuse_limit_(reuse_limit) {}

  DISALLOW_COPY_AND_MOVE(ObjectPool)

  ~ObjectPool() {
    for (T *obj : reuse_queue_) alloc_.Delete(obj);
  }

  /// Acquire an object, reusing a cached one if available.
  /// \return a ready-to-use object, or nullptr if the pool is at its size
  /// limit.
  T *Get() {
    {
      SpinLatch::ScopedSpinLatch guard(&latch_);
      if (!reuse_queue_.empty()) {
        T *result = reuse_queue_.back();
        reuse_queue_.pop_back();
        alloc_.Reuse(result);
        return result;
      }
      if (size_limit_ != 0 && current_size_ >= size_limit_) return nullptr;
      current_size_++;
    }
    return alloc_.New();
  }

  /// Return an object to the pool.
  void Release(T *obj) {
    SpinLatch::ScopedSpinLatch guard(&latch_);
    if (reuse_queue_.size() < reuse_limit_) {
      reuse_queue_.push_back(obj);
    } else {
      alloc_.Delete(obj);
      current_size_--;
    }
  }

 private:
  Allocator alloc_;
  mutable SpinLatch latch_;
  std::vector<T *> reuse_queue_ GUARDED_BY(latch_);
  uint64_t size_limit_;
  uint64_t reuse_limit_;
  uint64_t current_size_ GUARDED_BY(latch_) = 0;
};

}  // namespace mainline::common
