#pragma once

#include <shared_mutex>

#include "common/macros.h"
#include "common/thread_annotations.h"

namespace mainline::common {

/// Reader-writer latch. Thin wrapper over std::shared_mutex with RAII guards
/// named after the database convention (shared = read, exclusive = write).
///
/// Annotated as a capability so Clang's thread-safety analysis distinguishes
/// read locks (GUARDED_BY fields may be read) from write locks (fields may
/// be written); libstdc++'s std::shared_mutex itself carries no annotations.
class CAPABILITY("mutex") SharedLatch {
 public:
  SharedLatch() = default;
  DISALLOW_COPY_AND_MOVE(SharedLatch)

  void LockExclusive() ACQUIRE() { latch_.lock(); }
  void LockShared() ACQUIRE_SHARED() { latch_.lock_shared(); }
  void UnlockExclusive() RELEASE() { latch_.unlock(); }
  void UnlockShared() RELEASE_SHARED() { latch_.unlock_shared(); }

  /// RAII shared (read) guard.
  class SCOPED_CAPABILITY ScopedSharedLatch {
   public:
    explicit ScopedSharedLatch(SharedLatch *latch) ACQUIRE_SHARED(latch) : latch_(latch) {
      latch_->LockShared();
    }
    DISALLOW_COPY_AND_MOVE(ScopedSharedLatch)
    ~ScopedSharedLatch() RELEASE_GENERIC() { latch_->UnlockShared(); }

   private:
    SharedLatch *latch_;
  };

  /// RAII exclusive (write) guard.
  class SCOPED_CAPABILITY ScopedExclusiveLatch {
   public:
    explicit ScopedExclusiveLatch(SharedLatch *latch) ACQUIRE(latch) : latch_(latch) {
      latch_->LockExclusive();
    }
    DISALLOW_COPY_AND_MOVE(ScopedExclusiveLatch)
    ~ScopedExclusiveLatch() RELEASE() { latch_->UnlockExclusive(); }

   private:
    SharedLatch *latch_;
  };

 private:
  std::shared_mutex latch_;
};

}  // namespace mainline::common
