#pragma once

namespace mainline::storage {
class RawBlock;
}

namespace mainline::gc {

/// Interface the garbage collector reports block modifications through. The
/// GC already scans every finished transaction's undo records, which makes
/// it the natural (and free) place to learn which blocks are still being
/// written; anything that wants that signal — in practice the transform
/// layer's AccessObserver, which sits above gc/ — implements this interface
/// and registers itself via GarbageCollector::SetAccessObserver. The calls
/// happen on the GC thread, once per run plus once per touched block, so
/// virtual dispatch here is far off any transaction path.
class WriteObserver {
 public:
  virtual ~WriteObserver() = default;

  /// Called at the end of each GC run, after its ObserveWrite calls.
  virtual void NewEpoch() = 0;

  /// Called for every block touched by a transaction the GC processed.
  virtual void ObserveWrite(storage::RawBlock *block) = 0;
};

}  // namespace mainline::gc
