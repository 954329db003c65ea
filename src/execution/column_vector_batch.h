#pragma once

#include <memory>
#include <utility>

#include "arrowlite/array.h"
#include "common/macros.h"
#include "storage/raw_block.h"

namespace mainline::execution {

/// A uniform columnar view of one block's visible tuples, produced by
/// ScanBlock: column `i` is the `i`-th column of the scan projection,
/// exposed as an arrowlite array regardless of which path produced it
/// (dictionary-encoded varlens included — Array::GetString resolves codes).
///
/// For frozen-path batches the arrays alias block storage, and the batch
/// keeps the block's read lock until Release()/destruction; operators must
/// therefore consume a batch before requesting the next one or moving it.
/// Move-only, so the lock is released exactly once.
class ColumnVectorBatch {
 public:
  ColumnVectorBatch() = default;

  ~ColumnVectorBatch() { Release(); }

  DISALLOW_COPY(ColumnVectorBatch)

  ColumnVectorBatch(ColumnVectorBatch &&other) noexcept { *this = std::move(other); }

  ColumnVectorBatch &operator=(ColumnVectorBatch &&other) noexcept {
    if (this != &other) {
      Release();
      batch_ = std::move(other.batch_);
      locked_block_ = other.locked_block_;
      other.batch_ = nullptr;
      other.locked_block_ = nullptr;
    }
    return *this;
  }

  /// Rebind to a new block's data. `locked_block` is the block whose read
  /// lock this batch now owns (frozen path), or nullptr (materialized path).
  void Reset(std::shared_ptr<arrowlite::RecordBatch> batch, storage::RawBlock *locked_block) {
    Release();
    batch_ = std::move(batch);
    locked_block_ = locked_block;
  }

  /// Drop the data and release the underlying block read lock, if any. The
  /// arrays must go first: they may alias the block storage the lock guards.
  void Release() {
    batch_ = nullptr;
    if (locked_block_ != nullptr) {
      locked_block_->controller.ReleaseRead();
      locked_block_ = nullptr;
    }
  }

  int64_t NumRows() const { return batch_ == nullptr ? 0 : batch_->num_rows(); }

  /// \return the array of projected column `i`.
  const arrowlite::Array &Column(uint16_t i) const { return *batch_->column(i); }

  const std::shared_ptr<arrowlite::RecordBatch> &Batch() const { return batch_; }

 private:
  std::shared_ptr<arrowlite::RecordBatch> batch_;
  storage::RawBlock *locked_block_ = nullptr;
};

}  // namespace mainline::execution
