#pragma once

#include <memory>
#include <utility>

#include "arrowlite/array.h"
#include "common/macros.h"
#include "storage/raw_block.h"

namespace mainline::transform {

/// One block's visible tuples as ArrowReader::ReadBlock read them: column
/// `i` is the `i`-th column of the read's projection, exposed as an arrowlite
/// array regardless of which path produced it (dictionary-encoded varlens
/// included — Array::GetString resolves codes).
///
/// A batch read in place aliases block storage and owns the block's read
/// lock until Release()/destruction, so a reader must consume a batch before
/// it moves on. Move-only, so the lock is released exactly once.
class BlockBatch {
 public:
  BlockBatch() = default;

  /// \param locked_block the block whose read lock this batch now owns
  ///        (read in place), or nullptr (materialized)
  BlockBatch(std::shared_ptr<arrowlite::RecordBatch> batch, storage::RawBlock *locked_block)
      : batch_(std::move(batch)), locked_block_(locked_block) {}

  ~BlockBatch() { Release(); }

  DISALLOW_COPY(BlockBatch)

  BlockBatch(BlockBatch &&other) noexcept { *this = std::move(other); }

  BlockBatch &operator=(BlockBatch &&other) noexcept {
    if (this != &other) {
      Release();
      batch_ = std::move(other.batch_);
      locked_block_ = other.locked_block_;
      other.batch_ = nullptr;
      other.locked_block_ = nullptr;
    }
    return *this;
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

  /// \return true if the batch was read in place and holds its block's read
  /// lock, false if it was materialized (or released).
  bool InPlace() const { return locked_block_ != nullptr; }

  int64_t NumRows() const { return batch_ == nullptr ? 0 : batch_->num_rows(); }

  /// \return the array of projected column `i`.
  const arrowlite::Array &Column(uint16_t i) const { return *batch_->column(i); }

  const std::shared_ptr<arrowlite::RecordBatch> &Batch() const { return batch_; }

 private:
  std::shared_ptr<arrowlite::RecordBatch> batch_;
  storage::RawBlock *locked_block_ = nullptr;
};

}  // namespace mainline::transform
