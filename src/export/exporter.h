#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>

#include "arrowlite/io.h"
#include "catalog/schema.h"
#include "common/macros.h"
#include "catalog/sql_table.h"
#include "transaction/transaction_manager.h"

namespace mainline::exporter {

/// Outcome of one bulk export.
struct ExportResult {
  uint64_t rows = 0;
  /// Bytes that crossed the (simulated) wire.
  uint64_t wire_bytes = 0;
  /// End-to-end time from request to the client being able to start
  /// analysis, matching Figure 15's measurement.
  uint64_t micros = 0;
  /// Blocks served zero-copy (frozen) vs. transactionally materialized.
  uint64_t frozen_blocks = 0;
  uint64_t hot_blocks = 0;
};

/// A bulk data-export mechanism (Section 5). Implementations walk the
/// table's blocks; frozen blocks may be read in place under the block read
/// lock, hot blocks must be materialized through a transaction first.
class Exporter {
 public:
  virtual ~Exporter() = default;

  /// Export the entire table to the client.
  virtual ExportResult Export(catalog::SqlTable *table,
                              transaction::TransactionManager *txn_manager) = 0;

  /// \return a short protocol name for reports.
  virtual const char *Name() const = 0;
};

/// Simulated client memory region for one-sided transfers (the RDMA path)
/// and a landing zone for the other protocols' wire bytes. The constructor's
/// capacity is an initial reservation: a Write past it grows the region
/// (moving the bytes written so far), so take pointers into data() only once
/// the writing is done.
class ClientBuffer final : public arrowlite::ByteSink {
 public:
  explicit ClientBuffer(uint64_t capacity)
      : data_(std::make_unique<byte[]>(capacity)), capacity_(capacity) {}

  void Write(const byte *data, uint64_t size) override {
    if (UNLIKELY(size > capacity_ - size_)) Grow(size_ + size);
    std::memcpy(data_.get() + size_, data, size);
    size_ += size;
  }

  void Reset() { size_ = 0; }
  const byte *data() const { return data_.get(); }
  uint64_t size() const { return size_; }

 private:
  /// Reallocate to at least `needed` bytes (at least double the capacity),
  /// keeping the bytes written so far.
  void Grow(uint64_t needed) {
    const uint64_t capacity = std::max(needed, 2 * capacity_);
    auto data = std::make_unique_for_overwrite<byte[]>(capacity);
    std::memcpy(data.get(), data_.get(), size_);
    data_ = std::move(data);
    capacity_ = capacity;
  }

  std::unique_ptr<byte[]> data_;
  uint64_t capacity_;
  uint64_t size_ = 0;
};

}  // namespace mainline::exporter
