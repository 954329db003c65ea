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

/// A bulk data-export mechanism (Section 5). Every Export is one
/// transactional read: it begins one snapshot transaction, then reads every
/// block of the table in order through transform::ArrowReader::ReadBlock —
/// a frozen block in place under its read lock, any other block materialized
/// through that snapshot. A row a writer moves while the export runs is
/// therefore sent exactly once, from wherever the snapshot sees it.
///
/// The Arrow-native exporters (Flight and RDMA) export in two steps. One
/// thread plans the stream: it reads the blocks in order, sizes each block's
/// message with a dry run of the writer at the offset where the message will
/// start, and claims that range of the ClientBuffer, growing it as needed. A
/// materialized block's message is written at once, so the export never
/// holds a second copy of the hot data; a block read in place keeps its read
/// lock and its message is left to step two. Then the workers of
/// a pool write the frozen blocks' messages into their ranges, each worker a
/// contiguous run of blocks of about equal bytes, the way a multi-endpoint
/// Flight DoGet or a multi-queue RDMA NIC moves one stream over several
/// lanes. The bytes are the same as a one-thread export's; only the copy
/// standing in for the transfer runs in parallel. A frozen block's read lock
/// is held from planning until its message has landed, and released then.
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
/// capacity is an initial reservation: a Write or Claim past it grows the
/// region (moving the bytes written so far), so take pointers into data()
/// only once the writing is done, and address claimed ranges by offset.
class ClientBuffer final : public arrowlite::ByteSink {
 public:
  explicit ClientBuffer(uint64_t capacity)
      : data_(std::make_unique<byte[]>(capacity)), capacity_(capacity) {}

  void Write(const byte *data, uint64_t size) override {
    if (UNLIKELY(size > capacity_ - size_)) Grow(size_ + size);
    std::memcpy(data_.get() + size_, data, size);
    size_ += size;
  }

  /// Append `size` bytes to the region without writing them, growing it
  /// like Write. Fill them in later with FillAt.
  /// \return the offset of the claimed range.
  uint64_t Claim(uint64_t size) {
    if (UNLIKELY(size > capacity_ - size_)) Grow(size_ + size);
    const uint64_t offset = size_;
    size_ += size;
    return offset;
  }

  /// Write into a claimed range. Threads may fill disjoint ranges at once,
  /// provided no Write or Claim (which may move the region) runs meanwhile.
  void FillAt(uint64_t offset, const byte *data, uint64_t size) {
    std::memcpy(data_.get() + offset, data, size);
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
