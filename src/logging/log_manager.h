#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/typedefs.h"
#include "logging/log_record.h"
#include "storage/data_table.h"
#include "storage/record_buffer.h"

namespace mainline::logging {

/// One transaction's staged log records, as handed to the LogManager at
/// commit. The records vector must stay alive and unmodified until the
/// finished callback reports `handle` back — the log manager reads it from
/// the serializer thread. `handle` is opaque to logging; the layer above
/// (the transaction manager) uses it to identify the transaction.
struct LogSubmission {
  const std::vector<LogRecord *> *records;
  void *handle;
};

/// Write-ahead log manager (Section 3.4). Committing transactions enqueue
/// their redo buffers; a background thread serializes each batch of them
/// into one frame (logging::FrameHeader: length, CRC32C, records), writes
/// the frame with one synced write (group commit), and then invokes the
/// commit callbacks embedded in the commit records. Submissions arrive in
/// commit order, so every frame holds whole transactions in increasing
/// commit-timestamp order. The rest of the system treats a transaction as
/// committed as soon as its commit record is enqueued, but its result is not
/// released to the client until the callback fires.
///
/// The frame goes in place, into a region of the file that already holds
/// zeros, so a synced write changes no file metadata and needs no journal
/// commit. The write covers whole 4 KiB blocks from a 4 KiB-aligned buffer
/// that starts with the earlier bytes of the current tail block, through an
/// O_DIRECT | O_DSYNC descriptor; where the filesystem refuses O_DIRECT, the
/// same writes go through a buffered descriptor followed by fdatasync. A
/// frame that runs past the zeroed region extends it, in the same write, to
/// the next 1 MiB boundary. A torn in-place write leaves old zeros inside
/// the frame, which its CRC exposes to recovery. A clean Shutdown truncates
/// the file at the end of its last frame.
///
/// An error opening, writing or syncing the file latches a failed state
/// (Failed()): from then on nothing is written and no durability callback
/// fires, but submissions are still reported finished.
///
/// Read-only transactions also pass through the queue (to guard against the
/// speculative-read anomaly described in the paper) but their commit records
/// are not written to disk.
///
/// Each batch is reported back through the finished callback only after its
/// records are serialized; the transaction layer uses that signal to forward
/// the transactions to the garbage collector, so the GC can never
/// reclaim varlen buffers the serializer still references. The log manager
/// itself knows nothing about transactions — it sees record vectors and
/// opaque handles.
class LogManager {
 public:
  /// Resolves a table oid to its DataTable so the serializer can interpret
  /// attribute sizes and varlen columns. Installed by the catalog.
  using TableResolver = std::function<storage::DataTable *(catalog::table_oid_t)>;

  /// Invoked once per flushed batch after its records are serialized and the
  /// batch is durable, or the log has failed. `context` is the pointer given
  /// to SetFinishedCallback; `batch` holds the batch's submissions in queue
  /// order and is valid only during the call.
  using FinishedCallback = void (*)(void *context, const std::vector<LogSubmission> &batch);

  /// \param log_file_path file the log is written to; truncated on open. If
  ///        it cannot be opened, the log starts out failed.
  explicit LogManager(std::string log_file_path);

  DISALLOW_COPY_AND_MOVE(LogManager)

  ~LogManager();

  /// Spawn the background serializer thread.
  void Start();

  /// Drain the queue, flush, join the background thread, and truncate the
  /// file at the end of its last frame.
  void Shutdown() EXCLUDES(queue_latch_);

  /// Enqueue one committed (or read-only) transaction's staged records,
  /// without waking the flush thread (WakeFlushThread does). Called inside
  /// the transaction manager's commit_latch_; queue_latch_ is a leaf.
  void Submit(const LogSubmission &submission) EXCLUDES(queue_latch_);
  void WakeFlushThread() { flush_cv_.NotifyOne(); }

  /// Synchronously process everything currently queued (serialize, write one
  /// synced frame, run callbacks). Used by tests and single-threaded setups.
  void ForceFlush() EXCLUDES(queue_latch_);

  /// Install the table resolver used to interpret redo record payloads.
  void SetTableResolver(TableResolver resolver) { table_resolver_ = std::move(resolver); }

  /// Install the sink notified as submissions finish serialization. Like the
  /// table resolver, this must be installed before logging begins; the
  /// transaction manager does so from its constructor.
  void SetFinishedCallback(FinishedCallback callback, void *context) {
    finished_callback_ = callback;
    finished_context_ = context;
  }

  /// \return number of log records in frames written to disk so far.
  // relaxed: monitoring counters — a reader racing the flush thread gets a
  // slightly stale tally, which is all these promise.
  uint64_t RecordsWritten() const { return records_written_.load(std::memory_order_relaxed); }
  /// \return number of frame bytes (headers and records) written to disk so
  /// far; block padding, rewritten tail blocks and zeros are not counted.
  // relaxed: same contract as RecordsWritten.
  uint64_t BytesWritten() const { return bytes_written_.load(std::memory_order_relaxed); }

  /// \return whether opening, writing or syncing the log file has failed.
  /// Once set it stays set: later commits are never acknowledged durable.
  // relaxed: a status flag; nothing else is published through it.
  bool Failed() const { return failed_.load(std::memory_order_relaxed); }

 private:
  void FlushLoop() EXCLUDES(queue_latch_);
  /// Serialize and stage one submission's records; collects its durability
  /// callback (if any) into `callbacks`.
  /// \return number of records serialized.
  uint64_t ProcessSubmission(const LogSubmission &submission,
                             std::vector<std::pair<CommitRecord::DurabilityCallback, void *>>
                                 *callbacks);
  void SerializeRecord(const LogRecord &record);
  /// Write the staged records as one frame and make it durable.
  /// \param batch_txns submissions in the batch, for the metrics
  /// \return false if the log has failed; true if the frame is durable or
  ///         there was nothing to write
  bool WriteFrame(uint64_t batch_txns);
  /// Latch the failed state and drop the staged bytes. \return false
  bool Fail();

  template <typename T>
  void WriteValue(const T &value) {
    const auto *bytes = reinterpret_cast<const byte *>(&value);
    out_buffer_.insert(out_buffer_.end(), bytes, bytes + sizeof(T));
  }
  void WriteBytes(const byte *bytes, uint64_t size) {
    out_buffer_.insert(out_buffer_.end(), bytes, bytes + size);
  }

  /// O_DIRECT needs the buffer, the file offset and the length of a write
  /// aligned to the device's logical block; this covers every common one.
  static constexpr uint64_t kBlockSize = 4096;
  /// The zeroed region past the last frame is extended to a multiple of this.
  static constexpr uint64_t kExtension = uint64_t{1} << 20;

  /// Allocates the staging buffer on a kBlockSize boundary.
  template <typename T>
  struct BlockAlignedAllocator {
    using value_type = T;
    BlockAlignedAllocator() = default;
    template <typename U>
    BlockAlignedAllocator(const BlockAlignedAllocator<U> & /*other*/) {}  // NOLINT: rebinding
    T *allocate(size_t n) {
      return static_cast<T *>(::operator new(n * sizeof(T), std::align_val_t{kBlockSize}));
    }
    void deallocate(T *p, size_t /*n*/) { ::operator delete(p, std::align_val_t{kBlockSize}); }
    bool operator==(const BlockAlignedAllocator & /*other*/) const { return true; }
  };

  std::string log_file_path_;
  // Serializer-path-only state (table_resolver_ through batch_):
  // touched exclusively by whichever single thread is inside ForceFlush —
  // the flush thread, or the caller's thread in tests/single-threaded setups
  // before Start. Installing the resolver and the finished callback must
  // happen before logging begins.
  TableResolver table_resolver_;
  FinishedCallback finished_callback_ = nullptr;
  void *finished_context_ = nullptr;
  int fd_ = -1;
  bool direct_ = false;        // fd_ is O_DIRECT | O_DSYNC, else buffered
  uint64_t frame_offset_ = 0;  // end of the last frame: where the next goes
  uint64_t zeroed_end_ = 0;    // the file holds zeros from frame_offset_ to here
  // The next write, from the start of the block holding frame_offset_: that
  // block's bytes before frame_offset_, a FrameHeader slot, then the records
  // serialized so far.
  std::vector<byte, BlockAlignedAllocator<byte>> out_buffer_;
  // The batch being flushed. It trades buffers with flush_queue_ and keeps
  // its capacity, so Submit's push stops allocating.
  std::vector<LogSubmission> batch_;

  common::Mutex queue_latch_;
  std::vector<LogSubmission> flush_queue_ GUARDED_BY(queue_latch_);
  common::ConditionVariable flush_cv_;

  std::atomic<uint64_t> records_written_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<bool> failed_{false};

  std::thread flush_thread_;
  std::atomic<bool> run_flush_thread_{false};
};

}  // namespace mainline::logging
