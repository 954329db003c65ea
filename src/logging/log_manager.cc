#include "logging/log_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/crc32c.h"
#include "common/timer.h"
#include "common/typedefs.h"
#include "metrics/engine_metrics.h"
#include "metrics/metrics_registry.h"
#include "storage/block_layout.h"
#include "storage/data_table.h"
#include "storage/projected_row.h"
#include "storage/varlen_entry.h"

namespace mainline::logging {

namespace {

uint64_t RoundUp(uint64_t value, uint64_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

/// pwrite all of `size` bytes, resuming after a partial write.
bool WriteAll(int fd, const byte *data, uint64_t size, uint64_t offset) {
  while (size > 0) {
    const ssize_t written = pwrite(fd, data, size, static_cast<off_t>(offset));
    if (written < 0 && errno == EINTR) continue;
    if (written <= 0) return false;
    data += written;
    size -= static_cast<uint64_t>(written);
    offset += static_cast<uint64_t>(written);
  }
  return true;
}

}  // namespace

LogManager::LogManager(std::string log_file_path)
    : log_file_path_(std::move(log_file_path)), out_buffer_(sizeof(FrameHeader)) {
  constexpr int kFlags = O_WRONLY | O_CREAT | O_TRUNC;
  fd_ = open(log_file_path_.c_str(), kFlags | O_DIRECT | O_DSYNC, 0644);
  direct_ = fd_ >= 0;
  // EINVAL: the filesystem does not do direct I/O.
  if (fd_ < 0 && errno == EINVAL) fd_ = open(log_file_path_.c_str(), kFlags, 0644);
  // relaxed: set before any other thread can see this object.
  if (fd_ < 0) failed_.store(true, std::memory_order_relaxed);
}

LogManager::~LogManager() {
  Shutdown();
  if (fd_ >= 0) close(fd_);
}

void LogManager::Start() {
  // ordering: seq_cst exchange on a once-per-process-lifetime control path;
  // the full fence costs nothing here and makes Start/Shutdown races trivial
  // to reason about (exactly one exchange observes the transition).
  if (run_flush_thread_.exchange(true)) return;
  flush_thread_ = std::thread([this] { FlushLoop(); });
}

void LogManager::Shutdown() {
  // ordering: seq_cst exchange, mirror of Start — cold path, and exactly one
  // caller wins the transition and joins the thread.
  if (run_flush_thread_.exchange(false)) {
    flush_cv_.NotifyAll();
    flush_thread_.join();
  }
  ForceFlush();
  // The zeros past the last frame only serve in-place writes; a clean
  // shutdown leaves the file ending at its last frame.
  if (!Failed() && zeroed_end_ > frame_offset_) {
    if (ftruncate(fd_, static_cast<off_t>(frame_offset_)) != 0 || fdatasync(fd_) != 0) Fail();
    zeroed_end_ = frame_offset_;
  }
}

void LogManager::Submit(const LogSubmission &submission) {
  common::MutexGuard lock(&queue_latch_);
  flush_queue_.push_back(submission);
}

void LogManager::FlushLoop() {
  while (run_flush_thread_.load(std::memory_order_acquire)) {
    {
      common::MutexGuard lock(&queue_latch_);
      // Bounded wait (group-commit batching window): on timeout we flush
      // whatever accumulated rather than sleeping until the next enqueue.
      while (flush_queue_.empty() && run_flush_thread_.load(std::memory_order_acquire)) {
        if (!flush_cv_.WaitFor(&lock, std::chrono::milliseconds(5))) break;
      }
    }
    ForceFlush();
  }
}

void LogManager::ForceFlush() {
  {
    common::MutexGuard lock(&queue_latch_);
    batch_.swap(flush_queue_);
  }
  if (batch_.empty()) return;

  // A failed log acknowledges nothing more, but still reports every
  // submission finished below, so the GC reclaims the transactions.
  if (!Failed()) {
    std::vector<std::pair<CommitRecord::DurabilityCallback, void *>> callbacks;
    uint64_t records = 0;
    for (const LogSubmission &submission : batch_) {
      records += ProcessSubmission(submission, &callbacks);
    }
    // Group commit: only once the frame is durable do the transactions'
    // results become publishable to clients.
    if (WriteFrame(batch_.size())) {
      // relaxed: monotonic statistic read by tests and monitors; readers
      // need a current-ish value, not ordering against the written bytes.
      records_written_.fetch_add(records, std::memory_order_relaxed);
      for (auto &[callback, arg] : callbacks) {
        if (callback != nullptr) callback(arg);
      }
    }
  }
  // Now that the records are serialized, report the batch upward (the
  // transaction layer forwards it to the GC, which may then reclaim its
  // buffers).
  if (finished_callback_ != nullptr) finished_callback_(finished_context_, batch_);
  batch_.clear();
}

uint64_t LogManager::ProcessSubmission(
    const LogSubmission &submission,
    std::vector<std::pair<CommitRecord::DurabilityCallback, void *>> *callbacks) {
  uint64_t records = 0;
  for (const LogRecord *record : *submission.records) {
    if (record->RecordType() == LogRecordType::kCommit) {
      const auto *commit = record->GetUnderlyingRecordBodyAs<CommitRecord>();
      callbacks->emplace_back(commit->Callback(), commit->CallbackArg());
      // The log manager skips writing read-only commit records to disk after
      // processing the callback (Section 3.4).
      if (commit->IsReadOnly()) continue;
    }
    SerializeRecord(*record);
    records++;
  }
  return records;
}

void LogManager::SerializeRecord(const LogRecord &record) {
  WriteValue(static_cast<uint8_t>(record.RecordType()));
  WriteValue(record.TxnBegin());
  switch (record.RecordType()) {
    case LogRecordType::kRedo: {
      const auto *redo = record.GetUnderlyingRecordBodyAs<RedoRecord>();
      MAINLINE_ASSERT(table_resolver_ != nullptr, "table resolver required for redo records");
      const storage::DataTable *table = table_resolver_(redo->TableOid());
      const storage::BlockLayout &layout = table->GetLayout();
      WriteValue(redo->TableOid().UnderlyingValue());
      WriteValue(static_cast<uint64_t>(redo->Slot().RawBytes()));
      WriteValue(static_cast<uint8_t>(redo->IsInsert() ? 1 : 0));
      const storage::ProjectedRow *delta = redo->Delta();
      WriteValue(delta->NumColumns());
      for (uint16_t i = 0; i < delta->NumColumns(); i++) {
        WriteValue(delta->ColumnIds()[i].UnderlyingValue());
      }
      // Values are serialized by content; varlen contents are inlined so the
      // log is self-contained across restarts.
      for (uint16_t i = 0; i < delta->NumColumns(); i++) {
        const storage::col_id_t col = delta->ColumnIds()[i];
        const byte *value = delta->AccessWithNullCheck(i);
        WriteValue(static_cast<uint8_t>(value == nullptr ? 0 : 1));
        if (value == nullptr) continue;
        if (layout.IsVarlen(col)) {
          const auto *entry = reinterpret_cast<const storage::VarlenEntry *>(value);
          WriteValue(entry->Size());
          WriteBytes(entry->Content(), entry->Size());
        } else {
          WriteBytes(value, layout.AttrSize(col));
        }
      }
      break;
    }
    case LogRecordType::kDelete: {
      const auto *del = record.GetUnderlyingRecordBodyAs<DeleteRecord>();
      WriteValue(del->TableOid().UnderlyingValue());
      WriteValue(static_cast<uint64_t>(del->Slot().RawBytes()));
      break;
    }
    case LogRecordType::kCommit: {
      const auto *commit = record.GetUnderlyingRecordBodyAs<CommitRecord>();
      WriteValue(commit->CommitTime());
      break;
    }
  }
}

bool LogManager::WriteFrame(uint64_t batch_txns) {
  const uint64_t block_start = frame_offset_ - frame_offset_ % kBlockSize;
  const uint64_t header_at = frame_offset_ - block_start;
  const uint64_t length = out_buffer_.size() - header_at - sizeof(FrameHeader);
  if (length == 0) return true;  // only read-only commits: nothing to make durable
  // A frame's length field is 32 bits; a bigger batch cannot be framed.
  if (length > UINT32_MAX) return Fail();
  byte *header_slot = out_buffer_.data() + header_at;
  const FrameHeader header{static_cast<uint32_t>(length),
                           common::Crc32c(header_slot + sizeof(FrameHeader), length)};
  std::memcpy(header_slot, &header, sizeof(header));

  // Whole blocks through the frame's end. Past the zeroed region, the same
  // write extends it to the next kExtension boundary.
  const uint64_t frame_end = frame_offset_ + sizeof(FrameHeader) + length;
  uint64_t write_end = RoundUp(frame_end, kBlockSize);
  if (write_end > zeroed_end_) write_end = RoundUp(frame_end, kExtension);
  out_buffer_.resize(write_end - block_start);  // zero-fills the padding

  metrics::LogMetrics &log_metrics = metrics::Log();
  const bool timed = metrics::MetricsRegistry::Global().Enabled();
  const common::Timer::TimePoint start =
      timed ? common::Timer::Now() : common::Timer::TimePoint{};
  if (!WriteAll(fd_, out_buffer_.data(), out_buffer_.size(), block_start) ||
      (!direct_ && fdatasync(fd_) != 0)) {
    return Fail();
  }
  if (timed) {
    log_metrics.sync_us->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(common::Timer::Now() - start)
            .count()));
  }
  log_metrics.syncs->Add(1);
  log_metrics.batch_txns->Observe(batch_txns);

  zeroed_end_ = std::max(zeroed_end_, write_end);
  // relaxed: same as records_written_.
  bytes_written_.fetch_add(frame_end - frame_offset_, std::memory_order_relaxed);
  frame_offset_ = frame_end;
  // The next write starts at the block holding the new frame_offset_ and
  // rewrites its earlier bytes, so keep them.
  const uint64_t tail_start = frame_end - frame_end % kBlockSize;
  const uint64_t tail = frame_end - tail_start;
  std::memmove(out_buffer_.data(), out_buffer_.data() + (tail_start - block_start), tail);
  out_buffer_.resize(tail + sizeof(FrameHeader));
  return true;
}

bool LogManager::Fail() {
  // relaxed: see Failed().
  failed_.store(true, std::memory_order_relaxed);
  out_buffer_.clear();
  return false;
}

}  // namespace mainline::logging
