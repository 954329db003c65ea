#pragma once

#include <cstdint>
#include <cstring>

#include "common/macros.h"
#include "common/typedefs.h"
#include "storage/projected_row.h"
#include "storage/storage_defs.h"

namespace mainline::logging {

/// Kind of a write-ahead log record (Section 3.4).
enum class LogRecordType : uint8_t {
  /// Physical after-image of an insert or update.
  kRedo = 1,
  /// Tuple deletion.
  kDelete,
  /// Transaction commit; carries the durability callback.
  kCommit,
};

/// Header of one frame of the on-disk log. Each group-commit batch is one
/// frame: this header, then the batch's serialized records. Frames follow
/// each other with no gap, and the file may continue past the last one with
/// zeros. Recovery's durable prefix ends at the first header whose length is
/// zero, whose records run past the end of the file, or whose CRC does not
/// match them.
struct FrameHeader {
  uint32_t length;  ///< bytes of records after the header; never 0
  uint32_t crc;     ///< common::Crc32c of those bytes
};

static_assert(sizeof(FrameHeader) == 8, "FrameHeader layout");

/// Generic header of every log record. Records live in a transaction's redo
/// buffer and are later serialized to disk by the log manager. A record has
/// no log sequence number: its transaction's commit timestamp gives its place
/// in the log. The transaction manager submits each committing transaction
/// from inside its commit critical section, so the log holds whole
/// transactions, each ending in its commit record, in strictly increasing
/// commit-timestamp order. Aborted transactions never reach the log.
class LogRecord {
 public:
  LogRecord() = delete;
  DISALLOW_COPY_AND_MOVE(LogRecord)

  LogRecordType RecordType() const { return type_; }
  uint32_t Size() const { return size_; }

  /// Begin timestamp of the owning transaction (identifies the transaction in
  /// the serialized log).
  transaction::timestamp_t TxnBegin() const { return txn_begin_; }

  /// Reinterpret the body as the given record type.
  template <class T>
  T *GetUnderlyingRecordBodyAs() {
    MAINLINE_ASSERT(T::RecordType() == type_, "log record type mismatch");
    return reinterpret_cast<T *>(varlen_contents_);
  }
  template <class T>
  const T *GetUnderlyingRecordBodyAs() const {
    MAINLINE_ASSERT(T::RecordType() == type_, "log record type mismatch");
    return reinterpret_cast<const T *>(varlen_contents_);
  }

  static LogRecord *InitializeHeader(byte *head, LogRecordType type, uint32_t size,
                                     transaction::timestamp_t txn_begin) {
    auto *result = reinterpret_cast<LogRecord *>(head);
    result->size_ = size;
    result->type_ = type;
    result->txn_begin_ = txn_begin;
    return result;
  }

 private:
  uint32_t size_;
  LogRecordType type_;
  uint8_t padding_[3];
  transaction::timestamp_t txn_begin_;
  byte varlen_contents_[0];
};

static_assert(sizeof(LogRecord) == 16, "LogRecord header layout");

/// Body of a kRedo record: the after-image of an insert or update.
class RedoRecord {
 public:
  static constexpr LogRecordType RecordType() { return LogRecordType::kRedo; }

  catalog::table_oid_t TableOid() const { return table_oid_; }
  storage::TupleSlot Slot() const { return slot_; }
  /// Inserts create new tuples at replay; updates modify remapped ones.
  bool IsInsert() const { return is_insert_; }

  /// The after-image values.
  storage::ProjectedRow *Delta() {
    return reinterpret_cast<storage::ProjectedRow *>(varlen_contents_);
  }
  const storage::ProjectedRow *Delta() const {
    return reinterpret_cast<const storage::ProjectedRow *>(varlen_contents_);
  }

  /// Initialize a redo record of the write of `redo` to `slot`; its delta is
  /// a byte-wise copy of `redo`.
  static LogRecord *InitializeByCopy(byte *head, transaction::timestamp_t txn_begin,
                                     catalog::table_oid_t table_oid, bool is_insert,
                                     storage::TupleSlot slot, const storage::ProjectedRow &redo) {
    const auto size =
        static_cast<uint32_t>(sizeof(LogRecord) + sizeof(RedoRecord)) + redo.Size();
    LogRecord *record = LogRecord::InitializeHeader(head, LogRecordType::kRedo, size, txn_begin);
    auto *body = record->GetUnderlyingRecordBodyAs<RedoRecord>();
    body->table_oid_ = table_oid;
    body->slot_ = slot;
    body->is_insert_ = is_insert;
    std::memcpy(static_cast<void *>(body->varlen_contents_),
                static_cast<const void *>(&redo), redo.Size());
    return record;
  }

 private:
  catalog::table_oid_t table_oid_;
  bool is_insert_;
  uint8_t padding_[3];
  storage::TupleSlot slot_;
  byte varlen_contents_[0];
};

static_assert(sizeof(RedoRecord) == 16, "RedoRecord body layout");

/// Body of a kDelete record.
class DeleteRecord {
 public:
  static constexpr LogRecordType RecordType() { return LogRecordType::kDelete; }

  catalog::table_oid_t TableOid() const { return table_oid_; }
  storage::TupleSlot Slot() const { return slot_; }

  static uint32_t Size() {
    return static_cast<uint32_t>(sizeof(LogRecord) + sizeof(DeleteRecord));
  }

  static LogRecord *Initialize(byte *head, transaction::timestamp_t txn_begin,
                               catalog::table_oid_t table_oid, storage::TupleSlot slot) {
    LogRecord *record =
        LogRecord::InitializeHeader(head, LogRecordType::kDelete, Size(), txn_begin);
    auto *body = record->GetUnderlyingRecordBodyAs<DeleteRecord>();
    body->table_oid_ = table_oid;
    body->slot_ = slot;
    return record;
  }

 private:
  catalog::table_oid_t table_oid_;
  uint8_t padding_[4];
  storage::TupleSlot slot_;
};

/// Body of a kCommit record. Embeds a function pointer invoked by the log
/// manager once the record is persistent (Section 3.4); the DBMS withholds
/// the transaction's result from the client until then.
class CommitRecord {
 public:
  static constexpr LogRecordType RecordType() { return LogRecordType::kCommit; }

  using DurabilityCallback = void (*)(void *);

  transaction::timestamp_t CommitTime() const { return commit_time_; }
  bool IsReadOnly() const { return is_read_only_; }
  DurabilityCallback Callback() const { return callback_; }
  void *CallbackArg() const { return callback_arg_; }

  static uint32_t Size() {
    return static_cast<uint32_t>(sizeof(LogRecord) + sizeof(CommitRecord));
  }

  /// Set inside the commit critical section, once the timestamp is drawn.
  void SetCommitTime(transaction::timestamp_t commit_time) { commit_time_ = commit_time; }

  /// Initialize a commit record whose commit time is set later.
  static LogRecord *Initialize(byte *head, transaction::timestamp_t txn_begin, bool is_read_only,
                               DurabilityCallback callback, void *callback_arg) {
    LogRecord *record =
        LogRecord::InitializeHeader(head, LogRecordType::kCommit, Size(), txn_begin);
    auto *body = record->GetUnderlyingRecordBodyAs<CommitRecord>();
    body->commit_time_ = transaction::kInvalidTimestamp;
    body->is_read_only_ = is_read_only;
    body->callback_ = callback;
    body->callback_arg_ = callback_arg;
    return record;
  }

 private:
  transaction::timestamp_t commit_time_;
  DurabilityCallback callback_;
  void *callback_arg_;
  bool is_read_only_;
  uint8_t padding_[7];
};

}  // namespace mainline::logging
