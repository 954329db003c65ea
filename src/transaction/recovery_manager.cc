#include "transaction/recovery_manager.h"

#include <cstring>
#include <fstream>
#include <optional>
#include <vector>

#include "common/crc32c.h"
#include "logging/log_record.h"
#include "storage/block_layout.h"
#include "storage/data_table.h"
#include "storage/projected_row.h"
#include "storage/storage_util.h"
#include "storage/varlen_entry.h"
#include "transaction/transaction_context.h"
#include "transaction/transaction_manager.h"

namespace mainline::transaction {

namespace {

/// Reads a log file frame by frame (logging::FrameHeader).
class LogFileReader {
 public:
  explicit LogFileReader(const std::string &path)
      : in_(path, std::ios::binary | std::ios::ate),
        remaining_(in_ ? static_cast<uint64_t>(in_.tellg()) : 0) {
    in_.seekg(0);
  }

  /// Read the next frame's records into `records`.
  /// \return false at the end of the durable prefix: the end of the file, a
  ///         zero length (the zeroed tail past the last frame), a frame cut
  ///         short (a torn append), or a CRC mismatch (a torn or corrupt
  ///         in-place write).
  bool NextFrame(std::vector<byte> *records) {
    logging::FrameHeader header;
    if (remaining_ < sizeof(header) || !Read(&header, sizeof(header))) return false;
    remaining_ -= sizeof(header);
    if (header.length == 0 || header.length > remaining_) return false;
    records->resize(header.length);
    if (!Read(records->data(), header.length)) return false;
    remaining_ -= header.length;
    return common::Crc32c(records->data(), records->size()) == header.crc;
  }

 private:
  bool Read(void *out, uint64_t size) {
    return static_cast<bool>(
        in_.read(static_cast<char *>(out), static_cast<std::streamsize>(size)));
  }

  std::ifstream in_;
  uint64_t remaining_;
};

/// Reads the fields of one frame's records, never past its end.
class RecordReader {
 public:
  explicit RecordReader(const std::vector<byte> &records)
      : pos_(records.data()), end_(records.data() + records.size()) {}

  bool Done() const { return pos_ == end_; }

  template <typename T>
  bool Read(T *out) {
    const byte *bytes = Take(sizeof(T));
    if (bytes != nullptr) std::memcpy(out, bytes, sizeof(T));
    return bytes != nullptr;
  }

  /// \return the next `size` bytes, in place, or nullptr past the frame.
  const byte *Take(uint64_t size) {
    if (static_cast<uint64_t>(end_ - pos_) < size) return nullptr;
    const byte *bytes = pos_;
    pos_ += size;
    return bytes;
  }

 private:
  const byte *pos_;
  const byte *end_;
};

/// Applies log records in file order to the open replay transaction; a
/// commit record commits it. Each Apply either applies its whole record or
/// stops the replay, and destroying the Replay rolls back a transaction
/// whose commit record was never applied.
class Replay {
 public:
  Replay(const std::unordered_map<catalog::table_oid_t, storage::DataTable *> &tables,
         TransactionManager *txn_manager,
         std::unordered_map<storage::TupleSlot, storage::TupleSlot> *slot_map)
      : tables_(tables), txn_manager_(txn_manager), slot_map_(slot_map) {}

  DISALLOW_COPY_AND_MOVE(Replay)

  ~Replay() {
    if (txn_ != nullptr) txn_manager_->Abort(txn_);
  }

  /// Apply the record at the reader's position.
  /// \return false where the replay stops (see RecoveryManager).
  bool Apply(RecordReader *reader) {
    uint8_t type_byte;
    timestamp_t txn_begin;
    if (!reader->Read(&type_byte) || !reader->Read(&txn_begin)) return false;
    if (txn_ == nullptr) {
      txn_ = txn_manager_->BeginTransaction();
      txn_begin_ = txn_begin;
    } else if (txn_begin != txn_begin_) {
      return false;  // another transaction's record before this one's commit
    }
    switch (static_cast<logging::LogRecordType>(type_byte)) {
      case logging::LogRecordType::kRedo:
        return ApplyRedo(reader);
      case logging::LogRecordType::kDelete:
        return ApplyDelete(reader);
      case logging::LogRecordType::kCommit: {
        timestamp_t commit_time;
        if (!reader->Read(&commit_time) || commit_time <= last_commit_time_) return false;
        txn_manager_->Commit(txn_);
        txn_ = nullptr;
        last_commit_time_ = commit_time;
        replayed_++;
        return true;
      }
    }
    return false;  // unknown type byte
  }

  /// \return number of transactions committed so far.
  uint64_t Replayed() const { return replayed_; }

 private:
  storage::DataTable *FindTable(uint32_t oid) const {
    const auto it = tables_.find(catalog::table_oid_t(oid));
    return it == tables_.end() ? nullptr : it->second;
  }

  bool ApplyRedo(RecordReader *reader) {
    uint32_t oid;
    uint64_t slot_bytes;
    uint8_t is_insert;
    uint16_t num_cols;
    if (!reader->Read(&oid) || !reader->Read(&slot_bytes) || !reader->Read(&is_insert) ||
        !reader->Read(&num_cols) || num_cols == 0) {
      return false;
    }
    storage::DataTable *table = FindTable(oid);
    if (table == nullptr) return false;
    const storage::BlockLayout &layout = table->GetLayout();
    // The serializer writes a ProjectedRow's column ids, which ascend.
    col_ids_.resize(num_cols);
    for (uint16_t i = 0; i < num_cols; i++) {
      uint16_t raw;
      if (!reader->Read(&raw) || raw >= layout.NumColumns() ||
          (i > 0 && raw <= col_ids_[i - 1].UnderlyingValue())) {
        return false;
      }
      col_ids_[i] = storage::col_id_t(raw);
    }
    // Consecutive records mostly name the same columns of the same table.
    if (table != row_table_ || col_ids_ != initializer_->ColumnIds()) {
      initializer_ = storage::ProjectedRowInitializer::Create(layout, col_ids_);
      row_table_ = table;
      row_buffer_.resize((initializer_->ProjectedRowSize() + 7) / 8);
    }
    // Every column starts out null; values go straight into the row.
    storage::ProjectedRow *row =
        initializer_->InitializeRow(reinterpret_cast<byte *>(row_buffer_.data()));
    for (uint16_t i = 0; i < num_cols; i++) {
      const storage::col_id_t col = col_ids_[i];
      uint8_t not_null;
      if (!reader->Read(&not_null)) return Discard(layout, *row);
      if (not_null == 0) continue;
      uint32_t size = layout.AttrSize(col);
      if (layout.IsVarlen(col) && !reader->Read(&size)) return Discard(layout, *row);
      const byte *value = reader->Take(size);
      if (value == nullptr) return Discard(layout, *row);
      if (!layout.IsVarlen(col)) {
        std::memcpy(row->AccessForceNotNull(i), value, size);
        continue;
      }
      const storage::VarlenEntry entry =
          storage::AllocateVarlen({reinterpret_cast<const char *>(value), size});
      std::memcpy(row->AccessForceNotNull(i), &entry, sizeof(entry));
    }

    const storage::TupleSlot slot = storage::TupleSlot::FromRawBytes(slot_bytes);
    if (is_insert != 0) {
      (*slot_map_)[slot] = table->Insert(txn_, *row);
      return true;
    }
    const auto it = slot_map_->find(slot);
    if (it == slot_map_->end()) return Discard(layout, *row);
    // A failed update hands the row's varlens to txn_, whose rollback frees
    // them.
    return table->Update(txn_, it->second, *row);
  }

  bool ApplyDelete(RecordReader *reader) {
    uint32_t oid;
    uint64_t slot_bytes;
    if (!reader->Read(&oid) || !reader->Read(&slot_bytes)) return false;
    storage::DataTable *table = FindTable(oid);
    if (table == nullptr) return false;
    const auto it = slot_map_->find(storage::TupleSlot::FromRawBytes(slot_bytes));
    if (it == slot_map_->end() || !table->Delete(txn_, it->second)) return false;
    slot_map_->erase(it);  // a later record can name the slot only by reinserting it
    return true;
  }

  /// Free the varlens of a row that will not be applied. \return false
  static bool Discard(const storage::BlockLayout &layout, const storage::ProjectedRow &row) {
    storage::StorageUtil::DeallocateVarlensInDelta(layout, row);
    return false;
  }

  const std::unordered_map<catalog::table_oid_t, storage::DataTable *> &tables_;
  TransactionManager *txn_manager_;
  std::unordered_map<storage::TupleSlot, storage::TupleSlot> *slot_map_;
  TransactionContext *txn_ = nullptr;  // the open replay transaction
  timestamp_t txn_begin_ = kInitialTimestamp;
  timestamp_t last_commit_time_ = kInitialTimestamp;
  uint64_t replayed_ = 0;
  // The row the last redo record was parsed into, reused while consecutive
  // records name the same table and columns.
  std::vector<storage::col_id_t> col_ids_;
  const storage::DataTable *row_table_ = nullptr;
  std::optional<storage::ProjectedRowInitializer> initializer_;
  std::vector<uint64_t> row_buffer_;  // 8-byte aligned, as a ProjectedRow needs
};

}  // namespace

uint64_t RecoveryManager::Recover(const std::string &log_file_path) {
  LogFileReader file(log_file_path);
  Replay replay(tables_, txn_manager_, &slot_map_);
  std::vector<byte> frame;
  while (file.NextFrame(&frame)) {
    RecordReader records(frame);
    while (!records.Done()) {
      if (!replay.Apply(&records)) return replay.Replayed();
    }
  }
  return replay.Replayed();
}

}  // namespace mainline::transaction
