#include "transaction/recovery_manager.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <vector>

#include "logging/log_record.h"
#include "storage/block_layout.h"
#include "storage/data_table.h"
#include "storage/projected_row.h"
#include "storage/varlen_entry.h"
#include "transaction/transaction_context.h"
#include "transaction/transaction_manager.h"

namespace mainline::transaction {

namespace {

/// A parsed, engine-independent log record used only during replay.
struct ParsedRecord {
  logging::LogRecordType type;
  catalog::table_oid_t table_oid{0};
  storage::TupleSlot slot;
  bool is_insert = false;
  std::vector<storage::col_id_t> col_ids;
  // Parallel to col_ids: null flag and raw value bytes (varlen contents for
  // varlen columns).
  std::vector<bool> nulls;
  std::vector<std::vector<byte>> values;
};

struct ParsedTxn {
  std::vector<ParsedRecord> records;
  transaction::timestamp_t commit_ts = transaction::kInvalidTimestamp;
  bool committed = false;
};

class LogFileReader {
 public:
  explicit LogFileReader(const std::string &path) : in_(path, std::ios::binary) {}

  bool Good() const { return in_.good(); }

  template <typename T>
  bool Read(T *out) {
    in_.read(reinterpret_cast<char *>(out), sizeof(T));
    return in_.gcount() == sizeof(T);
  }

  bool ReadBytes(byte *out, uint64_t size) {
    in_.read(reinterpret_cast<char *>(out), static_cast<std::streamsize>(size));
    return in_.gcount() == static_cast<std::streamsize>(size);
  }

 private:
  std::ifstream in_;
};

using TxnMap = std::unordered_map<transaction::timestamp_t, ParsedTxn>;

/// Parse the record at the reader's position into its transaction's entry in
/// `txns`. The log's durable prefix ends at the first record that cannot be
/// parsed: a torn tail (the crash cut a record short) or an unknown type byte
/// (nothing after it can be framed).
/// \return false at the end of the durable prefix.
bool ParseRecord(LogFileReader *reader,
                 const std::unordered_map<catalog::table_oid_t, storage::DataTable *> &tables,
                 TxnMap *txns) {
  uint8_t type_byte;
  transaction::timestamp_t txn_begin;
  if (!reader->Read(&type_byte) || !reader->Read(&txn_begin)) return false;
  const auto type = static_cast<logging::LogRecordType>(type_byte);
  switch (type) {
    case logging::LogRecordType::kRedo: {
      ParsedRecord record;
      record.type = type;
      uint32_t oid;
      uint64_t slot_bytes;
      uint8_t is_insert;
      uint16_t num_cols;
      if (!reader->Read(&oid) || !reader->Read(&slot_bytes) || !reader->Read(&is_insert) ||
          !reader->Read(&num_cols)) {
        return false;
      }
      record.table_oid = catalog::table_oid_t(oid);
      record.slot = storage::TupleSlot::FromRawBytes(slot_bytes);
      record.is_insert = is_insert != 0;
      const storage::BlockLayout &layout = tables.at(record.table_oid)->GetLayout();
      record.col_ids.resize(num_cols);
      for (auto &col : record.col_ids) {
        uint16_t raw;
        if (!reader->Read(&raw)) return false;
        col = storage::col_id_t(raw);
      }
      record.nulls.resize(num_cols);
      record.values.resize(num_cols);
      for (uint16_t i = 0; i < num_cols; i++) {
        uint8_t not_null;
        if (!reader->Read(&not_null)) return false;
        record.nulls[i] = not_null == 0;
        if (record.nulls[i]) continue;
        uint64_t size;
        if (layout.IsVarlen(record.col_ids[i])) {
          uint32_t varlen_size;
          if (!reader->Read(&varlen_size)) return false;
          size = varlen_size;
        } else {
          size = layout.AttrSize(record.col_ids[i]);
        }
        record.values[i].resize(size);
        if (size > 0 && !reader->ReadBytes(record.values[i].data(), size)) return false;
      }
      (*txns)[txn_begin].records.push_back(std::move(record));
      return true;
    }
    case logging::LogRecordType::kDelete: {
      ParsedRecord record;
      record.type = type;
      uint32_t oid;
      uint64_t slot_bytes;
      if (!reader->Read(&oid) || !reader->Read(&slot_bytes)) return false;
      record.table_oid = catalog::table_oid_t(oid);
      record.slot = storage::TupleSlot::FromRawBytes(slot_bytes);
      (*txns)[txn_begin].records.push_back(std::move(record));
      return true;
    }
    case logging::LogRecordType::kCommit: {
      transaction::timestamp_t commit_ts;
      if (!reader->Read(&commit_ts)) return false;
      ParsedTxn &txn = (*txns)[txn_begin];
      txn.commit_ts = commit_ts;
      txn.committed = true;
      return true;
    }
    case logging::LogRecordType::kAbort:
      (*txns)[txn_begin].records.clear();
      return true;
  }
  return false;  // unknown type byte
}

}  // namespace

uint64_t RecoveryManager::Recover(const std::string &log_file_path) {
  LogFileReader reader(log_file_path);
  if (!reader.Good()) return 0;

  // Phase 1: parse the log's durable prefix, grouping records by
  // transaction. A transaction whose commit record lies past the prefix is
  // dropped like one that never committed.
  TxnMap txns;
  while (ParseRecord(&reader, tables_, &txns)) continue;

  // Phase 2: replay committed transactions in commit-timestamp order.
  std::map<transaction::timestamp_t, ParsedTxn *> commit_order;
  for (auto &[begin_ts, txn] : txns) {
    if (txn.committed) commit_order.emplace(txn.commit_ts, &txn);
  }

  uint64_t replayed = 0;
  for (auto &[commit_ts, parsed] : commit_order) {
    transaction::TransactionContext *txn = txn_manager_->BeginTransaction();
    for (const ParsedRecord &record : parsed->records) {
      storage::DataTable *table = tables_.at(record.table_oid);
      const storage::BlockLayout &layout = table->GetLayout();
      if (record.type == logging::LogRecordType::kDelete) {
        const auto it = slot_map_.find(record.slot);
        MAINLINE_ASSERT(it != slot_map_.end(), "delete of unknown slot during recovery");
        const bool deleted = table->Delete(txn, it->second);
        MAINLINE_ASSERT(deleted, "replayed delete must succeed");
        (void)deleted;
        continue;
      }
      // Build the after-image projection.
      const storage::ProjectedRowInitializer initializer =
          storage::ProjectedRowInitializer::Create(layout, record.col_ids);
      std::unique_ptr<byte[]> buffer(new byte[initializer.ProjectedRowSize()]);
      storage::ProjectedRow *row = initializer.InitializeRow(buffer.get());
      for (uint16_t i = 0; i < row->NumColumns(); i++) {
        // The initializer sorts column ids; find the log position for this
        // projection index.
        const storage::col_id_t col = row->ColumnIds()[i];
        const auto pos = static_cast<size_t>(
            std::find(record.col_ids.begin(), record.col_ids.end(), col) -
            record.col_ids.begin());
        if (record.nulls[pos]) {
          row->SetNull(i);
          continue;
        }
        byte *value = row->AccessForceNotNull(i);
        if (layout.IsVarlen(col)) {
          const auto &bytes = record.values[pos];
          const storage::VarlenEntry entry = storage::AllocateVarlen(
              {reinterpret_cast<const char *>(bytes.data()), bytes.size()});
          std::memcpy(value, &entry, sizeof(storage::VarlenEntry));
        } else {
          std::memcpy(value, record.values[pos].data(), record.values[pos].size());
        }
      }
      if (record.is_insert) {
        slot_map_[record.slot] = table->Insert(txn, *row);
      } else {
        const auto it = slot_map_.find(record.slot);
        MAINLINE_ASSERT(it != slot_map_.end(), "update of unknown slot during recovery");
        const bool updated = table->Update(txn, it->second, *row);
        MAINLINE_ASSERT(updated, "replayed update must succeed");
        (void)updated;
      }
    }
    txn_manager_->Commit(txn);
    replayed++;
  }
  return replayed;
}

}  // namespace mainline::transaction
