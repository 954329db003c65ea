#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "gc/garbage_collector.h"
#include "logging/log_manager.h"
#include "transaction/recovery_manager.h"
#include "transaction/transaction_manager.h"
#include "workload/row_util.h"

namespace mainline {

namespace {
const char *kLogPath = "/tmp/mainline_test.log";

catalog::Schema TestSchema() {
  return catalog::Schema({{"id", catalog::TypeId::kBigInt},
                          {"name", catalog::TypeId::kVarchar, true},
                          {"score", catalog::TypeId::kInteger}});
}
}  // namespace

TEST(LoggingTest, CommitCallbackFiresAfterFlush) {
  storage::BlockStore block_store(100, 10);
  storage::RecordBufferSegmentPool buffer_pool(100000, 100);
  catalog::Catalog catalog(&block_store);
  logging::LogManager log_manager(kLogPath);
  transaction::TransactionManager logged_manager(&buffer_pool, true, &log_manager);
  log_manager.SetTableResolver([&](catalog::table_oid_t oid) {
    return &catalog.GetTable(oid)->UnderlyingTable();
  });

  auto *table = catalog.GetTable(catalog.CreateTable("t", TestSchema()));
  const auto initializer = table->FullInitializer();
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);

  std::atomic<int> called{0};
  auto *txn = logged_manager.BeginTransaction();
  storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
  workload::Set<int64_t>(row, 0, 7);
  workload::SetVarchar(row, 1, "a varlen value that spills out of line");
  workload::Set<int32_t>(row, 2, 11);
  table->Insert(txn, *row);
  logged_manager.Commit(
      txn, [](void *arg) { static_cast<std::atomic<int> *>(arg)->fetch_add(1); }, &called);

  // Not persistent yet: the callback must wait for the flush.
  EXPECT_EQ(called.load(), 0);
  log_manager.ForceFlush();
  EXPECT_EQ(called.load(), 1);
  EXPECT_GT(log_manager.BytesWritten(), 0u);

  // Read-only transactions get a commit record but it is not written.
  const uint64_t bytes_before = log_manager.BytesWritten();
  auto *read_only = logged_manager.BeginTransaction();
  logged_manager.Commit(
      read_only, [](void *arg) { static_cast<std::atomic<int> *>(arg)->fetch_add(1); },
      &called);
  log_manager.ForceFlush();
  EXPECT_EQ(called.load(), 2);
  EXPECT_EQ(log_manager.BytesWritten(), bytes_before);
}

/// Run a small logged workload into kLogPath: two committed 25-row insert
/// transactions, one committed transaction that updates ids 0..9 and deletes
/// ids 40..44, and one aborted insert.
void WriteWorkloadLog() {
  storage::BlockStore block_store(100, 10);
  storage::RecordBufferSegmentPool buffer_pool(100000, 100);
  catalog::Catalog catalog(&block_store);
  logging::LogManager log_manager(kLogPath);
  transaction::TransactionManager logged(&buffer_pool, true, &log_manager);
  log_manager.SetTableResolver([&](catalog::table_oid_t oid) {
    return &catalog.GetTable(oid)->UnderlyingTable();
  });
  auto *table = catalog.GetTable(catalog.CreateTable("t", TestSchema()));
  const auto initializer = table->FullInitializer();
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);

  std::vector<storage::TupleSlot> slots;
  // 50 inserts across two transactions.
  for (int batch = 0; batch < 2; batch++) {
    auto *txn = logged.BeginTransaction();
    for (int64_t i = 0; i < 25; i++) {
      const int64_t id = batch * 25 + i;
      storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, id);
      if (id % 4 == 0) {
        row->SetNull(1);
      } else {
        workload::SetVarchar(row, 1, "row-" + std::string(20, 'x') + std::to_string(id));
      }
      workload::Set<int32_t>(row, 2, static_cast<int32_t>(id * 3));
      slots.push_back(table->Insert(txn, *row));
    }
    logged.Commit(txn);
  }
  // Update some, delete some.
  {
    auto *txn = logged.BeginTransaction();
    auto delta_init = table->InitializerForColumns({2});
    std::vector<byte> delta_buffer(delta_init.ProjectedRowSize() + 8);
    for (int64_t id = 0; id < 10; id++) {
      storage::ProjectedRow *delta = delta_init.InitializeRow(delta_buffer.data());
      workload::Set<int32_t>(delta, 0, static_cast<int32_t>(1000 + id));
      ASSERT_TRUE(table->Update(txn, slots[static_cast<size_t>(id)], *delta));
    }
    for (int64_t id = 40; id < 45; id++) {
      ASSERT_TRUE(table->Delete(txn, slots[static_cast<size_t>(id)]));
    }
    logged.Commit(txn);
  }
  // An aborted transaction must not be replayed.
  {
    auto *txn = logged.BeginTransaction();
    storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
    workload::Set<int64_t>(row, 0, 999);
    workload::SetVarchar(row, 1, "never committed");
    workload::Set<int32_t>(row, 2, 999);
    table->Insert(txn, *row);
    logged.Abort(txn);
  }
  log_manager.ForceFlush();
  log_manager.Shutdown();
}

TEST(LoggingTest, RecoveryRebuildsTables) {
  // --- first lifetime: run a workload with logging --------------------------
  WriteWorkloadLog();

  // --- second lifetime: recover into a fresh engine -------------------------
  storage::BlockStore block_store(100, 10);
  storage::RecordBufferSegmentPool buffer_pool(100000, 100);
  catalog::Catalog catalog(&block_store);
  transaction::TransactionManager txn_manager(&buffer_pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);
  auto *table = catalog.GetTable(catalog.CreateTable("t", TestSchema()));

  transaction::RecoveryManager recovery(catalog.TableMap(), &txn_manager);
  const uint64_t replayed = recovery.Recover(kLogPath);
  EXPECT_EQ(replayed, 3u);  // two insert batches + the update/delete txn

  // Verify contents: 50 - 5 deleted = 45 rows; ids 0..9 have score 1000+id.
  const auto initializer = table->FullInitializer();
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *txn = txn_manager.BeginTransaction();
  uint64_t visible = 0;
  for (auto it = table->begin(); !it.Done(); ++it) {
    storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
    if (!table->Select(txn, *it, row)) continue;
    visible++;
    const int64_t id = workload::Get<int64_t>(*row, 0);
    EXPECT_NE(id, 999) << "aborted insert must not be recovered";
    EXPECT_FALSE(id >= 40 && id < 45) << "deleted rows must not be recovered";
    const int32_t score = workload::Get<int32_t>(*row, 2);
    if (id < 10) {
      EXPECT_EQ(score, 1000 + id);
    } else {
      EXPECT_EQ(score, id * 3);
    }
    if (id % 4 == 0) {
      EXPECT_EQ(row->AccessWithNullCheck(1), nullptr);
    } else {
      EXPECT_EQ(workload::GetVarchar(*row, 1),
                "row-" + std::string(20, 'x') + std::to_string(id));
    }
  }
  txn_manager.Commit(txn);
  EXPECT_EQ(visible, 45u);
  gc.FullGC();
  std::remove(kLogPath);
}

/// Where each record of a serialized log ends, and whether it is a commit
/// record. Walks the on-disk format LogManager::SerializeRecord writes: a
/// 9-byte header (type byte, txn begin timestamp), then the type's body.
struct RecordEnd {
  size_t offset;
  bool commit;
};

std::vector<RecordEnd> RecordEnds(const std::string &log, const storage::BlockLayout &layout) {
  std::vector<RecordEnd> ends;
  size_t pos = 0;
  const auto take = [&](auto *value) {
    std::memcpy(value, log.data() + pos, sizeof(*value));
    pos += sizeof(*value);
  };
  while (pos < log.size()) {
    uint8_t type;
    take(&type);
    pos += sizeof(transaction::timestamp_t);
    switch (static_cast<logging::LogRecordType>(type)) {
      case logging::LogRecordType::kRedo: {
        pos += sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint8_t);  // oid, slot, insert
        uint16_t num_cols;
        take(&num_cols);
        std::vector<storage::col_id_t> cols(num_cols);
        for (auto &col : cols) {
          uint16_t raw;
          take(&raw);
          col = storage::col_id_t(raw);
        }
        for (const storage::col_id_t col : cols) {
          uint8_t not_null;
          take(&not_null);
          if (not_null == 0) continue;
          if (layout.IsVarlen(col)) {
            uint32_t size;
            take(&size);
            pos += size;
          } else {
            pos += layout.AttrSize(col);
          }
        }
        break;
      }
      case logging::LogRecordType::kDelete:
        pos += sizeof(uint32_t) + sizeof(uint64_t);  // oid, slot
        break;
      case logging::LogRecordType::kCommit:
        pos += sizeof(transaction::timestamp_t);
        break;
      case logging::LogRecordType::kAbort:
        break;
    }
    ends.push_back({pos, type == static_cast<uint8_t>(logging::LogRecordType::kCommit)});
  }
  return ends;
}

std::string ReadFile(const char *path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFile(const char *path, const std::string &bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Recover the log at `path` into a fresh engine.
/// \return {transactions replayed, rows visible afterwards}
std::pair<uint64_t, uint64_t> RecoverFresh(const char *path) {
  storage::BlockStore block_store(100, 10);
  storage::RecordBufferSegmentPool buffer_pool(100000, 100);
  catalog::Catalog catalog(&block_store);
  transaction::TransactionManager txn_manager(&buffer_pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);
  auto *table = catalog.GetTable(catalog.CreateTable("t", TestSchema()));
  transaction::RecoveryManager recovery(catalog.TableMap(), &txn_manager);
  const uint64_t replayed = recovery.Recover(path);

  const auto initializer = table->InitializerForColumns({0});
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *txn = txn_manager.BeginTransaction();
  uint64_t visible = 0;
  for (auto it = table->begin(); !it.Done(); ++it) {
    if (table->Select(txn, *it, initializer.InitializeRow(buffer.data()))) visible++;
  }
  txn_manager.Commit(txn);
  gc.FullGC();
  return {replayed, visible};
}

/// A crash can tear the log anywhere. Recovery must replay exactly the
/// transactions whose commit record made it to disk complete, whether the
/// cut falls on a record boundary, inside a record's 9-byte header, or
/// inside its body.
TEST(LoggingTest, RecoveryReplaysTheDurablePrefixOfATornLog) {
  WriteWorkloadLog();
  const std::string log = ReadFile(kLogPath);
  const std::vector<RecordEnd> ends = RecordEnds(log, TestSchema().ToBlockLayout());
  ASSERT_FALSE(ends.empty());
  ASSERT_EQ(ends.back().offset, log.size()) << "the test's format walk lost sync";
  // Rows visible after each committed transaction: 25, 50, then 50 - 5
  // deleted.
  const std::vector<uint64_t> rows_after_commits = {0, 25, 50, 45};
  ASSERT_EQ(std::count_if(ends.begin(), ends.end(), [](const RecordEnd &e) { return e.commit; }),
            3);

  std::vector<size_t> cuts = {0};
  size_t begin = 0;
  for (const RecordEnd &end : ends) {
    cuts.push_back(begin + (end.offset - begin) / 2);  // mid-record
    cuts.push_back(end.offset);                        // record boundary
    begin = end.offset;
  }
  const char *torn_path = "/tmp/mainline_torn_test.log";
  for (const size_t cut : cuts) {
    size_t commits = 0;
    for (const RecordEnd &end : ends) commits += end.commit && end.offset <= cut ? 1 : 0;
    WriteFile(torn_path, log.substr(0, cut));
    const auto [replayed, visible] = RecoverFresh(torn_path);
    EXPECT_EQ(replayed, commits) << "log cut at byte " << cut << " of " << log.size();
    EXPECT_EQ(visible, rows_after_commits[commits]) << "log cut at byte " << cut;
  }
  std::remove(torn_path);
  std::remove(kLogPath);
}

/// An unknown record type cannot be framed, so parsing stops there and the
/// valid prefix is replayed — even when the bytes after it would parse as a
/// well-formed commit record.
TEST(LoggingTest, RecoveryStopsAtAnUnknownRecordType) {
  WriteWorkloadLog();
  const std::string log = ReadFile(kLogPath);
  std::string commit_record(1, static_cast<char>(logging::LogRecordType::kCommit));
  commit_record.append(2 * sizeof(transaction::timestamp_t), '\x7f');  // begin, commit ts
  for (const std::string &suffix :
       {std::string(1, '\xff'), std::string(1, '\xff') + std::string(8, '\0') + commit_record}) {
    WriteFile(kLogPath, log + suffix);
    const auto [replayed, visible] = RecoverFresh(kLogPath);
    EXPECT_EQ(replayed, 3u) << "suffix of " << suffix.size() << " bytes";
    EXPECT_EQ(visible, 45u) << "suffix of " << suffix.size() << " bytes";
  }
  std::remove(kLogPath);
}

}  // namespace mainline
