#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/crc32c.h"
#include "gc/garbage_collector.h"
#include "logging/log_manager.h"
#include "transaction/recovery_manager.h"
#include "transaction/transaction_manager.h"
#include "transform/block_transformer.h"
#include "workload/row_util.h"

namespace mainline {

namespace {
const char *kLogPath = "/tmp/mainline_test.log";

catalog::Schema TestSchema() {
  return catalog::Schema({{"id", catalog::TypeId::kBigInt},
                          {"name", catalog::TypeId::kVarchar, true},
                          {"score", catalog::TypeId::kInteger}});
}

/// A fresh engine whose one table, TestSchema's "t", is logged to
/// `log_path`. Its rows get score 3 * id.
struct LoggedEngine {
  explicit LoggedEngine(const std::string &log_path)
      : log_manager(log_path), txn_manager(&buffer_pool, true, &log_manager) {
    log_manager.SetTableResolver([this](catalog::table_oid_t oid) {
      return &catalog.GetTable(oid)->UnderlyingTable();
    });
  }

  /// Insert rows with ids [first, first + count) in `txn`.
  void Insert(transaction::TransactionContext *txn, int64_t first, int64_t count,
              const std::string &name) {
    const auto initializer = table->FullInitializer();
    std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
    for (int64_t id = first; id < first + count; id++) {
      storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, id);
      workload::SetVarchar(row, 1, name);
      workload::Set<int32_t>(row, 2, static_cast<int32_t>(id * 3));
      table->Insert(txn, *row);
    }
  }

  /// Commit one transaction of Insert(first, count, name) and flush it as
  /// its own frame.
  void CommitRows(int64_t first, int64_t count, const std::string &name) {
    auto *txn = txn_manager.BeginTransaction();
    Insert(txn, first, count, name);
    txn_manager.Commit(txn);
    log_manager.ForceFlush();
  }

  storage::BlockStore block_store{100, 10};
  storage::RecordBufferSegmentPool buffer_pool{100000, 100};
  catalog::Catalog catalog{&block_store};
  logging::LogManager log_manager;
  transaction::TransactionManager txn_manager;
  gc::GarbageCollector gc{&txn_manager};
  catalog::SqlTable *table = catalog.GetTable(catalog.CreateTable("t", TestSchema()));
};

void CountAck(void *arg) { static_cast<std::atomic<int> *>(arg)->fetch_add(1); }
}  // namespace

TEST(LoggingTest, CommitCallbackFiresAfterFlush) {
  LoggedEngine engine(kLogPath);
  std::atomic<int> called{0};
  auto *txn = engine.txn_manager.BeginTransaction();
  engine.Insert(txn, 7, 1, "a varlen value that spills out of line");
  engine.txn_manager.Commit(txn, CountAck, &called);

  // Not persistent yet: the callback must wait for the flush.
  EXPECT_EQ(called.load(), 0);
  engine.log_manager.ForceFlush();
  EXPECT_EQ(called.load(), 1);
  EXPECT_GT(engine.log_manager.BytesWritten(), 0u);

  // Read-only transactions get a commit record but it is not written.
  const uint64_t bytes_before = engine.log_manager.BytesWritten();
  engine.txn_manager.Commit(engine.txn_manager.BeginTransaction(), CountAck, &called);
  engine.log_manager.ForceFlush();
  EXPECT_EQ(called.load(), 2);
  EXPECT_EQ(engine.log_manager.BytesWritten(), bytes_before);
}

/// Run a small logged workload into kLogPath: two committed 25-row insert
/// transactions, one committed transaction that updates ids 0..9 and deletes
/// ids 40..44, and one aborted insert. Each commit is flushed as its own
/// frame, so the log holds three.
void WriteWorkloadLog() {
  LoggedEngine engine(kLogPath);
  transaction::TransactionManager &logged = engine.txn_manager;
  logging::LogManager &log_manager = engine.log_manager;
  catalog::SqlTable *table = engine.table;
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
    log_manager.ForceFlush();
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
    log_manager.ForceFlush();
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

/// One frame of a log file: where its FrameHeader starts, and its records.
struct Frame {
  size_t offset;
  std::string records;
};

/// The frames of a log file (logging::FrameHeader: u32 length, u32 CRC32C,
/// then the records), up to the first zero length or the end of the file.
std::vector<Frame> Frames(const std::string &log) {
  std::vector<Frame> frames;
  size_t pos = 0;
  logging::FrameHeader header;
  while (pos + sizeof(header) <= log.size()) {
    std::memcpy(&header, log.data() + pos, sizeof(header));
    if (header.length == 0) break;
    frames.push_back({pos, log.substr(pos + sizeof(header), header.length)});
    pos += sizeof(header) + header.length;
  }
  return frames;
}

/// `records` as one frame with a valid CRC, as the log manager writes a batch.
std::string FrameOf(const std::string &records) {
  const logging::FrameHeader header{static_cast<uint32_t>(records.size()),
                                    common::Crc32c(records.data(), records.size())};
  std::string frame(sizeof(header), '\0');
  std::memcpy(frame.data(), &header, sizeof(header));
  return frame + records;
}

/// Where each record of a frame's records ends, whether it is a commit
/// record, and its transaction's begin timestamp. Walks the format
/// LogManager::SerializeRecord writes: a 9-byte header (type byte, txn begin
/// timestamp), then the type's body.
struct RecordEnd {
  size_t offset;
  bool commit;
  transaction::timestamp_t begin;
};

std::vector<RecordEnd> RecordEnds(const std::string &records,
                                  const storage::BlockLayout &layout) {
  std::vector<RecordEnd> ends;
  size_t pos = 0;
  const auto take = [&](auto *value) {
    std::memcpy(value, records.data() + pos, sizeof(*value));
    pos += sizeof(*value);
  };
  while (pos < records.size()) {
    uint8_t type;
    transaction::timestamp_t begin;
    take(&type);
    take(&begin);
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
    }
    ends.push_back({pos, type == static_cast<uint8_t>(logging::LogRecordType::kCommit), begin});
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

/// One row of TestSchema.
struct Row {
  int32_t score;
  std::string name;  // empty if NULL

  bool operator==(const Row &other) const = default;
};

/// The rows of `table` a new transaction sees, by id.
std::multimap<int64_t, Row> VisibleRows(catalog::SqlTable *table,
                                        transaction::TransactionManager *txn_manager) {
  std::multimap<int64_t, Row> rows;
  const auto initializer = table->FullInitializer();
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  auto *txn = txn_manager->BeginTransaction();
  for (auto it = table->begin(); !it.Done(); ++it) {
    storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
    if (!table->Select(txn, *it, row)) continue;
    const byte *name = row->AccessWithNullCheck(1);
    rows.emplace(
        workload::Get<int64_t>(*row, 0),
        Row{workload::Get<int32_t>(*row, 2),
            name == nullptr ? std::string() : std::string(workload::GetVarchar(*row, 1))});
  }
  txn_manager->Commit(txn);
  return rows;
}

struct Recovered {
  uint64_t replayed;                // transactions replayed
  std::multimap<int64_t, Row> rows;  // visible afterwards, by id
};

/// Recover the log at `path` into a fresh engine.
Recovered RecoverFresh(const char *path) {
  storage::BlockStore block_store(100, 10);
  storage::RecordBufferSegmentPool buffer_pool(100000, 100);
  catalog::Catalog catalog(&block_store);
  transaction::TransactionManager txn_manager(&buffer_pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);
  auto *table = catalog.GetTable(catalog.CreateTable("t", TestSchema()));
  transaction::RecoveryManager recovery(catalog.TableMap(), &txn_manager);
  const uint64_t replayed = recovery.Recover(path);
  Recovered recovered{replayed, VisibleRows(table, &txn_manager)};
  gc.FullGC();
  return recovered;
}

/// A crash can cut the log anywhere. Recovery must replay exactly the
/// frames that reached the disk whole: a cut at a frame boundary keeps every
/// frame before it, and a cut inside a frame's header, on a record boundary
/// inside the frame, or inside a record drops that frame.
TEST(LoggingTest, RecoveryReplaysTheDurablePrefixOfATornLog) {
  WriteWorkloadLog();
  const std::string log = ReadFile(kLogPath);
  const std::vector<Frame> frames = Frames(log);
  ASSERT_EQ(frames.size(), 3u) << "one frame per committed transaction";
  ASSERT_EQ(frames.back().offset + sizeof(logging::FrameHeader) + frames.back().records.size(),
            log.size())
      << "a clean shutdown ends the file at its last frame";
  // Rows visible after each frame: 25, 50, then 50 - 5 deleted.
  const std::vector<size_t> rows_after_frames = {0, 25, 50, 45};

  std::vector<std::pair<size_t, size_t>> cuts;  // {cut, whole frames before it}
  for (size_t f = 0; f < frames.size(); f++) {
    cuts.emplace_back(frames[f].offset, f);                     // frame boundary
    cuts.emplace_back(frames[f].offset + sizeof(uint32_t), f);  // mid-header
    const std::vector<RecordEnd> ends = RecordEnds(frames[f].records, TestSchema().ToBlockLayout());
    ASSERT_EQ(ends.back().offset, frames[f].records.size()) << "the test's format walk lost sync";
    ASSERT_TRUE(ends.back().commit) << "a frame ends with its transaction's commit record";
    const size_t records_at = frames[f].offset + sizeof(logging::FrameHeader);
    size_t begin = 0;
    for (const RecordEnd &end : ends) {
      cuts.emplace_back(records_at + begin + (end.offset - begin) / 2, f);  // mid-record
      const bool frame_end = end.offset == frames[f].records.size();
      cuts.emplace_back(records_at + end.offset, frame_end ? f + 1 : f);  // record boundary
      begin = end.offset;
    }
  }
  const char *torn_path = "/tmp/mainline_torn_test.log";
  for (const auto &[cut, whole_frames] : cuts) {
    WriteFile(torn_path, log.substr(0, cut));
    const Recovered recovered = RecoverFresh(torn_path);
    EXPECT_EQ(recovered.replayed, whole_frames)
        << "log cut at byte " << cut << " of " << log.size();
    EXPECT_EQ(recovered.rows.size(), rows_after_frames[whole_frames]) << "log cut at byte " << cut;
  }
  std::remove(torn_path);
  std::remove(kLogPath);
}

/// A torn in-place write can leave a page of the zeros it overwrote inside
/// a frame whose other bytes still parse. Here the page falls inside one long
/// varchar value, so only the frame's CRC shows the frame is damaged: replay
/// stops before it.
TEST(LoggingTest, RecoveryStopsAtAZeroedPageInsideTheLastFrame) {
  const std::string long_name(3 * 4096, 'v');
  {
    LoggedEngine engine(kLogPath);
    engine.CommitRows(0, 25, "short");
    engine.CommitRows(25, 1, long_name);
    engine.log_manager.Shutdown();
  }
  std::string log = ReadFile(kLogPath);
  const std::vector<Frame> frames = Frames(log);
  ASSERT_EQ(frames.size(), 2u);
  Recovered recovered = RecoverFresh(kLogPath);
  EXPECT_EQ(recovered.replayed, 2u) << "the undamaged log";
  EXPECT_EQ(recovered.rows.size(), 26u) << "the undamaged log";

  const size_t value_at = log.find(long_name);
  ASSERT_GT(value_at, frames[1].offset);
  const size_t page = (value_at + 4095) / 4096 * 4096;
  ASSERT_LE(page + 4096, value_at + long_name.size());
  log.replace(page, 4096, 4096, '\0');
  WriteFile(kLogPath, log);
  recovered = RecoverFresh(kLogPath);
  EXPECT_EQ(recovered.replayed, 1u);
  EXPECT_EQ(recovered.rows.size(), 25u);
  std::remove(kLogPath);
}

/// One flipped byte inside a varchar value of the middle frame: the bytes
/// still parse, but the CRC does not match, so replay stops before that frame.
TEST(LoggingTest, RecoveryStopsBeforeAFrameWithAFlippedByte) {
  WriteWorkloadLog();
  std::string log = ReadFile(kLogPath);
  const std::vector<Frame> frames = Frames(log);
  ASSERT_EQ(frames.size(), 3u);
  const size_t name_at = frames[1].records.find("row-xxxx");
  ASSERT_NE(name_at, std::string::npos);
  log[frames[1].offset + sizeof(logging::FrameHeader) + name_at + 5] ^= 0x01;
  WriteFile(kLogPath, log);
  const Recovered recovered = RecoverFresh(kLogPath);
  EXPECT_EQ(recovered.replayed, 1u);
  EXPECT_EQ(recovered.rows.size(), 25u);
  std::remove(kLogPath);
}

/// A log copied from a running engine ends in the zeroed region past its
/// last frame, which recovery reads as the end of the log. A clean Shutdown
/// then truncates the file at the end of its last frame.
TEST(LoggingTest, RecoveryReadsALogCopiedBeforeShutdown) {
  std::string running_copy;
  uint64_t bytes_written = 0;
  {
    LoggedEngine engine(kLogPath);
    engine.CommitRows(0, 25, "first");
    engine.CommitRows(25, 25, "second");
    running_copy = ReadFile(kLogPath);
    bytes_written = engine.log_manager.BytesWritten();
    engine.log_manager.Shutdown();
    EXPECT_FALSE(engine.log_manager.Failed());
  }
  const std::string log = ReadFile(kLogPath);
  EXPECT_EQ(log.size(), bytes_written) << "BytesWritten counts frame bytes only";
  ASSERT_EQ(running_copy.size(), uint64_t{1} << 20) << "one zeroed 1 MiB region";
  EXPECT_EQ(running_copy.substr(0, log.size()), log);
  EXPECT_EQ(running_copy.find_first_not_of('\0', log.size()), std::string::npos);

  const char *copy_path = "/tmp/mainline_running_copy_test.log";
  WriteFile(copy_path, running_copy);
  const Recovered recovered = RecoverFresh(copy_path);
  EXPECT_EQ(recovered.replayed, 2u);
  EXPECT_EQ(recovered.rows.size(), 50u);
  std::remove(copy_path);
  std::remove(kLogPath);
}

/// An intact frame's record with an unknown type cannot be delimited, so
/// parsing stops there and the valid prefix is replayed — even when the
/// bytes after it would parse as a well-formed commit record.
TEST(LoggingTest, RecoveryStopsAtAnUnknownRecordType) {
  WriteWorkloadLog();
  const std::string log = ReadFile(kLogPath);
  std::string commit_record(1, static_cast<char>(logging::LogRecordType::kCommit));
  commit_record.append(2 * sizeof(transaction::timestamp_t), '\x7f');  // begin, commit ts
  for (const std::string &records :
       {std::string(1, '\xff'), std::string(1, '\xff') + std::string(8, '\0') + commit_record}) {
    WriteFile(kLogPath, log + FrameOf(records));
    const Recovered recovered = RecoverFresh(kLogPath);
    EXPECT_EQ(recovered.replayed, 3u) << "frame of " << records.size() << " bytes";
    EXPECT_EQ(recovered.rows.size(), 45u) << "frame of " << records.size() << " bytes";
  }
  std::remove(kLogPath);
}

/// A record naming a table or column the recovering engine does not have can
/// be neither applied nor delimited (a record's size depends on its columns),
/// so it ends the durable prefix like an unknown type byte, even inside a
/// frame whose CRC is valid: the valid prefix is replayed, the commit record
/// after it is not. The same records naming a known table and column replay,
/// which shows they are otherwise well formed. Replay also stops, rolling
/// back the open transaction, at a redo naming one column twice, at a write
/// to a slot no replayed insert
/// created or whose row a replayed delete removed, at a commit timestamp
/// below the previous one, and at a record of another transaction before the
/// open one's commit record.
TEST(LoggingTest, RecoveryStopsAtAnUnknownTableOrColumn) {
  WriteWorkloadLog();
  const std::string log = ReadFile(kLogPath);
  const std::vector<Frame> frames = Frames(log);
  ASSERT_FALSE(frames.empty());
  const std::string &records = frames[0].records;
  const std::vector<RecordEnd> ends = RecordEnds(records, TestSchema().ToBlockLayout());
  ASSERT_FALSE(ends.empty());
  // The log's first record: a redo insert of one full row. Its byte offsets:
  constexpr size_t kBegin = 1, kOid = 9, kSlot = 13, kIsInsert = 21, kFirstColId = 24;
  ASSERT_EQ(records[0], static_cast<char>(logging::LogRecordType::kRedo));
  const std::string first = records.substr(0, ends[0].offset);

  // All appended records belong to one new transaction that then commits.
  const transaction::timestamp_t begin = uint64_t{1} << 40;
  const transaction::timestamp_t commit_ts = begin + 1;
  const auto patch = [](std::string record, size_t offset, auto value) {
    std::memcpy(record.data() + offset, &value, sizeof(value));
    return record;
  };
  const std::string redo = patch(first, kBegin, begin);
  uint32_t oid;
  std::memcpy(&oid, first.data() + kOid, sizeof(oid));
  const auto del = [&](uint32_t table_oid) {
    std::string record(1, static_cast<char>(logging::LogRecordType::kDelete));
    record.append(sizeof(begin) + sizeof(table_oid), '\0');
    record.append(first, kSlot, sizeof(uint64_t));
    return patch(patch(record, kBegin, begin), kOid, table_oid);
  };
  const auto commit_of = [&](transaction::timestamp_t txn_begin, transaction::timestamp_t ts) {
    std::string record(1, static_cast<char>(logging::LogRecordType::kCommit));
    record.append(sizeof(txn_begin) + sizeof(ts), '\0');
    return patch(patch(record, kBegin, txn_begin), kBegin + sizeof(txn_begin), ts);
  };
  const std::string commit = commit_of(begin, commit_ts);
  const auto update = [&](uint64_t slot) {
    return patch(patch(redo, kSlot, slot), kIsInsert, uint8_t{0});
  };
  constexpr uint64_t kNeverInserted = 0x7777;  // offset 0x7777 of no block
  // The last commit timestamp in the log, and the slot of a row its third
  // transaction deletes.
  transaction::timestamp_t last_commit;
  std::memcpy(&last_commit, frames.back().records.data() + frames.back().records.size() -
                                sizeof(last_commit),
              sizeof(last_commit));
  uint64_t deleted_slot = 0;
  size_t start = 0;
  for (const RecordEnd &end : RecordEnds(frames.at(2).records, TestSchema().ToBlockLayout())) {
    if (frames[2].records[start] == static_cast<char>(logging::LogRecordType::kDelete)) {
      std::memcpy(&deleted_slot, frames[2].records.data() + start + kSlot, sizeof(deleted_slot));
      break;
    }
    start = end.offset;
  }
  ASSERT_NE(deleted_slot, 0u);

  uint16_t first_col_id;
  std::memcpy(&first_col_id, first.data() + kFirstColId, sizeof(first_col_id));
  const uint32_t unknown_oid = oid + 1000;
  const uint16_t past_last_column = TestSchema().ToBlockLayout().NumColumns();
  const struct {
    const char *what;
    std::string record;
    uint64_t replayed, visible;
  } cases[] = {
      {"redo, known table", redo, 4, 46},
      {"delete, known table", del(oid), 4, 44},
      {"redo, unknown table", patch(redo, kOid, unknown_oid), 3, 45},
      {"delete, unknown table", del(unknown_oid), 3, 45},
      {"redo, column id past the layout", patch(redo, kFirstColId, past_last_column), 3, 45},
      {"redo, column id far past the layout", patch(redo, kFirstColId, uint16_t{0xffff}), 3,
       45},
      {"redo, a column id repeated", patch(redo, kFirstColId + sizeof(uint16_t), first_col_id),
       3, 45},
      {"update of a slot never inserted", update(kNeverInserted), 3, 45},
      {"delete of a slot never inserted", patch(del(oid), kSlot, kNeverInserted), 3, 45},
      {"update of a row a logged delete removed", update(deleted_slot), 3, 45},
      {"commit timestamp below the previous one",
       patch(redo, kBegin, begin - 1) + commit_of(begin - 1, last_commit - 1), 3, 45},
      {"record under another transaction's begin timestamp",
       redo + patch(redo, kBegin, begin + 2), 3, 45},
  };
  for (const auto &c : cases) {
    WriteFile(kLogPath, log + FrameOf(c.record + commit));
    const Recovered recovered = RecoverFresh(kLogPath);
    EXPECT_EQ(recovered.replayed, c.replayed) << c.what;
    EXPECT_EQ(recovered.rows.size(), c.visible) << c.what;
  }
  std::remove(kLogPath);
}

/// A log that cannot be opened, or whose writes fail, latches Failed(): no
/// durability callback fires and nothing counts as written, but every
/// transaction still reaches the GC. /dev/full refuses O_DIRECT, so it also
/// runs the buffered path, whose writes fail with ENOSPC.
TEST(LoggingTest, AFailedLogAcknowledgesNothingButReleasesEveryTransaction) {
  for (const char *path : {"/dev/full", "/tmp/mainline-no-such-directory/test.log"}) {
    LoggedEngine engine(path);
    EXPECT_EQ(engine.log_manager.Failed(), path[1] == 't') << path << ": open fails";
    std::atomic<int> acked{0};
    for (int64_t id = 0; id < 2; id++) {
      auto *txn = engine.txn_manager.BeginTransaction();
      engine.Insert(txn, id, 1, "lost");
      engine.txn_manager.Commit(txn, CountAck, &acked);
      engine.log_manager.ForceFlush();
      EXPECT_TRUE(engine.log_manager.Failed()) << path;
      EXPECT_EQ(engine.gc.PerformGarbageCollection().second, 1u)
          << path << ": the GC unlinks the transaction";
    }
    EXPECT_EQ(acked.load(), 0) << path;
    EXPECT_EQ(engine.log_manager.BytesWritten(), 0u) << path;
    EXPECT_EQ(engine.log_manager.RecordsWritten(), 0u) << path;
  }
}

/// How the intact frames of a log (up to the first whose CRC fails, as
/// recovery reads them) break commit order: commit timestamps that are not
/// above the one before them in the file, and records whose begin timestamp
/// differs from that of the next commit record (their transaction's).
struct CommitOrder {
  uint64_t commits = 0, not_increasing = 0, foreign_records = 0;
};

CommitOrder WalkCommitOrder(const std::string &log) {
  const storage::BlockLayout layout = TestSchema().ToBlockLayout();
  CommitOrder order;
  transaction::timestamp_t last_commit = 0;
  std::vector<transaction::timestamp_t> begins;  // of the records since the last commit
  for (const Frame &frame : Frames(log)) {
    logging::FrameHeader header;
    std::memcpy(&header, log.data() + frame.offset, sizeof(header));
    if (frame.records.size() != header.length ||
        common::Crc32c(frame.records.data(), frame.records.size()) != header.crc) {
      break;
    }
    for (const RecordEnd &end : RecordEnds(frame.records, layout)) {
      if (!end.commit) {
        begins.push_back(end.begin);
        continue;
      }
      transaction::timestamp_t commit_ts;
      std::memcpy(&commit_ts, frame.records.data() + end.offset - sizeof(commit_ts),
                  sizeof(commit_ts));
      order.commits++;
      if (commit_ts <= last_commit) order.not_increasing++;
      last_commit = commit_ts;
      order.foreign_records += static_cast<uint64_t>(std::count_if(
          begins.begin(), begins.end(), [&](auto b) { return b != end.begin; }));
      begins.clear();
    }
  }
  return order;
}

/// Four committers, each waiting for its commit to be acknowledged before
/// the next, log enough to extend the zeroed region several times. Both the
/// running copy and the final log hold whole transactions in strictly
/// increasing commit-timestamp order. A copy of
/// the log taken mid-run recovers every transaction acknowledged before the
/// copy began and none not yet submitted when it ended; after Shutdown the
/// log recovers exactly the acknowledged transactions, every row intact.
TEST(LoggingTest, ConcurrentCommittersRecoverTheAcknowledgedRows) {
  constexpr int kThreads = 4;
  constexpr int64_t kTxnsPerThread = 800, kRowsPerTxn = 4, kTxns = kThreads * kTxnsPerThread;
  constexpr uint64_t kExtension = uint64_t{1} << 20;
  const auto name_of = [](int64_t id) {
    return std::string(500, static_cast<char>('a' + id % 26));
  };
  std::vector<std::atomic<int>> submitted(kTxns), acked(kTxns);
  std::string running_copy;
  std::vector<bool> acked_before_copy(kTxns), submitted_after_copy(kTxns);
  {
    LoggedEngine engine(kLogPath);
    engine.log_manager.Start();
    std::vector<std::thread> committers;
    for (int t = 0; t < kThreads; t++) {
      committers.emplace_back([&, t] {
        for (int64_t txn_id = t * kTxnsPerThread; txn_id < (t + 1) * kTxnsPerThread; txn_id++) {
          auto *txn = engine.txn_manager.BeginTransaction();
          for (int64_t id = txn_id * kRowsPerTxn; id < (txn_id + 1) * kRowsPerTxn; id++) {
            engine.Insert(txn, id, 1, name_of(id));
          }
          submitted[txn_id].store(1);
          engine.txn_manager.Commit(txn, CountAck, &acked[txn_id]);
          while (acked[txn_id].load() == 0 && !engine.log_manager.Failed()) {
            std::this_thread::yield();
          }
        }
      });
    }
    // Copy the log while the committers run, once it has crossed its first
    // extension.
    while (engine.log_manager.BytesWritten() < 3 * kExtension / 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int64_t i = 0; i < kTxns; i++) acked_before_copy[i] = acked[i].load() != 0;
    running_copy = ReadFile(kLogPath);
    for (int64_t i = 0; i < kTxns; i++) submitted_after_copy[i] = submitted[i].load() != 0;

    for (std::thread &committer : committers) committer.join();
    engine.log_manager.Shutdown();
    ASSERT_FALSE(engine.log_manager.Failed());
    EXPECT_GT(engine.log_manager.BytesWritten(), 3 * kExtension);
    EXPECT_EQ(ReadFile(kLogPath).size(), engine.log_manager.BytesWritten());
  }
  EXPECT_EQ(running_copy.size() % kExtension, 0u) << "a running log ends in its zeroed region";

  // \return the transactions `recovered` holds, after checking that each
  // holds all its rows, intact.
  const auto recovered_txns = [&](const Recovered &recovered) {
    std::map<int64_t, int64_t> rows_per_txn;
    for (const auto &[id, row] : recovered.rows) {
      EXPECT_EQ(row.score, id * 3) << "row " << id;
      EXPECT_EQ(row.name, name_of(id)) << "row " << id;
      rows_per_txn[id / kRowsPerTxn]++;
    }
    std::vector<bool> txns(kTxns);
    for (const auto &[txn_id, rows] : rows_per_txn) {
      EXPECT_EQ(rows, kRowsPerTxn) << "transaction " << txn_id << " recovered in part";
      txns[static_cast<size_t>(txn_id)] = true;
    }
    EXPECT_EQ(recovered.replayed, rows_per_txn.size());
    return txns;
  };

  const std::string log = ReadFile(kLogPath);
  for (const auto &[what, bytes] :
       {std::pair<const char *, const std::string &>{"running copy", running_copy},
        {"final log", log}}) {
    const CommitOrder order = WalkCommitOrder(bytes);
    EXPECT_GT(order.commits, 0u) << what;
    EXPECT_EQ(order.not_increasing, 0u) << what << ": commit timestamps out of file order";
    EXPECT_EQ(order.foreign_records, 0u) << what << ": records before another's commit";
  }
  EXPECT_EQ(WalkCommitOrder(log).commits, static_cast<uint64_t>(kTxns));

  const char *copy_path = "/tmp/mainline_running_copy_test.log";
  WriteFile(copy_path, running_copy);
  const std::vector<bool> in_copy = recovered_txns(RecoverFresh(copy_path));
  for (int64_t i = 0; i < kTxns; i++) {
    if (acked_before_copy[i]) {
      EXPECT_TRUE(in_copy[i]) << "acknowledged transaction " << i;
    }
    if (in_copy[i]) {
      EXPECT_TRUE(submitted_after_copy[i]) << "unsubmitted transaction " << i;
    }
  }
  const std::vector<bool> in_log = recovered_txns(RecoverFresh(kLogPath));
  for (int64_t i = 0; i < kTxns; i++) {
    ASSERT_EQ(acked[i].load(), 1) << "transaction " << i;
    EXPECT_TRUE(in_log[i]) << "acknowledged transaction " << i;
  }
  std::remove(copy_path);
  std::remove(kLogPath);
}

/// \return the slot in which `txn` sees the row with `id`, or an invalid
/// slot if it sees none. Tries `hint`, if valid, before scanning the table.
storage::TupleSlot SlotOf(catalog::SqlTable *table, transaction::TransactionContext *txn,
                          int64_t id, storage::TupleSlot hint = {}) {
  const auto initializer = table->InitializerForColumns({0});
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
  const auto holds_id = [&](storage::TupleSlot slot) {
    return table->Select(txn, slot, row) && workload::Get<int64_t>(*row, 0) == id;
  };
  if (hint != storage::TupleSlot() && holds_id(hint)) return hint;
  for (auto it = table->begin(); !it.Done(); ++it) {
    if (holds_id(*it)) return *it;
  }
  return {};
}

/// A compaction move is logged as the delete of its source slot and the
/// insert into its destination, so a later write to a moved row names a slot
/// the replay knows: the update below survives recovery, and so does every
/// other row.
TEST(LoggingTest, RecoveryReplaysCompactionMovesAndLaterWrites) {
  const std::string name = "a name long enough to be stored out of line";
  Recovered recovered{};
  std::multimap<int64_t, Row> live;
  {
    LoggedEngine engine(kLogPath);
    catalog::SqlTable *table = engine.table;
    // Three blocks of rows, one transaction per block; slots[id] holds id.
    const int64_t per_block = table->GetLayout().NumSlots();
    for (int64_t block = 0; block < 3; block++) {
      engine.CommitRows(block * per_block, per_block, name);
    }
    std::vector<storage::TupleSlot> slots;
    for (auto it = table->begin(); !it.Done(); ++it) slots.push_back(*it);
    ASSERT_EQ(slots.size(), static_cast<size_t>(3 * per_block));
    const std::vector<storage::RawBlock *> blocks = table->Blocks();

    // Delete 90% of block 0 and 10% of block 1, then compact the two.
    auto *txn = engine.txn_manager.BeginTransaction();
    for (int64_t i = 0; i < per_block; i++) {
      const size_t id = static_cast<size_t>(i % 10 == 0 ? per_block + i : i);
      ASSERT_TRUE(table->Delete(txn, slots[id]));
    }
    engine.txn_manager.Commit(txn);
    transform::BlockTransformer transformer(&engine.txn_manager, &engine.gc);
    transform::TransformStats stats;
    ASSERT_TRUE(transformer.CompactGroup(table, {blocks[0], blocks[1]}, &stats, nullptr));
    // Block 1 is the fuller one: every survivor of block 0 fills one of its
    // gaps.
    EXPECT_EQ(stats.tuples_moved, static_cast<uint64_t>((per_block + 9) / 10));

    // Row 0 moved out of block 0; update it where it now lives.
    txn = engine.txn_manager.BeginTransaction();
    const storage::TupleSlot slot = SlotOf(table, txn, 0);
    ASSERT_NE(slot, slots[0]);
    const auto delta_init = table->InitializerForColumns({2});
    std::vector<byte> delta_buffer(delta_init.ProjectedRowSize() + 8);
    storage::ProjectedRow *delta = delta_init.InitializeRow(delta_buffer.data());
    workload::Set<int32_t>(delta, 0, -7);
    ASSERT_TRUE(table->Update(txn, slot, *delta));
    engine.txn_manager.Commit(txn);
    engine.log_manager.ForceFlush();

    live = VisibleRows(table, &engine.txn_manager);
    recovered = RecoverFresh(kLogPath);
  }
  EXPECT_EQ(recovered.replayed, 6u) << "3 inserts, the deletes, the compaction, the update";
  ASSERT_EQ(recovered.rows.count(0), 1u);
  EXPECT_EQ(recovered.rows.find(0)->second.score, -7);
  EXPECT_TRUE(recovered.rows == live) << recovered.rows.size() << " rows recovered of "
                                      << live.size();
  std::remove(kLogPath);
}

/// Logged writers insert, update and delete rows while a compactor keeps
/// compacting the table's blocks and running the GC. The log still holds
/// whole transactions in commit order, and it recovers exactly the rows
/// visible at the end, which are exactly the writers' committed rows. A
/// compaction aborts when one of its moves meets a writer's write, and the
/// rows left to move grow while compactions fail, so once past their quota
/// the writers run one transaction per compaction attempt until enough
/// compactions have moved rows among them.
TEST(LoggingTest, CompactionAmongLoggedWritersRecoversTheLiveRows) {
  constexpr int kWriters = 3, kOps = 300, kMaxOps = 20 * kOps, kMovingCompactions = 3;
  constexpr int64_t kInitialRows = 100;  // per writer
  std::vector<std::map<int64_t, Row>> committed(kWriters);  // per writer, by id
  std::atomic<int> compactions{0}, moving_compactions{0}, lost{0};
  std::multimap<int64_t, Row> live;
  {
    LoggedEngine engine(kLogPath);
    engine.log_manager.Start();
    catalog::SqlTable *table = engine.table;
    std::atomic<bool> writers_done{false};
    std::thread compactor([&] {
      transform::BlockTransformer transformer(&engine.txn_manager, &engine.gc);
      while (!writers_done.load()) {
        transform::TransformStats stats;
        if (transformer.CompactGroup(table, table->Blocks(), &stats, nullptr) &&
            stats.tuples_moved > 0) {
          moving_compactions.fetch_add(1);
        }
        engine.gc.PerformGarbageCollection();
        compactions.fetch_add(1);
      }
    });

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; w++) {
      writers.emplace_back([&, w] {
        std::mt19937 rng(static_cast<uint32_t>(w + 1));
        std::map<int64_t, Row> &mine = committed[static_cast<size_t>(w)];
        std::map<int64_t, storage::TupleSlot> last_seen;  // where a row was, by id
        const auto full = table->FullInitializer();
        const auto delta_init = table->InitializerForColumns({1, 2});
        std::vector<byte> buffer(full.ProjectedRowSize() + 8);
        int64_t next_id = w;
        int compactions_seen = 0;
        // Each op is one transaction; ids are owned by one writer each. The
        // first kInitialRows ops insert; later ones pick at random.
        for (int op = 0; op < kMaxOps; op++) {
          if (op >= kInitialRows + kOps) {
            if (moving_compactions.load() >= kMovingCompactions) break;
            while (compactions.load() == compactions_seen) {
              std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
            compactions_seen = compactions.load();
          }
          const int32_t score = static_cast<int32_t>(rng() % 1000);
          const Row row{score, "writer " + std::to_string(w) + " row, long enough to spill " +
                                   std::to_string(score)};
          const uint32_t kind = op < kInitialRows || mine.empty() ? 0 : rng() % 3;
          auto *txn = engine.txn_manager.BeginTransaction();
          if (kind == 0) {
            storage::ProjectedRow *redo = full.InitializeRow(buffer.data());
            workload::Set<int64_t>(redo, 0, next_id);
            workload::SetVarchar(redo, 1, row.name);
            workload::Set<int32_t>(redo, 2, score);
            last_seen[next_id] = table->Insert(txn, *redo);
            engine.txn_manager.Commit(txn);
            mine.emplace(next_id, row);
            next_id += kWriters;
            continue;
          }
          const auto victim = std::next(mine.begin(), static_cast<int64_t>(rng() % mine.size()));
          const storage::TupleSlot slot =
              SlotOf(table, txn, victim->first, last_seen[victim->first]);
          if (slot == storage::TupleSlot()) lost.fetch_add(1);
          last_seen[victim->first] = slot;
          bool written;
          if (kind == 1) {
            storage::ProjectedRow *delta = delta_init.InitializeRow(buffer.data());
            workload::SetVarchar(delta, 0, row.name);
            workload::Set<int32_t>(delta, 1, score);
            written = slot != storage::TupleSlot() && table->Update(txn, slot, *delta);
          } else {
            written = slot != storage::TupleSlot() && table->Delete(txn, slot);
          }
          // A write fails where the compactor moved or is moving the row.
          if (!written) {
            engine.txn_manager.Abort(txn);
            continue;
          }
          engine.txn_manager.Commit(txn);
          if (kind == 1) {
            victim->second = row;
          } else {
            last_seen.erase(victim->first);
            mine.erase(victim);
          }
        }
      });
    }
    for (std::thread &writer : writers) writer.join();
    writers_done.store(true);
    compactor.join();
    live = VisibleRows(table, &engine.txn_manager);
    engine.log_manager.Shutdown();
    ASSERT_FALSE(engine.log_manager.Failed());
  }
  EXPECT_GE(moving_compactions.load(), kMovingCompactions);
  EXPECT_EQ(lost.load(), 0) << "committed rows a writer could not find";
  std::multimap<int64_t, Row> expected;
  for (const auto &mine : committed) expected.insert(mine.begin(), mine.end());
  EXPECT_TRUE(live == expected) << live.size() << " rows live, " << expected.size()
                                << " committed";

  const CommitOrder order = WalkCommitOrder(ReadFile(kLogPath));
  EXPECT_GT(order.commits, 0u);
  EXPECT_EQ(order.not_increasing, 0u) << "commit timestamps out of file order";
  EXPECT_EQ(order.foreign_records, 0u) << "records before another's commit";
  const Recovered recovered = RecoverFresh(kLogPath);
  EXPECT_EQ(recovered.replayed, order.commits);
  EXPECT_TRUE(recovered.rows == live) << recovered.rows.size() << " rows recovered of "
                                      << live.size();
  std::remove(kLogPath);
}

}  // namespace mainline
