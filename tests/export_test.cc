#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "arrowlite/ipc.h"
#include "catalog/catalog.h"
#include "common/rand_util.h"
#include "common/worker_pool.h"
#include "export/protocols.h"
#include "gc/garbage_collector.h"
#include "storage/block_access_controller.h"
#include "storage/raw_block.h"
#include "transform/arrow_reader.h"
#include "transform/block_transformer.h"
#include "workload/row_util.h"

namespace mainline {

// All four export mechanisms must deliver the same logical data to the
// client, whether blocks are hot (materialized) or frozen (zero-copy).
class ExportTest : public ::testing::TestWithParam<bool /*frozen*/> {
 protected:
  ExportTest()
      : block_store_(100, 10),
        buffer_pool_(100000, 100),
        catalog_(&block_store_),
        txn_manager_(&buffer_pool_, true, nullptr),
        gc_(&txn_manager_) {
    catalog::Schema schema({{"id", catalog::TypeId::kBigInt},
                            {"qty", catalog::TypeId::kSmallInt, true},
                            {"price", catalog::TypeId::kDecimal},
                            {"note", catalog::TypeId::kVarchar, true}});
    table_ = catalog_.GetTable(catalog_.CreateTable("t", schema));

    const auto initializer = table_->FullInitializer();
    std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    for (int64_t i = 0; i < 2000; i++) {
      storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, i);
      if (i % 5 == 0) {
        row->SetNull(1);
      } else {
        workload::Set<int16_t>(row, 1, static_cast<int16_t>(i % 100));
      }
      workload::Set<double>(row, 2, static_cast<double>(i) * 0.25);
      if (i % 3 == 0) {
        row->SetNull(3);
      } else {
        workload::SetVarchar(row, 3, "note-about-row-number-" + std::to_string(i));
      }
      table_->Insert(txn, *row);
    }
    txn_manager_.Commit(txn);
    gc_.FullGC();

    if (GetParam()) {
      transform::BlockTransformer transformer(&txn_manager_, &gc_);
      storage::DataTable &dt = table_->UnderlyingTable();
      frozen_blocks_ = transformer.ProcessGroup(&dt, dt.Blocks(), nullptr);
      EXPECT_GT(frozen_blocks_, 0u);
    }
  }

  storage::BlockStore block_store_;
  storage::RecordBufferSegmentPool buffer_pool_;
  catalog::Catalog catalog_;
  transaction::TransactionManager txn_manager_;
  gc::GarbageCollector gc_;
  catalog::SqlTable *table_;
  uint32_t frozen_blocks_ = 0;
};

TEST_P(ExportTest, FlightDeliversSameDataAsRdmaPathAndWire) {
  exporter::ClientBuffer client(64ull << 20);

  exporter::ArrowFlightExporter flight(&client);
  const auto flight_result = flight.Export(table_, &txn_manager_);
  EXPECT_EQ(flight_result.rows, 2000u);
  EXPECT_EQ(flight_result.frozen_blocks > 0, GetParam());
  ASSERT_FALSE(flight.ClientBatches().empty());

  // Row counts and values, row-major over batches.
  int64_t i = 0;
  double checksum = 0;
  for (const auto &batch : flight.ClientBatches()) {
    for (int64_t r = 0; r < batch->num_rows(); r++, i++) {
      EXPECT_EQ(batch->column(0)->Value<int64_t>(r), i);
      EXPECT_EQ(batch->column(1)->IsNull(r), i % 5 == 0);
      checksum += batch->column(2)->Value<double>(r);
      if (i % 3 != 0) {
        EXPECT_EQ(batch->column(3)->GetString(r),
                  "note-about-row-number-" + std::to_string(i));
      }
    }
  }
  EXPECT_EQ(i, 2000);

  exporter::VectorizedWireExporter vectorized(&client);
  const auto vec_result = vectorized.Export(table_, &txn_manager_);
  EXPECT_EQ(vec_result.rows, 2000u);
  double vec_checksum = 0;
  const auto &vec_batch = vectorized.ClientBatch();
  for (int64_t r = 0; r < vec_batch->num_rows(); r++) {
    vec_checksum += vec_batch->column(2)->Value<double>(r);
  }
  EXPECT_DOUBLE_EQ(vec_checksum, checksum);

  exporter::PostgresWireExporter pg(&client);
  const auto pg_result = pg.Export(table_, &txn_manager_);
  EXPECT_EQ(pg_result.rows, 2000u);
  const auto &pg_batch = pg.ClientBatch();
  EXPECT_EQ(pg_batch->num_rows(), 2000);
  double pg_checksum = 0;
  for (int64_t r = 0; r < pg_batch->num_rows(); r++) {
    EXPECT_EQ(pg_batch->column(1)->IsNull(r), r % 5 == 0);
    pg_checksum += pg_batch->column(2)->Value<double>(r);
  }
  EXPECT_NEAR(pg_checksum, checksum, 1e-3);  // text round-trip rounding

  exporter::RdmaExporter rdma(&client);
  const auto rdma_result = rdma.Export(table_, &txn_manager_);
  EXPECT_EQ(rdma_result.rows, 2000u);
  EXPECT_GT(rdma_result.wire_bytes, 0u);
  // RDMA ships strictly raw buffers: it can never put more on the wire than
  // the framed IPC stream.
  EXPECT_LE(rdma_result.wire_bytes, flight_result.wire_bytes);
  gc_.FullGC();
}

/// The Flight client lands the stream in place: every buffer of every client
/// batch is a non-owning, 8-byte aligned view into the ClientBuffer's wire
/// bytes, with nothing allocated or copied on the client side.
TEST_P(ExportTest, FlightClientBuffersPointIntoClientBuffer) {
  exporter::ClientBuffer client(64ull << 20);
  exporter::ArrowFlightExporter flight(&client);
  EXPECT_EQ(flight.Export(table_, &txn_manager_).rows, 2000u);
  ASSERT_FALSE(flight.ClientBatches().empty());

  const byte *begin = client.data();
  const byte *end = begin + client.size();
  uint64_t buffers = 0;
  const auto check = [&](const arrowlite::Buffer *buffer) {
    if (buffer == nullptr) return;
    buffers++;
    EXPECT_FALSE(buffer->owned());
    EXPECT_GE(buffer->data(), begin);
    EXPECT_LE(buffer->data() + buffer->size(), end);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer->data()) % 8, 0u);
  };
  for (const auto &batch : flight.ClientBatches()) {
    for (int c = 0; c < batch->num_columns(); c++) {
      const arrowlite::Array &array = *batch->column(c);
      check(array.validity().get());
      check(array.buffer(0).get());
      if (array.type() == arrowlite::Type::kString) check(array.buffer(1).get());
    }
  }
  EXPECT_GT(buffers, 0u);
  gc_.FullGC();
}

/// The ClientBuffer's capacity is only a reservation: every exporter writing
/// far past it grows the buffer and delivers every row intact.
TEST_P(ExportTest, ExportsGrowPastTheClientBufferReservation) {
  constexpr uint64_t kReservation = 64;
  {
    exporter::ClientBuffer client(kReservation);
    exporter::ArrowFlightExporter flight(&client);
    const auto result = flight.Export(table_, &txn_manager_);
    EXPECT_EQ(result.rows, 2000u);
    EXPECT_GT(result.wire_bytes, kReservation);
    int64_t i = 0;
    for (const auto &batch : flight.ClientBatches()) {
      for (int64_t r = 0; r < batch->num_rows(); r++, i++) {
        EXPECT_EQ(batch->column(0)->Value<int64_t>(r), i);
      }
    }
    EXPECT_EQ(i, 2000);
  }
  {
    exporter::ClientBuffer client(kReservation);
    exporter::VectorizedWireExporter vectorized(&client);
    EXPECT_EQ(vectorized.Export(table_, &txn_manager_).rows, 2000u);
    EXPECT_EQ(vectorized.ClientBatch()->num_rows(), 2000);
  }
  {
    exporter::ClientBuffer client(kReservation);
    exporter::PostgresWireExporter pg(&client);
    EXPECT_EQ(pg.Export(table_, &txn_manager_).rows, 2000u);
    EXPECT_EQ(pg.ClientBatch()->num_rows(), 2000);
  }
  {
    exporter::ClientBuffer client(kReservation);
    exporter::RdmaExporter rdma(&client);
    const auto result = rdma.Export(table_, &txn_manager_);
    EXPECT_EQ(result.rows, 2000u);
    EXPECT_EQ(client.size(), result.wire_bytes);
    EXPECT_GT(client.size(), kReservation);
  }
  gc_.FullGC();
}

INSTANTIATE_TEST_SUITE_P(HotAndFrozen, ExportTest, ::testing::Bool(),
                         [](const auto &info) { return info.param ? "Frozen" : "Hot"; });

/// An engine holding one table of `full_blocks` full blocks plus a half-full
/// one. Of every four blocks, the first is frozen with its varlen columns
/// gathered, the second with them dictionary-compressed, and the other two
/// stay hot. `qty`, `note` and `tag` are nullable; `note` mixes strings too
/// long to inline with short ones, `tag` holds a handful of distinct values.
struct MixedTable {
  explicit MixedTable(uint32_t full_blocks)
      : block_store(100, 10),
        buffer_pool(100000, 100),
        catalog(&block_store),
        txn_manager(&buffer_pool, true, nullptr),
        gc(&txn_manager) {
    catalog::Schema schema({{"id", catalog::TypeId::kBigInt},
                            {"qty", catalog::TypeId::kSmallInt, true},
                            {"price", catalog::TypeId::kDecimal},
                            {"note", catalog::TypeId::kVarchar, true},
                            {"tag", catalog::TypeId::kVarchar, true}});
    table = catalog.GetTable(catalog.CreateTable("mixed", schema));
    storage::DataTable &dt = table->UnderlyingTable();
    const uint32_t slots = dt.GetLayout().NumSlots();
    rows = full_blocks == 0 ? 0 : uint64_t{full_blocks} * slots + slots / 2;

    const auto initializer = table->FullInitializer();
    std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
    auto *txn = txn_manager.BeginTransaction();
    for (uint64_t i = 0; i < rows; i++) {
      storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, static_cast<int64_t>(i));
      if (i % 5 == 0) {
        row->SetNull(1);
      } else {
        workload::Set<int16_t>(row, 1, static_cast<int16_t>(i % 100));
      }
      workload::Set<double>(row, 2, static_cast<double>(i) * 0.25);
      if (i % 3 == 0) {
        row->SetNull(3);
      } else {
        workload::SetVarchar(row, 3, i % 2 == 0 ? "n" + std::to_string(i)
                                                : "a-note-too-long-to-inline-" + std::to_string(i));
      }
      if (i % 7 == 0) {
        row->SetNull(4);
      } else {
        workload::SetVarchar(row, 4, "tag-" + std::to_string(i % 6));
      }
      table->Insert(txn, *row);
    }
    txn_manager.Commit(txn);
    gc.FullGC();

    transform::BlockTransformer gather(&txn_manager, &gc);
    transform::BlockTransformer dictionary(&txn_manager, &gc,
                                           transform::GatherMode::kDictionaryCompression);
    const std::vector<storage::RawBlock *> blocks = dt.Blocks();
    for (size_t b = 0; b < blocks.size(); b++) {
      if (b % 4 == 0) frozen_blocks += gather.ProcessGroup(&dt, {blocks[b]}, nullptr);
      if (b % 4 == 1) frozen_blocks += dictionary.ProcessGroup(&dt, {blocks[b]}, nullptr);
    }
  }

  ~MixedTable() { gc.FullGC(); }

  /// Hand `write` the batch of every block in order, the way a one-thread
  /// export reads them: a frozen block in place under its read lock, a hot
  /// one materialized.
  template <typename Write>
  void ForEachBatch(Write write) {
    storage::DataTable &dt = table->UnderlyingTable();
    for (storage::RawBlock *block : dt.Blocks()) {
      if (block->controller.TryAcquireRead()) {
        auto batch = transform::ArrowReader::FromFrozenBlock(table->GetSchema(), dt, block);
        if (batch != nullptr) write(*batch);
        block->controller.ReleaseRead();
      } else {
        auto *txn = txn_manager.BeginTransaction();
        auto batch = transform::ArrowReader::MaterializeBlock(table->GetSchema(), &dt, block, txn);
        txn_manager.Commit(txn);
        write(*batch);
      }
    }
  }

  /// \return the Flight stream a one-thread IpcStreamWriter produces.
  std::vector<byte> ReferenceFlightStream() {
    arrowlite::VectorSink sink;
    arrowlite::IpcStreamWriter writer(
        &sink, *transform::ArrowReader::ToArrowSchema(table->GetSchema()));
    ForEachBatch([&](const arrowlite::RecordBatch &batch) { writer.WriteBatch(batch); });
    writer.Close();
    return sink.data();
  }

  /// \return every block's buffers concatenated in block and column order.
  std::vector<byte> ReferenceRdmaBytes() {
    arrowlite::VectorSink sink;
    const auto put = [&](const arrowlite::Buffer *buffer) {
      if (buffer != nullptr) sink.Write(buffer->data(), buffer->size());
    };
    ForEachBatch([&](const arrowlite::RecordBatch &batch) {
      for (int c = 0; c < batch.num_columns(); c++) {
        const arrowlite::Array &array = *batch.column(c);
        put(array.validity().get());
        put(array.buffer(0).get());
        if (array.type() == arrowlite::Type::kString) put(array.buffer(1).get());
        if (array.type() == arrowlite::Type::kDictionary) {
          put(array.dictionary()->buffer(0).get());
          put(array.dictionary()->buffer(1).get());
        }
      }
    });
    return sink.data();
  }

  /// \return the number of blocks some reader still holds a read lock on.
  uint32_t LockedBlocks() const {
    uint32_t locked = 0;
    for (storage::RawBlock *block : table->UnderlyingTable().Blocks()) {
      locked += block->controller.ReaderCount() != 0 ? 1 : 0;
    }
    return locked;
  }

  storage::BlockStore block_store;
  storage::RecordBufferSegmentPool buffer_pool;
  catalog::Catalog catalog;
  transaction::TransactionManager txn_manager;
  gc::GarbageCollector gc;
  catalog::SqlTable *table;
  uint64_t rows = 0;
  uint32_t frozen_blocks = 0;
};

/// Rows and the sum of `id` over what a Flight client landed.
std::pair<uint64_t, int64_t> LandedRowsAndIdSum(const exporter::ArrowFlightExporter &flight) {
  uint64_t rows = 0;
  int64_t id_sum = 0;
  for (const auto &batch : flight.ClientBatches()) {
    for (int64_t r = 0; r < batch->num_rows(); r++) id_sum += batch->column(0)->Value<int64_t>(r);
    rows += static_cast<uint64_t>(batch->num_rows());
  }
  return {rows, id_sum};
}

bool SameBytes(const exporter::ClientBuffer &client, const std::vector<byte> &expected) {
  return client.size() == expected.size() &&
         (expected.empty() || std::memcmp(client.data(), expected.data(), expected.size()) == 0);
}

/// Flight and RDMA plan on one thread and write the block messages on every
/// worker of a pool of the given size (0: the exporter's own pool). Whatever
/// the split, the client must receive exactly the bytes a one-thread export
/// sends, and no read lock may outlive the export.
class ParallelExportTest : public ::testing::TestWithParam<uint32_t /*workers*/> {
 protected:
  ParallelExportTest()
      : pool_(GetParam() == 0 ? nullptr : std::make_unique<common::WorkerPool>(GetParam())) {}

  std::unique_ptr<common::WorkerPool> pool_;
};

TEST_P(ParallelExportTest, FlightStreamEqualsAOneThreadIpcStream) {
  MixedTable db(8);
  ASSERT_GE(db.frozen_blocks, 4u);
  ASSERT_GE(db.table->UnderlyingTable().NumBlocks(), 9u);
  const std::vector<byte> expected = db.ReferenceFlightStream();

  exporter::ClientBuffer client(64ull << 20);
  exporter::ArrowFlightExporter flight(&client, pool_.get());
  for (int round = 0; round < 2; round++) {  // the second reuses the pool and the buffer
    const auto result = flight.Export(db.table, &db.txn_manager);
    EXPECT_EQ(result.rows, db.rows);
    EXPECT_EQ(result.frozen_blocks, db.frozen_blocks);
    EXPECT_GE(result.hot_blocks, 4u);
    EXPECT_EQ(result.wire_bytes, expected.size());
    EXPECT_TRUE(SameBytes(client, expected)) << "round " << round;
    EXPECT_EQ(LandedRowsAndIdSum(flight),
              std::make_pair(db.rows, static_cast<int64_t>(db.rows * (db.rows - 1) / 2)));
    EXPECT_EQ(db.LockedBlocks(), 0u);
  }
  // Frozen blocks ship both varlen layouts: gathered strings and dictionaries.
  int dictionaries = 0;
  for (const auto &batch : flight.ClientBatches()) {
    dictionaries += batch->column(4)->type() == arrowlite::Type::kDictionary ? 1 : 0;
  }
  EXPECT_GT(dictionaries, 0);
  EXPECT_LT(dictionaries, static_cast<int>(db.frozen_blocks));
}

TEST_P(ParallelExportTest, RdmaBytesAreEveryBufferInOrder) {
  MixedTable db(8);
  const std::vector<byte> expected = db.ReferenceRdmaBytes();

  exporter::ClientBuffer client(64ull << 20);
  exporter::RdmaExporter rdma(&client, pool_.get());
  for (int round = 0; round < 2; round++) {
    const auto result = rdma.Export(db.table, &db.txn_manager);
    EXPECT_EQ(result.rows, db.rows);
    EXPECT_EQ(result.frozen_blocks, db.frozen_blocks);
    EXPECT_EQ(result.wire_bytes, expected.size());
    EXPECT_TRUE(SameBytes(client, expected)) << "round " << round;
    EXPECT_EQ(db.LockedBlocks(), 0u);
  }
}

/// A 64-byte reservation makes the ClientBuffer grow while the stream is
/// planned — past the first bytes, then to hold every block's message — so
/// the copy step must address each block's range by offset, never through a
/// pointer taken before the growth.
TEST_P(ParallelExportTest, BufferGrowsWhilePlanningAcrossManyBlocks) {
  MixedTable db(8);
  {
    exporter::ClientBuffer client(64);
    exporter::ArrowFlightExporter flight(&client, pool_.get());
    EXPECT_EQ(flight.Export(db.table, &db.txn_manager).rows, db.rows);
    EXPECT_TRUE(SameBytes(client, db.ReferenceFlightStream()));
    EXPECT_EQ(LandedRowsAndIdSum(flight).first, db.rows);
  }
  {
    exporter::ClientBuffer client(64);
    exporter::RdmaExporter rdma(&client, pool_.get());
    EXPECT_EQ(rdma.Export(db.table, &db.txn_manager).rows, db.rows);
    EXPECT_TRUE(SameBytes(client, db.ReferenceRdmaBytes()));
  }
  EXPECT_EQ(db.LockedBlocks(), 0u);
}

TEST_P(ParallelExportTest, EmptyTableExportsAnEmptyStream) {
  MixedTable db(0);
  exporter::ClientBuffer client(64);
  exporter::ArrowFlightExporter flight(&client, pool_.get());
  const auto flight_result = flight.Export(db.table, &db.txn_manager);
  EXPECT_EQ(flight_result.rows, 0u);
  EXPECT_TRUE(SameBytes(client, db.ReferenceFlightStream()));
  EXPECT_EQ(LandedRowsAndIdSum(flight).first, 0u);

  exporter::RdmaExporter rdma(&client, pool_.get());
  const auto rdma_result = rdma.Export(db.table, &db.txn_manager);
  EXPECT_EQ(rdma_result.rows, 0u);
  EXPECT_TRUE(SameBytes(client, db.ReferenceRdmaBytes()));
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelExportTest, ::testing::Values(0u, 1u, 2u, 4u),
                         [](const auto &info) {
                           return info.param == 0 ? std::string("OwnPool")
                                                  : std::to_string(info.param) + "Workers";
                         });

/// An updater keeps writing rows of frozen blocks — each write sends its
/// block through WaitUntilHot, which waits out every read lock — and then
/// re-freezes the block, while Flight and RDMA exports repeat. Every export
/// must deliver the whole table, and the updater must get through all its
/// rounds: a read lock an export failed to release would stall it for good.
TEST(ExportStressTest, ExportsStayWholeWhileAnUpdaterHeatsFrozenBlocks) {
  MixedTable db(4);
  storage::DataTable &dt = db.table->UnderlyingTable();
  const int64_t id_sum = static_cast<int64_t>(db.rows * (db.rows - 1) / 2);
  constexpr int kRounds = 40;

  exporter::ClientBuffer client(64ull << 20);
  common::WorkerPool pool(4);
  exporter::ArrowFlightExporter flight(&client, &pool);
  exporter::RdmaExporter rdma(&client);

  std::atomic<bool> exporting{false};
  std::atomic<bool> done{false};
  int heated = 0;  // the updater's own tally, read after join
  std::thread updater([&] {
    // This thread owns the GC (single-consumer), which ProcessGroup pumps.
    transform::BlockTransformer transformer(&db.txn_manager, &db.gc);
    const auto initializer = db.table->InitializerForColumns({2});  // price
    std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
    common::Xorshift rng(17);
    const std::vector<storage::RawBlock *> blocks = dt.Blocks();
    while (!exporting.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int round = 0; round < kRounds; round++) {
      storage::RawBlock *block = blocks[rng.Uniform(0, blocks.size() - 1)];
      if (block->controller.GetState() != storage::BlockState::kFrozen) {
        transformer.ProcessGroup(&dt, {block}, nullptr);
      }
      const bool was_frozen = block->controller.GetState() == storage::BlockState::kFrozen;
      const uint32_t filled = block->insert_head.load(std::memory_order_acquire);
      auto *txn = db.txn_manager.BeginTransaction();
      storage::ProjectedRow *delta = initializer.InitializeRow(buffer.data());
      workload::Set<double>(delta, 0, static_cast<double>(round));
      const storage::TupleSlot slot(block, static_cast<uint32_t>(rng.Uniform(0, filled - 1)));
      if (db.table->Update(txn, slot, *delta)) {
        db.txn_manager.Commit(txn);
        heated += was_frozen ? 1 : 0;
      } else {
        db.txn_manager.Abort(txn);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      transformer.ProcessGroup(&dt, {block}, nullptr);
    }
    done.store(true, std::memory_order_release);
  });

  uint64_t exports = 0, frozen = 0, hot = 0;
  exporting.store(true, std::memory_order_release);
  while (!done.load(std::memory_order_acquire)) {
    const auto result = flight.Export(db.table, &db.txn_manager);
    EXPECT_EQ(result.rows, db.rows);
    EXPECT_EQ(LandedRowsAndIdSum(flight), std::make_pair(db.rows, id_sum))
        << "export " << exports;
    frozen += result.frozen_blocks;
    hot += result.hot_blocks;
    EXPECT_EQ(rdma.Export(db.table, &db.txn_manager).rows, db.rows);
    exports++;
  }
  updater.join();

  EXPECT_GT(exports, 0u);
  EXPECT_GT(heated, 0) << "no write heated a frozen block";
  EXPECT_GT(frozen, 0u) << "no export read a block in place";
  EXPECT_GT(hot, 0u) << "no export materialized a block";
  EXPECT_EQ(db.LockedBlocks(), 0u);
}

}  // namespace mainline
