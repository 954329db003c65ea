#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arrowlite/builder.h"
#include "arrowlite/ipc.h"
#include "catalog/catalog.h"
#include "common/rand_util.h"
#include "common/worker_pool.h"
#include "export/protocols.h"
#include "gc/garbage_collector.h"
#include "storage/block_access_controller.h"
#include "storage/raw_block.h"
#include "storage/storage_util.h"
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
  /// export reads them: through ReadBlock, in one snapshot.
  template <typename Write>
  void ForEachBatch(Write write) {
    storage::DataTable &dt = table->UnderlyingTable();
    auto *txn = txn_manager.BeginTransaction();
    for (storage::RawBlock *block : dt.Blocks()) {
      write(*transform::ArrowReader::ReadBlock(table->GetSchema(), &dt, block, txn).Batch());
    }
    txn_manager.Commit(txn);
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

/// The text a cell reads as, or "null": what a value-for-value comparison of
/// two clients' batches compares.
std::string CellText(const arrowlite::Array &array, int64_t row) {
  if (array.IsNull(row)) return "null";
  char text[arrowlite::kValueTextSize];
  return std::string(arrowlite::ValueText(array, row, text));
}

/// Both wire clients rebuild, value for value and null for null, what
/// Flight's client lands — over hot, gathered and dictionary blocks, a
/// nullable SMALLINT, and nullable strings both inlined and out of line. The
/// vectorized client rebuilds every array at the table's own Arrow type, bit
/// for bit; the PostgreSQL client parses text back, so it matches as text.
TEST(WireClientTest, ClientsAgreeWithFlightValueForValue) {
  MixedTable db(8);
  ASSERT_GE(db.frozen_blocks, 4u);
  exporter::ClientBuffer flight_client(64ull << 20);
  exporter::ClientBuffer vectorized_client(64ull << 20);
  exporter::ClientBuffer pg_client(64ull << 20);
  exporter::ArrowFlightExporter flight(&flight_client);
  exporter::VectorizedWireExporter vectorized(&vectorized_client);
  exporter::PostgresWireExporter pg(&pg_client);
  ASSERT_EQ(flight.Export(db.table, &db.txn_manager).rows, db.rows);
  ASSERT_EQ(vectorized.Export(db.table, &db.txn_manager).rows, db.rows);
  ASSERT_EQ(pg.Export(db.table, &db.txn_manager).rows, db.rows);

  const arrowlite::RecordBatch &vec = *vectorized.ClientBatch();
  const arrowlite::RecordBatch &text = *pg.ClientBatch();
  const auto table_schema = transform::ArrowReader::ToArrowSchema(db.table->GetSchema());
  ASSERT_EQ(vec.num_rows(), static_cast<int64_t>(db.rows));
  ASSERT_EQ(text.num_rows(), static_cast<int64_t>(db.rows));
  for (int c = 0; c < table_schema->num_fields(); c++) {
    EXPECT_EQ(vec.schema()->field(c).type(), table_schema->field(c).type()) << c;
    EXPECT_EQ(vec.column(c)->type(), vec.schema()->field(c).type()) << c;
    EXPECT_EQ(text.schema()->field(c).type(), arrowlite::TextType(table_schema->field(c).type()))
        << c;
    EXPECT_EQ(text.column(c)->type(), text.schema()->field(c).type()) << c;
  }

  int64_t row = 0;
  uint64_t mismatches = 0;
  for (const auto &batch : flight.ClientBatches()) {
    for (int64_t r = 0; r < batch->num_rows(); r++, row++) {
      for (int c = 0; c < batch->num_columns(); c++) {
        const arrowlite::Array &landed = *batch->column(c);
        const std::string want = CellText(landed, r);
        mismatches += CellText(*vec.column(c), row) != want ? 1 : 0;
        mismatches += CellText(*text.column(c), row) != want ? 1 : 0;
        const uint32_t width = arrowlite::TypeWidth(landed.type());
        if (width != 0 && !landed.IsNull(r)) {
          mismatches += std::memcmp(vec.column(c)->buffer(0)->data() + width * row,
                                    landed.buffer(0)->data() + width * r, width) != 0
                            ? 1
                            : 0;
        }
      }
    }
  }
  EXPECT_EQ(row, static_cast<int64_t>(db.rows));
  EXPECT_EQ(mismatches, 0u);
}

/// A writer keeps moving rows — deleting one and re-inserting its values in
/// one transaction — across frozen and hot blocks, while all four exporters
/// export over and over. A move never changes the table's row count or `id`
/// sum, so every export, read through its one snapshot, must deliver exactly
/// those: an export that read blocks in different snapshots would send a
/// row that moved between them twice, or not at all.
TEST(ExportSnapshotTest, EveryExportIsOneSnapshotWhileAWriterMovesRows) {
  MixedTable db(2);
  ASSERT_GE(db.frozen_blocks, 2u);
  const int64_t id_sum = static_cast<int64_t>(db.rows * (db.rows - 1) / 2);
  constexpr int kRounds = 6;

  // Every live slot, found before the writer starts.
  std::vector<storage::TupleSlot> slots;
  {
    const auto initializer = db.table->FullInitializer();
    std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
    auto *txn = db.txn_manager.BeginTransaction();
    for (auto it = db.table->begin(); !it.Done(); ++it) {
      if (db.table->Select(txn, *it, initializer.InitializeRow(buffer.data()))) {
        slots.push_back(*it);
      }
    }
    db.txn_manager.Commit(txn);
  }
  ASSERT_EQ(slots.size(), db.rows);

  std::atomic<bool> exporting{false};
  std::atomic<bool> done{false};
  uint64_t moves = 0;  // the writer's own tally, read after join
  std::thread writer([&] {
    // This thread owns the GC (single-consumer) and pumps it.
    const auto initializer = db.table->FullInitializer();
    std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
    common::Xorshift rng(29);
    while (!exporting.load(std::memory_order_acquire)) std::this_thread::yield();
    for (uint64_t attempt = 1; !done.load(std::memory_order_acquire); attempt++) {
      storage::TupleSlot &slot = slots[rng.Uniform(0, slots.size() - 1)];
      auto *txn = db.txn_manager.BeginTransaction();
      storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
      if (db.table->Select(txn, slot, row) && db.table->Delete(txn, slot)) {
        storage::StorageUtil::DeepCopyVarlens(db.table->UnderlyingTable().GetLayout(), row);
        slot = db.table->Insert(txn, *row);
        db.txn_manager.Commit(txn);
        moves++;
      } else {
        db.txn_manager.Abort(txn);
      }
      if (attempt % 64 == 0) db.gc.PerformGarbageCollection();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  exporter::ClientBuffer client(64ull << 20);
  common::WorkerPool pool(2);
  exporter::ArrowFlightExporter flight(&client, &pool);
  exporter::RdmaExporter rdma(&client, &pool);
  exporter::VectorizedWireExporter vectorized(&client);
  exporter::PostgresWireExporter pg(&client);
  const auto rows_and_id_sum = [](const arrowlite::RecordBatch &batch) {
    int64_t sum = 0;
    for (int64_t r = 0; r < batch.num_rows(); r++) sum += batch.column(0)->Value<int64_t>(r);
    return std::make_pair(static_cast<uint64_t>(batch.num_rows()), sum);
  };
  const auto want = std::make_pair(db.rows, id_sum);
  exporting.store(true, std::memory_order_release);
  for (int round = 0; round < kRounds; round++) {
    EXPECT_EQ(flight.Export(db.table, &db.txn_manager).rows, db.rows) << "round " << round;
    EXPECT_EQ(LandedRowsAndIdSum(flight), want) << "flight, round " << round;
    EXPECT_EQ(rdma.Export(db.table, &db.txn_manager).rows, db.rows) << "rdma, round " << round;
    EXPECT_EQ(vectorized.Export(db.table, &db.txn_manager).rows, db.rows) << "round " << round;
    EXPECT_EQ(rows_and_id_sum(*vectorized.ClientBatch()), want) << "vectorized, round " << round;
    EXPECT_EQ(pg.Export(db.table, &db.txn_manager).rows, db.rows) << "round " << round;
    EXPECT_EQ(rows_and_id_sum(*pg.ClientBatch()), want) << "postgres, round " << round;
  }
  done.store(true, std::memory_order_release);
  writer.join();

  EXPECT_GT(moves, 0u);
  EXPECT_EQ(db.LockedBlocks(), 0u);
}

}  // namespace mainline
