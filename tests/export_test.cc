#include <gtest/gtest.h>

#include <cstdint>

#include "catalog/catalog.h"
#include "export/protocols.h"
#include "gc/garbage_collector.h"
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

}  // namespace mainline
