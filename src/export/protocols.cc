#include "export/protocols.h"

#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "arrowlite/buffer.h"
#include "arrowlite/builder.h"
#include "arrowlite/io.h"
#include "arrowlite/ipc.h"
#include "arrowlite/type.h"
#include "catalog/schema.h"
#include "catalog/sql_table.h"
#include "common/timer.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"
#include "transaction/transaction_context.h"
#include "transaction/transaction_manager.h"
#include "transform/arrow_reader.h"
#include "transform/block_batch.h"

namespace mainline::exporter {

namespace {

using storage::RawBlock;

/// Read every block of `table` in order (ArrowReader::ReadBlock) through one
/// snapshot transaction, count the blocks and rows into `result`, and hand
/// each block's batch to `visit`. A batch read in place holds its block's
/// read lock until `visit` returns, or longer if `visit` moves it out.
template <typename Visit>
void ReadBlocks(catalog::SqlTable *table, transaction::TransactionManager *txn_manager,
                ExportResult *result, Visit visit) {
  storage::DataTable &data_table = table->UnderlyingTable();
  // Begin before listing the blocks: a row the snapshot sees lives in a block
  // that already exists.
  transaction::TransactionContext *txn = txn_manager->BeginTransaction();
  for (RawBlock *block : data_table.Blocks()) {
    transform::BlockBatch read =
        transform::ArrowReader::ReadBlock(table->GetSchema(), &data_table, block, txn);
    (read.InPlace() ? result->frozen_blocks : result->hot_blocks)++;
    result->rows += static_cast<uint64_t>(read.NumRows());
    visit(read);
  }
  txn_manager->Commit(txn);
}

/// Client-side parse of the text protocol back into a columnar batch — the
/// step Figure 1 shows dominating export cost.
std::shared_ptr<arrowlite::RecordBatch> ParsePostgresWire(const catalog::Schema &schema,
                                                          const byte *data, uint64_t size) {
  std::vector<arrowlite::Field> fields;
  std::vector<arrowlite::ColumnBuilder> builders;
  for (const catalog::Column &col : schema.Columns()) {
    const arrowlite::Type type =
        arrowlite::TextType(transform::ArrowReader::ToArrowType(col.Type()));
    fields.emplace_back(col.Name(), type, col.Nullable());
    builders.emplace_back(type);
  }

  uint64_t pos = 0;
  int64_t rows = 0;
  while (pos < size) {
    const char tag = static_cast<char>(data[pos]);
    pos += 1;
    if (tag == 'T') {  // row description: skip its length-prefixed payload
      uint32_t len;
      std::memcpy(&len, data + pos, 4);
      pos += 4 + len;
      continue;
    }
    if (tag != 'D') break;
    uint16_t ncols;
    std::memcpy(&ncols, data + pos, 2);
    pos += 2;
    for (uint16_t c = 0; c < ncols; c++) {
      int32_t len;
      std::memcpy(&len, data + pos, 4);
      pos += 4;
      if (len < 0) {
        builders[c].AppendNull();
        continue;
      }
      builders[c].AppendText(
          {reinterpret_cast<const char *>(data + pos), static_cast<size_t>(len)});
      pos += static_cast<uint64_t>(len);
    }
    rows++;
  }

  std::vector<std::shared_ptr<arrowlite::Array>> columns;
  for (arrowlite::ColumnBuilder &builder : builders) columns.push_back(builder.Finish());
  return std::make_shared<arrowlite::RecordBatch>(
      std::make_shared<arrowlite::Schema>(std::move(fields)), rows, std::move(columns));
}

/// Client-side reassembly of the vectorized protocol's column chunks into
/// arrays of the table's Arrow types, value by value.
std::shared_ptr<arrowlite::RecordBatch> ParseVectorizedWire(const catalog::Schema &schema,
                                                            const byte *data, uint64_t size) {
  std::shared_ptr<arrowlite::Schema> arrow_schema = transform::ArrowReader::ToArrowSchema(schema);
  std::vector<arrowlite::ColumnBuilder> builders;
  for (const arrowlite::Field &field : arrow_schema->fields()) builders.emplace_back(field.type());

  uint64_t pos = 0;
  int64_t rows = 0;
  while (pos < size) {
    pos += 1;  // 'V'
    uint32_t n;
    std::memcpy(&n, data + pos, 4);
    pos += 4;
    rows += n;
    for (arrowlite::ColumnBuilder &builder : builders) {
      const auto *nulls = reinterpret_cast<const uint8_t *>(data + pos);
      pos += n;
      uint64_t payload_size;
      std::memcpy(&payload_size, data + pos, 8);
      pos += 8;
      const byte *payload = data + pos;
      pos += payload_size;
      const uint32_t width = arrowlite::TypeWidth(builder.type());
      for (uint32_t r = 0; r < n; r++) {
        if (width != 0) {  // a fixed-width value, zeros under a null
          if (nulls[r] != 0) {
            builder.AppendNull();
          } else {
            builder.Append(payload);
          }
          payload += width;
        } else if (nulls[r] != 0) {
          builder.AppendNull();
        } else {
          uint32_t len;
          std::memcpy(&len, payload, 4);
          builder.Append(std::string_view(reinterpret_cast<const char *>(payload + 4), len));
          payload += 4 + len;
        }
      }
    }
  }

  std::vector<std::shared_ptr<arrowlite::Array>> columns;
  for (arrowlite::ColumnBuilder &builder : builders) columns.push_back(builder.Finish());
  return std::make_shared<arrowlite::RecordBatch>(std::move(arrow_schema), rows,
                                                  std::move(columns));
}

/// A sink writing a claimed range of the ClientBuffer from `offset` on.
class ClaimedRange final : public arrowlite::ByteSink {
 public:
  ClaimedRange(ClientBuffer *client, uint64_t offset) : client_(client), offset_(offset) {}

  void Write(const byte *data, uint64_t size) override {
    client_->FillAt(offset_, data, size);
    offset_ += size;
  }

 private:
  ClientBuffer *client_;
  uint64_t offset_;
};

/// Flight's message for one block: an IPC batch message, continuing the
/// stream at `offset`.
struct FlightMessage {
  static void Write(arrowlite::ByteSink *sink, const arrowlite::RecordBatch &batch,
                    uint64_t offset) {
    arrowlite::IpcStreamWriter(sink, offset).WriteBatch(batch);
  }
};

/// RDMA's message for one block: every buffer, raw, in column order.
struct RdmaMessage {
  static void Write(arrowlite::ByteSink *sink, const arrowlite::RecordBatch &batch,
                    uint64_t /*offset*/) {
    const auto put = [sink](const arrowlite::Buffer &buffer) {
      sink->Write(buffer.data(), buffer.size());
    };
    for (int c = 0; c < batch.num_columns(); c++) {
      const arrowlite::Array &array = *batch.column(c);
      if (array.validity() != nullptr) put(*array.validity());
      put(*array.buffer(0));
      if (array.type() == arrowlite::Type::kString) {
        put(*array.buffer(1));
      } else if (array.type() == arrowlite::Type::kDictionary) {
        put(*array.dictionary()->buffer(0));
        put(*array.dictionary()->buffer(1));
      }
    }
  }
};

/// A block whose message the copy step writes into its claimed range. A
/// block read in place keeps its read lock, held by `read`, until then.
struct PlannedBlock {
  template <typename Message>
  void WriteTo(ClientBuffer *client) const {
    ClaimedRange sink(client, offset);
    Message::Write(&sink, *read.Batch(), offset);
  }

  transform::BlockBatch read;
  uint64_t offset;
  uint64_t size;
};

/// Step one of an Arrow-native export (see Exporter): read the table's
/// blocks in order and claim each block's message range of the ClientBuffer,
/// sized by a dry run of `Message`. A block read in place keeps its read
/// lock, and its message is left to the copy step. A materialized block's
/// message is written at once, so the export never holds a second copy of
/// the hot data.
template <typename Message>
std::vector<PlannedBlock> PlanBlocks(catalog::SqlTable *table,
                                     transaction::TransactionManager *txn_manager,
                                     ClientBuffer *client, ExportResult *result) {
  std::vector<PlannedBlock> plan;
  ReadBlocks(table, txn_manager, result, [&](transform::BlockBatch &read) {
    PlannedBlock planned{std::move(read), client->size(), 0};
    arrowlite::CountingSink counter;
    Message::Write(&counter, *planned.read.Batch(), planned.offset);
    planned.size = counter.count();
    client->Claim(planned.size);
    if (planned.read.InPlace()) {
      plan.push_back(std::move(planned));
    } else {
      planned.WriteTo<Message>(client);
    }
  });
  return plan;
}

/// Step two: write the planned blocks' messages into their claimed ranges,
/// split across `pool`'s workers in contiguous runs of blocks of about equal
/// bytes, releasing each block's read lock as soon as its message has landed.
template <typename Message>
void CopyBlocks(common::WorkerPool *pool, ClientBuffer *client, std::vector<PlannedBlock> plan) {
  // Lane l copies the blocks whose messages start in its l-th of the bytes;
  // a lane is kept as one past its last block, and empty lanes are dropped.
  const uint64_t lanes =
      std::max<uint64_t>(1, std::min<uint64_t>(pool->NumWorkers(), plan.size()));
  uint64_t bytes = 0;
  for (const PlannedBlock &block : plan) bytes += block.size;
  std::vector<size_t> lane_ends;
  size_t last = 0;
  uint64_t start = 0;
  for (uint64_t lane = 0; lane < lanes; lane++) {
    const uint64_t lane_end = bytes * (lane + 1) / lanes;
    const size_t first = last;
    while (last < plan.size() && (lane + 1 == lanes || start < lane_end)) {
      start += plan[last++].size;
    }
    if (last != first) lane_ends.push_back(last);
  }
  common::RunTasks(pool, lane_ends.size(), [client, &plan, &lane_ends](uint64_t lane) {
    for (size_t i = lane == 0 ? 0 : lane_ends[lane - 1]; i < lane_ends[lane]; i++) {
      plan[i].WriteTo<Message>(client);
      plan[i].read.Release();
    }
  });
}

}  // namespace

ExportResult PostgresWireExporter::Export(catalog::SqlTable *table,
                                          transaction::TransactionManager *txn_manager) {
  client_->Reset();
  ExportResult result;
  const catalog::Schema &schema = table->GetSchema();
  {
    common::ScopedTimer<std::chrono::microseconds> timer(&result.micros);
    // RowDescription: 'T' + length + per-column name.
    {
      arrowlite::VectorSink desc;
      for (const catalog::Column &col : schema.Columns()) {
        desc.Write(reinterpret_cast<const byte *>(col.Name().data()), col.Name().size() + 1);
      }
      client_->WriteValue<char>('T');
      client_->WriteValue<uint32_t>(static_cast<uint32_t>(desc.data().size()));
      client_->Write(desc.data().data(), desc.data().size());
    }

    // One DataRow per tuple, every value rendered as text.
    char text[arrowlite::kValueTextSize];
    ReadBlocks(table, txn_manager, &result, [&](const transform::BlockBatch &read) {
      const arrowlite::RecordBatch &batch = *read.Batch();
      for (int64_t r = 0; r < batch.num_rows(); r++) {
        client_->WriteValue<char>('D');
        client_->WriteValue<uint16_t>(static_cast<uint16_t>(batch.num_columns()));
        for (int c = 0; c < batch.num_columns(); c++) {
          const arrowlite::Array &array = *batch.column(c);
          if (array.IsNull(r)) {
            client_->WriteValue<int32_t>(-1);
            continue;
          }
          const std::string_view value = arrowlite::ValueText(array, r, text);
          client_->WriteValue<int32_t>(static_cast<int32_t>(value.size()));
          client_->Write(reinterpret_cast<const byte *>(value.data()), value.size());
        }
      }
    });
    // Client side: parse the wire text back into a columnar batch.
    client_batch_ = ParsePostgresWire(schema, client_->data(), client_->size());
  }
  result.wire_bytes = client_->size();
  return result;
}

ExportResult VectorizedWireExporter::Export(catalog::SqlTable *table,
                                            transaction::TransactionManager *txn_manager) {
  client_->Reset();
  ExportResult result;
  {
    common::ScopedTimer<std::chrono::microseconds> timer(&result.micros);
    // Server: one 'V' message per block, its columns encoded value by value:
    // a null flag per row, then the column's payload — raw fixed-width
    // values, zeros under a null, or length-prefixed strings.
    std::vector<uint8_t> nulls;
    std::vector<byte> payload;
    ReadBlocks(table, txn_manager, &result, [&](const transform::BlockBatch &read) {
      const arrowlite::RecordBatch &batch = *read.Batch();
      const auto n = static_cast<uint32_t>(batch.num_rows());
      client_->WriteValue<char>('V');
      client_->WriteValue<uint32_t>(n);
      for (int c = 0; c < batch.num_columns(); c++) {
        const arrowlite::Array &array = *batch.column(c);
        const uint32_t width = arrowlite::TypeWidth(array.type());
        nulls.clear();
        payload.clear();
        for (uint32_t r = 0; r < n; r++) {
          const bool null = array.IsNull(r);
          nulls.push_back(null ? 1 : 0);
          if (width != 0) {
            const byte *value = array.buffer(0)->data() + uint64_t{width} * r;
            if (null) {
              payload.insert(payload.end(), width, byte{0});
            } else {
              payload.insert(payload.end(), value, value + width);
            }
          } else if (!null) {
            const std::string_view value = array.GetString(r);
            const auto size = static_cast<uint32_t>(value.size());
            const auto *size_bytes = reinterpret_cast<const byte *>(&size);
            const auto *chars = reinterpret_cast<const byte *>(value.data());
            payload.insert(payload.end(), size_bytes, size_bytes + 4);
            payload.insert(payload.end(), chars, chars + size);
          }
        }
        client_->Write(reinterpret_cast<const byte *>(nulls.data()), nulls.size());
        client_->WriteValue<uint64_t>(payload.size());
        client_->Write(payload.data(), payload.size());
      }
    });
    // Client side: reassemble arrays from the wire format.
    client_batch_ = ParseVectorizedWire(table->GetSchema(), client_->data(), client_->size());
  }
  result.wire_bytes = client_->size();
  return result;
}

ExportResult ArrowFlightExporter::Export(catalog::SqlTable *table,
                                         transaction::TransactionManager *txn_manager) {
  common::WorkerPool *pool = workers_.Get();
  client_->Reset();
  client_batches_.clear();
  ExportResult result;
  {
    common::ScopedTimer<std::chrono::microseconds> timer(&result.micros);
    // Plan: the schema message, then every batch message's range, then the
    // end marker.
    arrowlite::IpcStreamWriter(client_, *transform::ArrowReader::ToArrowSchema(
                                            table->GetSchema()));
    std::vector<PlannedBlock> plan =
        PlanBlocks<FlightMessage>(table, txn_manager, client_, &result);
    arrowlite::IpcStreamWriter(client_, client_->size()).Close();
    CopyBlocks<FlightMessage>(pool, client_, std::move(plan));
    // Client side: land the stream in place — no per-value parsing, and no
    // allocation or copy either: SpanSource lends the wire bytes, so every
    // client buffer is a view into the ClientBuffer.
    arrowlite::SpanSource source(client_->data(), client_->size());
    arrowlite::IpcStreamReader reader(&source);
    while (auto batch = reader.ReadNext()) client_batches_.push_back(std::move(batch));
  }
  result.wire_bytes = client_->size();
  return result;
}

ExportResult RdmaExporter::Export(catalog::SqlTable *table,
                                  transaction::TransactionManager *txn_manager) {
  common::WorkerPool *pool = workers_.Get();
  client_->Reset();
  ExportResult result;
  {
    common::ScopedTimer<std::chrono::microseconds> timer(&result.micros);
    // One-sided transfer of each block's Arrow buffers into client memory:
    // no serialization, no framing, no server-side encode.
    CopyBlocks<RdmaMessage>(pool, client_,
                            PlanBlocks<RdmaMessage>(table, txn_manager, client_, &result));
  }
  result.wire_bytes = client_->size();
  return result;
}

}  // namespace mainline::exporter
