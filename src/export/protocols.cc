#include "export/protocols.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "arrowlite/buffer.h"
#include "arrowlite/builder.h"
#include "arrowlite/io.h"
#include "arrowlite/ipc.h"
#include "arrowlite/type.h"
#include "catalog/schema.h"
#include "catalog/sql_table.h"
#include "common/timer.h"
#include "storage/arrow_block_metadata.h"
#include "storage/block_access_controller.h"
#include "storage/data_table.h"
#include "storage/projected_row.h"
#include "storage/raw_block.h"
#include "storage/storage_defs.h"
#include "storage/storage_util.h"
#include "storage/varlen_entry.h"
#include "transaction/transaction_context.h"
#include "transaction/transaction_manager.h"
#include "transform/arrow_reader.h"

namespace mainline::exporter {

namespace {

using catalog::TypeId;
using storage::BlockState;
using storage::RawBlock;
using storage::TupleSlot;

/// Encode one value as protocol text into `out`; \return length.
int EncodeText(TypeId type, const byte *value, char *out, size_t out_size) {
  switch (type) {
    case TypeId::kBoolean:
    case TypeId::kTinyInt:
      return std::snprintf(out, out_size, "%d",
                           static_cast<int>(*reinterpret_cast<const int8_t *>(value)));
    case TypeId::kSmallInt:
      return std::snprintf(out, out_size, "%d",
                           static_cast<int>(*reinterpret_cast<const int16_t *>(value)));
    case TypeId::kInteger:
      return std::snprintf(out, out_size, "%d", *reinterpret_cast<const int32_t *>(value));
    case TypeId::kDate:
      return std::snprintf(out, out_size, "%u", *reinterpret_cast<const uint32_t *>(value));
    case TypeId::kBigInt:
      return std::snprintf(out, out_size, "%" PRId64,
                           *reinterpret_cast<const int64_t *>(value));
    case TypeId::kTimestamp:
      return std::snprintf(out, out_size, "%" PRIu64,
                           *reinterpret_cast<const uint64_t *>(value));
    case TypeId::kDecimal:
      return std::snprintf(out, out_size, "%.6f", *reinterpret_cast<const double *>(value));
    case TypeId::kVarchar:
      MAINLINE_UNREACHABLE("varchar handled separately");
  }
  return 0;
}

/// Visit every visible tuple of the table, with the frozen-block fast path:
/// frozen blocks are read in place under the block read lock, other blocks
/// through a transactional snapshot. `visit(slot_values, row_from_block)` is
/// called with a full-row ProjectedRow.
template <typename Visit>
std::pair<uint64_t, uint64_t> ForEachRow(catalog::SqlTable *table,
                                         transaction::TransactionManager *txn_manager,
                                         Visit visit) {
  storage::DataTable &data_table = table->UnderlyingTable();
  const storage::ProjectedRowInitializer &initializer = data_table.FullRowInitializer();
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  uint64_t frozen_blocks = 0, hot_blocks = 0;

  for (RawBlock *block : data_table.Blocks()) {
    if (block->controller.TryAcquireRead()) {
      frozen_blocks++;
      const uint32_t n = block->arrow_metadata == nullptr
                             ? 0
                             : block->arrow_metadata->NumRecords();
      for (uint32_t i = 0; i < n; i++) {
        storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
        for (uint16_t c = 0; c < row->NumColumns(); c++) {
          storage::StorageUtil::CopyAttrIntoProjection(data_table.Accessor(),
                                                       TupleSlot(block, i), row, c);
        }
        visit(*row);
      }
      block->controller.ReleaseRead();
    } else {
      hot_blocks++;
      transaction::TransactionContext *txn = txn_manager->BeginTransaction();
      const uint32_t limit = block->insert_head.load(std::memory_order_acquire);
      for (uint32_t i = 0; i < limit; i++) {
        storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
        if (!data_table.Select(txn, TupleSlot(block, i), row)) continue;
        visit(*row);
      }
      txn_manager->Commit(txn);
    }
  }
  return {frozen_blocks, hot_blocks};
}

/// Client-side parse of the text protocol back into a columnar batch — the
/// step Figure 1 shows dominating export cost.
std::shared_ptr<arrowlite::RecordBatch> ParsePostgresWire(const catalog::Schema &schema,
                                                          const byte *data, uint64_t size) {
  std::vector<arrowlite::FixedBuilder<int64_t>> ints;
  std::vector<arrowlite::FixedBuilder<double>> doubles;
  std::vector<arrowlite::StringBuilder> strings;
  std::vector<std::pair<int, size_t>> dispatch;
  for (uint16_t i = 0; i < schema.NumColumns(); i++) {
    switch (schema.GetColumn(i).Type()) {
      case TypeId::kDecimal:
        dispatch.emplace_back(1, doubles.size());
        doubles.emplace_back(arrowlite::Type::kFloat64);
        break;
      case TypeId::kVarchar:
        dispatch.emplace_back(2, strings.size());
        strings.emplace_back();
        break;
      default:
        dispatch.emplace_back(0, ints.size());
        ints.emplace_back(arrowlite::Type::kInt64);
        break;
    }
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
      auto [kind, idx] = dispatch[c];
      if (len < 0) {
        if (kind == 0) {
          ints[idx].AppendNull();
        } else if (kind == 1) {
          doubles[idx].AppendNull();
        } else {
          strings[idx].AppendNull();
        }
        continue;
      }
      const char *text = reinterpret_cast<const char *>(data + pos);
      pos += static_cast<uint64_t>(len);
      if (kind == 0) {
        int64_t v = 0;
        std::from_chars(text, text + len, v);
        ints[idx].Append(v);
      } else if (kind == 1) {
        doubles[idx].Append(std::strtod(std::string(text, static_cast<size_t>(len)).c_str(),
                                        nullptr));
      } else {
        strings[idx].Append({text, static_cast<size_t>(len)});
      }
    }
    rows++;
  }

  std::vector<arrowlite::Field> fields;
  std::vector<std::shared_ptr<arrowlite::Array>> columns;
  for (uint16_t i = 0; i < schema.NumColumns(); i++) {
    auto [kind, idx] = dispatch[i];
    if (kind == 0) {
      fields.emplace_back(schema.GetColumn(i).Name(), arrowlite::Type::kInt64);
      columns.push_back(ints[idx].Finish());
    } else if (kind == 1) {
      fields.emplace_back(schema.GetColumn(i).Name(), arrowlite::Type::kFloat64);
      columns.push_back(doubles[idx].Finish());
    } else {
      fields.emplace_back(schema.GetColumn(i).Name(), arrowlite::Type::kString);
      columns.push_back(strings[idx].Finish());
    }
  }
  return std::make_shared<arrowlite::RecordBatch>(
      std::make_shared<arrowlite::Schema>(std::move(fields)), rows, std::move(columns));
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

/// A block whose message the copy step writes into its claimed range, and
/// the read lock that keeps the block's buffers in place until then.
struct PlannedBlock {
  template <typename Message>
  void WriteTo(ClientBuffer *client) const {
    ClaimedRange sink(client, offset);
    Message::Write(&sink, *batch, offset);
  }

  RawBlock *locked;
  std::shared_ptr<const arrowlite::RecordBatch> batch;
  uint64_t offset;
  uint64_t size;
};

/// Step one of an Arrow-native export (see Exporter): walk the table's
/// blocks in order and claim each block's message range of the ClientBuffer,
/// sized by a dry run of `Message`. A frozen block is read in place under its
/// read lock, and its message is left to the copy step. A hot block is
/// materialized and its message written at once, so the export never holds
/// a second copy of the hot data.
template <typename Message>
std::vector<PlannedBlock> PlanBlocks(catalog::SqlTable *table,
                                     transaction::TransactionManager *txn_manager,
                                     ClientBuffer *client, ExportResult *result) {
  const catalog::Schema &schema = table->GetSchema();
  storage::DataTable &data_table = table->UnderlyingTable();
  std::vector<PlannedBlock> plan;
  for (RawBlock *block : data_table.Blocks()) {
    PlannedBlock planned{nullptr, nullptr, client->size(), 0};
    if (block->controller.TryAcquireRead()) {
      result->frozen_blocks++;
      planned.locked = block;
      planned.batch = transform::ArrowReader::FromFrozenBlock(schema, data_table, block);
      if (planned.batch == nullptr) {
        block->controller.ReleaseRead();
        continue;
      }
    } else {
      result->hot_blocks++;
      transaction::TransactionContext *txn = txn_manager->BeginTransaction();
      planned.batch = transform::ArrowReader::MaterializeBlock(schema, &data_table, block, txn);
      txn_manager->Commit(txn);
    }
    result->rows += static_cast<uint64_t>(planned.batch->num_rows());
    arrowlite::CountingSink counter;
    Message::Write(&counter, *planned.batch, planned.offset);
    planned.size = counter.count();
    client->Claim(planned.size);
    if (planned.locked == nullptr) {
      planned.WriteTo<Message>(client);
    } else {
      plan.push_back(std::move(planned));
    }
  }
  return plan;
}

/// Step two: write the planned blocks' messages into their claimed ranges,
/// split across `pool`'s workers in contiguous runs of blocks of about equal
/// bytes, releasing each block's read lock as soon as its message has landed.
template <typename Message>
void CopyBlocks(common::WorkerPool *pool, ClientBuffer *client,
                const std::vector<PlannedBlock> &plan) {
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
      plan[i].locked->controller.ReleaseRead();
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

    char text[64];
    auto [frozen, hot] = ForEachRow(table, txn_manager, [&](const storage::ProjectedRow &row) {
      client_->WriteValue<char>('D');
      client_->WriteValue<uint16_t>(row.NumColumns());
      for (uint16_t c = 0; c < row.NumColumns(); c++) {
        const byte *value = row.AccessWithNullCheck(c);
        if (value == nullptr) {
          client_->WriteValue<int32_t>(-1);
          continue;
        }
        const TypeId type = schema.GetColumn(c).Type();
        if (type == TypeId::kVarchar) {
          const auto *entry = reinterpret_cast<const storage::VarlenEntry *>(value);
          client_->WriteValue<int32_t>(static_cast<int32_t>(entry->Size()));
          client_->Write(entry->Content(), entry->Size());
        } else {
          const int len = EncodeText(type, value, text, sizeof(text));
          client_->WriteValue<int32_t>(len);
          client_->Write(reinterpret_cast<const byte *>(text), static_cast<uint64_t>(len));
        }
      }
      result.rows++;
    });
    result.frozen_blocks = frozen;
    result.hot_blocks = hot;
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
  const catalog::Schema &schema = table->GetSchema();
  {
    common::ScopedTimer<std::chrono::microseconds> timer(&result.micros);
    // Server: serialize per-row into column-chunked messages of ~2048 rows.
    constexpr uint32_t kChunkRows = 2048;
    std::vector<std::vector<byte>> fixed_chunks(schema.NumColumns());
    std::vector<std::vector<byte>> varlen_chunks(schema.NumColumns());
    std::vector<std::vector<uint8_t>> null_flags(schema.NumColumns());
    uint32_t chunk_rows = 0;

    auto flush_chunk = [&] {
      if (chunk_rows == 0) return;
      client_->WriteValue<char>('V');
      client_->WriteValue<uint32_t>(chunk_rows);
      for (uint16_t c = 0; c < schema.NumColumns(); c++) {
        client_->Write(reinterpret_cast<const byte *>(null_flags[c].data()),
                       null_flags[c].size());
        const auto &payload =
            schema.GetColumn(c).IsVarlen() ? varlen_chunks[c] : fixed_chunks[c];
        client_->WriteValue<uint64_t>(payload.size());
        client_->Write(payload.data(), payload.size());
        fixed_chunks[c].clear();
        varlen_chunks[c].clear();
        null_flags[c].clear();
      }
      chunk_rows = 0;
    };

    auto [frozen, hot] = ForEachRow(table, txn_manager, [&](const storage::ProjectedRow &row) {
      for (uint16_t c = 0; c < row.NumColumns(); c++) {
        const byte *value = row.AccessWithNullCheck(c);
        null_flags[c].push_back(value == nullptr ? 1 : 0);
        if (value == nullptr) {
          if (!schema.GetColumn(c).IsVarlen()) {
            fixed_chunks[c].insert(fixed_chunks[c].end(), schema.GetColumn(c).AttrSize(),
                                   byte{0});
          }
          continue;
        }
        if (schema.GetColumn(c).IsVarlen()) {
          const auto *entry = reinterpret_cast<const storage::VarlenEntry *>(value);
          const uint32_t size = entry->Size();
          const auto *size_bytes = reinterpret_cast<const byte *>(&size);
          varlen_chunks[c].insert(varlen_chunks[c].end(), size_bytes, size_bytes + 4);
          varlen_chunks[c].insert(varlen_chunks[c].end(), entry->Content(),
                                  entry->Content() + size);
        } else {
          fixed_chunks[c].insert(fixed_chunks[c].end(), value,
                                 value + schema.GetColumn(c).AttrSize());
        }
      }
      result.rows++;
      if (++chunk_rows == kChunkRows) flush_chunk();
    });
    flush_chunk();
    result.frozen_blocks = frozen;
    result.hot_blocks = hot;

    // Client side: reassemble arrays from the chunked wire format.
    {
      std::vector<arrowlite::FixedBuilder<uint64_t>> fixed8;
      std::vector<arrowlite::FixedBuilder<uint32_t>> fixed4;
      std::vector<arrowlite::FixedBuilder<uint16_t>> fixed2;
      std::vector<arrowlite::FixedBuilder<uint8_t>> fixed1;
      std::vector<arrowlite::StringBuilder> strings;
      std::vector<std::pair<int, size_t>> dispatch;
      for (uint16_t c = 0; c < schema.NumColumns(); c++) {
        const catalog::Column &col = schema.GetColumn(c);
        if (col.IsVarlen()) {
          dispatch.emplace_back(4, strings.size());
          strings.emplace_back();
        } else if (col.AttrSize() == 8) {
          dispatch.emplace_back(3, fixed8.size());
          fixed8.emplace_back(arrowlite::Type::kUInt64);
        } else if (col.AttrSize() == 4) {
          dispatch.emplace_back(2, fixed4.size());
          fixed4.emplace_back(arrowlite::Type::kUInt32);
        } else if (col.AttrSize() == 2) {
          dispatch.emplace_back(1, fixed2.size());
          fixed2.emplace_back(arrowlite::Type::kUInt16);
        } else {
          dispatch.emplace_back(0, fixed1.size());
          fixed1.emplace_back(arrowlite::Type::kUInt8);
        }
      }
      const byte *data = client_->data();
      uint64_t pos = 0;
      int64_t rows = 0;
      while (pos < client_->size()) {
        pos += 1;  // 'V'
        uint32_t n;
        std::memcpy(&n, data + pos, 4);
        pos += 4;
        rows += n;
        for (uint16_t c = 0; c < schema.NumColumns(); c++) {
          const uint8_t *nulls = reinterpret_cast<const uint8_t *>(data + pos);
          pos += n;
          uint64_t payload_size;
          std::memcpy(&payload_size, data + pos, 8);
          pos += 8;
          const byte *payload = data + pos;
          pos += payload_size;
          auto [kind, idx] = dispatch[c];
          uint64_t off = 0;
          for (uint32_t r = 0; r < n; r++) {
            const bool null = nulls[r] != 0;
            switch (kind) {
              case 0:
                if (null) {
                  fixed1[idx].AppendNull();
                } else {
                  fixed1[idx].Append(*reinterpret_cast<const uint8_t *>(payload + off));
                }
                off += 1;
                break;
              case 1:
                if (null) {
                  fixed2[idx].AppendNull();
                } else {
                  uint16_t v;
                  std::memcpy(&v, payload + off, 2);
                  fixed2[idx].Append(v);
                }
                off += 2;
                break;
              case 2:
                if (null) {
                  fixed4[idx].AppendNull();
                } else {
                  uint32_t v;
                  std::memcpy(&v, payload + off, 4);
                  fixed4[idx].Append(v);
                }
                off += 4;
                break;
              case 3:
                if (null) {
                  fixed8[idx].AppendNull();
                } else {
                  uint64_t v;
                  std::memcpy(&v, payload + off, 8);
                  fixed8[idx].Append(v);
                }
                off += 8;
                break;
              case 4: {
                if (null) {
                  strings[idx].AppendNull();
                  break;
                }
                uint32_t len;
                std::memcpy(&len, payload + off, 4);
                off += 4;
                strings[idx].Append(
                    {reinterpret_cast<const char *>(payload + off), len});
                off += len;
                break;
              }
            }
          }
        }
      }
      std::vector<arrowlite::Field> fields;
      std::vector<std::shared_ptr<arrowlite::Array>> columns;
      for (uint16_t c = 0; c < schema.NumColumns(); c++) {
        auto [kind, idx] = dispatch[c];
        fields.emplace_back(schema.GetColumn(c).Name(),
                            kind == 4 ? arrowlite::Type::kString
                                      : transform::ArrowReader::ToArrowType(
                                            schema.GetColumn(c).Type()));
        switch (kind) {
          case 0:
            columns.push_back(fixed1[idx].Finish());
            break;
          case 1:
            columns.push_back(fixed2[idx].Finish());
            break;
          case 2:
            columns.push_back(fixed4[idx].Finish());
            break;
          case 3:
            columns.push_back(fixed8[idx].Finish());
            break;
          case 4:
            columns.push_back(strings[idx].Finish());
            break;
        }
      }
      client_batch_ = std::make_shared<arrowlite::RecordBatch>(
          std::make_shared<arrowlite::Schema>(std::move(fields)), rows, std::move(columns));
    }
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
    const std::vector<PlannedBlock> plan =
        PlanBlocks<FlightMessage>(table, txn_manager, client_, &result);
    arrowlite::IpcStreamWriter(client_, client_->size()).Close();
    CopyBlocks<FlightMessage>(pool, client_, plan);
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
