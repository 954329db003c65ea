#include "transform/arrow_reader.h"

#include <cstring>

#include "arrowlite/buffer.h"
#include "arrowlite/builder.h"
#include "arrowlite/type.h"
#include "common/raw_bitmap.h"
#include "common/tsan_annotations.h"
#include "common/typedefs.h"
#include "storage/arrow_block_metadata.h"
#include "storage/block_layout.h"
#include "storage/projected_row.h"
#include "storage/raw_block.h"
#include "storage/storage_defs.h"
#include "storage/tuple_access_strategy.h"
#include "storage/varlen_entry.h"

namespace mainline::transform {

arrowlite::Type ArrowReader::ToArrowType(catalog::TypeId type, bool dictionary) {
  switch (type) {
    case catalog::TypeId::kBoolean:
      return arrowlite::Type::kBool;
    case catalog::TypeId::kTinyInt:
      return arrowlite::Type::kInt8;
    case catalog::TypeId::kSmallInt:
      return arrowlite::Type::kInt16;
    case catalog::TypeId::kInteger:
      return arrowlite::Type::kInt32;
    case catalog::TypeId::kBigInt:
      return arrowlite::Type::kInt64;
    case catalog::TypeId::kDecimal:
      return arrowlite::Type::kFloat64;
    case catalog::TypeId::kDate:
      return arrowlite::Type::kUInt32;
    case catalog::TypeId::kTimestamp:
      return arrowlite::Type::kUInt64;
    case catalog::TypeId::kVarchar:
      return dictionary ? arrowlite::Type::kDictionary : arrowlite::Type::kString;
  }
  MAINLINE_UNREACHABLE("unknown type");
}

std::shared_ptr<arrowlite::Schema> ArrowReader::ToArrowSchema(const catalog::Schema &schema,
                                                              bool dictionary) {
  std::vector<arrowlite::Field> fields;
  fields.reserve(schema.NumColumns());
  for (const catalog::Column &col : schema.Columns()) {
    fields.emplace_back(col.Name(), ToArrowType(col.Type(), dictionary), col.Nullable());
  }
  return std::make_shared<arrowlite::Schema>(std::move(fields));
}

namespace {

/// The schema positions a projection covers: the projection itself, or the
/// identity over every column when none was given.
std::vector<uint16_t> ProjectedPositions(const catalog::Schema &schema,
                                         const std::vector<uint16_t> *projection) {
  if (projection != nullptr) return *projection;
  std::vector<uint16_t> all(schema.NumColumns());
  for (uint16_t i = 0; i < schema.NumColumns(); i++) all[i] = i;
  return all;
}

}  // namespace

BlockBatch ArrowReader::ReadBlock(const catalog::Schema &schema, storage::DataTable *table,
                                  storage::RawBlock *block, transaction::TransactionContext *txn,
                                  const std::vector<uint16_t> *projection) {
  if (block->controller.TryAcquireRead()) {
    auto batch = FromFrozenBlock(schema, *table, block, projection);
    if (batch != nullptr) return BlockBatch(std::move(batch), block);
    // Frozen but without Arrow metadata: should not happen, but the
    // transactional path is always correct.
    block->controller.ReleaseRead();
  }
  return BlockBatch(MaterializeBlock(schema, table, block, txn, projection), nullptr);
}

std::shared_ptr<arrowlite::RecordBatch> ArrowReader::FromFrozenBlock(
    const catalog::Schema &schema, const storage::DataTable &table, storage::RawBlock *block,
    const std::vector<uint16_t> *projection) {
  const storage::ArrowBlockMetadata *metadata = block->arrow_metadata;
  if (metadata == nullptr) return nullptr;
  const storage::BlockLayout &layout = table.GetLayout();
  const storage::TupleAccessStrategy &accessor = table.Accessor();
  const uint32_t n = metadata->NumRecords();
  const std::vector<uint16_t> positions = ProjectedPositions(schema, projection);

  std::vector<std::shared_ptr<arrowlite::Array>> columns;
  for (const uint16_t i : positions) {
    const storage::col_id_t col(i);
    const storage::ArrowColumnInfo &info = metadata->Column(i);
    // Validity bitmap: viewed directly from block storage.
    auto validity = arrowlite::Buffer::Wrap(
        reinterpret_cast<const byte *>(accessor.ColumnNullBitmap(block, col)->Bytes()),
        common::BitmapSize(n));
    switch (info.type) {
      case storage::ArrowColumnType::kFixed: {
        auto values = arrowlite::Buffer::Wrap(
            accessor.ColumnStart(block, col),
            static_cast<uint64_t>(layout.AttrSize(col)) * n);
        columns.push_back(arrowlite::Array::MakeFixed(
            ToArrowType(schema.GetColumn(i).Type()), n, std::move(values),
            std::move(validity), info.null_count));
        break;
      }
      case storage::ArrowColumnType::kGatheredVarlen: {
        auto offsets = arrowlite::Buffer::Wrap(
            reinterpret_cast<const byte *>(info.varlen.offsets.get()),
            sizeof(int32_t) * (n + 1));
        auto values = arrowlite::Buffer::Wrap(info.varlen.values.get(),
                                              info.varlen.values_size);
        columns.push_back(arrowlite::Array::MakeString(n, std::move(offsets),
                                                       std::move(values), std::move(validity),
                                                       info.null_count));
        break;
      }
      case storage::ArrowColumnType::kDictionaryCompressed: {
        auto dict_offsets = arrowlite::Buffer::Wrap(
            reinterpret_cast<const byte *>(info.dictionary.offsets.get()),
            sizeof(int32_t) * (info.dictionary_size + 1));
        auto dict_values = arrowlite::Buffer::Wrap(info.dictionary.values.get(),
                                                   info.dictionary.values_size);
        auto dictionary = arrowlite::Array::MakeString(
            info.dictionary_size, std::move(dict_offsets), std::move(dict_values));
        auto indices = arrowlite::Buffer::Wrap(
            reinterpret_cast<const byte *>(info.indices.get()), sizeof(int32_t) * n);
        columns.push_back(arrowlite::Array::MakeDictionary(n, std::move(indices),
                                                           std::move(dictionary),
                                                           std::move(validity),
                                                           info.null_count));
        break;
      }
    }
  }
  std::vector<arrowlite::Field> fields;
  fields.reserve(positions.size());
  for (const uint16_t i : positions) {
    const catalog::Column &col = schema.GetColumn(i);
    // Each field's Arrow type comes from that column's own physical
    // representation: gathering modes are per column, so one batch can mix
    // plain-gathered and dictionary-compressed varlens.
    const bool dictionary =
        metadata->Column(i).type == storage::ArrowColumnType::kDictionaryCompressed;
    fields.emplace_back(col.Name(), ToArrowType(col.Type(), dictionary), col.Nullable());
  }
  return std::make_shared<arrowlite::RecordBatch>(
      std::make_shared<arrowlite::Schema>(std::move(fields)), n, std::move(columns));
}

namespace {

/// One visible row of a hot block: its slot offset, and where its values come
/// from — the column snapshot, or a ProjectedRow resolved through Select.
struct RowRef {
  uint32_t offset;
  int32_t slow;  // index into the slow-path rows, or -1 to read the snapshot
};

/// Write every visible row's `kWidth`-byte value straight into the array's
/// value buffer. Null slots stay zero (Buffer::Allocate zero-fills), and the
/// validity bitmap is only built once the first null shows up: a column
/// without nulls gets none, as Arrow allows.
template <size_t kWidth, typename ValueOf>
std::shared_ptr<arrowlite::Array> BuildFixed(arrowlite::Type type,
                                             const std::vector<RowRef> &visible,
                                             const ValueOf &value_of) {
  const auto rows = static_cast<uint32_t>(visible.size());
  auto values = arrowlite::Buffer::Allocate(uint64_t{rows} * kWidth);
  byte *out = values->mutable_data();
  std::shared_ptr<arrowlite::Buffer> validity;
  int64_t null_count = 0;
  for (uint32_t i = 0; i < rows; i++) {
    const byte *value = value_of(visible[i]);
    if (value != nullptr) {
      std::memcpy(out + kWidth * i, value, kWidth);
      continue;
    }
    if (validity == nullptr) {
      // Every row valid, then clear the nulls one by one. Bits past the last
      // row stay zero, as the builders leave them.
      validity = arrowlite::Buffer::Allocate((rows + 7) / 8);
      uint8_t *bits = validity->mutable_data_as<uint8_t>();
      std::memset(bits, 0xFF, rows / 8);
      if (rows % 8 != 0) bits[rows / 8] = static_cast<uint8_t>((1u << (rows % 8)) - 1);
    }
    validity->mutable_data_as<uint8_t>()[i / 8] &= static_cast<uint8_t>(~(1u << (i % 8)));
    null_count++;
  }
  return arrowlite::Array::MakeFixed(type, rows, std::move(values), std::move(validity),
                                     null_count);
}

}  // namespace

std::shared_ptr<arrowlite::RecordBatch> ArrowReader::MaterializeBlock(
    const catalog::Schema &schema, storage::DataTable *table, storage::RawBlock *block,
    transaction::TransactionContext *txn, const std::vector<uint16_t> *projection) {
  const storage::BlockLayout &layout = table->GetLayout();
  const storage::TupleAccessStrategy &accessor = table->Accessor();
  const std::vector<uint16_t> positions = ProjectedPositions(schema, projection);
  // Schema position i == physical column id i, and a sorted projection's
  // ProjectedRow indices line up with `positions` one-to-one.
  std::vector<storage::col_id_t> col_ids;
  col_ids.reserve(positions.size());
  for (const uint16_t i : positions) col_ids.emplace_back(i);
  const storage::ProjectedRowInitializer initializer =
      storage::ProjectedRowInitializer::Create(layout, std::move(col_ids));

  const uint32_t limit = block->insert_head.load(std::memory_order_acquire);

  // Column-at-a-time fast path (the figure16 hot-path bottleneck): instead of
  // one DataTable::Select per slot, snapshot the projected columns straight
  // out of block storage with one memcpy each, then decide per slot whether
  // the snapshot is usable. The ordering mirrors Select's torn-read protocol,
  // hoisted to block granularity: copy the data FIRST, read each slot's
  // version pointer AFTERWARDS (seq_cst). Writers install their undo record
  // before touching the block, and the GC only truncates a chain whose every
  // version predates the oldest active transaction — so a slot whose pointer
  // still reads null after the copy cannot have been written concurrently,
  // and its snapshot bytes are the committed version visible to any live
  // snapshot. Slots with a chain fall back to per-tuple Select.
  struct ColumnSnapshot {
    std::vector<byte> values;
    std::vector<uint8_t> valid;  // LSB-first presence bits, Arrow layout
  };
  std::vector<ColumnSnapshot> snap(positions.size());
  // The block-granularity torn-read protocol described above is exactly the
  // kind of race TSan flags: the column snapshot (and the emit loops below,
  // which deref snapshot varlen entries whose 16-byte values may have been
  // repointed by a concurrent gather — old and new targets hold identical,
  // never-overwritten bytes) reads hot-block memory while writers update it
  // in place. Slots whose bytes could have raced are detected by the
  // version-pointer reads in the validation loop — those are atomic, still
  // tracked inside this scope — and routed to the Select slow path.
  common::TsanIgnoreReadsScope torn_read;
  // An empty vector's data() is null and memcpy's pointer arguments must not
  // be, even for zero sizes — and a block with no used slots (a fresh table's
  // insertion block) has nothing to snapshot anyway.
  for (uint16_t p = 0; limit != 0 && p < positions.size(); p++) {
    const storage::col_id_t col(positions[p]);
    ColumnSnapshot &s = snap[p];
    s.values.resize(static_cast<size_t>(layout.AttrSize(col)) * limit);
    std::memcpy(s.values.data(), accessor.ColumnStart(block, col), s.values.size());
    s.valid.resize(common::BitmapSize(limit));
    std::memcpy(s.valid.data(),
                reinterpret_cast<const byte *>(accessor.ColumnNullBitmap(block, col)),
                s.valid.size());
  }

  // Validate slot-by-slot, building the visible-row list in slot order: a
  // chain-free slot is visible iff its allocation bit is set; a slot with a
  // version chain resolves through Select into its own kept-alive buffer.
  std::vector<RowRef> visible;
  visible.reserve(limit);
  std::vector<std::vector<byte>> slow_buffers;
  std::vector<storage::ProjectedRow *> slow_rows;
  const common::RawConcurrentBitmap *allocated = accessor.AllocationBitmap(block);
  for (uint32_t offset = 0; offset < limit; offset++) {
    const storage::TupleSlot slot(block, offset);
    // Allocation bit BEFORE version pointer, exactly like Select: writers
    // install their undo record before publishing (insert: SetAllocated
    // last) or unpublishing (delete: SetDeallocated last) the bit, so a
    // bit read that races a writer is always paired with a non-null
    // pointer read below and routed to the slow path. Reading the pointer
    // first would let a concurrent insert slip between the two loads and
    // serve an uncommitted row from the pre-write snapshot.
    const bool present = allocated->Test(offset);
    if (accessor.VersionPtr(slot).load(std::memory_order_seq_cst) == nullptr) {
      if (present) visible.push_back({offset, -1});
      continue;
    }
    slow_buffers.emplace_back(initializer.ProjectedRowSize() + 8);
    storage::ProjectedRow *row = initializer.InitializeRow(slow_buffers.back().data());
    if (table->Select(txn, slot, row)) {
      visible.push_back({offset, static_cast<int32_t>(slow_rows.size())});
      slow_rows.push_back(row);
    } else {
      slow_buffers.pop_back();
    }
  }
  const int64_t rows = static_cast<int64_t>(visible.size());

  // Emit column-at-a-time: each projected column walks the visible-row list
  // in one tight loop, reading the snapshot for fast rows and the
  // materialized ProjectedRow for slow ones, and writing the array's buffers
  // directly. Fixed values are moved as raw bytes of their width; the
  // logical Arrow type tags the resulting array.
  std::vector<std::shared_ptr<arrowlite::Array>> columns;
  std::vector<arrowlite::Field> fields;
  columns.reserve(positions.size());
  fields.reserve(positions.size());
  for (uint16_t p = 0; p < positions.size(); p++) {
    const catalog::Column &col = schema.GetColumn(positions[p]);
    const uint32_t attr_size = layout.AttrSize(storage::col_id_t(positions[p]));
    const byte *values = snap[p].values.data();
    const uint8_t *valid = snap[p].valid.data();
    const auto value_of = [&](const RowRef &r) -> const byte * {
      if (r.slow >= 0) return slow_rows[static_cast<size_t>(r.slow)]->AccessWithNullCheck(p);
      const bool present = (valid[r.offset / 8] >> (r.offset % 8)) & 1u;
      return present ? values + static_cast<size_t>(attr_size) * r.offset : nullptr;
    };
    const arrowlite::Type type = ToArrowType(col.Type());
    if (col.IsVarlen()) {
      arrowlite::ColumnBuilder builder(type);
      for (const RowRef &r : visible) {
        const byte *value = value_of(r);
        if (value == nullptr) {
          builder.AppendNull();
        } else {
          builder.Append(reinterpret_cast<const storage::VarlenEntry *>(value)->StringView());
        }
      }
      columns.push_back(builder.Finish());
    } else if (attr_size == 1) {
      columns.push_back(BuildFixed<1>(type, visible, value_of));
    } else if (attr_size == 2) {
      columns.push_back(BuildFixed<2>(type, visible, value_of));
    } else if (attr_size == 4) {
      columns.push_back(BuildFixed<4>(type, visible, value_of));
    } else {
      columns.push_back(BuildFixed<8>(type, visible, value_of));
    }
    fields.emplace_back(col.Name(), type, col.Nullable());
  }
  return std::make_shared<arrowlite::RecordBatch>(
      std::make_shared<arrowlite::Schema>(std::move(fields)), rows, std::move(columns));
}

}  // namespace mainline::transform
