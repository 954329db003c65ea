#include "arrowlite/ipc.h"

namespace mainline::arrowlite {

IpcStreamWriter::IpcStreamWriter(ByteSink *sink, const Schema &schema) : sink_(sink) {
  PutValue<char>('S');
  PutValue<uint32_t>(static_cast<uint32_t>(schema.num_fields()));
  for (const Field &field : schema.fields()) {
    PutValue<uint16_t>(static_cast<uint16_t>(field.name().size()));
    Put(reinterpret_cast<const byte *>(field.name().data()), field.name().size());
    PutValue<uint8_t>(static_cast<uint8_t>(field.type()));
    PutValue<uint8_t>(field.nullable() ? 1 : 0);
  }
}

void IpcStreamWriter::Put(const byte *data, uint64_t size) {
  sink_->Write(data, size);
  offset_ += size;
}

void IpcStreamWriter::WriteBuffer(const Buffer *buffer) {
  const uint64_t size = buffer == nullptr ? 0 : buffer->size();
  PutValue<uint64_t>(size);
  if (size == 0) return;
  static constexpr byte kZeros[kBufferAlignment] = {};
  Put(kZeros, PaddingAt(offset_));
  Put(buffer->data(), size);
}

void IpcStreamWriter::WriteArray(const Array &array) {
  PutValue<uint8_t>(static_cast<uint8_t>(array.type()));
  PutValue<int64_t>(array.null_count());
  const bool has_validity = array.validity() != nullptr;
  PutValue<uint8_t>(has_validity ? 1 : 0);
  if (has_validity) WriteBuffer(array.validity().get());
  switch (array.type()) {
    case Type::kString:
      WriteBuffer(array.buffer(0).get());  // offsets
      WriteBuffer(array.buffer(1).get());  // values
      break;
    case Type::kDictionary:
      WriteBuffer(array.buffer(0).get());  // indices
      PutValue<int64_t>(array.dictionary()->length());
      WriteArray(*array.dictionary());
      break;
    default:
      WriteBuffer(array.buffer(0).get());  // fixed values
      break;
  }
}

void IpcStreamWriter::WriteBatch(const RecordBatch &batch) {
  MAINLINE_ASSERT(!closed_, "stream already closed");
  PutValue<char>('B');
  PutValue<uint64_t>(static_cast<uint64_t>(batch.num_rows()));
  for (int i = 0; i < batch.num_columns(); i++) WriteArray(*batch.column(i));
}

void IpcStreamWriter::Close() {
  if (closed_) return;
  PutValue<char>('E');
  closed_ = true;
}

IpcStreamReader::IpcStreamReader(SpanSource *source) : source_(source) {
  char marker;
  if (!source_->ReadValue(&marker) || marker != 'S') {
    done_ = true;
    return;
  }
  uint32_t num_fields = 0;
  GetValue(&num_fields);
  std::vector<Field> fields;
  for (uint32_t i = 0; i < num_fields && !done_; i++) {
    uint16_t name_len = 0;
    GetValue(&name_len);
    std::string name(name_len, '\0');
    if (!source_->Read(reinterpret_cast<byte *>(name.data()), name_len)) done_ = true;
    uint8_t type = 0, nullable = 0;
    GetValue(&type);
    GetValue(&nullable);
    fields.emplace_back(std::move(name), static_cast<Type>(type), nullable != 0);
  }
  schema_ = std::make_shared<Schema>(std::move(fields));
}

std::shared_ptr<Buffer> IpcStreamReader::ReadBuffer() {
  uint64_t size = 0;
  GetValue(&size);
  if (done_ || size == 0) return nullptr;
  const byte *padding = source_->Lend(PaddingAt(source_->pos()));
  const byte *bytes = padding == nullptr ? nullptr : source_->Lend(size);
  if (bytes == nullptr) {
    done_ = true;
    return nullptr;
  }
  return Buffer::Wrap(bytes, size);
}

std::shared_ptr<Array> IpcStreamReader::ReadArray(int64_t num_rows) {
  uint8_t type_byte = 0, has_validity = 0;
  int64_t null_count = 0;
  GetValue(&type_byte);
  GetValue(&null_count);
  GetValue(&has_validity);
  // A type byte past the last Type is corruption: end the stream.
  if (type_byte > static_cast<uint8_t>(Type::kDictionary)) done_ = true;
  if (done_) return nullptr;
  const auto type = static_cast<Type>(type_byte);
  std::shared_ptr<Buffer> validity = has_validity != 0 ? ReadBuffer() : nullptr;
  switch (type) {
    case Type::kString: {
      auto offsets = ReadBuffer();
      auto values = ReadBuffer();
      if (values == nullptr) values = Buffer::Allocate(0);
      return Array::MakeString(num_rows, std::move(offsets), std::move(values),
                               std::move(validity), null_count);
    }
    case Type::kDictionary: {
      auto indices = ReadBuffer();
      int64_t dict_length = 0;
      GetValue(&dict_length);
      auto dictionary = ReadArray(dict_length);
      return Array::MakeDictionary(num_rows, std::move(indices), std::move(dictionary),
                                   std::move(validity), null_count);
    }
    default: {
      auto values = ReadBuffer();
      return Array::MakeFixed(type, num_rows, std::move(values), std::move(validity),
                              null_count);
    }
  }
}

std::shared_ptr<RecordBatch> IpcStreamReader::ReadNext() {
  if (done_) return nullptr;
  char marker;
  // 'E' ends the stream; any other byte but 'B' is corruption, which ends
  // it too, at the last whole batch.
  if (!source_->ReadValue(&marker) || marker != 'B') {
    done_ = true;
    return nullptr;
  }
  uint64_t num_rows = 0;
  GetValue(&num_rows);
  std::vector<std::shared_ptr<Array>> columns;
  columns.reserve(static_cast<size_t>(schema_->num_fields()));
  for (int i = 0; i < schema_->num_fields(); i++) {
    columns.push_back(ReadArray(static_cast<int64_t>(num_rows)));
  }
  if (done_) return nullptr;  // the stream was cut short inside this batch
  return std::make_shared<RecordBatch>(schema_, static_cast<int64_t>(num_rows),
                                       std::move(columns));
}

}  // namespace mainline::arrowlite
