#pragma once

#include <memory>

#include "arrowlite/array.h"
#include "arrowlite/io.h"

namespace mainline::arrowlite {

/// Every buffer body starts at a multiple of this many bytes from the start
/// of the stream — the Arrow IPC alignment rule, which lets a reader use the
/// bytes in place as typed arrays.
inline constexpr uint64_t kBufferAlignment = 8;

/// Zero bytes that bring stream offset `offset` up to kBufferAlignment.
constexpr uint64_t PaddingAt(uint64_t offset) {
  return (kBufferAlignment - offset % kBufferAlignment) % kBufferAlignment;
}

/// Streaming IPC format, modeled on the Arrow IPC stream: a schema message
/// followed by record-batch messages, each of which is a flat sequence of
/// raw buffers with a tiny header. Buffer contents go onto the wire verbatim
/// (no per-value encoding), which is what gives Arrow-native export its
/// zero-serialization property. This byte framing stands in for Arrow's
/// flatbuffer message metadata: it carries the same schema, lengths, null
/// counts and buffers, and keeps Arrow's 8-byte body alignment, but is not
/// wire-compatible with Arrow readers. A stream may be written in pieces, each
/// piece by its own writer that continues the stream at the piece's offset
/// (see exporter::ArrowFlightExporter).
///
/// Message grammar (integers little-endian, as in memory):
///   stream  := schema batch* end
///   schema  := 'S' u32 num_fields { u16 name_len, name, u8 type, u8 nullable }
///   batch   := 'B' u64 num_rows column*
///   column  := u8 type, i64 null_count, u8 has_validity [buffer]  (validity)
///              buffer* (type dependent), i64 length + column (dictionary type)
///   buffer  := u64 size [pad, bytes]   (pad and bytes only when size > 0)
///   pad     := 0-7 zero bytes, so `bytes` starts at a multiple of 8 from the
///              start of the stream
///   end     := 'E'
class IpcStreamWriter {
 public:
  /// Write the schema message immediately.
  IpcStreamWriter(ByteSink *sink, const Schema &schema);

  /// Continue a stream whose first `offset` bytes are written elsewhere: no
  /// schema message, and every buffer padded as at that offset.
  IpcStreamWriter(ByteSink *sink, uint64_t offset) : sink_(sink), offset_(offset) {}

  /// Write one record batch message.
  void WriteBatch(const RecordBatch &batch);

  /// Write the end-of-stream marker.
  void Close();

 private:
  /// Write to the sink, tracking the stream offset the padding depends on.
  void Put(const byte *data, uint64_t size);
  template <typename T>
  void PutValue(const T &value) {
    Put(reinterpret_cast<const byte *>(&value), sizeof(T));
  }
  void WriteBuffer(const Buffer *buffer);
  void WriteArray(const Array &array);

  ByteSink *sink_;
  uint64_t offset_ = 0;
  bool closed_ = false;
};

/// Reads a stream produced by IpcStreamWriter without any per-value parsing —
/// the client-side analogue of zero-deserialization interchange. Every
/// buffer lands as a non-owning view of the source's bytes (no allocation,
/// no copy), 8-byte aligned when the span is, so the batches are valid only
/// as long as the span's memory. A stream cut short ends at its last whole
/// batch, and so does a corrupt one: a message marker other than 'B' or 'E',
/// or a column type byte that names no Type.
class IpcStreamReader {
 public:
  explicit IpcStreamReader(SpanSource *source);

  /// \return the stream's schema (valid after construction).
  const std::shared_ptr<Schema> &schema() const { return schema_; }

  /// Read the next record batch.
  /// \return the batch, or nullptr at end of stream.
  std::shared_ptr<RecordBatch> ReadNext();

 private:
  /// Read one value; a read past the end of the span ends the stream.
  template <typename T>
  void GetValue(T *out) {
    if (!source_->ReadValue(out)) done_ = true;
  }
  std::shared_ptr<Buffer> ReadBuffer();
  std::shared_ptr<Array> ReadArray(int64_t num_rows);

  SpanSource *source_;
  std::shared_ptr<Schema> schema_;
  bool done_ = false;
};

}  // namespace mainline::arrowlite
