#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/typedefs.h"

namespace mainline::arrowlite {

/// Abstract byte sink: the boundary between serialization code and transport
/// (in-memory channel, file, simulated network link).
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual void Write(const byte *data, uint64_t size) = 0;

  template <typename T>
  void WriteValue(const T &value) {
    Write(reinterpret_cast<const byte *>(&value), sizeof(T));
  }
};

/// Sink collecting bytes into a growable vector.
class VectorSink final : public ByteSink {
 public:
  void Write(const byte *data, uint64_t size) override {
    data_.insert(data_.end(), data, data + size);
  }
  const std::vector<byte> &data() const { return data_; }
  std::vector<byte> &data() { return data_; }

 private:
  std::vector<byte> data_;
};

/// Source reading from a byte span. Besides copying bytes out it can lend
/// them in place, which is how IpcStreamReader lands buffers without a copy.
class SpanSource {
 public:
  SpanSource(const byte *data, uint64_t size) : data_(data), size_(size) {}

  /// Read exactly `size` bytes.
  /// \return true on success, false (reading nothing) if fewer remain.
  bool Read(byte *out, uint64_t size) {
    if (size > size_ - pos_) return false;
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return true;
  }

  template <typename T>
  bool ReadValue(T *out) {
    return Read(reinterpret_cast<byte *>(out), sizeof(T));
  }

  /// Lend the next `size` bytes in place and advance past them. They stay
  /// valid as long as the span's memory does.
  /// \return the bytes, or nullptr (advancing nothing) if fewer remain.
  const byte *Lend(uint64_t size) {
    if (size > size_ - pos_) return nullptr;
    const byte *lent = data_ + pos_;
    pos_ += size;
    return lent;
  }

  /// \return the offset of the next unread byte from the start of the span.
  uint64_t pos() const { return pos_; }

 private:
  const byte *data_;
  uint64_t size_;
  uint64_t pos_ = 0;
};

/// Sink that only counts bytes (for measuring protocol output volume).
class CountingSink final : public ByteSink {
 public:
  void Write(const byte *, uint64_t size) override { count_ += size; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

}  // namespace mainline::arrowlite
