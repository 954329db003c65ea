#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "common/macros.h"
#include "common/typedefs.h"

namespace mainline::index {

/// A fixed-size, memcmp-comparable composite index key. Fields are appended
/// with order-preserving encodings (big-endian unsigned, sign-flipped
/// big-endian signed, zero-padded fixed-width strings), so lexicographic
/// byte comparison matches tuple-order comparison of the encoded fields.
class IndexKey {
 public:
  static constexpr uint32_t kMaxSize = 64;

  IndexKey() { data_.fill(byte{0}); }

  /// Append an unsigned integer (big-endian).
  template <typename T>
  IndexKey &AddUnsigned(T value) {
    static_assert(std::is_unsigned_v<T>);
    for (int shift = (sizeof(T) - 1) * 8; shift >= 0; shift -= 8) {
      Append(static_cast<byte>((value >> shift) & 0xFF));
    }
    return *this;
  }

  /// Append a signed integer (sign bit flipped, then big-endian, preserving
  /// order across negative and positive values).
  template <typename T>
  IndexKey &AddSigned(T value) {
    static_assert(std::is_signed_v<T>);
    using U = std::make_unsigned_t<T>;
    const U flipped = static_cast<U>(value) ^ (U{1} << (sizeof(T) * 8 - 1));
    return AddUnsigned(flipped);
  }

  /// Append a string padded (or truncated) to `width` bytes.
  IndexKey &AddString(std::string_view s, uint32_t width) {
    const uint32_t copy = std::min<uint32_t>(width, static_cast<uint32_t>(s.size()));
    MAINLINE_ASSERT(size_ + width <= kMaxSize, "index key overflow");
    std::memcpy(data_.data() + size_, s.data(), copy);
    size_ += width;  // remaining bytes already zero
    return *this;
  }

  bool operator==(const IndexKey &other) const {
    return std::memcmp(data_.data(), other.data_.data(), kMaxSize) == 0;
  }
  bool operator<(const IndexKey &other) const {
    return std::memcmp(data_.data(), other.data_.data(), kMaxSize) < 0;
  }
  bool operator<=(const IndexKey &other) const { return !(other < *this); }

  const byte *Data() const { return data_.data(); }
  uint32_t Size() const { return size_; }

  /// Hash of the full zero-padded key, a 64-bit word at a time, ending in
  /// MurmurHash3's 64-bit finalizer. Equal keys hash equally, so one hash
  /// serves every probe of an operation.
  uint64_t Hash() const {
    uint64_t h = 0;
    for (uint32_t i = 0; i < kMaxSize; i += 8) {
      uint64_t word;
      std::memcpy(&word, data_.data() + i, sizeof(word));
      h = (h ^ word) * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 32;
    }
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ULL;
    return h ^ (h >> 33);
  }

 private:
  void Append(byte b) {
    MAINLINE_ASSERT(size_ < kMaxSize, "index key overflow");
    data_[size_++] = b;
  }

  std::array<byte, kMaxSize> data_;
  uint32_t size_ = 0;
};

/// \return `key_width` rounded up to the next supported index width: a
/// multiple of 8, at least 8 and at most IndexKey::kMaxSize.
constexpr uint32_t RoundUpKeyWidth(uint32_t key_width) {
  return std::clamp<uint32_t>((key_width + 7) / 8 * 8, 8, IndexKey::kMaxSize);
}

/// An IndexKey stored at an index's own width `W`: its first `W` bytes. For
/// keys no wider than `W` the bytes past `W` are zero padding, so a `W`-byte
/// memcmp orders and equates exactly as IndexKey's full compare does.
template <uint32_t W>
struct FixedKey {
  static_assert(W % 8 == 0 && W >= 8 && W <= IndexKey::kMaxSize);

  /// Copy `key` into `out`. \return false, leaving `out` untouched, if `key`
  /// is wider than `W`: a wider key is rejected, never truncated.
  static bool From(const IndexKey &key, FixedKey *out) {
    if (key.Size() > W) return false;
    std::memcpy(out->bytes.data(), key.Data(), W);
    return true;
  }

  bool operator<(const FixedKey &other) const {
    return std::memcmp(bytes.data(), other.bytes.data(), W) < 0;
  }
  bool operator==(const FixedKey &other) const {
    return std::memcmp(bytes.data(), other.bytes.data(), W) == 0;
  }

  std::array<byte, W> bytes;
};

}  // namespace mainline::index
