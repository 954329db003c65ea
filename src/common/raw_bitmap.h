#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>

#include "common/macros.h"

namespace mainline::common {

/// Number of bytes needed to store `n` bits, rounded up to an 8-byte boundary
/// as the Arrow format requires for validity bitmaps.
constexpr uint32_t BitmapSize(uint32_t n) { return ((n + 63) / 64) * 8; }

/// A bitmap overlaid on raw memory, with thread-safe (CAS-based) bit flips.
///
/// This class has no state of its own: it is a view that reinterprets a
/// caller-provided region. Used for block allocation bitmaps and per-column
/// validity (null) bitmaps, which the storage layer concurrently mutates.
/// The physical layout (LSB-first within each byte) matches Arrow's validity
/// bitmap encoding so frozen blocks can expose these bits directly.
class RawConcurrentBitmap {
 public:
  RawConcurrentBitmap() = delete;
  DISALLOW_COPY_AND_MOVE(RawConcurrentBitmap)

  /// Reinterpret the region starting at `ptr` as a bitmap.
  static RawConcurrentBitmap *Interpret(void *ptr) {
    return reinterpret_cast<RawConcurrentBitmap *>(ptr);
  }

  /// Zero out the first `num_bits` bits (rounded up to whole words).
  void Clear(uint32_t num_bits) { std::memset(bits_, 0, BitmapSize(num_bits)); }

  /// \return the value of bit `pos`.
  bool Test(uint32_t pos) const {
    return (WordFor(pos).load(std::memory_order_acquire) >> BitOffset(pos)) & 1u;
  }

  /// Atomically flip bit `pos` from `expected_value` to its negation.
  /// \return true if this thread performed the flip, false if the bit did not
  ///         have the expected value (i.e. another thread raced us).
  bool Flip(uint32_t pos, bool expected_value) {
    std::atomic<uint64_t> &word = WordFor(pos);
    const uint64_t mask = uint64_t{1} << BitOffset(pos);
    // relaxed: just the seed for the CAS loop; the acq_rel
    // compare_exchange below is what synchronizes (and re-reads on failure).
    uint64_t old_word = word.load(std::memory_order_relaxed);
    while (true) {
      const bool current = (old_word & mask) != 0;
      if (current != expected_value) return false;
      const uint64_t new_word = old_word ^ mask;
      if (word.compare_exchange_weak(old_word, new_word, std::memory_order_acq_rel)) return true;
    }
  }

  /// Unconditionally set bit `pos` to `value` (atomic, last writer wins).
  void Set(uint32_t pos, bool value) {
    std::atomic<uint64_t> &word = WordFor(pos);
    const uint64_t mask = uint64_t{1} << BitOffset(pos);
    if (value) {
      word.fetch_or(mask, std::memory_order_acq_rel);
    } else {
      word.fetch_and(~mask, std::memory_order_acq_rel);
    }
  }

  /// Find the first position >= `start_pos` and < `end_pos` whose bit is 0.
  /// \return true and stores the position in `out` if found.
  bool FirstUnsetPos(uint32_t end_pos, uint32_t start_pos, uint32_t *out) const {
    for (uint32_t i = start_pos; i < end_pos; i++) {
      if (!Test(i)) {
        *out = i;
        return true;
      }
    }
    return false;
  }

  /// Count the number of set bits among the first `num_bits` bits.
  uint32_t CountSet(uint32_t num_bits) const {
    uint32_t count = 0;
    const uint32_t num_words = (num_bits + 63) / 64;
    for (uint32_t w = 0; w < num_words; w++) {
      // relaxed: a population count over a bitmap others may be flipping is
      // inherently approximate; all that is needed is tear-free word reads.
      uint64_t word = reinterpret_cast<const std::atomic<uint64_t> *>(bits_)[w].load(
          std::memory_order_relaxed);
      if ((w + 1) * 64 > num_bits) {
        const uint32_t valid = num_bits - w * 64;
        word &= (valid == 64) ? ~uint64_t{0} : ((uint64_t{1} << valid) - 1);
      }
      count += static_cast<uint32_t>(__builtin_popcountll(word));
    }
    return count;
  }

  /// Raw byte access (for zero-copy export of validity bitmaps).
  const uint8_t *Bytes() const { return reinterpret_cast<const uint8_t *>(bits_); }

 private:
  std::atomic<uint64_t> &WordFor(uint32_t pos) {
    return reinterpret_cast<std::atomic<uint64_t> *>(bits_)[pos / 64];
  }
  const std::atomic<uint64_t> &WordFor(uint32_t pos) const {
    return reinterpret_cast<const std::atomic<uint64_t> *>(bits_)[pos / 64];
  }
  static uint32_t BitOffset(uint32_t pos) { return pos % 64; }

  uint8_t bits_[0];
};

}  // namespace mainline::common
