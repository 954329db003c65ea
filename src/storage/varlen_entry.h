#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/macros.h"
#include "common/typedefs.h"

namespace mainline::storage {

/// The 16-byte variable-length value representation of Figure 6.
///
///   [ 4 bytes size (MSB = buffer-ownership bit) | 4 bytes prefix |
///     8 bytes pointer to the value, or the value's suffix if it fits ]
///
/// Values of at most 12 bytes are stored entirely inline (prefix + pointer
/// field). The prefix enables fast comparisons/filtering without chasing the
/// pointer. The ownership bit records whether the pointed-to buffer must be
/// reclaimed when this version dies (true for transactionally-allocated
/// buffers; false for pointers into a block's gathered Arrow buffer or
/// dictionary).
class VarlenEntry {
 public:
  /// Values up to this size are stored inline with no out-of-line buffer.
  static constexpr uint32_t kInlineThreshold = 12;
  /// Number of prefix bytes kept for fast filtering.
  static constexpr uint32_t kPrefixSize = 4;

  VarlenEntry() = default;

  /// Create an entry pointing to an out-of-line buffer.
  /// \param content buffer holding the value (not copied)
  /// \param size value size in bytes (must be > kInlineThreshold)
  /// \param reclaim true if the storage engine owns `content` and must free
  ///        it when the containing version is garbage collected
  static VarlenEntry Create(const byte *content, uint32_t size, bool reclaim) {
    MAINLINE_ASSERT(size > kInlineThreshold, "small values should be created inline");
    MAINLINE_ASSERT(size < kOwnershipBit, "varlen value too large");
    VarlenEntry result;
    result.size_ = size | (reclaim ? kOwnershipBit : 0);
    std::memcpy(result.prefix_, content, kPrefixSize);
    result.content_ = content;
    return result;
  }

  /// Create an entry storing the value entirely inline (size <= 12 bytes).
  static VarlenEntry CreateInline(const byte *content, uint32_t size) {
    MAINLINE_ASSERT(size <= kInlineThreshold, "value too long to inline");
    VarlenEntry result;
    result.size_ = size;
    if (size > 0) std::memcpy(result.prefix_, content, size);
    return result;
  }

  /// \return size of the value in bytes.
  uint32_t Size() const { return size_ & ~kOwnershipBit; }

  /// \return true if the value is stored entirely within this entry.
  bool IsInlined() const { return Size() <= kInlineThreshold; }

  /// \return true if the out-of-line buffer is owned by this version and must
  /// be freed when the version is reclaimed.
  bool NeedReclaim() const { return !IsInlined() && (size_ & kOwnershipBit) != 0; }

  /// \return pointer to the value's bytes (inline or out-of-line).
  const byte *Content() const {
    return IsInlined() ? reinterpret_cast<const byte *>(prefix_) : content_;
  }

  /// \return the stored prefix bytes (valid regardless of inlining).
  const byte *Prefix() const { return reinterpret_cast<const byte *>(prefix_); }

  /// \return the value as a string view (zero copy).
  std::string_view StringView() const {
    return {reinterpret_cast<const char *>(Content()), Size()};
  }

  /// Value equality (full content comparison, prefix first).
  bool operator==(const VarlenEntry &other) const {
    if (Size() != other.Size()) return false;
    if (std::memcmp(prefix_, other.prefix_, kPrefixSize) != 0) return false;
    return std::memcmp(Content(), other.Content(), Size()) == 0;
  }

 private:
  static constexpr uint32_t kOwnershipBit = uint32_t{1} << 31;

  uint32_t size_ = 0;
  char prefix_[kPrefixSize] = {0, 0, 0, 0};
  union {
    const byte *content_ = nullptr;
    char inline_suffix_[8];
  };
};

static_assert(sizeof(VarlenEntry) == 16, "VarlenEntry must be exactly 16 bytes (Figure 6)");

/// Allocate an owned out-of-line copy of `str` (or inline it if small) and
/// return the entry. Helper for workloads and tests.
inline VarlenEntry AllocateVarlen(std::string_view str) {
  const auto size = static_cast<uint32_t>(str.size());
  if (size <= VarlenEntry::kInlineThreshold) {
    return VarlenEntry::CreateInline(reinterpret_cast<const byte *>(str.data()), size);
  }
  auto *buffer = new byte[size];
  std::memcpy(buffer, str.data(), size);
  return VarlenEntry::Create(buffer, size, true);
}

}  // namespace mainline::storage
