#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "index/index_key.h"
#include "storage/storage_defs.h"

namespace mainline::index {

/// Abstract key-to-TupleSlot index. The paper's system uses the OpenBw-Tree;
/// this reproduction substitutes a latch-crabbing B+-tree (ordered) and a
/// sharded hash index (point lookups) behind this interface. Non-unique
/// indexes are modeled by appending a unique suffix to the key and range
/// scanning, as is conventional for composite-key indexes.
///
/// Each index stores its keys at a fixed width chosen when it is built (see
/// MakeIndex). A key wider than that is rejected by every operation: writes
/// and lookups return false and scans append nothing.
class Index {
 public:
  virtual ~Index() = default;

  /// Insert a (key, slot) pair.
  /// \return false if the key already exists or is too wide.
  virtual bool Insert(const IndexKey &key, storage::TupleSlot value) = 0;

  /// Insert, replacing any existing entry for the key, atomically: a
  /// concurrent Find never misses a key present before the call. Used when a
  /// key is legitimately reused (e.g. an order id recycled after an abort
  /// left a dead entry behind).
  /// \return false if the key is too wide (nothing is stored).
  virtual bool InsertOverwrite(const IndexKey &key, storage::TupleSlot value) = 0;

  /// Remove a key.
  /// \return false if the key was absent.
  virtual bool Delete(const IndexKey &key) = 0;

  /// Point lookup.
  /// \return true and the slot in `out` if found.
  virtual bool Find(const IndexKey &key, storage::TupleSlot *out) const = 0;

  /// Inclusive range scan in ascending key order, stopping after `limit`
  /// results (0 = unlimited). Ordered indexes only.
  virtual void ScanAscending(const IndexKey &lo, const IndexKey &hi, uint32_t limit,
                             std::vector<storage::TupleSlot> *out) const {
    (void)lo, (void)hi, (void)limit, (void)out;
    MAINLINE_UNREACHABLE("range scans unsupported by this index type");
  }

  /// Inclusive range scan in descending key order.
  virtual void ScanDescending(const IndexKey &lo, const IndexKey &hi, uint32_t limit,
                              std::vector<storage::TupleSlot> *out) const {
    (void)lo, (void)hi, (void)limit, (void)out;
    MAINLINE_UNREACHABLE("range scans unsupported by this index type");
  }

  /// \return number of entries (approximate under concurrency).
  virtual uint64_t Size() const = 0;

  /// \return bytes held by the index's nodes or arrays (approximate under
  /// concurrency).
  virtual uint64_t MemoryBytes() const = 0;
};

/// Build an `IndexT<W>` whose width `W` is `key_width` rounded up by
/// RoundUpKeyWidth, e.g. `MakeIndex<BPlusTree>(OrderKey(0, 0, 0).Size())`.
template <template <uint32_t> class IndexT>
std::unique_ptr<Index> MakeIndex(uint32_t key_width) {
  switch (RoundUpKeyWidth(key_width)) {
    case 8: return std::make_unique<IndexT<8>>();
    case 16: return std::make_unique<IndexT<16>>();
    case 24: return std::make_unique<IndexT<24>>();
    case 32: return std::make_unique<IndexT<32>>();
    case 40: return std::make_unique<IndexT<40>>();
    case 48: return std::make_unique<IndexT<48>>();
    case 56: return std::make_unique<IndexT<56>>();
    default: return std::make_unique<IndexT<IndexKey::kMaxSize>>();
  }
}

}  // namespace mainline::index
