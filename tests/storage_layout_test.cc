#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rand_util.h"
#include "common/raw_bitmap.h"
#include "storage/block_layout.h"
#include "storage/projected_row.h"
#include "storage/raw_block.h"
#include "storage/tuple_access_strategy.h"
#include "storage/varlen_entry.h"

namespace mainline::storage {

// ---------------------------------------------------------------------------
// TupleSlot: the physiological addressing scheme of Figure 5.
// ---------------------------------------------------------------------------

TEST(TupleSlotTest, PacksBlockAndOffsetIntoOneWord) {
  BlockStore store(10, 10);
  RawBlock *block = store.Get();
  ASSERT_EQ(reinterpret_cast<uintptr_t>(block) % kBlockSize, 0u)
      << "blocks must be aligned at 1 MB boundaries";
  for (const uint32_t offset : {0u, 1u, 12345u, kBlockSize - 1}) {
    const TupleSlot slot(block, offset);
    EXPECT_EQ(slot.GetBlock(), block);
    EXPECT_EQ(slot.GetOffset(), offset);
    EXPECT_EQ(TupleSlot::FromRawBytes(slot.RawBytes()), slot);
  }
  store.Release(block);
}

// ---------------------------------------------------------------------------
// BlockLayout: property sweep over column shapes.
// ---------------------------------------------------------------------------

class BlockLayoutPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint16_t /*cols*/, uint16_t /*size*/>> {};

TEST_P(BlockLayoutPropertyTest, LayoutFitsAndDoesNotOverlap) {
  const auto [num_cols, attr_size] = GetParam();
  std::vector<ColumnSpec> specs(num_cols, ColumnSpec{attr_size, false});
  const BlockLayout layout(specs);

  ASSERT_GT(layout.NumSlots(), 0u);
  const uint32_t n = layout.NumSlots();

  // Collect all [start, end) regions and verify 8-byte alignment and
  // disjointness within the 1 MB block.
  std::vector<std::pair<uint32_t, uint32_t>> regions;
  regions.emplace_back(layout.AllocationBitmapOffset(),
                       layout.AllocationBitmapOffset() + common::BitmapSize(n));
  regions.emplace_back(layout.VersionPtrOffset(), layout.VersionPtrOffset() + 8 * n);
  for (uint16_t c = 0; c < num_cols; c++) {
    const col_id_t col(c);
    regions.emplace_back(layout.ColumnBitmapOffset(col),
                         layout.ColumnBitmapOffset(col) + common::BitmapSize(n));
    regions.emplace_back(layout.ColumnValuesOffset(col),
                         layout.ColumnValuesOffset(col) + attr_size * n);
  }
  for (size_t i = 0; i < regions.size(); i++) {
    EXPECT_EQ(regions[i].first % 8, 0u) << "region " << i << " must be 8-byte aligned";
    EXPECT_GE(regions[i].first, BlockLayout::kHeaderSize);
    EXPECT_LE(regions[i].second, kBlockSize) << "region " << i << " exceeds the block";
    for (size_t j = i + 1; j < regions.size(); j++) {
      const bool disjoint =
          regions[i].second <= regions[j].first || regions[j].second <= regions[i].first;
      EXPECT_TRUE(disjoint) << "regions " << i << " and " << j << " overlap";
    }
  }

  // Adding one more slot must not fit (slot count is maximal).
  std::vector<uint32_t> saved;  // recompute footprint for n + 1 conservatively:
  const double per_slot = 8.0 + layout.TupleSize() + (1.0 + num_cols) / 8.0;
  EXPECT_GT((n + 64) * per_slot, static_cast<double>(kBlockSize - BlockLayout::kHeaderSize))
      << "slot count should be near-maximal";
  (void)saved;
}

INSTANTIATE_TEST_SUITE_P(Shapes, BlockLayoutPropertyTest,
                         ::testing::Combine(::testing::Values<uint16_t>(1, 2, 3, 8, 16, 64),
                                            ::testing::Values<uint16_t>(1, 2, 4, 8, 16)));

// ---------------------------------------------------------------------------
// RawConcurrentBitmap.
// ---------------------------------------------------------------------------

TEST(RawBitmapTest, FlipSetTestAndCount) {
  alignas(8) uint8_t backing[64] = {};
  auto *bitmap = common::RawConcurrentBitmap::Interpret(backing);
  bitmap->Clear(512);
  EXPECT_FALSE(bitmap->Test(17));
  EXPECT_TRUE(bitmap->Flip(17, false));
  EXPECT_FALSE(bitmap->Flip(17, false)) << "already set";
  EXPECT_TRUE(bitmap->Test(17));
  bitmap->Set(100, true);
  bitmap->Set(101, true);
  bitmap->Set(101, false);
  EXPECT_EQ(bitmap->CountSet(512), 2u);
  EXPECT_EQ(bitmap->CountSet(64), 1u);  // only bit 17 in the first word
  uint32_t pos;
  ASSERT_TRUE(bitmap->FirstUnsetPos(512, 17, &pos));
  EXPECT_EQ(pos, 18u);
}

TEST(RawBitmapTest, ConcurrentFlipsAreExact) {
  alignas(8) uint8_t backing[1024] = {};
  auto *bitmap = common::RawConcurrentBitmap::Interpret(backing);
  bitmap->Clear(8192);
  std::vector<std::thread> threads;
  std::atomic<uint32_t> wins{0};
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&] {
      for (uint32_t i = 0; i < 8192; i++) {
        if (bitmap->Flip(i, false)) wins.fetch_add(1);
      }
    });
  }
  for (auto &thread : threads) thread.join();
  EXPECT_EQ(wins.load(), 8192u) << "each bit flips exactly once across threads";
  EXPECT_EQ(bitmap->CountSet(8192), 8192u);
}

// ---------------------------------------------------------------------------
// VarlenEntry (Figure 6).
// ---------------------------------------------------------------------------

TEST(VarlenEntryTest, InlineBoundaryAndPrefix) {
  for (uint32_t size = 0; size <= 64; size++) {
    std::string value(size, 'a');
    for (uint32_t i = 0; i < size; i++) value[i] = static_cast<char>('a' + i % 26);
    const VarlenEntry entry = AllocateVarlen(value);
    EXPECT_EQ(entry.Size(), size);
    EXPECT_EQ(entry.IsInlined(), size <= VarlenEntry::kInlineThreshold);
    EXPECT_EQ(entry.NeedReclaim(), size > VarlenEntry::kInlineThreshold);
    EXPECT_EQ(entry.StringView(), value);
    // The prefix always holds the first bytes regardless of inlining.
    const uint32_t prefix_len = std::min(size, VarlenEntry::kPrefixSize);
    EXPECT_EQ(std::memcmp(entry.Prefix(), value.data(), prefix_len), 0);
    if (entry.NeedReclaim()) delete[] entry.Content();
  }
}

TEST(VarlenEntryTest, NonOwningPointerMode) {
  const std::string value = "a value that is definitely long enough";
  const VarlenEntry entry = VarlenEntry::Create(
      reinterpret_cast<const byte *>(value.data()), static_cast<uint32_t>(value.size()),
      false);
  EXPECT_FALSE(entry.NeedReclaim());
  EXPECT_EQ(entry.StringView(), value);
  EXPECT_EQ(entry.Content(), reinterpret_cast<const byte *>(value.data()));
}

// ---------------------------------------------------------------------------
// ProjectedRow: shape, sorting, null bitmap, projection mapping.
// ---------------------------------------------------------------------------

TEST(ProjectedRowTest, SortsColumnsAndAlignsValues) {
  const BlockLayout layout({{8, false}, {2, false}, {4, false}, {16, true}, {1, false}});
  // Deliberately unsorted column list.
  const auto initializer = ProjectedRowInitializer::Create(
      layout, {col_id_t(3), col_id_t(0), col_id_t(4), col_id_t(2)});
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  ProjectedRow *row = initializer.InitializeRow(buffer.data());

  ASSERT_EQ(row->NumColumns(), 4);
  for (uint16_t i = 1; i < row->NumColumns(); i++) {
    EXPECT_LT(row->ColumnIds()[i - 1], row->ColumnIds()[i]) << "ids must be sorted";
  }
  // Values naturally aligned.
  for (uint16_t i = 0; i < row->NumColumns(); i++) {
    const uint16_t size = layout.AttrSize(row->ColumnIds()[i]);
    const auto addr = reinterpret_cast<uintptr_t>(row->AccessForceNotNull(i));
    EXPECT_EQ(addr % std::min<uint16_t>(size, 8), 0u);
  }
  // Projection index lookup.
  EXPECT_EQ(row->ProjectionIndex(col_id_t(0)), 0);
  EXPECT_EQ(row->ProjectionIndex(col_id_t(2)), 1);
  EXPECT_EQ(row->ProjectionIndex(col_id_t(1)), -1) << "column 1 is not projected";

  // Null bitmap starts all-null; force/set/unset works. (Re-initialize: the
  // alignment loop above forced columns non-null.)
  row = initializer.InitializeRow(buffer.data());
  for (uint16_t i = 0; i < row->NumColumns(); i++) EXPECT_TRUE(row->IsNull(i));
  row->AccessForceNotNull(2);
  EXPECT_FALSE(row->IsNull(2));
  row->SetNull(2);
  EXPECT_TRUE(row->IsNull(2));
}

TEST(ProjectedRowTest, CopyLayoutPreservesShape) {
  const BlockLayout layout({{8, false}, {4, false}});
  const auto initializer = ProjectedRowInitializer::CreateFull(layout);
  std::vector<byte> a(initializer.ProjectedRowSize() + 8);
  std::vector<byte> b(initializer.ProjectedRowSize() + 8);
  ProjectedRow *row = initializer.InitializeRow(a.data());
  row->AccessForceNotNull(0);
  ProjectedRow *copy = ProjectedRow::CopyProjectedRowLayout(b.data(), *row);
  EXPECT_EQ(copy->Size(), row->Size());
  EXPECT_EQ(copy->NumColumns(), row->NumColumns());
  EXPECT_TRUE(copy->IsNull(0)) << "values start out null in the copied shape";
}

// ---------------------------------------------------------------------------
// TupleAccessStrategy.
// ---------------------------------------------------------------------------

TEST(TupleAccessStrategyTest, AllocatePublishAndNulls) {
  BlockStore store(10, 10);
  const BlockLayout layout({{8, false}, {4, false}});
  const TupleAccessStrategy accessor(layout);
  RawBlock *block = store.Get();
  accessor.InitializeRawBlock(nullptr, block);

  TupleSlot slot;
  ASSERT_TRUE(accessor.Allocate(block, &slot));
  EXPECT_EQ(slot.GetOffset(), 0u);
  EXPECT_FALSE(accessor.Allocated(slot)) << "allocation bit set only at publish";
  accessor.SetAllocated(slot);
  EXPECT_TRUE(accessor.Allocated(slot));

  EXPECT_EQ(accessor.AccessWithNullCheck(slot, col_id_t(0)), nullptr);
  *reinterpret_cast<int64_t *>(accessor.AccessForceNotNull(slot, col_id_t(0))) = 99;
  EXPECT_NE(accessor.AccessWithNullCheck(slot, col_id_t(0)), nullptr);
  accessor.SetNull(slot, col_id_t(0));
  EXPECT_EQ(accessor.AccessWithNullCheck(slot, col_id_t(0)), nullptr);

  // Exhausting the block.
  uint32_t allocated = 1;
  while (accessor.Allocate(block, &slot)) allocated++;
  EXPECT_EQ(allocated, layout.NumSlots());
  store.Release(block);
}

}  // namespace mainline::storage
