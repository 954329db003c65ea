#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "catalog/catalog.h"
#include "common/rand_util.h"
#include "common/worker_pool.h"
#include "execution/hash_join.h"
#include "execution/operators/hash_join_op.h"
#include "execution/operators/pipeline.h"
#include "workload/tpch/query_runner.h"
#include "workload/tpch/tpch_queries.h"
#include "gc/garbage_collector.h"
#include "storage/block_access_controller.h"
#include "storage/raw_block.h"
#include "storage/storage_util.h"
#include "transform/access_observer.h"
#include "transform/block_transformer.h"
#include "transform/transform_pipeline.h"
#include "workload/row_util.h"
#include "workload/tpch/lineitem.h"
#include "workload/tpch/orders.h"

namespace mainline {

using workload::ExecMode;
using execution::JoinEntry;
using execution::JoinHashTable;
using workload::QueryRunner;
using execution::ScanStats;
using storage::BlockState;
using storage::ProjectedRow;
using transform::GatherMode;
namespace op = execution::op;
namespace q = workload::tpch;
namespace tpch = workload::tpch;

namespace {

/// Build a JoinHashTable straight from per-block entry lists (each in row
/// order), the way HashJoinBuildOp does, over `pool` (inline when null).
JoinHashTable BuildFromBlocks(const std::vector<std::vector<JoinEntry>> &blocks,
                              common::WorkerPool *pool) {
  std::vector<JoinHashTable::BlockEntries> per_block(blocks.size());
  for (size_t b = 0; b < blocks.size(); b++) per_block[b].Assign(blocks[b]);
  return JoinHashTable::Build(std::move(per_block), pool);
}

/// Every entry of `blocks`, block by block in row order, stably sorted by
/// key: each key's run is the match order both layouts promise.
std::vector<JoinEntry> ReferenceMatches(const std::vector<std::vector<JoinEntry>> &blocks) {
  std::vector<JoinEntry> reference;
  for (const std::vector<JoinEntry> &block : blocks) {
    reference.insert(reference.end(), block.begin(), block.end());
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const JoinEntry &a, const JoinEntry &b) { return a.key < b.key; });
  return reference;
}

bool Has(const std::vector<JoinEntry> &reference, int64_t key) {
  const auto it = std::lower_bound(reference.begin(), reference.end(), key,
                                   [](const JoinEntry &e, int64_t k) { return e.key < k; });
  return it != reference.end() && it->key == key;
}

/// `table` holds exactly `reference`: every built key matches its entries in
/// order, and each key in `absent` matches nothing. Messages are built only
/// on failure, so a million keys stay cheap under the sanitizers.
void ExpectHolds(const JoinHashTable &table, const std::vector<JoinEntry> &reference,
                 const std::vector<int64_t> &absent, const std::string &where) {
  ASSERT_EQ(table.NumEntries(), reference.size()) << where;
  std::vector<uint64_t> matches;
  for (size_t begin = 0, end = 0; begin < reference.size(); begin = end) {
    const int64_t key = reference[begin].key;
    matches.clear();
    table.ForEachMatch(key, [&](uint64_t payload) { matches.push_back(payload); });
    bool same = table.Contains(key);
    for (end = begin; end < reference.size() && reference[end].key == key; end++) {
      same = same && end - begin < matches.size() && matches[end - begin] == reference[end].payload;
    }
    if (!same || matches.size() != end - begin) {
      FAIL() << where << ": built key " << key << " has " << matches.size() << " matches, "
             << end - begin << " expected, or they come out of order";
    }
  }
  for (const int64_t key : absent) {
    if (Has(reference, key)) FAIL() << where << ": " << key << " is not absent";
    if (table.Contains(key)) FAIL() << where << ": absent key " << key << " found";
    table.ForEachMatch(key, [&](uint64_t) {
      FAIL() << where << ": absent key " << key << " matched";
    });
  }
}

const char *Name(JoinHashTable::Layout layout) {
  return layout == JoinHashTable::Layout::kDense ? "dense" : "hashed";
}

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

}  // namespace

/// A built key is always found and an absent key never matches, from a
/// one-entry table to a million entries, in both layouts: consecutive keys
/// (dense), the same keys at a stride of 64 (hashed: the span is far over
/// six slots per entry), and random keys with the extremes included
/// (hashed, through the Bloom filters). Absent keys are random, plus each
/// built key's neighbours and the keys just outside [min, max].
TEST(JoinHashTableTest, BloomFilterHasNoFalseNegativesAndAbsentKeysNeverMatch) {
  common::WorkerPool pool(4);
  for (const uint64_t size : {uint64_t{1}, uint64_t{2}, uint64_t{7}, uint64_t{1000},
                              uint64_t{100000}, uint64_t{1} << 20}) {
    for (const char *shape : {"dense", "strided", "random"}) {
      common::Xorshift rng(42 + size);
      std::vector<int64_t> keys;
      if (std::string(shape) == "random") {
        keys = {kMin, kMax, 0, -1, -12345};
        keys.resize(std::min<size_t>(keys.size(), size));
        while (keys.size() < size) keys.push_back(static_cast<int64_t>(rng.Next()));
      } else {
        const int64_t stride = std::string(shape) == "dense" ? 1 : 64;
        for (uint64_t i = 0; i < size; i++) {
          keys.push_back((static_cast<int64_t>(i) - static_cast<int64_t>(size / 2)) * stride);
        }
        std::shuffle(keys.begin(), keys.end(), std::mt19937_64(size));
      }
      std::vector<std::vector<JoinEntry>> blocks(1 + size / 4096);
      for (size_t i = 0; i < keys.size(); i++) {
        blocks[i % blocks.size()].push_back({keys[i], static_cast<uint64_t>(i)});
      }
      const std::vector<JoinEntry> reference = ReferenceMatches(blocks);
      const JoinHashTable table = BuildFromBlocks(blocks, &pool);
      const std::string where = std::string(shape) + " keys, size " + std::to_string(size);
      const bool dense = std::string(shape) == "dense" || size == 1;
      EXPECT_EQ(table.GetLayout(),
                dense ? JoinHashTable::Layout::kDense : JoinHashTable::Layout::kHashed)
          << where;

      std::vector<int64_t> absent;
      const auto add_absent = [&](int64_t key) {
        if (!Has(reference, key)) absent.push_back(key);
      };
      // Unsigned arithmetic, so kMin - 1 wraps to kMax (and kMax + 1 to kMin)
      // without signed overflow.
      add_absent(static_cast<int64_t>(static_cast<uint64_t>(reference.front().key) - 1));
      add_absent(static_cast<int64_t>(static_cast<uint64_t>(reference.back().key) + 1));
      for (size_t i = 0; i < std::min<size_t>(keys.size(), 5000); i++) {
        if (keys[i] != kMax) add_absent(keys[i] + 1);
        if (keys[i] != kMin) add_absent(keys[i] - 1);
      }
      while (absent.size() < 20000) add_absent(static_cast<int64_t>(rng.Next()));
      ExpectHolds(table, reference, absent, where);
    }
  }
}

/// Duplicate keys whose copies span blocks match in block order, in both
/// layouts, at every worker count — checked against a reference list built
/// sequentially by walking the blocks in order, not only parallel against
/// inline. Keys come scattered over every block, or clustered the way
/// frozen blocks keep sequential keys: each block draws from a window that
/// overlaps its neighbours', so a key's copies straddle the dense build's
/// key-range tasks and blocks outside a task's range are skipped.
TEST(JoinHashTableTest, DuplicatesSpanningBlocksMatchInBlockOrderAtAnyWorkerCount) {
  constexpr int64_t kKeys = 3000;
  constexpr size_t kBlocks = 37;
  for (const int64_t stride : {int64_t{1}, int64_t{64}}) {
    for (const bool clustered : {false, true}) {
      common::Xorshift rng(7);
      std::vector<std::vector<JoinEntry>> blocks(kBlocks);
      uint64_t payload = 0;
      for (size_t b = 0; b < kBlocks; b++) {
        const auto window = static_cast<int64_t>(b) * (kKeys / static_cast<int64_t>(kBlocks));
        for (int i = 0; i < 400; i++) {
          const int64_t k = clustered ? window + static_cast<int64_t>(rng.Uniform(0, 160))
                                      : static_cast<int64_t>(rng.Uniform(0, kKeys - 1));
          blocks[b].push_back({(k - kKeys / 2) * stride, payload++});
        }
      }
      const auto reference = ReferenceMatches(blocks);
      std::vector<int64_t> absent;
      for (int64_t k = -kKeys; k < 2 * kKeys; k++) {
        if (!Has(reference, k * stride - 1)) absent.push_back(k * stride - 1);
        if (!Has(reference, k * stride)) absent.push_back(k * stride);
      }
      const auto layout = stride == 1 ? JoinHashTable::Layout::kDense
                                      : JoinHashTable::Layout::kHashed;
      for (const uint32_t workers : {0u, 1u, 2u, 4u, 8u}) {
        common::WorkerPool pool(workers);
        const JoinHashTable table = BuildFromBlocks(blocks, workers == 0 ? nullptr : &pool);
        const std::string where = std::string(Name(layout)) +
                                  (clustered ? " clustered" : " scattered") + " at " +
                                  std::to_string(workers) + " workers";
        ASSERT_EQ(table.GetLayout(), layout) << where;
        ExpectHolds(table, reference, absent, where);
      }
    }
  }
}

/// The layout rule's boundary: N entries whose span (max − min) is 6N − 1
/// build dense, and one more key of span builds hashed — and that hashed
/// table is no smaller than the dense one, the memory-neutral half of the
/// rule. Duplicates count toward N.
TEST(JoinHashTableTest, DenseBelowTheSpanThresholdHashedAtIt) {
  common::WorkerPool pool(4);
  for (const uint64_t n : {uint64_t{2}, uint64_t{10}, uint64_t{5000}}) {
    uint64_t dense_bytes = 0;
    for (const uint64_t span : {JoinHashTable::kDenseSlotsPerEntry * n - 1,
                                JoinHashTable::kDenseSlotsPerEntry * n}) {
      // Keys 100 .. 97 + n, then 100 again, then 100 + span: n entries.
      std::vector<std::vector<JoinEntry>> blocks(3);
      for (uint64_t i = 0; i + 2 < n; i++) {
        blocks[i % 2].push_back({static_cast<int64_t>(100 + i), i});
      }
      blocks[1].push_back({100, n - 2});
      blocks[2].push_back({static_cast<int64_t>(100 + span), n - 1});
      const JoinHashTable table = BuildFromBlocks(blocks, &pool);
      const bool below = span < JoinHashTable::kDenseSlotsPerEntry * n;
      const std::string where = "n=" + std::to_string(n) + " span=" + std::to_string(span);
      ASSERT_EQ(table.GetLayout(),
                below ? JoinHashTable::Layout::kDense : JoinHashTable::Layout::kHashed)
          << where;
      ExpectHolds(table, ReferenceMatches(blocks),
                  {99, static_cast<int64_t>(100 + span - 1), static_cast<int64_t>(101 + span)},
                  where);
      if (below) {
        dense_bytes = table.TableBytes();
      } else {
        EXPECT_GE(table.TableBytes(), dense_bytes) << where;
      }
    }
  }
}

/// The keys at the ends of the int64 range, negative dense keys, and the
/// empty table.
TEST(JoinHashTableTest, ExtremeNegativeAndEmptyBuilds) {
  common::WorkerPool pool(2);
  struct Case {
    const char *name;
    std::vector<std::vector<JoinEntry>> blocks;
    JoinHashTable::Layout layout;
    std::vector<int64_t> absent;
  };
  const std::vector<Case> cases = {
      {"a single entry at INT64_MIN",
       {{{kMin, 7}}},
       JoinHashTable::Layout::kDense,
       {kMin + 1, kMax, 0, -1}},
      {"INT64_MIN and INT64_MAX together (a span of 2^64 - 1)",
       {{{kMax, 1}}, {{kMin, 2}, {kMax, 3}}},
       JoinHashTable::Layout::kHashed,
       {kMin + 1, kMax - 1, 0, -1}},
      {"negative dense keys",
       {{{-1000, 0}, {-998, 1}, {-1000, 2}}, {{-999, 3}, {-995, 4}, {-998, 5}}},
       JoinHashTable::Layout::kDense,
       {-1001, -997, -996, -994, 0, kMin, kMax}},
  };
  for (const Case &c : cases) {
    for (common::WorkerPool *p : {static_cast<common::WorkerPool *>(nullptr), &pool}) {
      const JoinHashTable table = BuildFromBlocks(c.blocks, p);
      ASSERT_EQ(table.GetLayout(), c.layout) << c.name;
      ExpectHolds(table, ReferenceMatches(c.blocks), c.absent, c.name);
    }
  }

  for (const auto &blocks :
       {std::vector<std::vector<JoinEntry>>{}, std::vector<std::vector<JoinEntry>>(5)}) {
    const JoinHashTable table = BuildFromBlocks(blocks, &pool);
    EXPECT_TRUE(table.Empty());
    EXPECT_EQ(table.TableBytes(), 0u);
    ExpectHolds(table, {}, {0, 1, -1, kMin, kMax}, "an empty build");
  }
}

/// Coverage of the morsel-parallel hash join: the JoinHashTable operator
/// itself (duplicates, empty sides, parallel build == inline build) and
/// TPC-H Q12 on top of it — plan == scalar BIT-EXACTLY at every worker
/// count, inline included, over hot, mixed, and frozen tables, and under
/// concurrent writers with the transformation pipeline re-freezing blocks.
class HashJoinTest : public ::testing::TestWithParam<GatherMode> {
 protected:
  HashJoinTest()
      : block_store_(2000, 100),
        buffer_pool_(10000000, 1000),
        catalog_(&block_store_),
        txn_manager_(&buffer_pool_, true, nullptr),
        gc_(&txn_manager_),
        observer_(/*cold_threshold=*/2),
        transformer_(&txn_manager_, &gc_, GetParam()),
        pipeline_(&observer_, &transformer_, /*group_size=*/4) {
    gc_.SetAccessObserver(&observer_);
  }

  ~HashJoinTest() { gc_.SetAccessObserver(nullptr); }

  /// Rows spanning a little over `blocks` lineitem blocks.
  static uint64_t RowsForBlocks(uint64_t blocks) {
    const uint32_t slots = tpch::LineItemSchema().ToBlockLayout().NumSlots();
    return blocks * slots + slots / 2;
  }

  /// LINEITEM plus an ORDERS table sized so that only some lineitems find a
  /// matching order (orderkeys above `rows / 3` dangle) — the join must not
  /// assume a foreign key always resolves.
  void Generate(uint64_t rows) {
    lineitem_ = tpch::GenerateLineItem(&catalog_, &txn_manager_, rows, /*seed=*/7,
                                       /*batch_size=*/4096);
    orders_ = tpch::GenerateOrders(&catalog_, &txn_manager_, rows / 3, /*seed=*/11,
                                   /*batch_size=*/4096);
    gc_.FullGC();
  }

  /// A tiny build-side table for operator-level tests: (key, payload) pairs.
  catalog::SqlTable *MakeBuildTable(const std::string &name,
                                    const std::vector<JoinEntry> &entries) {
    const catalog::Schema schema{{{"key", catalog::TypeId::kBigInt},
                                  {"payload", catalog::TypeId::kBigInt}}};
    catalog::SqlTable *table = catalog_.GetTable(catalog_.CreateTable(name, schema));
    const auto init = table->FullInitializer();
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    for (const JoinEntry &entry : entries) {
      ProjectedRow *row = init.InitializeRow(buffer.data());
      workload::Set<int64_t>(row, 0, entry.key);
      workload::Set<int64_t>(row, 1, static_cast<int64_t>(entry.payload));
      table->Insert(txn, *row);
    }
    txn_manager_.Commit(txn);
    return table;
  }

  /// A JoinHashTable built over a (key, payload) table by a one-pipeline
  /// plan: scan -> HashJoinBuildOp. The plan owns the table.
  struct BuiltTable {
    op::PhysicalPlan plan;
    op::HashJoinBuildOp *build = nullptr;

    const JoinHashTable &Table() const { return build->Table(); }
  };

  /// Build a JoinHashTable from a (key, payload) table over `pool` (inline
  /// when null).
  std::unique_ptr<BuiltTable> Build(catalog::SqlTable *table, common::WorkerPool *pool) {
    auto built = std::make_unique<BuiltTable>();
    op::PipelineBuilder builder(&built->plan);
    builder.Scan(table, {0, 1});
    built->build = builder.JoinBuild(0, op::PayloadSpec::Int64Column(1));
    auto *txn = txn_manager_.BeginTransaction();
    built->plan.Run(txn, pool);
    txn_manager_.Commit(txn);
    return built;
  }

  /// Q12 at `num_threads` against the scalar reference and the inline plan,
  /// all inside ONE transaction so every engine answers from the same
  /// snapshot.
  void ExpectQ12Agrees(uint32_t num_threads, ScanStats *stats_out = nullptr) {
    common::WorkerPool pool(num_threads);
    auto *txn = txn_manager_.BeginTransaction();
    ScanStats par_stats;
    const auto par = q::RunQ12Parallel(orders_, lineitem_, txn, {}, &pool, &par_stats);
    const auto scalar = q::RunQ12Scalar(orders_, lineitem_, txn, {}, nullptr);
    const auto vec = q::RunQ12Parallel(orders_, lineitem_, txn, {}, /*pool=*/nullptr);
    txn_manager_.Commit(txn);

    ASSERT_EQ(par.size(), scalar.size()) << num_threads << " threads";
    for (size_t i = 0; i < par.size(); i++) {
      EXPECT_TRUE(par[i] == scalar[i])
          << "parallel Q12 group " << par[i].shipmode
          << " diverged from the scalar reference at " << num_threads << " threads";
      EXPECT_TRUE(par[i] == vec[i])
          << "parallel Q12 diverged from the inline plan at " << num_threads
          << " threads";
    }
    if (stats_out != nullptr) *stats_out = par_stats;
  }

  storage::BlockStore block_store_;
  storage::RecordBufferSegmentPool buffer_pool_;
  catalog::Catalog catalog_;
  transaction::TransactionManager txn_manager_;
  gc::GarbageCollector gc_;
  transform::AccessObserver observer_;
  transform::BlockTransformer transformer_;
  transform::TransformPipeline pipeline_;
  catalog::SqlTable *lineitem_ = nullptr;
  catalog::SqlTable *orders_ = nullptr;
};

/// Duplicate build keys: every copy must surface on a probe, in the same
/// deterministic order regardless of how the build was parallelized.
TEST_P(HashJoinTest, BuildSideDuplicateKeysAllMatch) {
  std::vector<JoinEntry> entries;
  for (int64_t k = 0; k < 100; k++) {
    for (uint64_t copy = 0; copy < 1 + static_cast<uint64_t>(k % 4); copy++) {
      entries.push_back({k, static_cast<uint64_t>(k) * 10 + copy});
    }
  }
  catalog::SqlTable *table = MakeBuildTable("dups", entries);

  common::WorkerPool pool(4);
  const auto inline_built = Build(table, nullptr);
  const auto parallel_built = Build(table, &pool);
  const JoinHashTable &inline_build = inline_built->Table();
  const JoinHashTable &parallel_build = parallel_built->Table();
  EXPECT_EQ(inline_build.NumEntries(), entries.size());
  EXPECT_EQ(parallel_build.NumEntries(), entries.size());

  for (int64_t k = 0; k < 100; k++) {
    std::vector<uint64_t> inline_matches, parallel_matches;
    inline_build.ForEachMatch(k, [&](uint64_t p) { inline_matches.push_back(p); });
    parallel_build.ForEachMatch(k, [&](uint64_t p) { parallel_matches.push_back(p); });
    ASSERT_EQ(inline_matches.size(), 1 + static_cast<size_t>(k % 4)) << "key " << k;
    EXPECT_EQ(inline_matches, parallel_matches)
        << "parallel build changed the match order for key " << k;
    for (uint64_t copy = 0; copy < inline_matches.size(); copy++) {
      EXPECT_EQ(inline_matches[copy], static_cast<uint64_t>(k) * 10 + copy);
    }
  }
  // Missing keys match nothing.
  parallel_build.ForEachMatch(1000, [](uint64_t) { FAIL() << "matched a missing key"; });
  gc_.FullGC();
}

/// Empty build and probe sides must produce empty (not crashing) joins on
/// every engine.
TEST_P(HashJoinTest, EmptyBuildAndProbeSides) {
  // Operator level: an empty build table.
  catalog::SqlTable *empty = MakeBuildTable("empty", {});
  common::WorkerPool pool(2);
  const auto built = Build(empty, &pool);
  const JoinHashTable &table = built->Table();
  EXPECT_TRUE(table.Empty());
  table.ForEachMatch(0, [](uint64_t) { FAIL() << "empty table produced a match"; });

  // Query level: empty ORDERS (no order ever matches), then empty LINEITEM.
  lineitem_ = tpch::GenerateLineItem(&catalog_, &txn_manager_, 2000, /*seed=*/7, 0);
  orders_ = tpch::GenerateOrders(&catalog_, &txn_manager_, 0);
  gc_.FullGC();
  const auto each_engine = [&](const auto &check) {
    for (const uint32_t threads : {1u, 2u}) {
      QueryRunner runner(&txn_manager_, threads);
      for (const ExecMode mode : {ExecMode::kPlan, ExecMode::kScalar}) check(&runner, mode);
    }
  };
  const auto expect_empty = [&](const q::Tables &tables) {
    each_engine([&](QueryRunner *runner, ExecMode mode) {
      EXPECT_TRUE(runner->Run(q::Query::kQ12, tables, mode).answer ==
                  q::Answer(std::vector<q::Q12Row>{}));
    });
  };
  expect_empty({.lineitem = lineitem_, .orders = orders_});

  catalog::SqlTable *no_lines =
      catalog_.GetTable(catalog_.CreateTable("lineitem_empty", tpch::LineItemSchema()));
  catalog::SqlTable *some_orders =
      tpch::GenerateOrders(&catalog_, &txn_manager_, 500, 11, 0, "orders_filled");
  gc_.FullGC();
  expect_empty({.lineitem = no_lines, .orders = some_orders});
  gc_.FullGC();
}

/// A duplicated build side must exactly double every join count — checked
/// through full Q12 so duplicates flow through probe and aggregation too.
TEST_P(HashJoinTest, DuplicateOrdersDoubleTheCounts) {
  const uint64_t rows = 4000;
  lineitem_ = tpch::GenerateLineItem(&catalog_, &txn_manager_, rows, /*seed=*/7, 0);
  orders_ = tpch::GenerateOrders(&catalog_, &txn_manager_, rows / 3, /*seed=*/11, 0);
  gc_.FullGC();

  // Clone ORDERS with every row twice (same generator stream, two passes).
  catalog::SqlTable *doubled =
      catalog_.GetTable(catalog_.CreateTable("orders_doubled", tpch::OrdersSchema()));
  {
    const auto read_init = orders_->FullInitializer();
    std::vector<byte> buffer(read_init.ProjectedRowSize() + 8);
    auto *txn = txn_manager_.BeginTransaction();
    for (int pass = 0; pass < 2; pass++) {
      for (auto it = orders_->begin(); !it.Done(); ++it) {
        ProjectedRow *row = read_init.InitializeRow(buffer.data());
        if (!orders_->Select(txn, *it, row)) continue;
        // Re-own the varlen values: Insert stores the entry verbatim, and two
        // tables must not share one owned buffer.
        storage::StorageUtil::DeepCopyVarlens(doubled->UnderlyingTable().GetLayout(), row);
        doubled->Insert(txn, *row);
      }
    }
    txn_manager_.Commit(txn);
  }
  gc_.FullGC();

  QueryRunner runner(&txn_manager_, 4);
  const q::Tables doubled_tables{.lineitem = lineitem_, .orders = doubled};
  const auto once_answer = runner.Run(q::Query::kQ12, {.lineitem = lineitem_, .orders = orders_});
  const auto twice_answer = runner.Run(q::Query::kQ12, doubled_tables);
  EXPECT_TRUE(twice_answer.answer ==
              runner.Run(q::Query::kQ12, doubled_tables, ExecMode::kScalar).answer);
  const auto &once = std::get<std::vector<q::Q12Row>>(once_answer.answer);
  const auto &twice = std::get<std::vector<q::Q12Row>>(twice_answer.answer);
  ASSERT_FALSE(once.empty());
  ASSERT_EQ(once.size(), twice.size());
  for (size_t i = 0; i < once.size(); i++) {
    EXPECT_EQ(twice[i].shipmode, once[i].shipmode);
    EXPECT_EQ(twice[i].high_line_count, 2 * once[i].high_line_count);
    EXPECT_EQ(twice[i].low_line_count, 2 * once[i].low_line_count);
  }
  gc_.FullGC();
}

/// The headline agreement matrix: hot, ~50% frozen, and fully frozen tables
/// at 1/2/4 workers — every engine bit-exact, both access paths exercised
/// where the freeze state implies them.
TEST_P(HashJoinTest, MatchesScalarAcrossFreezeStatesAndThreadCounts) {
  Generate(RowsForBlocks(2));
  storage::DataTable &lines = lineitem_->UnderlyingTable();
  storage::DataTable &ords = orders_->UnderlyingTable();
  ASSERT_GT(lines.NumBlocks(), 2u);

  // 0% frozen: every morsel of both scans materializes.
  ScanStats stats;
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    ExpectQ12Agrees(threads, &stats);
    EXPECT_EQ(stats.frozen_blocks, 0u);
    EXPECT_GT(stats.hot_blocks, 0u);
  }

  // ~50% frozen (both tables): morsels mix zero-copy and materialization.
  for (storage::DataTable *dt : {&lines, &ords}) {
    const std::vector<storage::RawBlock *> blocks = dt->Blocks();
    for (size_t i = 0; i < blocks.size() / 2; i++) {
      transformer_.ProcessGroup(dt, {blocks[i]}, nullptr);
    }
  }
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    ExpectQ12Agrees(threads, &stats);
    EXPECT_GT(stats.frozen_blocks, 0u);
    EXPECT_GT(stats.hot_blocks, 0u);
  }

  // 100% frozen: the build side reads dictionary-or-gathered varlens in
  // place, the probe side streams zero-copy batches.
  for (storage::DataTable *dt : {&lines, &ords}) {
    pipeline_.EnqueueTable(dt);
    pipeline_.RunOnce();
    for (storage::RawBlock *block : dt->Blocks()) {
      ASSERT_EQ(block->controller.GetState(), BlockState::kFrozen);
    }
  }
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    ExpectQ12Agrees(threads, &stats);
    EXPECT_GT(stats.frozen_blocks, 0u);
    EXPECT_EQ(stats.hot_blocks, 0u);
  }
  gc_.FullGC();
}

/// QueryRunner wiring: the plan inline and on two threads agrees with the
/// scalar mode, and stats cover both scans.
TEST_P(HashJoinTest, QueryRunnerRunsQ12InAllModes) {
  Generate(RowsForBlocks(1));
  pipeline_.EnqueueTable(&lineitem_->UnderlyingTable());
  pipeline_.RunOnce();

  QueryRunner runner(&txn_manager_, /*num_threads=*/1);
  QueryRunner parallel(&txn_manager_, /*num_threads=*/2);
  const q::Tables tables{.lineitem = lineitem_, .orders = orders_};
  const auto vec = runner.Run(q::Query::kQ12, tables);
  const auto scalar = runner.Run(q::Query::kQ12, tables, ExecMode::kScalar);
  const auto par = parallel.Run(q::Query::kQ12, tables);
  EXPECT_TRUE(vec.answer == scalar.answer);
  EXPECT_TRUE(par.answer == scalar.answer);
  // Two ship modes, counts bounded by qualifying lineitems.
  const auto &rows = std::get<std::vector<q::Q12Row>>(vec.answer);
  ASSERT_FALSE(rows.empty());
  EXPECT_LE(rows.size(), 2u);
  // The stats span every scan of the plan: LINEITEM for the semi-join key
  // set, ORDERS for the reduced build, and LINEITEM again for the probe.
  uint64_t line_rows = 0, order_rows = 0;
  auto *txn = txn_manager_.BeginTransaction();
  const auto count_rows = [&](catalog::SqlTable *table) {
    const auto init = table->InitializerForColumns({0});
    std::vector<byte> buffer(init.ProjectedRowSize() + 8);
    uint64_t n = 0;
    for (auto it = table->begin(); !it.Done(); ++it) {
      if (table->Select(txn, *it, init.InitializeRow(buffer.data()))) n++;
    }
    return n;
  };
  line_rows = count_rows(lineitem_);
  order_rows = count_rows(orders_);
  txn_manager_.Commit(txn);
  EXPECT_EQ(vec.stats.rows, 2 * line_rows + order_rows);
  gc_.FullGC();
}

/// Q12's semi-join reduction: over hot and over frozen tables the ORDERS
/// build holds exactly the ORDERS rows whose key occurs among the qualifying
/// LINEITEM rows' keys — counted here by a Select loop applying Q12's
/// predicates.
TEST_P(HashJoinTest, Q12BuildsOnlyTheOrdersAQualifyingLineitemReaches) {
  Generate(RowsForBlocks(2));
  const q::Q12Params params;

  const auto expected_build_rows = [&] {
    auto *txn = txn_manager_.BeginTransaction();
    std::vector<int64_t> keys;
    const auto line_init = lineitem_->InitializerForColumns(
        {tpch::L_ORDERKEY, tpch::L_SHIPDATE, tpch::L_COMMITDATE, tpch::L_RECEIPTDATE,
         tpch::L_SHIPMODE});
    std::vector<byte> buffer(line_init.ProjectedRowSize() + 8);
    for (auto it = lineitem_->begin(); !it.Done(); ++it) {
      ProjectedRow *row = line_init.InitializeRow(buffer.data());
      if (!lineitem_->Select(txn, *it, row)) continue;
      const auto receipt = workload::Get<uint32_t>(*row, 3);
      const auto commit = workload::Get<uint32_t>(*row, 2);
      const std::string_view mode = workload::GetVarchar(*row, 4);
      if (receipt < params.receiptdate_min || receipt >= params.receiptdate_max ||
          commit >= receipt || workload::Get<uint32_t>(*row, 1) >= commit ||
          (mode != params.shipmode_a && mode != params.shipmode_b)) {
        continue;
      }
      keys.push_back(workload::Get<int64_t>(*row, 0));
    }
    std::sort(keys.begin(), keys.end());
    const auto order_init = orders_->InitializerForColumns({tpch::O_ORDERKEY});
    std::vector<byte> order_buffer(order_init.ProjectedRowSize() + 8);
    uint64_t reached = 0, order_rows = 0;
    for (auto it = orders_->begin(); !it.Done(); ++it) {
      ProjectedRow *row = order_init.InitializeRow(order_buffer.data());
      if (!orders_->Select(txn, *it, row)) continue;
      order_rows++;
      reached += std::binary_search(keys.begin(), keys.end(), workload::Get<int64_t>(*row, 0));
    }
    txn_manager_.Commit(txn);
    EXPECT_GT(reached, 0u);
    EXPECT_LT(reached, order_rows) << "the reduction should drop some orders";
    return std::pair{reached, order_rows};
  };

  const auto check = [&](const char *label) {
    const auto [reached, order_rows] = expected_build_rows();
    common::WorkerPool pool(2);
    op::PlanProfile profile;
    auto *txn = txn_manager_.BeginTransaction();
    const std::vector<q::Q12Row> rows =
        q::RunQ12Parallel(orders_, lineitem_, txn, params, &pool, nullptr, &profile);
    txn_manager_.Commit(txn);
    ASSERT_FALSE(rows.empty());
    ASSERT_EQ(profile.pipelines.size(), 3u) << label;
    const std::vector<op::OperatorProfile> &orders_ops = profile.pipelines[1].operators;
    ASSERT_EQ(orders_ops.size(), 2u) << label;
    EXPECT_EQ(orders_ops.front().label, "HashJoinProbe");
    EXPECT_EQ(orders_ops.front().rows_in, order_rows) << label;
    EXPECT_EQ(orders_ops.back().label, "HashJoinBuild");
    EXPECT_EQ(orders_ops.back().rows_in, reached)
        << label << ": the ORDERS build must hold exactly the reachable orders";
  };
  check("hot");
  for (storage::DataTable *dt : {&lineitem_->UnderlyingTable(), &orders_->UnderlyingTable()}) {
    pipeline_.EnqueueTable(dt);
  }
  pipeline_.RunOnce();
  check("frozen");
  gc_.FullGC();
}

/// The concurrency scenario: Q12 runs on four scan workers while (a) a
/// writer updates ship modes, deletes, and re-inserts lineitems — re-heating
/// frozen blocks under both scans — and (b) the transformation pipeline
/// keeps re-freezing whatever cools down. Every iteration compares the
/// parallel join against the scalar reference inside the SAME transaction:
/// any MVCC violation on either side of the join shows up as a divergence.
/// The writer now and then waits for its block to re-freeze before writing
/// again, so blocks also change state between the plan's two LINEITEM scans
/// (semi-join key set, then probe), which must still agree on one snapshot.
TEST_P(HashJoinTest, Q12ParallelStaysConsistentUnderConcurrentWritesAndTransform) {
  Generate(RowsForBlocks(1));
  storage::DataTable &lines = lineitem_->UnderlyingTable();
  storage::DataTable &ords = orders_->UnderlyingTable();

  for (storage::DataTable *dt : {&lines, &ords}) {
    pipeline_.EnqueueTable(dt);
  }
  pipeline_.RunOnce();

  std::atomic<bool> stop{false};

  // The transform thread owns the GC for the duration (single-consumer).
  std::thread transform_thread([&] {
    while (!stop.load(std::memory_order_acquire)) {
      pipeline_.EnqueueTable(&lines);
      pipeline_.EnqueueTable(&ords);
      pipeline_.RunOnce();
      gc_.PerformGarbageCollection();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread writer([&] {
    common::Xorshift rng(123);
    static const char *kModes[] = {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"};
    const auto update_init = lineitem_->InitializerForColumns({tpch::L_SHIPMODE});
    std::vector<byte> update_buf(update_init.ProjectedRowSize() + 8);
    while (!stop.load(std::memory_order_acquire)) {
      auto *txn = txn_manager_.BeginTransaction();
      bool ok = true;
      uint32_t visited = 0;
      for (auto it = lineitem_->begin(); !it.Done() && visited < 150 && ok; ++it, ++visited) {
        const uint64_t dice = rng.Uniform(0, 39);
        if (dice == 0) {
          ok = lineitem_->Delete(txn, *it);
        } else if (dice < 8) {
          // Flip the ship mode — the join's group-by column and one of its
          // filters, so writer visibility errors cannot hide.
          ProjectedRow *delta = update_init.InitializeRow(update_buf.data());
          workload::SetVarchar(delta, 0, kModes[rng.Uniform(0, 6)]);
          ok = lineitem_->Update(txn, *it, *delta);
        }
      }
      if (ok) {
        txn_manager_.Commit(txn);
      } else {
        txn_manager_.Abort(txn);
      }
      // One round in four, wait for the transform thread to re-freeze the
      // written block (at most 500 ms, for slow sanitizer builds); a frozen
      // block then stays frozen a few ms before the next write heats it.
      const bool wait_for_freeze = rng.Uniform(0, 3) == 0;
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
      const auto written_block_frozen = [&] {
        return lines.Blocks().front()->controller.GetState() == storage::BlockState::kFrozen;
      };
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      while (wait_for_freeze && !written_block_frozen() &&
             std::chrono::steady_clock::now() < give_up && !stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (written_block_frozen()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(rng.Uniform(5, 40)));
      }
    }
  });

  common::WorkerPool pool(4);
  ScanStats aggregate;
  int iterations = 0;
  int changed_mid_plan = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (iterations < 25 ||
         ((aggregate.frozen_blocks == 0 || aggregate.hot_blocks == 0 || changed_mid_plan == 0) &&
          std::chrono::steady_clock::now() < deadline)) {
    auto *txn = txn_manager_.BeginTransaction();
    ScanStats stats;
    op::PlanProfile profile;
    const auto parallel = q::RunQ12Parallel(orders_, lineitem_, txn, {}, &pool, &stats, &profile);
    const auto scalar = q::RunQ12Scalar(orders_, lineitem_, txn, {}, nullptr);
    EXPECT_TRUE(parallel == scalar)
        << "parallel Q12 diverged from the scalar reference in the same snapshot "
        << "(iteration " << iterations << ")";
    EXPECT_EQ(profile.pipelines.size(), 3u);
    changed_mid_plan +=
        profile.pipelines.size() == 3 &&
        profile.pipelines[0].scan.frozen_blocks != profile.pipelines[2].scan.frozen_blocks;
    txn_manager_.Commit(txn);
    aggregate.Add(stats);
    iterations++;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  transform_thread.join();

  // Both access paths must actually have been exercised across the run.
  EXPECT_GT(aggregate.frozen_blocks, 0u) << "no morsel ever took the zero-copy path";
  EXPECT_GT(aggregate.hot_blocks, 0u) << "no morsel ever took the materialization path";
  EXPECT_GT(changed_mid_plan, 0)
      << "no block ever changed state between one plan's two LINEITEM scans";
  gc_.FullGC();
}

INSTANTIATE_TEST_SUITE_P(Modes, HashJoinTest,
                         ::testing::Values(GatherMode::kVarlenGather,
                                           GatherMode::kDictionaryCompression),
                         [](const auto &info) {
                           return info.param == GatherMode::kVarlenGather ? "Gather"
                                                                          : "Dictionary";
                         });

}  // namespace mainline
