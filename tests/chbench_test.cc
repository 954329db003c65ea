#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "catalog/catalog.h"
#include "gc/garbage_collector.h"
#include "metrics/metrics_registry.h"
#include "storage/raw_block.h"
#include "storage/record_buffer.h"
#include "transaction/transaction_manager.h"
#include "workload/chbench/chbench_harness.h"

namespace mainline {

using workload::chbench::ChBenchHarness;
using workload::chbench::Config;
using workload::chbench::Result;

/// End-to-end coverage of the CH-benCHmark HTAP harness at a tiny scale:
/// terminals, the fresh-order feed, concurrent Q1/Q6/Q12/Q14, the background
/// transform pipeline, and — the load-bearing assertion — every sampled
/// analytical answer bit-exact against its scalar oracle in the same
/// snapshot while all of that runs.
class ChBenchTest : public ::testing::Test {
 protected:
  ChBenchTest()
      : block_store_(60000, 1000),
        buffer_pool_(0, 10000),
        catalog_(&block_store_),
        txn_manager_(&buffer_pool_, true, nullptr),
        gc_(&txn_manager_) {}

  static Config TinyConfig() {
    Config config;
    config.terminals = 2;
    config.query_workers = 2;
    config.duration_seconds = 1.0;
    config.tpcc_scale = workload::tpcc::Config::Scaled(500, 50);
    config.lineitem_rows = 20000;
    config.part_rows = 1000;
    config.feed_rows_per_txn = 8;
    config.oracle_every = 1;  // cross-check every sampled run
    return config;
  }

  void ExpectWindowIsSound(const Result &result) {
    // The window did OLTP work and fed the fact tables.
    EXPECT_GT(result.seconds, 0.0);
    EXPECT_GT(result.tpcc_committed, 0u);
    EXPECT_GT(result.txns_per_second, 0.0);
    EXPECT_GT(result.feed_txns, 0u);
    EXPECT_GT(result.feed_rows, 0u);
    EXPECT_EQ(result.feed_rows, result.feed_txns * TinyConfig().feed_rows_per_txn);

    // Analytics ran against the moving tables, and with oracle_every=1 every
    // run was cross-checked — all of them bit-exact.
    ASSERT_EQ(result.queries.size(), 4u);
    uint64_t total_runs = 0;
    for (const auto &query : result.queries) {
      total_runs += query.runs;
      EXPECT_EQ(query.oracle_checks, query.runs) << query.name;
      EXPECT_EQ(query.oracle_mismatches, 0u) << query.name;
    }
    EXPECT_GT(total_runs, 0u);
    EXPECT_GT(result.oracle_checks, 0u);
    EXPECT_EQ(result.oracle_checks, total_runs);
    EXPECT_TRUE(result.BitExact());

    // The background pipeline made progress: passes happened and the
    // bulk-loaded analytical blocks reached the frozen state.
    EXPECT_GT(result.transform_passes, 0u);
    EXPECT_GT(result.blocks_frozen, 0u);
    EXPECT_GT(result.frozen_pct, 0.0);
  }

  /// Run one window and check it is sound, and that each query's latency
  /// histogram in the window's metrics delta counted exactly its runs.
  Result RunSoundWindow(ChBenchHarness *harness) {
    metrics::MetricsRegistry &registry = metrics::MetricsRegistry::Global();
    const metrics::MetricsSnapshot before = registry.Snapshot();
    const Result result = harness->Run();
    const metrics::MetricsSnapshot delta = registry.Snapshot().Delta(before);
    ExpectWindowIsSound(result);
    const char *const names[] = {"q1", "q6", "q12", "q14"};
    for (size_t q = 0; q < result.queries.size(); q++) {
      EXPECT_EQ(result.queries[q].name, names[q]);
      if (!registry.Enabled()) continue;  // MAINLINE_METRICS=0 disables collection
      const std::string histogram = std::string("chbench.") + names[q] + "_us";
      const auto found = delta.histograms.find(histogram);
      EXPECT_TRUE(found != delta.histograms.end()) << histogram;
      if (found == delta.histograms.end()) continue;
      EXPECT_EQ(found->second.total, result.queries[q].runs) << histogram;
    }
    return result;
  }

  storage::BlockStore block_store_;
  storage::RecordBufferSegmentPool buffer_pool_;
  catalog::Catalog catalog_;
  transaction::TransactionManager txn_manager_;
  gc::GarbageCollector gc_;
};

TEST_F(ChBenchTest, AdaptiveWindowIsBitExactUnderConcurrency) {
  Config config = TinyConfig();
  ChBenchHarness harness(&catalog_, &txn_manager_, &gc_, config);
  harness.Setup();
  const Result result = RunSoundWindow(&harness);

  // The controller's last word stays inside its configured band.
  EXPECT_GE(result.final_period, config.policy.min_period);
  EXPECT_LE(result.final_period, config.policy.max_period);
}

TEST_F(ChBenchTest, FixedCadenceWindowIsBitExactUnderConcurrency) {
  Config config = TinyConfig();
  config.policy = transform::FreezePolicy::Config::Pinned(std::chrono::milliseconds(5));
  ChBenchHarness harness(&catalog_, &txn_manager_, &gc_, config);
  harness.Setup();
  const Result result = RunSoundWindow(&harness);
  EXPECT_EQ(result.final_period, std::chrono::milliseconds(5));
}

TEST_F(ChBenchTest, SetupRaisesWarehousesToTerminalCountAndFeedKeysDontCollide) {
  Config config = TinyConfig();
  config.terminals = 3;
  config.tpcc_scale.num_warehouses = 1;  // Setup must raise this to 3
  ChBenchHarness harness(&catalog_, &txn_manager_, &gc_, config);
  harness.Setup();
  EXPECT_GE(harness.Db()->config.num_warehouses, 3);
  ASSERT_NE(harness.LineItem(), nullptr);
  ASSERT_NE(harness.OrdersTable(), nullptr);
  ASSERT_NE(harness.PartTable(), nullptr);
}

}  // namespace mainline
