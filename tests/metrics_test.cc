#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/worker_pool.h"
#include "workload/tpch/query_runner.h"
#include "workload/tpch/tpch_queries.h"
#include "gc/garbage_collector.h"
#include "metrics/engine_metrics.h"
#include "metrics/metrics_registry.h"
#include "transform/access_observer.h"
#include "transform/block_transformer.h"
#include "transform/transform_pipeline.h"
#include "workload/tpch/customer.h"
#include "workload/tpch/lineitem.h"
#include "workload/tpch/orders.h"

namespace mainline {

using workload::QueryRunner;
using metrics::Counter;
using metrics::Gauge;
using metrics::Histogram;
using metrics::HistogramData;
using metrics::MetricsRegistry;
using metrics::MetricsSnapshot;
using storage::BlockState;
using transform::GatherMode;
namespace op = execution::op;
namespace tpch = workload::tpch;

/// Unit coverage of the sharded metrics primitives against a private
/// registry: the concurrent hammer must land exactly on the serial sum, the
/// snapshot/delta algebra must hold, and histogram bucketing must respect
/// its inclusive upper bounds.
TEST(MetricsRegistryTest, ConcurrentCounterHammerEqualsSerialSum) {
  MetricsRegistry registry(true);
  Counter *counter = registry.RegisterCounter("test.hammer");

  constexpr uint32_t kThreads = 8;
  constexpr uint64_t kAddsPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; t++) {
    threads.emplace_back([counter, t] {
      for (uint64_t i = 0; i < kAddsPerThread; i++) counter->Add(1 + t % 3);
    });
  }
  for (std::thread &thread : threads) thread.join();

  uint64_t expected = 0;
  for (uint32_t t = 0; t < kThreads; t++) expected += kAddsPerThread * (1 + t % 3);
  EXPECT_EQ(counter->Value(), expected);
  EXPECT_EQ(registry.Snapshot().counters.at("test.hammer"), expected);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotentByName) {
  MetricsRegistry registry(true);
  Counter *a = registry.RegisterCounter("test.once");
  Counter *b = registry.RegisterCounter("test.once");
  EXPECT_EQ(a, b);
  a->Add(2);
  b->Add(3);
  EXPECT_EQ(a->Value(), 5u);

  Gauge *g1 = registry.RegisterGauge("test.gauge");
  EXPECT_EQ(g1, registry.RegisterGauge("test.gauge"));

  Histogram *h1 = registry.RegisterHistogram("test.hist", {10, 20});
  // Re-registration returns the existing handle; the first bounds stand.
  Histogram *h2 = registry.RegisterHistogram("test.hist", {999});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->Bounds().size(), 2u);
}

TEST(MetricsRegistryTest, DisabledRegistryDropsUpdates) {
  MetricsRegistry registry(false);
  EXPECT_FALSE(registry.Enabled());
  Counter *counter = registry.RegisterCounter("test.off");
  Gauge *gauge = registry.RegisterGauge("test.off_gauge");
  Histogram *hist = registry.RegisterHistogram("test.off_hist", {100});

  counter->Add(7);
  gauge->Set(7);
  hist->Observe(7);
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(gauge->Value(), 0);
  EXPECT_EQ(hist->Value().total, 0u);

  // Handles stay valid across re-enable; updates start counting again.
  registry.SetEnabled(true);
  counter->Add(7);
  gauge->Add(-3);
  hist->Observe(7);
  EXPECT_EQ(counter->Value(), 7u);
  EXPECT_EQ(gauge->Value(), -3);
  EXPECT_EQ(hist->Value().total, 1u);
}

TEST(MetricsRegistryTest, HistogramBucketBoundariesAreInclusive) {
  MetricsRegistry registry(true);
  Histogram *hist = registry.RegisterHistogram("test.bounds", {10, 100, 1000});

  // On, below, and above each inclusive upper bound.
  for (const uint64_t value : {0ull, 10ull, 11ull, 100ull, 101ull, 1000ull, 1001ull, 50000ull}) {
    hist->Observe(value);
  }

  const HistogramData data = hist->Value();
  ASSERT_EQ(data.bounds.size(), 3u);
  ASSERT_EQ(data.counts.size(), 4u);  // three buckets + overflow
  EXPECT_EQ(data.counts[0], 2u);      // 0, 10
  EXPECT_EQ(data.counts[1], 2u);      // 11, 100
  EXPECT_EQ(data.counts[2], 2u);      // 101, 1000
  EXPECT_EQ(data.counts[3], 2u);      // 1001, 50000 overflow
  EXPECT_EQ(data.total, 8u);
  EXPECT_EQ(data.sum, 0u + 10 + 11 + 100 + 101 + 1000 + 1001 + 50000);
}

/// ValueAtQuantile against hand-computed oracles. The documented rule: rank
/// = ceil(q * total) clamped to [1, total]; the answer interpolates linearly
/// inside the winning bucket between its exclusive lower bound (previous
/// bound, or 0) and its inclusive upper bound by the fraction of the
/// bucket's count the rank consumes.
TEST(MetricsRegistryTest, ValueAtQuantileSingleBucketInterpolates) {
  MetricsRegistry registry(true);
  Histogram *hist = registry.RegisterHistogram("test.q_single", {100});
  for (int i = 0; i < 4; i++) hist->Observe(50);

  const HistogramData data = hist->Value();
  // rank = ceil(q*4): 1, 2, 3, 4 -> fractions 1/4 .. 4/4 of the [0, 100] bucket.
  EXPECT_DOUBLE_EQ(data.ValueAtQuantile(0.25), 25.0);
  EXPECT_DOUBLE_EQ(data.ValueAtQuantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(data.ValueAtQuantile(0.75), 75.0);
  EXPECT_DOUBLE_EQ(data.ValueAtQuantile(1.0), 100.0);
  // Out-of-range q clamps: below 0 behaves like the minimum rank, above 1
  // like the maximum.
  EXPECT_DOUBLE_EQ(data.ValueAtQuantile(-3.0), 25.0);
  EXPECT_DOUBLE_EQ(data.ValueAtQuantile(7.0), 100.0);
}

TEST(MetricsRegistryTest, ValueAtQuantileWalksBuckets) {
  MetricsRegistry registry(true);
  // Uniform 1..100 against quartile bounds: every in-range quantile answer
  // must land exactly on the true percentile of the underlying stream.
  Histogram *hist = registry.RegisterHistogram("test.q_uniform", {25, 50, 75, 100});
  for (uint64_t v = 1; v <= 100; v++) hist->Observe(v);

  const HistogramData data = hist->Value();
  EXPECT_DOUBLE_EQ(data.ValueAtQuantile(0.01), 1.0);
  EXPECT_DOUBLE_EQ(data.ValueAtQuantile(0.25), 25.0);
  EXPECT_DOUBLE_EQ(data.ValueAtQuantile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(data.ValueAtQuantile(0.62), 62.0);
  EXPECT_DOUBLE_EQ(data.ValueAtQuantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(data.ValueAtQuantile(0.99), 99.0);
}

TEST(MetricsRegistryTest, ValueAtQuantileEdgeCases) {
  MetricsRegistry registry(true);
  // Empty histogram: no rank to find, answer is 0.
  Histogram *empty = registry.RegisterHistogram("test.q_empty", {10, 20});
  EXPECT_DOUBLE_EQ(empty->Value().ValueAtQuantile(0.5), 0.0);

  // Observations past the last bound land in the unbounded overflow bucket;
  // the reported quantile saturates at the last finite bound rather than
  // inventing an upper edge.
  Histogram *overflow = registry.RegisterHistogram("test.q_overflow", {10});
  overflow->Observe(50);
  overflow->Observe(60);
  EXPECT_DOUBLE_EQ(overflow->Value().ValueAtQuantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(overflow->Value().ValueAtQuantile(1.0), 10.0);

  // Snapshot-level lookup: present name resolves through the same rule,
  // absent name answers 0.
  Histogram *named = registry.RegisterHistogram("test.q_named", {100});
  named->Observe(1);
  named->Observe(1);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.ValueAtQuantile("test.q_named", 0.5), 50.0);
  EXPECT_DOUBLE_EQ(snapshot.ValueAtQuantile("test.q_missing", 0.5), 0.0);
}

TEST(MetricsRegistryTest, ConcurrentHistogramMatchesSerialTotals) {
  MetricsRegistry registry(true);
  Histogram *hist = registry.RegisterHistogram("test.conc_hist", {4, 16});

  constexpr uint32_t kThreads = 8;
  constexpr uint64_t kObsPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; t++) {
    threads.emplace_back([hist] {
      for (uint64_t i = 0; i < kObsPerThread; i++) hist->Observe(i % 32);
    });
  }
  for (std::thread &thread : threads) thread.join();

  // Serial oracle over the same value stream, once.
  uint64_t expect_counts[3] = {0, 0, 0};
  uint64_t expect_sum = 0;
  for (uint64_t i = 0; i < kObsPerThread; i++) {
    const uint64_t value = i % 32;
    expect_counts[value <= 4 ? 0 : value <= 16 ? 1 : 2]++;
    expect_sum += value;
  }

  const HistogramData data = hist->Value();
  ASSERT_EQ(data.counts.size(), 3u);
  EXPECT_EQ(data.counts[0], expect_counts[0] * kThreads);
  EXPECT_EQ(data.counts[1], expect_counts[1] * kThreads);
  EXPECT_EQ(data.counts[2], expect_counts[2] * kThreads);
  EXPECT_EQ(data.total, kObsPerThread * kThreads);
  EXPECT_EQ(data.sum, expect_sum * kThreads);
}

TEST(MetricsRegistryTest, SnapshotDeltaSemantics) {
  MetricsRegistry registry(true);
  Counter *counter = registry.RegisterCounter("test.delta_counter");
  Gauge *gauge = registry.RegisterGauge("test.delta_gauge");
  Histogram *hist = registry.RegisterHistogram("test.delta_hist", {10});

  counter->Add(5);
  gauge->Set(100);
  hist->Observe(3);
  hist->Observe(30);
  const MetricsSnapshot before = registry.Snapshot();

  counter->Add(7);
  gauge->Set(42);
  hist->Observe(4);
  Counter *late = registry.RegisterCounter("test.delta_late");
  late->Add(9);
  const MetricsSnapshot after = registry.Snapshot();

  const MetricsSnapshot delta = after.Delta(before);
  // Counters subtract; names missing from the earlier snapshot count from 0.
  EXPECT_EQ(delta.counters.at("test.delta_counter"), 7u);
  EXPECT_EQ(delta.counters.at("test.delta_late"), 9u);
  // Gauges are instantaneous: the later reading stands.
  EXPECT_EQ(delta.gauges.at("test.delta_gauge"), 42);
  // Histogram buckets and sums subtract.
  const HistogramData &hist_delta = delta.histograms.at("test.delta_hist");
  ASSERT_EQ(hist_delta.counts.size(), 2u);
  EXPECT_EQ(hist_delta.counts[0], 1u);  // the new Observe(4)
  EXPECT_EQ(hist_delta.counts[1], 0u);
  EXPECT_EQ(hist_delta.total, 1u);
  EXPECT_EQ(hist_delta.sum, 4u);
}

TEST(MetricsRegistryTest, ToJsonIsDeterministicAndWellFormed) {
  MetricsRegistry registry(true);
  registry.RegisterCounter("b.counter")->Add(2);
  registry.RegisterCounter("a.counter")->Add(1);
  registry.RegisterGauge("z.gauge")->Set(-5);
  registry.RegisterHistogram("m.hist", {10, 20})->Observe(15);

  const std::string json = registry.Snapshot().ToJson();
  EXPECT_EQ(json, registry.Snapshot().ToJson());  // stable across snapshots
  // std::map keys render in sorted order.
  EXPECT_LT(json.find("\"a.counter\":1"), json.find("\"b.counter\":2"));
  EXPECT_NE(json.find("\"gauges\":{\"z.gauge\":-5}"), std::string::npos);
  EXPECT_NE(
      json.find("\"m.hist\":{\"bounds\":[10,20],\"counts\":[0,1,0],\"total\":1,\"sum\":15}"),
      std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

/// The engine's well-known handles resolve against the global registry and
/// land in its snapshot under their dotted names.
TEST(MetricsRegistryTest, EngineHandlesResolveInGlobalRegistry) {
  // Touch every handle group first: registration is lazy, and this test may
  // run before any engine code has.
  metrics::Storage();
  metrics::Txn();
  metrics::Gc();
  metrics::Transform();
  metrics::Pool();
  metrics::Scan();
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  for (const char *name : {"storage.inserts", "storage.write_write_conflicts", "txn.commits",
                           "txn.aborts", "gc.txns_unlinked", "transform.blocks_frozen",
                           "pool.tasks_run", "scan.rows"}) {
    EXPECT_TRUE(snapshot.counters.count(name) == 1)
        << "counter " << name << " not registered globally";
  }
  EXPECT_EQ(snapshot.gauges.count("transform.observer_queue_depth"), 1u);
  EXPECT_EQ(snapshot.gauges.count("gc.backlog"), 1u);
  EXPECT_EQ(snapshot.histograms.count("pool.queue_wait_us"), 1u);
  EXPECT_EQ(snapshot.histograms.count("transform.pass_us"), 1u);
  EXPECT_NE(metrics::Storage().inserts, nullptr);
  EXPECT_EQ(metrics::Storage().inserts, metrics::Storage().inserts);
}

/// End-to-end profiling coverage over real TPC-H plans: a profiled run must
/// return bit-identical results to an unprofiled one (the acceptance matrix:
/// Q6/Q12, 1 and 4 workers, hot and frozen blocks), and the recorded profile
/// must account for every row the scan produced.
class MetricsProfilingTest : public ::testing::Test {
 protected:
  MetricsProfilingTest()
      : block_store_(2000, 100),
        buffer_pool_(10000000, 1000),
        catalog_(&block_store_),
        txn_manager_(&buffer_pool_, true, nullptr),
        gc_(&txn_manager_),
        observer_(/*cold_threshold=*/2),
        transformer_(&txn_manager_, &gc_, GatherMode::kDictionaryCompression),
        pipeline_(&observer_, &transformer_, /*group_size=*/4) {
    gc_.SetAccessObserver(&observer_);
  }

  ~MetricsProfilingTest() override { gc_.SetAccessObserver(nullptr); }

  static uint64_t RowsForBlocks(uint64_t blocks) {
    const uint32_t slots = tpch::LineItemSchema().ToBlockLayout().NumSlots();
    return blocks * slots + slots / 2;
  }

  void GenerateTables(uint64_t rows) {
    const uint64_t customers = std::max<uint64_t>(rows / 6, 200);
    lineitem_ = tpch::GenerateLineItem(&catalog_, &txn_manager_, rows, /*seed=*/7,
                                       /*batch_size=*/4096);
    orders_ = tpch::GenerateOrders(&catalog_, &txn_manager_, rows / 3, /*seed=*/11,
                                   /*batch_size=*/4096, "orders",
                                   /*num_customers=*/customers + customers / 2);
    customer_ = tpch::GenerateCustomer(&catalog_, &txn_manager_, customers, /*seed=*/17,
                                       /*batch_size=*/4096);
    gc_.FullGC();
  }

  /// Every HashJoinBuild in `profile`, in plan order, reports `layouts` and
  /// a non-zero table size; no other operator reports a layout.
  static void ExpectBuildLayouts(const op::PlanProfile &profile,
                                 const std::vector<std::string> &layouts) {
    std::vector<std::string> got;
    for (const op::PipelineProfile &pipe : profile.pipelines) {
      for (const op::OperatorProfile &op : pipe.operators) {
        if (op.label != "HashJoinBuild") {
          EXPECT_TRUE(op.layout.empty()) << op.label << " reported a layout";
          continue;
        }
        got.push_back(op.layout);
        EXPECT_GT(op.table_bytes, 0u) << "a " << op.layout << " build reported no table bytes";
      }
    }
    EXPECT_EQ(got, layouts) << profile.ToString();
  }

  void FreezeAll() {
    gc_.FullGC();
    for (catalog::SqlTable *table : {lineitem_, orders_, customer_}) {
      pipeline_.EnqueueTable(&table->UnderlyingTable());
    }
    pipeline_.RunOnce();
    for (catalog::SqlTable *table : {lineitem_, orders_, customer_}) {
      for (storage::RawBlock *block : table->UnderlyingTable().Blocks()) {
        ASSERT_EQ(block->controller.GetState(), BlockState::kFrozen);
      }
    }
  }

  /// Q6 and Q12 at `num_threads`, unprofiled then profiled, expecting
  /// bit-identical results and a self-consistent profile.
  void ExpectProfiledBitExact(uint32_t num_threads) {
    QueryRunner runner(&txn_manager_, num_threads);
    const tpch::Tables tables{.lineitem = lineitem_, .orders = orders_};

    runner.SetProfiling(false);
    const auto q6_plain = runner.Run(tpch::Query::kQ6, tables);
    const auto q12_plain = runner.Run(tpch::Query::kQ12, tables);
    EXPECT_TRUE(runner.LastProfile().pipelines.empty());

    runner.SetProfiling(true);
    EXPECT_TRUE(runner.Profiling());
    const auto q6_prof = runner.Run(tpch::Query::kQ6, tables);
    EXPECT_TRUE(q6_prof.answer == q6_plain.answer)
        << "profiling changed Q6's answer at " << num_threads << " threads";
    EXPECT_EQ(q6_prof.stats.rows, q6_plain.stats.rows);

    // Q6 is one pipeline: Filter -> Aggregate; the filter saw every scanned
    // row and the aggregate only what survived.
    const op::PlanProfile &q6_profile = runner.LastProfile();
    ASSERT_EQ(q6_profile.pipelines.size(), 1u);
    const op::PipelineProfile &q6_pipe = q6_profile.pipelines[0];
    EXPECT_EQ(q6_pipe.scan.rows, q6_plain.stats.rows);
    EXPECT_GT(q6_pipe.num_blocks, 0u);
    ASSERT_EQ(q6_pipe.operators.size(), 2u);
    EXPECT_EQ(q6_pipe.operators[0].label, "Filter");
    EXPECT_EQ(q6_pipe.operators[1].label, "Aggregate");
    EXPECT_EQ(q6_pipe.operators[0].rows_in, q6_pipe.scan.rows);
    EXPECT_EQ(q6_pipe.operators[0].rows_out, q6_pipe.operators[1].rows_in);
    EXPECT_LE(q6_pipe.operators[0].rows_out, q6_pipe.operators[0].rows_in);
    EXPECT_EQ(q6_pipe.operators[1].rows_out, 0u);  // sink
    EXPECT_GT(q6_pipe.operators[0].chunks, 0u);

    const auto q12_prof = runner.Run(tpch::Query::kQ12, tables);
    EXPECT_TRUE(q12_prof.answer == q12_plain.answer)
        << "profiling changed Q12's answer at " << num_threads << " threads";

    // Q12 is three pipelines: the LINEITEM key-set build, the ORDERS build
    // behind a semi-join probe of that key set, then the LINEITEM probe.
    const op::PlanProfile &q12_profile = runner.LastProfile();
    ASSERT_EQ(q12_profile.pipelines.size(), 3u);
    for (const op::PipelineProfile &pipe : q12_profile.pipelines) {
      ASSERT_FALSE(pipe.operators.empty());
    }
    EXPECT_EQ(q12_profile.pipelines[0].operators.back().label, "HashJoinBuild");
    const std::vector<op::OperatorProfile> &orders_ops = q12_profile.pipelines[1].operators;
    ASSERT_EQ(orders_ops.size(), 2u);
    EXPECT_EQ(orders_ops.front().label, "HashJoinProbe");
    EXPECT_EQ(orders_ops.back().label, "HashJoinBuild");
    bool saw_probe = false;
    for (const op::OperatorProfile &record : q12_profile.pipelines.back().operators) {
      saw_probe |= record.label == "HashJoinProbe";
    }
    EXPECT_TRUE(saw_probe) << "Q12's probe pipeline lost its HashJoinProbe record";

    // Finish time is charged to the operator that spent it: each build's
    // table construction is its own, and together the operators account for
    // no more than the pipeline's finish phase.
    for (const op::PipelineProfile &pipe : q12_profile.pipelines) {
      uint64_t op_finish_ns = 0;
      for (const op::OperatorProfile &record : pipe.operators) op_finish_ns += record.finish_ns;
      EXPECT_LE(op_finish_ns, pipe.finish_ns);
    }
    EXPECT_GT(orders_ops.back().finish_ns, 0u) << "the ORDERS build's Finish went unattributed";

    // Toggling back off both stops recording and clears the stale record.
    runner.SetProfiling(false);
    EXPECT_TRUE(runner.Run(tpch::Query::kQ6, tables).answer == q6_plain.answer);
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
  catalog::SqlTable *customer_ = nullptr;
};

TEST_F(MetricsProfilingTest, ProfiledRunsAreBitExactHotAndFrozen) {
  GenerateTables(RowsForBlocks(2));

  // Hot blocks first, then the same matrix over frozen (Arrow) blocks.
  for (const uint32_t threads : {1u, 4u}) ExpectProfiledBitExact(threads);
  FreezeAll();
  for (const uint32_t threads : {1u, 4u}) ExpectProfiledBitExact(threads);
}

/// EXPLAIN output for Q3's three-pipeline plan names every operator and
/// carries per-operator row counts; the JSON form carries the same record.
TEST_F(MetricsProfilingTest, ExplainReportsQ3Operators) {
  GenerateTables(RowsForBlocks(1));
  FreezeAll();

  QueryRunner runner(&txn_manager_, 2);
  runner.SetProfiling(true);
  const tpch::Tables tables{.lineitem = lineitem_, .orders = orders_, .customer = customer_};
  const auto plain = [&] {
    QueryRunner reference(&txn_manager_, 2);
    return reference.Run(tpch::Query::kQ3, tables);
  }();
  const auto profiled = runner.Run(tpch::Query::kQ3, tables);
  EXPECT_TRUE(profiled.answer == plain.answer) << "profiling changed Q3's answer";

  const op::PlanProfile &profile = runner.LastProfile();
  ASSERT_EQ(profile.pipelines.size(), 3u);
  uint64_t total_scanned = 0;
  for (const op::PipelineProfile &pipe : profile.pipelines) {
    EXPECT_NE(pipe.source.find("table#"), std::string::npos);
    total_scanned += pipe.scan.rows;
  }
  EXPECT_EQ(total_scanned, profiled.stats.rows);

  const std::string explain = profile.ToString();
  for (const char *label :
       {"Pipeline", "HashJoinBuild", "HashJoinProbe", "Filter", "TopK", "rows_in="}) {
    EXPECT_NE(explain.find(label), std::string::npos)
        << "EXPLAIN output missing \"" << label << "\":\n"
        << explain;
  }

  const std::string json = profile.ToJson();
  for (const char *key : {"\"pipelines\":", "\"operators\":", "\"label\":\"HashJoinProbe\"",
                          "\"rows_in\":", "\"inclusive_ns\":", "\"scan\":"}) {
    EXPECT_NE(json.find(key), std::string::npos)
        << "profile JSON missing " << key << ":\n"
        << json;
  }

  // Every pipeline and every operator carries its own finish time, in both
  // renderings.
  size_t records = profile.pipelines.size();
  for (const op::PipelineProfile &pipe : profile.pipelines) records += pipe.operators.size();
  const auto count = [](const std::string &text, const std::string &needle) {
    size_t n = 0;
    for (size_t at = text.find(needle); at != std::string::npos; at = text.find(needle, at + 1)) {
      n++;
    }
    return n;
  };
  EXPECT_EQ(count(json, "\"finish_ns\":"), records) << json;
  EXPECT_EQ(count(explain, " finish="), records) << explain;

  // Both builds join on surrogate keys handed out in sequence (c_custkey and
  // l_orderkey), so both take the dense layout, and say so with their size.
  ExpectBuildLayouts(profile, {"dense", "dense"});
  EXPECT_EQ(count(explain, " layout=dense table_bytes="), 2u) << explain;
  EXPECT_EQ(count(json, "\"layout\":\"dense\",\"table_bytes\":"), 2u) << json;
}

/// Q12's builds hold a few qualifying lineitems' order keys, spread thin
/// over the order-key range, so both stay hashed.
TEST_F(MetricsProfilingTest, ExplainReportsQ12BuildsHashed) {
  GenerateTables(RowsForBlocks(1));
  FreezeAll();

  QueryRunner runner(&txn_manager_, 2);
  runner.SetProfiling(true);
  runner.Run(tpch::Query::kQ12, {.lineitem = lineitem_, .orders = orders_});
  const op::PlanProfile &profile = runner.LastProfile();
  ExpectBuildLayouts(profile, {"hashed", "hashed"});
  EXPECT_NE(profile.ToString().find(" layout=hashed table_bytes="), std::string::npos)
      << profile.ToString();
  EXPECT_NE(profile.ToJson().find("\"layout\":\"hashed\",\"table_bytes\":"), std::string::npos)
      << profile.ToJson();
}

/// A full query pass moves the global engine counters: the scan counters
/// advance by exactly the rows read, and txn begins/commits advance with the
/// runner's transactions. Deltas, not absolutes — other tests in this binary
/// share the global registry.
TEST_F(MetricsProfilingTest, EngineCountersAdvanceAcrossAQuery) {
  GenerateTables(RowsForBlocks(1));
  MetricsRegistry &registry = MetricsRegistry::Global();
  if (!registry.Enabled()) return;  // MAINLINE_METRICS=0 disables collection

  const MetricsSnapshot before = registry.Snapshot();
  QueryRunner runner(&txn_manager_, 2);
  const auto q6 = runner.Run(tpch::Query::kQ6, {.lineitem = lineitem_});
  const MetricsSnapshot delta = registry.Snapshot().Delta(before);

  EXPECT_EQ(delta.counters.at("scan.rows"), q6.stats.rows);
  EXPECT_EQ(delta.counters.at("scan.morsel_scans"), 1u);
  EXPECT_EQ(delta.counters.at("txn.begins"), 1u);
  EXPECT_EQ(delta.counters.at("txn.commits"), 1u);
  EXPECT_GT(delta.counters.at("pool.tasks_run"), 0u);
  EXPECT_GT(delta.histograms.at("pool.queue_wait_us").total, 0u);

  // Generation ran before `before`, so storage counters sit still here...
  EXPECT_EQ(delta.counters.at("storage.inserts"), 0u);
  // ...but the lifetime reading remembers every generated row.
  EXPECT_GE(before.counters.at("storage.inserts"),
            static_cast<uint64_t>(RowsForBlocks(1)));
}

}  // namespace mainline
