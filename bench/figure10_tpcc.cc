// Figure 10: TPC-C throughput (a) and end-of-run block-state coverage (b),
// varying the number of worker threads, with block transformation disabled /
// in varlen-gather mode / in dictionary-compression mode. One warehouse per
// worker, an aggressive 10 ms cold threshold, and transformation targeting
// only the cold-data tables (ORDER, ORDER_LINE, HISTORY, ITEM), as in the
// paper's setup.
//
// Expected shape (paper): near-linear scaling; at most ~10% throughput loss
// with transformation enabled (dictionary slightly worse than gather); block
// coverage reaches high %frozen for gather, lagging for dictionary at higher
// worker counts. The last column is the memory the TPC-C indexes report
// (Index::MemoryBytes()) at the end of each cell, per thousand transactions
// the cell committed: the end-of-cell total grows with the cell's
// throughput (ORDER and ORDER_LINE only grow), so only the ratio compares
// across commits.

#include <atomic>
#include <thread>

#include "bench_util.h"
#include "gc/gc_thread.h"
#include "index/index.h"
#include "transform/transform_pipeline.h"
#include "workload/tpcc/tpcc_workload.h"

namespace mainline::bench {
namespace {

enum class Mode { kDisabled, kGather, kDictionary };

struct RunResult {
  double ktps = 0;
  double frozen_pct = 0;
  double cooling_pct = 0;
  // Index::MemoryBytes() summed over the TPC-C indexes, in MB per thousand
  // committed transactions
  double index_mb_per_ktxn = 0;
};

RunResult RunTPCC(uint32_t workers, Mode mode, int seconds) {
  Engine engine(60000);
  workload::tpcc::Config config;
  config.num_warehouses = static_cast<int32_t>(workers);
  config.num_items = static_cast<int32_t>(EnvInt("MAINLINE_F10_ITEMS", 10000));
  config.customers_per_district = static_cast<int32_t>(EnvInt("MAINLINE_F10_CUSTOMERS", 300));
  config.orders_per_district = config.customers_per_district;
  workload::tpcc::Database db(&engine.catalog, config);
  db.Load(&engine.txn_manager, workers);
  engine.gc.FullGC();

  transform::AccessObserver observer(1);  // ~1 GC epoch (10 ms) threshold
  transform::BlockTransformer transformer(
      &engine.txn_manager, &engine.gc,
      mode == Mode::kDictionary ? transform::GatherMode::kDictionaryCompression
                                : transform::GatherMode::kVarlenGather);
  transformer.SetInlineGCPump(false);
  transform::TransformPipeline pipeline(&observer, &transformer, 10);
  storage::DataTable *targets[] = {
      &db.order->UnderlyingTable(), &db.order_line->UnderlyingTable(),
      &db.history->UnderlyingTable(), &db.item->UnderlyingTable()};
  pipeline.SetTableFilter([&](storage::DataTable *t) {
    for (auto *target : targets) {
      if (t == target) return true;
    }
    return false;
  });

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  RunResult result;
  {
    gc::GarbageCollectorThread gc_thread(&engine.gc, std::chrono::milliseconds(10));
    if (mode != Mode::kDisabled) {
      engine.gc.SetAccessObserver(&observer);
      pipeline.EnqueueTable(&db.item->UnderlyingTable());
      pipeline.Start(transform::FreezePolicy::Config::Pinned(std::chrono::milliseconds(10)));
    }

    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < workers; t++) {
      threads.emplace_back([&, t] {
        workload::tpcc::Worker worker(&db, &engine.txn_manager,
                                      static_cast<int32_t>(t + 1), 1234 + t);
        uint64_t local = 0;
        while (!stop.load(std::memory_order_acquire)) {
          if (worker.RunOne()) local++;
        }
        committed.fetch_add(local);
      });
    }
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    stop.store(true, std::memory_order_release);
    for (auto &thread : threads) thread.join();
    if (mode != Mode::kDisabled) {
      // Let the pipeline catch up before measuring coverage (the paper
      // reports end-of-run coverage).
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      pipeline.Stop();
    }
    engine.gc.SetAccessObserver(nullptr);
  }
  result.ktps = static_cast<double>(committed.load()) / seconds / 1000.0;
  double index_mb = 0;
  for (const index::Index *idx :
       {db.warehouse_pk, db.district_pk, db.customer_pk, db.customer_name_idx, db.new_order_pk,
        db.order_pk, db.order_customer_idx, db.order_line_pk, db.item_pk, db.stock_pk}) {
    index_mb += static_cast<double>(idx->MemoryBytes()) / 1e6;
  }
  if (committed.load() > 0) {
    result.index_mb_per_ktxn = index_mb / (static_cast<double>(committed.load()) / 1000.0);
  }

  uint64_t frozen = 0, cooling = 0, total = 0;
  // Coverage over the transformation-target tables except read-only ITEM,
  // matching the paper's Figure 10b.
  for (auto *table : {&db.order->UnderlyingTable(), &db.order_line->UnderlyingTable(),
                      &db.history->UnderlyingTable()}) {
    for (auto *block : table->Blocks()) {
      total++;
      const auto state = block->controller.GetState();
      if (state == storage::BlockState::kFrozen) frozen++;
      if (state == storage::BlockState::kCooling) cooling++;
    }
  }
  if (total > 0) {
    result.frozen_pct = 100.0 * static_cast<double>(frozen) / static_cast<double>(total);
    result.cooling_pct = 100.0 * static_cast<double>(cooling) / static_cast<double>(total);
  }
  return result;
}

}  // namespace
}  // namespace mainline::bench

int main() {
  using namespace mainline::bench;
  const int seconds = static_cast<int>(EnvInt("MAINLINE_F10_SECONDS", 3));
  const auto max_workers = static_cast<uint32_t>(EnvInt("MAINLINE_F10_MAX_WORKERS", 8));

  std::printf(
      "== Figure 10: TPC-C, one warehouse per worker, %d s per cell ==\n"
      "%-9s %16s %16s %16s %22s %22s %29s\n",
      seconds, "#workers", "none (K txn/s)", "gather (K txn/s)", "dict (K txn/s)",
      "gather %frozen/%cool", "dict %frozen/%cool", "index MB/ktxn none/gath/dict");
  for (uint32_t workers = 1; workers <= max_workers; workers *= 2) {
    const RunResult none = RunTPCC(workers, Mode::kDisabled, seconds);
    const RunResult gather = RunTPCC(workers, Mode::kGather, seconds);
    const RunResult dict = RunTPCC(workers, Mode::kDictionary, seconds);
    std::printf("%-9u %16.1f %16.1f %16.1f %14.1f / %5.1f %14.1f / %5.1f %15.2f/%6.2f/%6.2f\n",
                workers, none.ktps, gather.ktps, dict.ktps, gather.frozen_pct,
                gather.cooling_pct, dict.frozen_pct, dict.cooling_pct, none.index_mb_per_ktxn,
                gather.index_mb_per_ktxn, dict.index_mb_per_ktxn);
  }
  return 0;
}
