// TPC-C demo: run the full OLTP pipeline — worker terminals, a background
// garbage collector, and the background block-transformation thread — then
// report throughput and how much of the database ended up in canonical Arrow.
//
//   $ ./build/examples/tpcc_demo [seconds] [workers]

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "catalog/catalog.h"
#include "gc/gc_thread.h"
#include "transform/transform_pipeline.h"
#include "workload/tpcc/tpcc_workload.h"

using namespace mainline;

int main(int argc, char **argv) {
  const int seconds = argc > 1 ? std::atoi(argv[1]) : 5;
  const auto workers = static_cast<uint32_t>(argc > 2 ? std::atoi(argv[2]) : 4);

  storage::BlockStore block_store(50000, 1000);
  storage::RecordBufferSegmentPool buffer_pool(0, 10000);
  catalog::Catalog catalog(&block_store);
  transaction::TransactionManager txn_manager(&buffer_pool, true, nullptr);
  gc::GarbageCollector gc(&txn_manager);

  workload::tpcc::Config config;
  config.num_warehouses = static_cast<int32_t>(workers);
  config.num_items = 10000;
  config.customers_per_district = 300;
  config.orders_per_district = 300;
  workload::tpcc::Database db(&catalog, config);
  std::printf("loading %u warehouse(s)...\n", workers);
  db.Load(&txn_manager, workers);
  gc.FullGC();

  // Background transformation: 10 ms cold threshold, groups of 10 blocks,
  // targeting the cold-data tables (Section 6.1's setup).
  transform::AccessObserver observer(1);
  gc.SetAccessObserver(&observer);
  transform::BlockTransformer transformer(&txn_manager, &gc,
                                          transform::GatherMode::kVarlenGather);
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
  pipeline.EnqueueTable(&db.item->UnderlyingTable());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0}, aborted{0};
  {
    gc::GarbageCollectorThread gc_thread(&gc, std::chrono::milliseconds(10));
    pipeline.Start(transform::FreezePolicy::Config::Pinned(std::chrono::milliseconds(10)));

    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < workers; t++) {
      threads.emplace_back([&, t] {
        workload::tpcc::Worker worker(&db, &txn_manager, static_cast<int32_t>(t + 1),
                                      42 + t);
        while (!stop.load(std::memory_order_acquire)) worker.RunOne();
        committed += worker.Stats().TotalCommitted();
        aborted += worker.Stats().aborted;
      });
    }
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    stop.store(true);
    for (auto &thread : threads) thread.join();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    pipeline.Stop();
    gc.SetAccessObserver(nullptr);
  }

  std::printf("\n%.1f K txn/s (%lu committed, %lu aborted over %d s, %u workers)\n",
              static_cast<double>(committed.load()) / seconds / 1000.0,
              static_cast<unsigned long>(committed.load()),
              static_cast<unsigned long>(aborted.load()), seconds, workers);

  std::printf("\n%-12s %8s %8s %8s %8s\n", "table", "blocks", "frozen", "cooling", "hot");
  struct {
    const char *name;
    catalog::SqlTable *table;
  } tables[] = {{"order", db.order},     {"order_line", db.order_line},
                {"history", db.history}, {"item", db.item},
                {"stock", db.stock},     {"customer", db.customer}};
  for (const auto &[name, table] : tables) {
    uint64_t frozen = 0, cooling = 0, hot = 0, total = 0;
    for (auto *block : table->UnderlyingTable().Blocks()) {
      total++;
      switch (block->controller.GetState()) {
        case storage::BlockState::kFrozen:
          frozen++;
          break;
        case storage::BlockState::kCooling:
          cooling++;
          break;
        default:
          hot++;
          break;
      }
    }
    std::printf("%-12s %8lu %8lu %8lu %8lu\n", name, static_cast<unsigned long>(total),
                static_cast<unsigned long>(frozen), static_cast<unsigned long>(cooling),
                static_cast<unsigned long>(hot));
  }
  return 0;
}
