// ingest: four clients append LINEITEM-shaped rows to a table that already
// holds a loaded base, 16 rows per transaction. Each client commits with a
// durability callback and waits for it before starting its next
// transaction (closed loop), so almost all time goes to the write path:
// storage inserts, commit, and the log's serialize + write + fsync with the
// engine's group commit unchanged. Indexes, the transform and execution are
// bypassed. Afterwards the log is shut down, replayed into a fresh engine
// with RecoveryManager, and the recovered table must hold exactly the base
// plus every acknowledged row.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rand_util.h"
#include "harness.h"
#include "transaction/recovery_manager.h"
#include "workload/tpch/lineitem.h"

namespace mainline::e2e {

namespace tpch = workload::tpch;

namespace {

// Transactions per client per budget second. Unlike the other workloads the
// window lasts only about 0.4 x --seconds on the reference host: recovery
// replays every acknowledged row, and the engine's replay holds the whole
// parsed log in memory (about 1.5 KB per row), so a full-length window would
// need gigabytes just to check itself.
constexpr double kTxnsPerClientSecond = 1600;
constexpr double kWarmupShare = 0.1;
constexpr uint32_t kClients = 4;
constexpr uint64_t kRowsPerTxn = 16;

struct IngestWorld {
  explicit IngestWorld(const std::string &log_path) : engine(log_path) {}
  Engine engine;
  catalog::SqlTable *lineitem = nullptr;
};

/// Per-client results.
struct Client {
  std::vector<OpSample> ops;  // Begin -> durable acknowledgement, measured txns
  Samples commit_us;          // inside Commit
  Samples durable_wait_us;    // Commit returned -> acknowledgement
  uint64_t acked_txns = 0;    // warm-up included: recovery must find them too
  int64_t orderkey_sum = 0;
  double quantity_sum = 0;
  uint64_t user_bytes = 0;
  int64_t finished_ns = 0;
};

}  // namespace

void RunIngest(const Options &options, Report *report) {
  const uint64_t base_rows = options.smoke ? 2000 : 100000;
  const double budget = options.smoke ? 0.05 : options.seconds;
  const auto txns_per_client = static_cast<uint64_t>(kTxnsPerClientSecond * budget);
  const auto warmup_per_client =
      static_cast<uint64_t>(kWarmupShare * static_cast<double>(txns_per_client));
  const std::string log_path = options.wal_dir + "/ingest.wal";
  report->Knob("clients", kClients);
  report->Knob("rows_per_txn", static_cast<double>(kRowsPerTxn));
  report->Knob("lineitem_base_rows", static_cast<double>(base_rows));
  report->Knob("txns_per_client", static_cast<double>(txns_per_client));
  report->Knob("warmup_txns_per_client", static_cast<double>(warmup_per_client));
  report->Knob("wal", "on, engine group commit unchanged; clients wait for each ack");

  auto world = RepeatSetup<IngestWorld>(options, report, [&] {
    trace::Span span("setup.load");
    auto w = std::make_unique<IngestWorld>(log_path);
    w->lineitem =
        tpch::GenerateLineItem(&w->engine.catalog, &w->engine.txn_manager, base_rows, options.seed);
    WaitDurable(&w->engine);
    w->engine.gc.FullGC();
    return w;
  });
  Engine &engine = world->engine;
  catalog::SqlTable *lineitem = world->lineitem;
  const LineItemChecksum base = ScanLineItem(&engine, lineitem);

  std::vector<Client> clients(kClients);
  const size_t blocks_before = lineitem->UnderlyingTable().NumBlocks();
  const RegistryWindow whole_ingest;
  const uint64_t log_bytes_before = engine.log->BytesWritten();
  const uint64_t log_records_before = engine.log->RecordsWritten();
  int64_t window_start = 0;
  std::unique_ptr<RegistryWindow> registry;
  std::barrier sync(kClients, [&]() noexcept {
    registry = std::make_unique<RegistryWindow>();
    window_start = NowNs();
  });
  GcLoop gc_loop(&engine.gc, std::chrono::milliseconds(10));
  CpuSampler cpu;
  {
    std::vector<std::jthread> threads;
    for (uint32_t c = 0; c < kClients; c++) {
      threads.emplace_back([&, c] {
        Client &client = clients[c];
        common::Xorshift rng(Mix(options.seed, c));
        const storage::ProjectedRowInitializer initializer = lineitem->FullInitializer();
        std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
        // Order keys above the base's, strided by client: never shared.
        int64_t next_orderkey = static_cast<int64_t>(base_rows) + 1 + c;
        const uint64_t total = warmup_per_client + txns_per_client;
        client.ops.reserve(txns_per_client);
        for (uint64_t i = 0; i < total; i++) {
          if (i == warmup_per_client) sync.arrive_and_wait();
          std::atomic<uint32_t> acked{0};
          const int64_t begin = NowNs();
          int64_t committed = 0;
          {
            trace::Span span("ingest.txn");
            transaction::TransactionContext *txn = engine.txn_manager.BeginTransaction();
            for (uint64_t line = 0; line < kRowsPerTxn; line++) {
              storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
              double quantity = 0;
              client.user_bytes +=
                  FillLineItem(row, next_orderkey, static_cast<int32_t>(line + 1), &rng, &quantity);
              client.orderkey_sum += next_orderkey;
              client.quantity_sum += quantity;
              trace::Span insert("storage.insert");
              lineitem->Insert(txn, *row);
            }
            const int64_t commit = NowNs();
            {
              trace::Span span_commit("txn.commit");
              engine.txn_manager.Commit(
                  txn,
                  [](void *arg) {
                    auto *flag = static_cast<std::atomic<uint32_t> *>(arg);
                    flag->store(1, std::memory_order_release);
                    flag->notify_one();
                  },
                  &acked);
            }
            committed = NowNs();
            trace::Span span_wait("log.durable_wait");
            acked.wait(0, std::memory_order_acquire);
            if (i >= warmup_per_client) {
              client.commit_us.Add(static_cast<double>(committed - commit) / 1e3);
            }
          }
          const int64_t end = NowNs();
          client.acked_txns++;
          next_orderkey += kClients;
          if (i >= warmup_per_client) {
            client.ops.push_back({end, static_cast<float>(end - begin) / 1e3f});
            client.durable_wait_us.Add(static_cast<double>(end - committed) / 1e3);
          }
        }
        client.finished_ns = NowNs();
      });
    }
  }
  int64_t cutoff = clients.front().finished_ns;
  for (const Client &client : clients) cutoff = std::min(cutoff, client.finished_ns);
  const Window window = CloseWindow(window_start, cutoff);
  cpu.Stop();
  const metrics::MetricsSnapshot delta = registry->Delta();
  const double gc_drain_ms = gc_loop.Drain();

  std::vector<OpSample> ops;
  Samples commit_us;
  Samples durable_wait_us;
  LineItemChecksum expected = base;
  uint64_t acked_txns = 0;
  uint64_t user_bytes = 0;
  for (const Client &client : clients) {
    ops.insert(ops.end(), client.ops.begin(), client.ops.end());
    commit_us.Append(client.commit_us);
    durable_wait_us.Append(client.durable_wait_us);
    acked_txns += client.acked_txns;
    expected.rows += client.acked_txns * kRowsPerTxn;
    expected.orderkey_sum += client.orderkey_sum;
    expected.quantity_sum += client.quantity_sum;
    user_bytes += client.user_bytes;
  }
  // Space and log volume over the whole ingest, warm-up included: new blocks
  // plus out-of-line varlen copies, and bytes the log wrote.
  const double storage_bytes =
      static_cast<double>((lineitem->UnderlyingTable().NumBlocks() - blocks_before) *
                          storage::kBlockSize) +
      static_cast<double>(CounterOf(whole_ingest.Delta(), "storage.varlen_bytes"));
  const auto log_bytes = static_cast<double>(engine.log->BytesWritten() - log_bytes_before);
  const auto log_records = static_cast<double>(engine.log->RecordsWritten() - log_records_before);

  // "Crash" after a clean shutdown, then replay the log into a fresh engine.
  world.reset();
  double recover_s = 0;
  LineItemChecksum recovered;
  {
    Engine fresh("");
    catalog::SqlTable *table = fresh.catalog.GetTable(
        fresh.catalog.CreateTable("lineitem", tpch::LineItemSchema()));
    transaction::RecoveryManager recovery(fresh.catalog.TableMap(), &fresh.txn_manager);
    const int64_t start = NowNs();
    {
      trace::Span span("log.recover");
      recovery.Recover(log_path);
    }
    recover_s = static_cast<double>(NowNs() - start) / 1e9;
    recovered = ScanLineItem(&fresh, table);
    fresh.gc.FullGC();
  }

  report->AddAttempted(acked_txns);
  report->Check("ingest.recovered_rows", recovered == expected,
                "expected " + expected.ToString() + ", recovered " + recovered.ToString(),
                recovered.rows >= expected.rows
                    ? 1
                    : (expected.rows - recovered.rows + kRowsPerTxn - 1) / kRowsPerTxn);
  ReportOps(report, &ops, window, cpu);
  ReportRegistry(report, delta);
  ReportGc(report, &gc_loop, gc_drain_ms);
  report->Layer("txn.commit_us_p50", commit_us.Median(), "us", commit_us.Count());
  report->Layer("txn.commit_us_p99", commit_us.Percentile(0.99), "us", commit_us.Count());
  report->Layer("log.durable_wait_us_p50", durable_wait_us.Median(), "us",
                durable_wait_us.Count());
  report->Layer("log.durable_wait_us_p99", durable_wait_us.Percentile(0.99), "us",
                durable_wait_us.Count());
  const auto txns = static_cast<double>(acked_txns);
  report->Layer("log.bytes_per_txn", log_bytes / txns, "bytes", acked_txns);
  report->Layer("log.records_per_txn", log_records / txns, "count", acked_txns);
  report->Layer("log.bytes_per_user_byte", log_bytes / static_cast<double>(user_bytes), "ratio",
                1);
  report->Layer("storage.bytes_per_user_byte", storage_bytes / static_cast<double>(user_bytes),
                "ratio", 1);
  report->Layer("log.recover_s", recover_s, "s", 1);
}

}  // namespace mainline::e2e
