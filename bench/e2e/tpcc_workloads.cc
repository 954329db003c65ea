// The two workloads built on TPC-C terminals.
//
// oltp: two terminals, one warehouse each at Config::Scaled(10000, 300),
// WAL on, the driver-owned GC loop, and the adaptive transform over
// ORDER/ORDER_LINE/HISTORY/ITEM (the Figure 10 setup). Exercises storage,
// indexes, transactions, logging, GC and the transform; skips execution and
// export. The full-spec warehouse (100 k items, 3 000 customers per
// district) was measured too: its random STOCK/CUSTOMER reads miss the LLC,
// and between runs its throughput never spread less than the scaled
// database's (see README.md).
//
// htap: the same terminals plus a fresh-order feed (1 ORDERS + 16 LINEITEM
// rows after every 16th mix transaction) over a 300 k-row LINEITEM base,
// while a coordinator cycles Q1/Q6/Q12/Q14 on a 2-worker pool until the
// terminals finish. The feed is fixed work, so the analytical data grows by
// the workload's design, not by engine speed.
//
// Both are closed loops: a terminal starts its next transaction when the
// previous one returns. Each terminal runs a fixed number of transactions
// (a warm-up share first, excluded from the metrics); the driver rolls the
// 45/43/4/4/4 mix from its own seeded generator and calls the procedures
// directly, so every latency sample carries its procedure.
//
// Each terminal runs on a CPU of its own and every other thread shares the
// remaining CPUs (see ReserveTerminalCpus).

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rand_util.h"
#include "harness.h"
#include "queries.h"
#include "storage/block_access_controller.h"
#include "storage/raw_block.h"
#include "transform/access_observer.h"
#include "transform/block_transformer.h"
#include "transform/freeze_policy.h"
#include "transform/transform_pipeline.h"
#include "workload/row_util.h"
#include "workload/tpcc/tpcc_db.h"
#include "workload/tpcc/tpcc_workload.h"
#include "workload/tpch/lineitem.h"
#include "workload/tpch/orders.h"
#include "workload/tpch/part.h"

namespace mainline::e2e {

namespace tpcc = workload::tpcc;
namespace tpch = workload::tpch;

namespace {

// Work per terminal per budget second, sized on the reference host so the
// measured window lasts about --seconds.
constexpr double kOltpTxnsPerTerminalSecond = 21000;
constexpr double kHtapTxnsPerTerminalSecond = 14000;
// Share of each terminal's work run before the window opens.
constexpr double kWarmupShare = 0.1;
constexpr uint32_t kTerminals = 2;
constexpr uint32_t kHtapQueryWorkers = 2;
constexpr uint64_t kFeedEvery = 16;   // mix transactions per feed transaction
constexpr uint64_t kFeedLines = 16;   // LINEITEM rows per feed transaction
constexpr uint32_t kOracleEvery = 8;  // htap: every 8th run of a query is checked
// After the writers stop, the transform counts as caught up once no block
// has frozen for this long: a block can be left cooling with no later write
// to requeue it, so "every block frozen" may never happen.
constexpr double kDrainSettleMs = 500;

enum Proc : uint8_t { kNewOrder, kPayment, kOrderStatus, kDelivery, kStockLevel, kNumProcs };
const char *const kProcNames[kNumProcs] = {"new_order", "payment", "order_status", "delivery",
                                           "stock_level"};
const char *const kProcSpans[kNumProcs] = {"tpcc.new_order", "tpcc.payment",
                                           "tpcc.order_status", "tpcc.delivery",
                                           "tpcc.stock_level"};

/// The standard mix: 45% NewOrder, 43% Payment, 4% each of the rest.
Proc Roll(common::Xorshift *rng) {
  const uint64_t roll = rng->Uniform(1, 100);
  if (roll <= 45) return kNewOrder;
  if (roll <= 88) return kPayment;
  if (roll <= 92) return kOrderStatus;
  if (roll <= 96) return kDelivery;
  return kStockLevel;
}

/// Give each terminal a CPU of its own. When the process may run on more
/// CPUs than there are terminals, the calling thread is confined to the CPUs
/// left over, so every thread it starts afterwards — the log's flush thread,
/// the GC loop, the transform, htap's coordinator and query pool — shares
/// those and never preempts a terminal. Call it before the engine starts.
/// Measured on a 4-vCPU KVM guest (README.md): on htap, where those threads
/// outnumber the CPUs, pinning raised throughput by about a sixth and cut
/// its run-to-run spread from 0.13 to 0.08.
/// \return the terminals' CPUs; empty, and nothing pinned, when there are
///         too few CPUs.
std::vector<int> ReserveTerminalCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (pthread_getaffinity_np(pthread_self(), sizeof(allowed), &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() <= kTerminals) return {};
  cpu_set_t rest;
  CPU_ZERO(&rest);
  for (size_t i = kTerminals; i < cpus.size(); i++) CPU_SET(cpus[i], &rest);
  if (pthread_setaffinity_np(pthread_self(), sizeof(rest), &rest) != 0) return {};
  cpus.resize(kTerminals);
  return cpus;
}

/// Knob text for a ReserveTerminalCpus result.
std::string DescribeCpus(const std::vector<int> &terminal_cpus) {
  if (terminal_cpus.empty()) return "unpinned (no more CPUs than terminals)";
  std::string text = "terminals on CPUs";
  for (const int cpu : terminal_cpus) {
    text += ' ';
    text += std::to_string(cpu);
  }
  return text + ", every other thread on the rest";
}

bool RunProc(tpcc::Worker *worker, Proc proc) {
  trace::Span span(kProcSpans[proc]);
  switch (proc) {
    case kNewOrder:
      return worker->NewOrderTxn();
    case kPayment:
      return worker->PaymentTxn();
    case kOrderStatus:
      return worker->OrderStatusTxn();
    case kDelivery:
      return worker->DeliveryTxn();
    default:
      return worker->StockLevelTxn();
  }
}

/// The background transform of both workloads: an access observer fed by
/// the GC, a varlen-gathering transformer that leaves the GC to the loop,
/// and the adaptive pipeline over `targets`, all of which start out queued
/// (their bulk-loaded blocks predate the observer).
class Transform {
 public:
  Transform(Engine *engine, std::vector<storage::DataTable *> targets)
      : engine_(engine),
        targets_(std::move(targets)),
        observer_(1),
        transformer_(&engine->txn_manager, &engine->gc, transform::GatherMode::kVarlenGather),
        pipeline_(&observer_, &transformer_, 10) {
    transformer_.SetInlineGCPump(false);
    pipeline_.SetTableFilter([this](storage::DataTable *table) {
      return std::find(targets_.begin(), targets_.end(), table) != targets_.end();
    });
    engine_->gc.SetAccessObserver(&observer_);
    for (storage::DataTable *table : targets_) pipeline_.EnqueueTable(table);
    pipeline_.Start(transform::FreezePolicy::Config{});
  }

  /// The GC loop must be joined before this: a pass may still hold the
  /// observer.
  ~Transform() { Stop(); }

  Transform(const Transform &) = delete;
  Transform &operator=(const Transform &) = delete;

  /// How the transform catches up once the writers stop.
  struct Drain {
    /// Milliseconds until the last block froze: polled every 10 ms until
    /// every block but each table's insertion block is frozen, or until no
    /// block has frozen for kDrainSettleMs.
    double ms = 0;
    /// Blocks (insertion blocks aside) still not frozen at that point.
    uint64_t unfrozen = 0;
  };

  static Drain DrainAfterWriters(const std::vector<storage::DataTable *> &tables) {
    const int64_t start = NowNs();
    Drain drain;
    uint64_t last_frozen = 0;
    while (true) {
      uint64_t frozen = 0;
      drain.unfrozen = 0;
      for (storage::DataTable *table : tables) {
        const storage::RawBlock *insertion = table->CurrentInsertionBlock();
        for (storage::RawBlock *block : table->Blocks()) {
          if (block->controller.GetState() == storage::BlockState::kFrozen) {
            frozen++;
          } else if (block != insertion) {
            drain.unfrozen++;
          }
        }
      }
      const double elapsed_ms = static_cast<double>(NowNs() - start) / 1e6;
      if (frozen != last_frozen) {
        last_frozen = frozen;
        drain.ms = elapsed_ms;
      }
      if (drain.unfrozen == 0 || elapsed_ms - drain.ms >= kDrainSettleMs) return drain;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  /// Stop the pipeline and detach from the GC (idempotent).
  void Stop() {
    pipeline_.Stop();
    engine_->gc.SetAccessObserver(nullptr);
  }

  transform::TransformStats Stats() const { return pipeline_.Stats(); }

 private:
  Engine *engine_;
  std::vector<storage::DataTable *> targets_;
  transform::AccessObserver observer_;
  transform::BlockTransformer transformer_;
  transform::TransformPipeline pipeline_;
};

/// One measured mix transaction.
struct TxnSample {
  int64_t end_ns;
  float latency_us;
  Proc proc;
  bool committed;
};

/// A fresh-order feed transaction's durability timing: from the Commit call
/// to the durability callback, which writes `durable_ns` from the log's
/// flush thread.
struct FeedSlot {
  int64_t commit_ns = 0;
  std::atomic<int64_t> durable_ns{0};
};

/// One fresh order: an ORDERS row and kFeedLines LINEITEM rows, committed
/// with a timed durability callback the terminal does not wait for.
void CommitFeed(Engine *engine, const TpchTables &tables, uint64_t orderkey,
                common::Xorshift *rng, FeedSlot *slot, Samples *commit_us) {
  static const char *kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                                      "5-LOW"};
  using workload::Set;
  using workload::SetVarchar;

  const storage::ProjectedRowInitializer orders_init = tables.orders->FullInitializer();
  const storage::ProjectedRowInitializer lineitem_init = tables.lineitem->FullInitializer();
  thread_local std::vector<byte> orders_buffer;
  thread_local std::vector<byte> lineitem_buffer;
  orders_buffer.resize(orders_init.ProjectedRowSize() + 8);
  lineitem_buffer.resize(lineitem_init.ProjectedRowSize() + 8);

  trace::Span span("htap.feed");
  transaction::TransactionContext *txn = engine->txn_manager.BeginTransaction();
  storage::ProjectedRow *order = orders_init.InitializeRow(orders_buffer.data());
  Set<int64_t>(order, tpch::O_ORDERKEY, static_cast<int64_t>(orderkey));
  Set<int64_t>(order, tpch::O_CUSTKEY, static_cast<int64_t>(rng->Uniform(1, 150000)));
  SetVarchar(order, tpch::O_ORDERSTATUS, "O");
  Set<double>(order, tpch::O_TOTALPRICE, static_cast<double>(rng->Uniform(85000, 55500000)) / 100);
  Set<uint32_t>(order, tpch::O_ORDERDATE, static_cast<uint32_t>(rng->Uniform(7900, 10480)));
  SetVarchar(order, tpch::O_ORDERPRIORITY, kPriorities[rng->Uniform(0, 4)]);
  SetVarchar(order, tpch::O_CLERK, "Clerk#feed");
  Set<int32_t>(order, tpch::O_SHIPPRIORITY, 0);
  SetVarchar(order, tpch::O_COMMENT, rng->AlphaString(8, 24));
  {
    trace::Span insert("storage.insert");
    tables.orders->Insert(txn, *order);
  }
  for (uint64_t line = 0; line < kFeedLines; line++) {
    storage::ProjectedRow *row = lineitem_init.InitializeRow(lineitem_buffer.data());
    double quantity = 0;
    FillLineItem(row, static_cast<int64_t>(orderkey), static_cast<int32_t>(line + 1), rng,
                 &quantity);
    trace::Span insert("storage.insert");
    tables.lineitem->Insert(txn, *row);
  }
  // Stamped before the call: the callback may fire before Commit returns.
  slot->commit_ns = NowNs();
  {
    trace::Span commit("txn.commit");
    engine->txn_manager.Commit(
        txn,
        [](void *arg) {
          static_cast<FeedSlot *>(arg)->durable_ns.store(NowNs(), std::memory_order_release);
        },
        slot);
  }
  commit_us->Add(static_cast<double>(NowNs() - slot->commit_ns) / 1e3);
}

/// Fixed work of one run: mix transactions per terminal, the first
/// `warmup` of which run before the window opens.
struct TerminalWork {
  uint64_t txns = 0;
  uint64_t warmup = 0;
};

TerminalWork SizeWork(const Options &options, double rate) {
  const double budget = options.smoke ? 0.05 : options.seconds;
  TerminalWork work;
  work.txns = static_cast<uint64_t>(rate * budget);
  work.warmup = static_cast<uint64_t>(kWarmupShare * static_cast<double>(work.txns));
  return work;
}

/// Per-terminal results of one run.
struct Terminal {
  std::vector<TxnSample> samples;
  Samples feed_commit_us;
  std::unique_ptr<FeedSlot[]> feed;
  uint64_t feed_txns = 0;
  uint64_t feed_measured_from = 0;  // first feed slot inside the window
  int64_t finished_ns = 0;
};

/// kTerminals TPC-C terminals on their own threads, one home warehouse
/// each, started by the constructor; terminal t runs on `cpus[t]` when
/// `cpus` is not empty. When every terminal has finished its warm-up, a
/// barrier opens the window: it records the start time and the registry and
/// log counters the window's deltas are taken against. With `feed` set, each
/// terminal also commits a fresh order after every kFeedEvery-th mix
/// transaction, under order keys from `first_orderkey` strided by terminal.
class Terminals {
 public:
  Terminals(Engine *engine, tpcc::Database *db, const Options &options, const TerminalWork &work,
            const std::vector<int> &cpus, const TpchTables *feed, uint64_t first_orderkey)
      : engine_(engine), sync_(kTerminals, OpenWindow{this}), results_(kTerminals) {
    for (uint32_t t = 0; t < kTerminals; t++) {
      const int cpu = cpus.empty() ? -1 : cpus[t];
      threads_.emplace_back([this, t, cpu, db, seed = options.seed, work, feed, first_orderkey] {
        if (cpu >= 0) {
          cpu_set_t set;
          CPU_ZERO(&set);
          CPU_SET(cpu, &set);
          // Best effort: the CPU is in the process's mask, and a terminal
          // left on the shared CPUs still runs correctly.
          (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
        }
        Run(t, db, seed, work, feed, first_orderkey);
      });
    }
  }

  Terminals(const Terminals &) = delete;
  Terminals &operator=(const Terminals &) = delete;

  bool Done() const { return finished_.load(std::memory_order_acquire) == kTerminals; }
  bool AnyFinished() const { return finished_.load(std::memory_order_acquire) > 0; }
  /// 0 until the window opens.
  int64_t WindowStartNs() const { return window_ns_.load(std::memory_order_acquire); }

  /// Join every terminal and close the window; its cutoff is when the first
  /// terminal finished.
  Window Join() {
    for (std::jthread &thread : threads_) thread.join();
    int64_t cutoff = results_.front().finished_ns;
    for (const Terminal &terminal : results_) cutoff = std::min(cutoff, terminal.finished_ns);
    return CloseWindow(WindowStartNs(), cutoff);
  }

  // Valid after Join.
  std::vector<Terminal> &Results() { return results_; }
  metrics::MetricsSnapshot RegistryDelta() const { return registry_->Delta(); }
  uint64_t LogBytesBefore() const { return log_bytes_; }
  uint64_t LogRecordsBefore() const { return log_records_; }

 private:
  struct OpenWindow {
    Terminals *self;
    void operator()() noexcept {
      self->registry_ = std::make_unique<RegistryWindow>();
      self->log_bytes_ = self->engine_->log->BytesWritten();
      self->log_records_ = self->engine_->log->RecordsWritten();
      self->window_ns_.store(NowNs(), std::memory_order_release);
    }
  };

  void Run(uint32_t t, tpcc::Database *db, uint64_t seed, const TerminalWork &work,
           const TpchTables *feed, uint64_t first_orderkey);

  Engine *engine_;
  std::barrier<OpenWindow> sync_;
  std::unique_ptr<RegistryWindow> registry_;
  uint64_t log_bytes_ = 0;
  uint64_t log_records_ = 0;
  std::atomic<int64_t> window_ns_{0};
  std::atomic<uint32_t> finished_{0};
  std::vector<Terminal> results_;
  std::vector<std::jthread> threads_;  // last: joined before the state above goes
};

void Terminals::Run(uint32_t t, tpcc::Database *db, uint64_t seed, const TerminalWork &work,
                    const TpchTables *feed, uint64_t first_orderkey) {
  tpcc::Worker worker(db, &engine_->txn_manager, static_cast<int32_t>(t + 1), Mix(seed, 3 * t));
  common::Xorshift mix(Mix(seed, 3 * t + 1));
  common::Xorshift feed_rng(Mix(seed, 3 * t + 2));
  Terminal &terminal = results_[t];
  const uint64_t total = work.warmup + work.txns;
  terminal.samples.reserve(work.txns);
  terminal.feed = std::make_unique<FeedSlot[]>(total / kFeedEvery + 1);
  uint64_t orderkey = first_orderkey + t;
  for (uint64_t i = 0; i < total; i++) {
    if (i == work.warmup) {
      sync_.arrive_and_wait();
      terminal.feed_measured_from = terminal.feed_txns;
    }
    const Proc proc = Roll(&mix);
    const int64_t start = NowNs();
    const bool committed = RunProc(&worker, proc);
    const int64_t end = NowNs();
    if (i >= work.warmup) {
      terminal.samples.push_back({end, static_cast<float>(end - start) / 1e3f, proc, committed});
    }
    if (feed != nullptr && (i + 1) % kFeedEvery == 0) {
      CommitFeed(engine_, *feed, orderkey, &feed_rng, &terminal.feed[terminal.feed_txns++],
                 &terminal.feed_commit_us);
      orderkey += kTerminals;
    }
  }
  terminal.finished_ns = NowNs();
  finished_.fetch_add(1, std::memory_order_acq_rel);
}

/// Per-procedure latencies, the abort ratio, and the throughput of the
/// first and last fifth of the window before its cutoff (the within-run
/// trend). \return the committed transactions, as end-to-end samples.
std::vector<OpSample> ReportTerminals(Report *report, const std::vector<Terminal> &terminals,
                                      const Window &window) {
  Samples by_proc[kNumProcs];
  std::vector<OpSample> committed;
  uint64_t attempted = 0;
  for (const Terminal &terminal : terminals) {
    for (const TxnSample &sample : terminal.samples) {
      attempted++;
      if (!sample.committed) continue;
      by_proc[sample.proc].Add(sample.latency_us);
      committed.push_back({sample.end_ns, sample.latency_us});
    }
  }
  for (int p = 0; p < kNumProcs; p++) {
    const std::string name = std::string("tpcc.") + kProcNames[p];
    report->Layer(name + "_p50_us", by_proc[p].Median(), "us", by_proc[p].Count());
    report->Layer(name + "_p99_us", by_proc[p].Percentile(0.99), "us", by_proc[p].Count());
  }
  const uint64_t aborted = attempted - committed.size();
  // An abort (the specification's 1% NewOrder rollback, or a write-write
  // conflict) is an outcome the mix defines, not a failed operation.
  report->AddAttempted(attempted);
  report->Layer("txn.abort_ratio",
                attempted == 0 ? 0 : static_cast<double>(aborted) / static_cast<double>(attempted),
                "ratio", attempted);

  std::vector<int64_t> ends;
  for (const OpSample &sample : committed) {
    if (sample.end_ns <= window.cutoff_ns) ends.push_back(sample.end_ns);
  }
  std::sort(ends.begin(), ends.end());
  const size_t fifth = ends.size() / 5;
  double first = 0;
  double last = 0;
  if (fifth > 0) {
    const auto seconds = [](int64_t from, int64_t to) {
      return static_cast<double>(to - from) / 1e9;
    };
    first = static_cast<double>(fifth) / seconds(window.start_ns, ends[fifth - 1]);
    last = static_cast<double>(fifth) / seconds(ends[ends.size() - fifth - 1], ends.back());
  }
  report->Layer("tpcc.txn_per_s_first_fifth", first, "1/s", fifth);
  report->Layer("tpcc.txn_per_s_last_fifth", last, "1/s", fifth);
  return committed;
}

void ReportLog(Report *report, Engine *engine, const Terminals &terminals, uint64_t txns) {
  const auto bytes = static_cast<double>(engine->log->BytesWritten() - terminals.LogBytesBefore());
  const auto records =
      static_cast<double>(engine->log->RecordsWritten() - terminals.LogRecordsBefore());
  report->Layer("log.bytes_per_txn", bytes / static_cast<double>(txns), "bytes", txns);
  report->Layer("log.records_per_txn", records / static_cast<double>(txns), "count", txns);
}

/// Everything both workloads report about the terminals once they have
/// joined. \return the committed mix transactions.
uint64_t ReportTpcc(Report *report, Terminals *terminals, const Window &window,
                    const CpuSampler &cpu, const metrics::MetricsSnapshot &delta) {
  std::vector<OpSample> committed = ReportTerminals(report, terminals->Results(), window);
  const uint64_t count = committed.size();
  report->Check("tpcc.committed", count > 0, std::to_string(count) + " mix transactions committed");
  ReportOps(report, &committed, window, cpu);
  ReportRegistry(report, delta);
  return count;
}

// -- worlds -------------------------------------------------------------------

struct OltpWorld {
  OltpWorld(const std::string &log_path, const tpcc::Config &config)
      : engine(log_path), db(&engine.catalog, config) {}
  Engine engine;
  tpcc::Database db;
};

struct HtapWorld {
  HtapWorld(const std::string &log_path, const tpcc::Config &config)
      : engine(log_path), db(&engine.catalog, config) {}
  Engine engine;
  tpcc::Database db;
  TpchTables tables;
  uint64_t base_orders = 0;
};

}  // namespace

void RunOltp(const Options &options, Report *report) {
  tpcc::Config config =
      options.smoke ? tpcc::Config::Scaled(1000, 30) : tpcc::Config::Scaled(10000, 300);
  config.num_warehouses = kTerminals;
  const std::string log_path = options.wal_dir + "/oltp.wal";
  const TerminalWork work = SizeWork(options, kOltpTxnsPerTerminalSecond);
  report->Knob("terminals", kTerminals);
  report->Knob("items", config.num_items);
  report->Knob("customers_per_district", config.customers_per_district);
  report->Knob("txns_per_terminal", static_cast<double>(work.txns));
  report->Knob("warmup_txns_per_terminal", static_cast<double>(work.warmup));
  report->Knob("wal", "on, engine group commit unchanged");
  const std::vector<int> terminal_cpus = ReserveTerminalCpus();
  report->Knob("cpus", DescribeCpus(terminal_cpus));

  auto world = RepeatSetup<OltpWorld>(options, report, [&] {
    trace::Span span("setup.load");
    auto w = std::make_unique<OltpWorld>(log_path, config);
    w->db.Load(&w->engine.txn_manager, kTerminals);
    WaitDurable(&w->engine);
    w->engine.gc.FullGC();
    return w;
  });
  Engine &engine = world->engine;
  tpcc::Database &db = world->db;
  const std::vector<storage::DataTable *> cold_tables = {&db.order->UnderlyingTable(),
                                                         &db.order_line->UnderlyingTable(),
                                                         &db.history->UnderlyingTable()};
  std::vector<storage::DataTable *> targets = cold_tables;
  targets.push_back(&db.item->UnderlyingTable());

  Transform transform(&engine, targets);
  GcLoop gc_loop(&engine.gc, std::chrono::milliseconds(10));
  CpuSampler cpu;
  Terminals terminals(&engine, &db, options, work, terminal_cpus, nullptr, 0);
  const Window window = terminals.Join();
  cpu.Stop();
  const metrics::MetricsSnapshot delta = terminals.RegistryDelta();
  const double frozen_pct = FrozenPct(cold_tables);
  const Transform::Drain drain = Transform::DrainAfterWriters(cold_tables);
  transform.Stop();
  const double gc_drain_ms = gc_loop.Drain();

  const uint64_t committed = ReportTpcc(report, &terminals, window, cpu, delta);
  ReportGc(report, &gc_loop, gc_drain_ms);
  ReportTransform(report, transform.Stats(), frozen_pct);
  report->Layer("transform.drain_ms", drain.ms, "ms", 1);
  report->Layer("transform.unfrozen_blocks_end", static_cast<double>(drain.unfrozen), "count", 1);
  ReportLog(report, &engine, terminals, committed);
}

void RunHtap(const Options &options, Report *report) {
  tpcc::Config config =
      options.smoke ? tpcc::Config::Scaled(1000, 30) : tpcc::Config::Scaled(10000, 300);
  config.num_warehouses = kTerminals;
  const uint64_t base_rows = options.smoke ? 5000 : 300000;
  const uint64_t part_rows = options.smoke ? 1000 : 20000;
  const std::string log_path = options.wal_dir + "/htap.wal";
  const TerminalWork work = SizeWork(options, kHtapTxnsPerTerminalSecond);
  report->Knob("terminals", kTerminals);
  report->Knob("query_workers", kHtapQueryWorkers);
  report->Knob("items", config.num_items);
  report->Knob("customers_per_district", config.customers_per_district);
  report->Knob("lineitem_base_rows", static_cast<double>(base_rows));
  report->Knob("part_rows", static_cast<double>(part_rows));
  report->Knob("feed_every_txns", static_cast<double>(kFeedEvery));
  report->Knob("feed_lineitems", static_cast<double>(kFeedLines));
  report->Knob("oracle_every", kOracleEvery);
  report->Knob("txns_per_terminal", static_cast<double>(work.txns));
  report->Knob("warmup_txns_per_terminal", static_cast<double>(work.warmup));
  report->Knob("wal", "on, engine group commit unchanged");
  const std::vector<int> terminal_cpus = ReserveTerminalCpus();
  report->Knob("cpus", DescribeCpus(terminal_cpus));

  auto world = RepeatSetup<HtapWorld>(options, report, [&] {
    trace::Span span("setup.load");
    auto w = std::make_unique<HtapWorld>(log_path, config);
    transaction::TransactionManager *tm = &w->engine.txn_manager;
    w->db.Load(tm, kTerminals);
    // GenerateLineItem advances the order key at most once per row and
    // about once per three rows on average: half the rows covers every
    // generated key, and feed keys start above it.
    w->base_orders = base_rows / 2;
    w->tables.lineitem = tpch::GenerateLineItem(&w->engine.catalog, tm, base_rows, options.seed);
    w->tables.orders =
        tpch::GenerateOrders(&w->engine.catalog, tm, w->base_orders, options.seed + 1);
    w->tables.part = tpch::GeneratePart(&w->engine.catalog, tm, part_rows, options.seed + 2);
    WaitDurable(&w->engine);
    w->engine.gc.FullGC();
    return w;
  });
  Engine &engine = world->engine;
  tpcc::Database &db = world->db;
  const TpchTables &tables = world->tables;
  const std::vector<storage::DataTable *> cold_tables = {
      &db.order->UnderlyingTable(),      &db.order_line->UnderlyingTable(),
      &db.history->UnderlyingTable(),    &tables.lineitem->UnderlyingTable(),
      &tables.orders->UnderlyingTable(), &tables.part->UnderlyingTable()};
  std::vector<storage::DataTable *> targets = cold_tables;
  targets.push_back(&db.item->UnderlyingTable());

  Transform transform(&engine, targets);
  GcLoop gc_loop(&engine.gc, std::chrono::milliseconds(10));
  CpuSampler cpu;
  Terminals terminals(&engine, &db, options, work, terminal_cpus, &tables,
                      world->base_orders + 1);

  // The coordinator: cycle the analytical queries until the terminals are
  // done (at least one full cycle), each under its own snapshot; every
  // kOracleEvery-th run of a query is re-answered by the scalar oracle in
  // that same snapshot, untimed. Latencies count while both terminals run.
  QueryLatencies queries;
  OperatorCosts operator_costs;
  uint64_t oracle_checks = 0;
  uint64_t oracle_mismatches = 0;
  {
    common::WorkerPool pool(kHtapQueryWorkers);
    const Query cycle[] = {Query::kQ1, Query::kQ6, Query::kQ12, Query::kQ14};
    uint32_t runs[4] = {0, 0, 0, 0};
    for (uint64_t i = 0; i < 4 || !terminals.Done(); i++) {
      const Query query = cycle[i % 4];
      const bool check = runs[i % 4]++ % kOracleEvery == 0;
      transaction::TransactionContext *txn = engine.txn_manager.BeginTransaction();
      execution::op::PlanProfile profile;
      const int64_t start = NowNs();
      Answer answer;
      {
        trace::Span span(QuerySpan(query));
        answer = RunPlan(query, tables, txn, &pool, trace::Enabled() ? &profile : nullptr);
      }
      const int64_t end = NowNs();
      const int64_t window_start = terminals.WindowStartNs();
      if (window_start != 0 && start >= window_start && !terminals.AnyFinished()) {
        queries.Add(query, static_cast<double>(end - start) / 1e6);
        if (trace::Enabled()) operator_costs.Add(profile, kHtapQueryWorkers);
      }
      if (check) {
        oracle_checks++;
        if (!(RunOracle(query, tables, txn) == answer)) oracle_mismatches++;
      }
      engine.txn_manager.Commit(txn);
    }
  }
  const Window window = terminals.Join();
  cpu.Stop();
  const metrics::MetricsSnapshot delta = terminals.RegistryDelta();
  const double frozen_pct = FrozenPct(cold_tables);

  // Every feed commit is durable once a later commit is.
  WaitDurable(&engine);
  Samples durable_wait_us;
  Samples commit_us;
  uint64_t feed_txns = 0;
  uint64_t not_durable = 0;
  for (Terminal &terminal : terminals.Results()) {
    commit_us.Append(terminal.feed_commit_us);
    for (uint64_t f = terminal.feed_measured_from; f < terminal.feed_txns; f++) {
      const int64_t durable = terminal.feed[f].durable_ns.load(std::memory_order_acquire);
      if (durable == 0) {
        not_durable++;
      } else {
        durable_wait_us.Add(static_cast<double>(durable - terminal.feed[f].commit_ns) / 1e3);
      }
    }
    feed_txns += terminal.feed_txns;
  }
  const Transform::Drain drain = Transform::DrainAfterWriters(cold_tables);
  transform.Stop();
  const double gc_drain_ms = gc_loop.Drain();

  const uint64_t committed = ReportTpcc(report, &terminals, window, cpu, delta);
  report->AddAttempted(feed_txns + oracle_checks);
  report->Check("htap.oracle", oracle_mismatches == 0 && oracle_checks > 0,
                std::to_string(oracle_mismatches) + " of " + std::to_string(oracle_checks) +
                    " same-snapshot oracle checks mismatched",
                std::max<uint64_t>(oracle_mismatches, 1));
  report->Check("htap.feed_durable", not_durable == 0,
                std::to_string(not_durable) + " acknowledged feed commits never became durable",
                std::max<uint64_t>(not_durable, 1));
  ReportGc(report, &gc_loop, gc_drain_ms);
  ReportTransform(report, transform.Stats(), frozen_pct);
  report->Layer("transform.drain_ms", drain.ms, "ms", 1);
  report->Layer("transform.unfrozen_blocks_end", static_cast<double>(drain.unfrozen), "count", 1);
  ReportLog(report, &engine, terminals, committed + feed_txns);
  report->Layer("txn.commit_us_p50", commit_us.Median(), "us", commit_us.Count());
  report->Layer("txn.commit_us_p99", commit_us.Percentile(0.99), "us", commit_us.Count());
  report->Layer("log.durable_wait_us_p50", durable_wait_us.Median(), "us",
                durable_wait_us.Count());
  report->Layer("log.durable_wait_us_p99", durable_wait_us.Percentile(0.99), "us",
                durable_wait_us.Count());
  queries.ReportTo(report);
  operator_costs.ReportTo(report);
  report->Knob("feed_txns", static_cast<double>(feed_txns));
}

}  // namespace mainline::e2e
