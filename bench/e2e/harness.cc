#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "storage/block_access_controller.h"
#include "storage/projected_row.h"
#include "storage/raw_block.h"
#include "workload/row_util.h"
#include "workload/tpch/lineitem.h"

namespace mainline::e2e {

namespace tpch = workload::tpch;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             common::Timer::Now().time_since_epoch())
      .count();
}

// -- Samples ------------------------------------------------------------------

void Samples::Append(const Samples &other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Percentile(double q) {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const auto n = static_cast<double>(values_.size());
  const double rank = std::clamp(std::ceil(q * n), 1.0, n);
  return values_[static_cast<size_t>(rank) - 1];
}

// -- Report -------------------------------------------------------------------

namespace {

std::string Quote(const std::string &text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full precision: the compare tooling needs every digit a run measured.
std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<Metric> &metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); i++) {
    const Metric &m = metrics[i];
    if (i > 0) out += ',';
    out += Quote(m.name) + ":{\"value\":" + Number(m.value) + ",\"unit\":" + Quote(m.unit) +
           ",\"n\":" + std::to_string(m.n) + "}";
  }
  return out + "}";
}

}  // namespace

void Report::Check(const std::string &name, bool ok, const std::string &detail, uint64_t ops) {
  checks_.push_back("{\"name\":" + Quote(name) + ",\"ok\":" + (ok ? "true" : "false") +
                    ",\"detail\":" + Quote(detail) + "}");
  if (!ok) {
    failed_checks_++;
    failed_ += ops;
  }
}

void Report::Knob(const std::string &name, const std::string &value) {
  knobs_.emplace_back(name, Quote(value));
}

void Report::Knob(const std::string &name, double value) {
  knobs_.emplace_back(name, Number(value));
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\":";
  out += Correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"end_to_end\":" + MetricsJson(end_to_end_);
  out += ",\"per_layer\":" + MetricsJson(layers_);
  auto join = [&out](const std::vector<std::string> &items) {
    for (size_t i = 0; i < items.size(); i++) {
      if (i > 0) out += ',';
      out += items[i];
    }
  };
  out += ",\"checks\":[";
  join(checks_);
  out += "],\"knobs\":{";
  std::vector<std::string> knobs;
  for (const auto &[name, value] : knobs_) knobs.push_back(Quote(name) + ":" + value);
  join(knobs);
  return out + "}}";
}

// -- trace --------------------------------------------------------------------

namespace trace {
namespace {

struct Record {
  const char *name;
  uint32_t thread;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  int64_t start_ns;
  int64_t end_ns;
};

/// One thread's spans. Owned by the global registry so they outlive the
/// thread; touched only by that thread until Write, which runs after every
/// traced thread has been joined.
struct ThreadLog {
  uint32_t thread = 0;
  uint64_t next_seq = 0;
  std::vector<std::pair<uint64_t, uint64_t>> open;  // (span id, request id)
  std::vector<Record> records;
};

// Written once by Enable before any traced thread starts; thread creation
// orders that store before every reader.
bool enabled = false;
common::Mutex registry_mutex;
std::vector<std::unique_ptr<ThreadLog>> registry GUARDED_BY(registry_mutex);

ThreadLog *Local() {
  thread_local ThreadLog *local = nullptr;
  if (local == nullptr) {
    auto log = std::make_unique<ThreadLog>();
    common::MutexGuard guard(&registry_mutex);
    log->thread = static_cast<uint32_t>(registry.size());
    log->records.reserve(1 << 16);
    local = log.get();
    registry.push_back(std::move(log));
  }
  return local;
}

}  // namespace

void Enable() { enabled = true; }
bool Enabled() { return enabled; }

Span::Span(const char *name) : name_(name) {
  if (!enabled) return;
  ThreadLog *log = Local();
  // Thread index in the high bits keeps ids unique without coordination.
  id_ = (static_cast<uint64_t>(log->thread + 1) << 40) | ++log->next_seq;
  if (log->open.empty()) {
    request_ = id_;
  } else {
    parent_ = log->open.back().first;
    request_ = log->open.back().second;
  }
  log->open.emplace_back(id_, request_);
  start_ns_ = NowNs();
}

Span::~Span() {
  if (id_ == 0) return;
  const int64_t end_ns = NowNs();
  ThreadLog *log = Local();
  log->open.pop_back();
  log->records.push_back({name_, log->thread, id_, parent_, request_, start_ns_, end_ns});
}

int64_t Write(const std::string &path) {
  std::FILE *file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return -1;
  std::fputs("# name\tthread\tid\tparent\trequest\tstart_ns\tend_ns\n", file);
  int64_t written = 0;
  common::MutexGuard guard(&registry_mutex);
  for (const auto &log : registry) {
    for (const Record &r : log->records) {
      std::fprintf(file, "%s\t%u\t%llu\t%llu\t%llu\t%lld\t%lld\n", r.name, r.thread,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.request), static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
      written++;
    }
  }
  return std::fclose(file) == 0 ? written : -1;
}

}  // namespace trace

// -- Engine, GcLoop -----------------------------------------------------------

Engine::Engine(const std::string &log_path)
    : block_store(100000, 1000),
      buffer_pool(0, 10000),
      catalog(&block_store),
      log(log_path.empty() ? nullptr : std::make_unique<logging::LogManager>(log_path)),
      txn_manager(&buffer_pool, true, log.get()),
      gc(&txn_manager) {
  if (log != nullptr) {
    log->SetTableResolver(
        [this](catalog::table_oid_t oid) { return &catalog.GetTable(oid)->UnderlyingTable(); });
    log->Start();
  }
}

GcLoop::GcLoop(gc::GarbageCollector *gc, std::chrono::milliseconds period)
    : gc_(gc), period_(period) {
  thread_ = std::thread([this] {
    metrics::Gauge *backlog = metrics::MetricsRegistry::Global().RegisterGauge("gc.backlog");
    while (run_.load(std::memory_order_acquire)) {
      const int64_t start = NowNs();
      {
        trace::Span span("gc.pass");
        gc_->PerformGarbageCollection();
      }
      pass_us_.Add(static_cast<double>(NowNs() - start) / 1e3);
      backlog_max_ = std::max(backlog_max_, backlog->Value());
      std::this_thread::sleep_for(period_);
    }
  });
}

void GcLoop::Stop() {
  run_.store(false, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

double GcLoop::Drain() {
  Stop();
  const int64_t start = NowNs();
  gc_->FullGC();
  return static_cast<double>(NowNs() - start) / 1e6;
}

// -- helpers ------------------------------------------------------------------

uint64_t CounterOf(const metrics::MetricsSnapshot &snapshot, const std::string &name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1;
}

void WaitDurable(Engine *engine) {
  std::atomic<uint32_t> done{0};
  transaction::TransactionContext *txn = engine->txn_manager.BeginTransaction();
  engine->txn_manager.Commit(
      txn,
      [](void *arg) {
        auto *flag = static_cast<std::atomic<uint32_t> *>(arg);
        flag->store(1, std::memory_order_release);
        flag->notify_one();
      },
      &done);
  done.wait(0, std::memory_order_acquire);
}

std::string LineItemChecksum::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "rows=%llu orderkey_sum=%lld quantity_sum=%.0f",
                static_cast<unsigned long long>(rows), static_cast<long long>(orderkey_sum),
                quantity_sum);
  return buf;
}

LineItemChecksum ScanLineItem(Engine *engine, catalog::SqlTable *lineitem) {
  const storage::ProjectedRowInitializer initializer =
      lineitem->InitializerForColumns({tpch::L_ORDERKEY, tpch::L_QUANTITY});
  std::vector<byte> buffer(initializer.ProjectedRowSize() + 8);
  storage::ProjectedRow *row = initializer.InitializeRow(buffer.data());
  const auto orderkey_idx =
      static_cast<uint16_t>(row->ProjectionIndex(storage::col_id_t(tpch::L_ORDERKEY)));
  const auto quantity_idx =
      static_cast<uint16_t>(row->ProjectionIndex(storage::col_id_t(tpch::L_QUANTITY)));

  LineItemChecksum sum;
  transaction::TransactionContext *txn = engine->txn_manager.BeginTransaction();
  for (auto it = lineitem->begin(); !it.Done(); ++it) {
    row = initializer.InitializeRow(buffer.data());
    if (!lineitem->Select(txn, *it, row)) continue;
    sum.rows++;
    sum.orderkey_sum += workload::Get<int64_t>(*row, orderkey_idx);
    sum.quantity_sum += workload::Get<double>(*row, quantity_idx);
  }
  engine->txn_manager.Commit(txn);
  return sum;
}

uint64_t FillLineItem(storage::ProjectedRow *row, int64_t orderkey, int32_t line,
                      common::Xorshift *rng, double *quantity) {
  static const char *kInstructions[] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                                        "TAKE BACK RETURN"};
  static const char *kModes[] = {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"};
  static const char *kFlags[] = {"R", "A", "N"};
  using workload::Set;
  using workload::SetVarchar;

  *quantity = static_cast<double>(rng->Uniform(1, 50));
  Set<int64_t>(row, tpch::L_ORDERKEY, orderkey);
  Set<int64_t>(row, tpch::L_PARTKEY, static_cast<int64_t>(rng->Uniform(1, 200000)));
  Set<int64_t>(row, tpch::L_SUPPKEY, static_cast<int64_t>(rng->Uniform(1, 10000)));
  Set<int32_t>(row, tpch::L_LINENUMBER, line);
  Set<double>(row, tpch::L_QUANTITY, *quantity);
  Set<double>(row, tpch::L_EXTENDEDPRICE, static_cast<double>(rng->Uniform(1000, 100000)) / 100);
  Set<double>(row, tpch::L_DISCOUNT, static_cast<double>(rng->Uniform(0, 10)) / 100);
  Set<double>(row, tpch::L_TAX, static_cast<double>(rng->Uniform(0, 8)) / 100);
  const auto ship = static_cast<uint32_t>(rng->Uniform(8000, 10500));
  Set<uint32_t>(row, tpch::L_SHIPDATE, ship);
  Set<uint32_t>(row, tpch::L_COMMITDATE, ship + static_cast<uint32_t>(rng->Uniform(1, 60)));
  Set<uint32_t>(row, tpch::L_RECEIPTDATE, ship + static_cast<uint32_t>(rng->Uniform(1, 30)));
  const std::string_view flag = kFlags[rng->Uniform(0, 2)];
  const std::string_view status = rng->Uniform(0, 1) == 0 ? "O" : "F";
  const std::string_view instruction = kInstructions[rng->Uniform(0, 3)];
  const std::string_view mode = kModes[rng->Uniform(0, 6)];
  const std::string comment = rng->AlphaString(10, 43);
  SetVarchar(row, tpch::L_RETURNFLAG, flag);
  SetVarchar(row, tpch::L_LINESTATUS, status);
  SetVarchar(row, tpch::L_SHIPINSTRUCT, instruction);
  SetVarchar(row, tpch::L_SHIPMODE, mode);
  SetVarchar(row, tpch::L_COMMENT, comment);
  // 3 bigints + 1 integer + 4 decimals + 3 dates.
  constexpr uint64_t kFixedBytes = 3 * 8 + 4 + 4 * 8 + 3 * 4;
  return kFixedBytes + flag.size() + status.size() + instruction.size() + mode.size() +
         comment.size();
}

double FrozenPct(const std::vector<storage::DataTable *> &tables) {
  uint64_t frozen = 0;
  uint64_t total = 0;
  for (storage::DataTable *table : tables) {
    for (storage::RawBlock *block : table->Blocks()) {
      total++;
      if (block->controller.GetState() == storage::BlockState::kFrozen) frozen++;
    }
  }
  return total == 0 ? 0 : 100.0 * static_cast<double>(frozen) / static_cast<double>(total);
}

void ReportRegistry(Report *report, const metrics::MetricsSnapshot &delta) {
  for (const char *name : {"storage.inserts", "storage.updates", "storage.deletes",
                           "storage.write_write_conflicts", "txn.commits", "txn.aborts",
                           "gc.txns_unlinked", "gc.txns_deallocated", "transform.passes",
                           "transform.blocks_frozen", "transform.tuples_moved",
                           "transform.compaction_aborts", "scan.rows", "scan.frozen_blocks",
                           "scan.hot_blocks"}) {
    report->Layer(name, static_cast<double>(CounterOf(delta, name)), "count", 1);
  }
  report->Layer("storage.varlen_bytes",
                static_cast<double>(CounterOf(delta, "storage.varlen_bytes")), "bytes", 1);
  auto total = [&](const char *name) -> uint64_t {
    const auto it = delta.histograms.find(name);
    return it == delta.histograms.end() ? 0 : it->second.total;
  };
  report->Layer("transform.pass_us_p50", delta.ValueAtQuantile("transform.pass_us", 0.5), "us",
                total("transform.pass_us"));
  report->Layer("pool.queue_wait_us_p50", delta.ValueAtQuantile("pool.queue_wait_us", 0.5),
                "us", total("pool.queue_wait_us"));
}

void ReportGc(Report *report, GcLoop *gc_loop, double drain_ms) {
  Samples &pass_us = gc_loop->PassUs();
  report->Layer("gc.pass_us_p50", pass_us.Median(), "us", pass_us.Count());
  report->Layer("gc.pass_us_p99", pass_us.Percentile(0.99), "us", pass_us.Count());
  report->Layer("gc.passes", static_cast<double>(pass_us.Count()), "count", 1);
  report->Layer("gc.backlog_max", static_cast<double>(gc_loop->BacklogMax()), "count", 1);
  report->Layer("gc.drain_ms", drain_ms, "ms", 1);
}

void ReportTransform(Report *report, const transform::TransformStats &stats, double frozen_pct) {
  const auto blocks = static_cast<double>(stats.blocks_frozen);
  report->Layer("transform.freeze_us_per_block",
                blocks == 0 ? 0 : static_cast<double>(stats.compaction_us + stats.gather_us) /
                                      blocks,
                "us", stats.blocks_frozen);
  report->Layer("transform.compaction_us", static_cast<double>(stats.compaction_us), "us", 1);
  report->Layer("transform.gather_us", static_cast<double>(stats.gather_us), "us", 1);
  report->Layer("transform.frozen_pct_end", frozen_pct, "%", 1);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval &tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

CpuSampler::CpuSampler() {
  readings_.emplace_back(NowNs(), CpuSeconds());
  thread_ = std::thread([this] {
    while (run_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      readings_.emplace_back(NowNs(), CpuSeconds());
    }
  });
}

void CpuSampler::Stop() {
  run_.store(false, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

double CpuSampler::At(int64_t ns) const {
  const auto after = std::lower_bound(
      readings_.begin(), readings_.end(), ns,
      [](const std::pair<int64_t, double> &reading, int64_t t) { return reading.first < t; });
  if (after == readings_.begin()) return after->second;
  if (after == readings_.end()) return readings_.back().second;
  const auto &[t1, cpu1] = *after;
  const auto &[t0, cpu0] = *(after - 1);
  return cpu0 + (cpu1 - cpu0) * static_cast<double>(ns - t0) / static_cast<double>(t1 - t0);
}

Window CloseWindow(int64_t start_ns, int64_t cutoff_ns) {
  Window window;
  window.start_ns = start_ns;
  window.cutoff_ns = cutoff_ns;
  window.end_ns = NowNs();
  window.peak_rss_mb = PeakRssMb();
  return window;
}

void ReportOps(Report *report, std::vector<OpSample> *samples, const Window &window,
               const CpuSampler &cpu) {
  constexpr size_t kSegments = 10;
  std::erase_if(*samples, [&](const OpSample &s) { return s.end_ns > window.cutoff_ns; });
  std::sort(samples->begin(), samples->end(),
            [](const OpSample &a, const OpSample &b) { return a.end_ns < b.end_ns; });
  const size_t n = samples->size();
  const size_t segments = std::min(n, kSegments);
  Samples throughput;
  Samples p50;
  Samples p90;
  Samples cpu_us;
  int64_t from = window.start_ns;
  for (size_t k = 0; k < segments; k++) {
    const size_t lo = k * n / segments;
    const size_t hi = (k + 1) * n / segments;
    const int64_t to = (*samples)[hi - 1].end_ns;
    const auto count = static_cast<double>(hi - lo);
    Samples latency;
    for (size_t i = lo; i < hi; i++) latency.Add((*samples)[i].latency_us);
    throughput.Add(count / (static_cast<double>(std::max<int64_t>(to - from, 1)) / 1e9));
    p50.Add(latency.Median());
    p90.Add(latency.Percentile(0.9));
    cpu_us.Add((cpu.At(to) - cpu.At(from)) * 1e6 / count);
    from = to;
  }
  report->EndToEnd("ops_per_s", throughput.Median(), "1/s", n);
  report->EndToEnd("op_p50_us", p50.Median(), "us", n);
  report->EndToEnd("op_p90_us", p90.Median(), "us", n);
  report->EndToEnd("peak_rss_mb", window.peak_rss_mb, "MiB", 1);
  report->Layer("process.cpu_us_per_op", cpu_us.Median(), "us", n);
  report->Knob("segments", static_cast<double>(segments));
  report->Knob("window_s", static_cast<double>(window.end_ns - window.start_ns) / 1e9);
  report->Knob("measured_s", static_cast<double>(window.cutoff_ns - window.start_ns) / 1e9);
}

}  // namespace mainline::e2e
