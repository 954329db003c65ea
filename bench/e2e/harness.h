#pragma once

// Shared machinery of the end-to-end benchmark driver: the engine wiring
// (WAL on or off), the driver-owned GC loop, span tracing, sample summaries,
// and the result report. Every measurement here is taken from outside the
// engine — the driver times calls into public functions and reads the
// engine's own metrics registry; nothing under src/ is instrumented.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/rand_util.h"
#include "gc/garbage_collector.h"
#include "logging/log_manager.h"
#include "metrics/metrics_registry.h"
#include "storage/projected_row.h"
#include "storage/record_buffer.h"
#include "transaction/transaction_manager.h"
#include "transform/block_transformer.h"

namespace mainline::e2e {

/// Nanoseconds on the steady clock (the engine's timing clock, common::Timer).
int64_t NowNs();

/// Command-line options of one driver invocation (one workload, one process).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Work budget: each workload does a fixed amount of work per budget second,
  /// sized so the measured window lasts about this long on the reference host.
  double seconds = 10;
  /// Tiny scale for CI smoke runs.
  bool smoke = false;
  /// Directory for the write-ahead log (empty: the workload runs without one).
  std::string wal_dir;
  /// Where spans are written at exit; tracing is off when empty.
  std::string trace_path;
};

/// Sorted-sample summaries with the nearest-rank percentile rule: the value
/// at rank ceil(q * n), 1-based, clamped into [1, n].
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples &other);
  size_t Count() const { return values_.size(); }
  /// \return 0 when empty.
  double Percentile(double q);
  double Median() { return Percentile(0.5); }

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

/// One reported number: value, unit and the sample count behind it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t n = 0;
};

/// Everything one run reports. Rendered as one JSON line at exit.
class Report {
 public:
  void EndToEnd(const std::string &name, double value, const std::string &unit, uint64_t n) {
    end_to_end_.push_back({name, value, unit, n});
  }
  void Layer(const std::string &name, double value, const std::string &unit, uint64_t n) {
    layers_.push_back({name, value, unit, n});
  }
  /// A correctness gate: a false `ok` fails the run and counts `ops` failed.
  void Check(const std::string &name, bool ok, const std::string &detail, uint64_t ops = 1);
  void Knob(const std::string &name, const std::string &value);
  void Knob(const std::string &name, double value);
  void AddAttempted(uint64_t ops) { attempted_ += ops; }

  bool Correct() const { return failed_checks_ == 0; }
  std::string ToJson() const;

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::string> checks_;  // pre-rendered JSON objects
  std::vector<std::pair<std::string, std::string>> knobs_;  // name, JSON value
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t failed_checks_ = 0;
};

/// Span recorder. Spans are kept in per-thread memory and written out once,
/// at exit; when tracing is off a Span costs one branch.
namespace trace {

/// Turn tracing on; call before any traced thread starts.
void Enable();
bool Enabled();

/// A timed interval around one layer call. Nested spans on the same thread
/// become children of the enclosing span; a span with no enclosing span
/// starts a new request id, which its descendants inherit.
class Span {
 public:
  /// \param name a string literal ("layer.operation"); its storage must
  ///        outlive the trace
  explicit Span(const char *name);
  ~Span();

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

 private:
  const char *name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  int64_t start_ns_ = 0;
};

/// Write every recorded span as tab-separated lines
/// (name, thread, id, parent, request, start_ns, end_ns).
/// \return the number of spans written, or -1 if the file could not be written.
int64_t Write(const std::string &path);

}  // namespace trace

/// One engine instance: storage, catalog, transactions, GC, and — when
/// `log_path` is non-empty — a write-ahead log with the engine's group commit.
/// Member order is destruction order reversed: the GC drains first, then the
/// transaction manager shuts the log down, then the log, the catalog's
/// tables and the pools go.
class Engine {
 public:
  explicit Engine(const std::string &log_path);

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  storage::BlockStore block_store;
  storage::RecordBufferSegmentPool buffer_pool;
  catalog::Catalog catalog;
  std::unique_ptr<logging::LogManager> log;
  transaction::TransactionManager txn_manager;
  gc::GarbageCollector gc;
};

/// The driver-owned GC loop: calls PerformGarbageCollection every `period`
/// and times each call. The destructor stops the loop (it never drains;
/// Drain() does, timed).
class GcLoop {
 public:
  GcLoop(gc::GarbageCollector *gc, std::chrono::milliseconds period);
  ~GcLoop() { Stop(); }

  GcLoop(const GcLoop &) = delete;
  GcLoop &operator=(const GcLoop &) = delete;

  /// Stop the loop and join its thread (idempotent).
  void Stop();
  /// Stop, then run the collector to quiescence. \return milliseconds taken.
  double Drain();

  /// Pass durations (us) and the largest gc.backlog seen after a pass; read
  /// only after Stop.
  Samples &PassUs() { return pass_us_; }
  int64_t BacklogMax() const { return backlog_max_; }

 private:
  gc::GarbageCollector *gc_;
  std::chrono::milliseconds period_;
  Samples pass_us_;
  int64_t backlog_max_ = 0;
  std::atomic<bool> run_{true};
  std::thread thread_;
};

/// A before/after view of the engine's global metrics registry.
class RegistryWindow {
 public:
  RegistryWindow() : before_(metrics::MetricsRegistry::Global().Snapshot()) {}
  /// \return what happened since construction.
  metrics::MetricsSnapshot Delta() const {
    return metrics::MetricsRegistry::Global().Snapshot().Delta(before_);
  }

 private:
  metrics::MetricsSnapshot before_;
};

/// Counter `name` in `snapshot`, 0 if absent.
uint64_t CounterOf(const metrics::MetricsSnapshot &snapshot, const std::string &name);

/// A deterministic per-stream seed derived from the run's --seed.
uint64_t Mix(uint64_t seed, uint64_t stream);

/// Commit an empty transaction with a durability callback and wait for it.
/// The log serializes submissions in order, so when this returns every
/// earlier commit is durable too (immediately, without a WAL).
void WaitDurable(Engine *engine);

/// Row count and two column sums of a LINEITEM-shaped table, read one
/// visible tuple at a time in a fresh snapshot — the reference the ingest
/// recovery and export checks compare against.
struct LineItemChecksum {
  uint64_t rows = 0;
  int64_t orderkey_sum = 0;
  double quantity_sum = 0;  // quantities are small integers: sums are exact

  bool operator==(const LineItemChecksum &) const = default;
  std::string ToString() const;
};
LineItemChecksum ScanLineItem(Engine *engine, catalog::SqlTable *lineitem);

/// Fill one LINEITEM row: `orderkey` and `line`, the rest drawn from `rng`
/// in the ranges workload/tpch's generator uses. `*quantity` receives
/// l_quantity. \return the row's user payload in bytes: fixed-width
/// attributes plus varchar contents.
uint64_t FillLineItem(storage::ProjectedRow *row, int64_t orderkey, int32_t line,
                      common::Xorshift *rng, double *quantity);

/// Frozen share (%) of the blocks of `tables`.
double FrozenPct(const std::vector<storage::DataTable *> &tables);

/// The window's registry deltas every workload reports: storage, txn, gc,
/// transform and scan counters, and the transform-pass and pool-wait medians.
void ReportRegistry(Report *report, const metrics::MetricsSnapshot &delta);
/// The GC loop's pass times, pass count, backlog and closing drain.
void ReportGc(Report *report, GcLoop *gc_loop, double drain_ms);
/// Freeze cost from the transformer's own counters, and the frozen share
/// of the workload's cold tables when its window closed.
void ReportTransform(Report *report, const transform::TransformStats &stats, double frozen_pct);

/// CPU seconds (user + system) this process has used so far.
double CpuSeconds();
/// Peak resident set size of this process, in MiB.
double PeakRssMb();

constexpr int kSetupReps = 3;

/// Run `setup` kSetupReps times (once in a smoke run), keeping the last
/// result, and report the median wall time as setup_s. Earlier results are
/// destroyed before the next repetition starts, untimed.
template <typename World, typename Setup>
std::unique_ptr<World> RepeatSetup(const Options &options, Report *report, Setup &&setup) {
  const int reps = options.smoke ? 1 : kSetupReps;
  Samples seconds;
  std::unique_ptr<World> world;
  for (int r = 0; r < reps; r++) {
    world.reset();
    const int64_t start = NowNs();
    world = setup();
    seconds.Add(static_cast<double>(NowNs() - start) / 1e9);
  }
  report->EndToEnd("setup_s", seconds.Median(), "s", seconds.Count());
  report->Knob("setup_reps", reps);
  return world;
}

/// One completed operation of the measured window.
struct OpSample {
  int64_t end_ns;
  float latency_us;
};

/// Reads the process's CPU time every 10 ms on its own thread, so CPU per
/// operation can be taken over any stretch of the window.
class CpuSampler {
 public:
  CpuSampler();
  ~CpuSampler() { Stop(); }

  CpuSampler(const CpuSampler &) = delete;
  CpuSampler &operator=(const CpuSampler &) = delete;

  /// Stop sampling and join the thread (idempotent).
  void Stop();
  /// CPU seconds at steady-clock time `ns`, interpolated between the
  /// readings around it. Valid after Stop.
  double At(int64_t ns) const;

 private:
  std::vector<std::pair<int64_t, double>> readings_;  // (ns, CPU seconds)
  std::atomic<bool> run_{true};
  std::thread thread_;
};

/// The measured window of a workload. With several closed-loop clients
/// doing fixed work each, the clients finish at different times; the
/// stretch after the first one finishes runs with fewer clients, so the
/// end-to-end statistics stop at `cutoff_ns`.
struct Window {
  int64_t start_ns = 0;
  int64_t cutoff_ns = 0;
  int64_t end_ns = 0;
  /// Peak RSS when the window closed, before any post-window checking.
  double peak_rss_mb = 0;
};

/// Close a window that opened at `start_ns` and whose first client finished
/// at `cutoff_ns`: stamps the end and the peak RSS.
Window CloseWindow(int64_t start_ns, int64_t cutoff_ns);

/// The end-to-end metrics every workload shares. The samples that complete
/// inside [start, cutoff] are split, in completion order, into up to ten
/// segments of equal count; each metric is the median over the segments of
/// that segment's throughput, p50 or p90 latency, or CPU time per
/// operation, so a transient stall of the host moves one segment rather
/// than the result. p90 is the tail every workload's segments support
/// (analytics has about 20 queries per segment). peak_rss_mb is read when
/// the window closed. CPU time per operation is a per-layer metric
/// (process.cpu_us_per_op): it spread too far between runs to bound.
void ReportOps(Report *report, std::vector<OpSample> *samples, const Window &window,
               const CpuSampler &cpu);

void RunOltp(const Options &options, Report *report);
void RunIngest(const Options &options, Report *report);
void RunAnalytics(const Options &options, Report *report);
void RunHtap(const Options &options, Report *report);

}  // namespace mainline::e2e
