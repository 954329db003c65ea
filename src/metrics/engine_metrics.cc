#include "metrics/engine_metrics.h"

#include "common/pool_telemetry.h"

namespace mainline::metrics {

namespace {

// Static registrar that points common::WorkerPool's telemetry hook at the
// pool.* handles. Lives here rather than in common/ so the dependency runs
// strictly upward: the pool knows only the hook, and linking the metrics
// objects is what turns pool accounting on. The sink resolves Pool() per
// call (a function-local-static check), so installation order against other
// static initializers does not matter.
const bool pool_telemetry_installed = [] {
  common::PoolTelemetry::Install(+[](uint64_t queue_wait_us) {
    PoolMetrics &pool = Pool();
    pool.queue_wait_us->Observe(queue_wait_us);
    pool.tasks_run->Add(1);
  });
  return true;
}();

}  // namespace

StorageMetrics &Storage() {
  static StorageMetrics handles = [] {
    MetricsRegistry &r = MetricsRegistry::Global();
    return StorageMetrics{
        r.RegisterCounter("storage.inserts"),
        r.RegisterCounter("storage.updates"),
        r.RegisterCounter("storage.deletes"),
        r.RegisterCounter("storage.write_write_conflicts"),
        r.RegisterCounter("storage.varlen_bytes"),
    };
  }();
  return handles;
}

TxnMetrics &Txn() {
  static TxnMetrics handles = [] {
    MetricsRegistry &r = MetricsRegistry::Global();
    return TxnMetrics{
        r.RegisterCounter("txn.begins"),
        r.RegisterCounter("txn.commits"),
        r.RegisterCounter("txn.aborts"),
    };
  }();
  return handles;
}

LogMetrics &Log() {
  static LogMetrics handles = [] {
    MetricsRegistry &r = MetricsRegistry::Global();
    return LogMetrics{
        r.RegisterCounter("log.syncs"),
        r.RegisterHistogram("log.sync_us", {20, 50, 100, 200, 500, 1000, 2000, 5000, 20000,
                                            100000, 1000000}),
        r.RegisterHistogram("log.batch_txns", {1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}),
    };
  }();
  return handles;
}

GcMetrics &Gc() {
  static GcMetrics handles = [] {
    MetricsRegistry &r = MetricsRegistry::Global();
    return GcMetrics{
        r.RegisterCounter("gc.txns_unlinked"),
        r.RegisterCounter("gc.txns_deallocated"),
        r.RegisterGauge("gc.backlog"),
    };
  }();
  return handles;
}

TransformMetrics &Transform() {
  static TransformMetrics handles = [] {
    MetricsRegistry &r = MetricsRegistry::Global();
    return TransformMetrics{
        r.RegisterCounter("transform.passes"),
        r.RegisterCounter("transform.blocks_frozen"),
        r.RegisterCounter("transform.blocks_freed"),
        r.RegisterCounter("transform.tuples_moved"),
        r.RegisterCounter("transform.compaction_aborts"),
        r.RegisterGauge("transform.observer_queue_depth"),
        r.RegisterHistogram("transform.pass_us", {100, 1000, 10000, 100000, 1000000}),
        r.RegisterHistogram("transform.freeze_lag_us",
                            {1000, 10000, 100000, 1000000, 10000000}),
    };
  }();
  return handles;
}

PoolMetrics &Pool() {
  static PoolMetrics handles = [] {
    MetricsRegistry &r = MetricsRegistry::Global();
    return PoolMetrics{
        r.RegisterCounter("pool.tasks_run"),
        r.RegisterHistogram("pool.queue_wait_us", {1, 10, 100, 1000, 10000, 100000}),
    };
  }();
  return handles;
}

ScanMetrics &Scan() {
  static ScanMetrics handles = [] {
    MetricsRegistry &r = MetricsRegistry::Global();
    return ScanMetrics{
        r.RegisterCounter("scan.rows"),
        r.RegisterCounter("scan.frozen_blocks"),
        r.RegisterCounter("scan.hot_blocks"),
        r.RegisterCounter("scan.morsel_scans"),
    };
  }();
  return handles;
}

}  // namespace mainline::metrics
