#pragma once

#include "metrics/metrics_registry.h"

// Pre-registered handles for every metric the engine's subsystems emit, so
// hot paths pay one function-local-static check plus a relaxed sharded
// increment — never a registry lookup. Each accessor registers its metrics
// on first use against MetricsRegistry::Global() and returns the same struct
// forever after; all handles are safe from any thread, including WorkerPool
// workers. The dotted names below are the keys that appear in
// MetricsSnapshot::ToJson().

namespace mainline::metrics {

/// storage.* — DataTable write paths.
struct StorageMetrics {
  Counter *inserts;               ///< storage.inserts — tuples inserted
  Counter *updates;               ///< storage.updates — successful in-place updates
  Counter *deletes;               ///< storage.deletes — successful logical deletes
  Counter *write_write_conflicts; ///< storage.write_write_conflicts — first-writer-wins losses
  Counter *varlen_bytes;          ///< storage.varlen_bytes — bytes of varlen payload copied in
};
StorageMetrics &Storage();

/// txn.* — transaction lifecycle.
struct TxnMetrics {
  Counter *begins;   ///< txn.begins
  Counter *commits;  ///< txn.commits
  Counter *aborts;   ///< txn.aborts
};
TxnMetrics &Txn();

/// log.* — the write-ahead log's group commit: one synced frame per batch.
struct LogMetrics {
  Counter *syncs;         ///< log.syncs — frames written with a synced write
  Histogram *sync_us;     ///< log.sync_us — one frame's write until durable
  Histogram *batch_txns;  ///< log.batch_txns — submissions per synced frame
};
LogMetrics &Log();

/// gc.* — epoch-based garbage collection progress and backlog.
struct GcMetrics {
  Counter *txns_unlinked;     ///< gc.txns_unlinked — version chains unlinked
  Counter *txns_deallocated;  ///< gc.txns_deallocated — txns whose buffers were freed
  Gauge *backlog;             ///< gc.backlog — txns + deferred actions still queued after a pass
};
GcMetrics &Gc();

/// transform.* — the hot→frozen pipeline (TransformStats folded in per pass).
struct TransformMetrics {
  Counter *passes;                ///< transform.passes — RunOnce invocations
  Counter *blocks_frozen;         ///< transform.blocks_frozen
  Counter *blocks_freed;          ///< transform.blocks_freed — emptied by compaction
  Counter *tuples_moved;          ///< transform.tuples_moved — compaction relocations
  Counter *compaction_aborts;     ///< transform.compaction_aborts — lost to concurrent writers
  Gauge *observer_queue_depth;    ///< transform.observer_queue_depth — watched + pending blocks
  Histogram *pass_us;             ///< transform.pass_us — RunOnce wall time
  Histogram *freeze_lag_us;       ///< transform.freeze_lag_us — per block, intake → frozen
};
TransformMetrics &Transform();

/// pool.* — WorkerPool task flow.
struct PoolMetrics {
  Counter *tasks_run;        ///< pool.tasks_run — tasks executed by workers
  Histogram *queue_wait_us;  ///< pool.queue_wait_us — submit → start latency
};
PoolMetrics &Pool();

/// scan.* — morsel-driven parallel scans.
struct ScanMetrics {
  Counter *rows;           ///< scan.rows — tuples surfaced to consumers
  Counter *frozen_blocks;  ///< scan.frozen_blocks — blocks read zero-copy
  Counter *hot_blocks;     ///< scan.hot_blocks — blocks materialized transactionally
  Counter *morsel_scans;   ///< scan.morsel_scans — op::ScanSource::Run calls
};
ScanMetrics &Scan();

}  // namespace mainline::metrics
