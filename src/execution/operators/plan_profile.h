#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "execution/scan_block.h"
#include "metrics/metrics_registry.h"

namespace mainline::execution::op {

/// What one operator did during one plan run. Row counts are merged from
/// per-block-ordinal slots in ordinal order, so they are identical at any
/// worker count; elapsed times are wall-clock measurements and naturally
/// vary run to run.
struct OperatorProfile {
  std::string label;
  uint64_t rows_in = 0;   ///< rows entering Push, summed over chunks
  uint64_t rows_out = 0;  ///< rows the next operator received (0 for sinks)
  uint64_t chunks = 0;    ///< Push invocations (non-empty blocks that reached it)
  /// Time inside this operator's Push *including* everything it pushed
  /// downstream, summed across workers (so it can exceed wall time).
  uint64_t inclusive_ns = 0;
  /// inclusive_ns minus the successor's inclusive_ns: time attributable to
  /// this operator alone.
  uint64_t exclusive_ns = 0;
  /// Time in this operator's Finish (a join build's table construction, an
  /// aggregate's merge) — part of the pipeline's finish_ns, not of the above.
  uint64_t finish_ns = 0;
  /// A join build's table: "dense" or "hashed" (empty for other operators)
  /// and the bytes its arrays hold.
  std::string layout;
  uint64_t table_bytes = 0;

  double Selectivity() const {
    return rows_in == 0 ? 0.0 : static_cast<double>(rows_out) / static_cast<double>(rows_in);
  }
};

/// One pipeline's run: its scan source plus the operator chain it fed.
struct PipelineProfile {
  std::string source;      ///< e.g. "table#3"
  size_t num_blocks = 0;   ///< block-list snapshot size (ordinal space)
  ScanStats scan;          ///< this run's scan contribution only
  uint64_t wall_ns = 0;    ///< driving-thread wall time: scan + finish
  uint64_t finish_ns = 0;  ///< Finish phase alone (merges, sorts)
  std::vector<OperatorProfile> operators;
};

/// The full EXPLAIN ANALYZE record for one PhysicalPlan::Run.
struct PlanProfile {
  std::vector<PipelineProfile> pipelines;

  /// Human-readable plan tree with per-operator rows/selectivity/time — the
  /// EXPLAIN ANALYZE rendering.
  std::string ToString() const;

  /// Machine-readable form, embedded by the bench binaries into their
  /// METRICS_JSON report line.
  std::string ToJson() const;
};

/// Per-run recorder attached to one operator while profiling is on. Row
/// counts go into per-ordinal slots — each ordinal is owned by exactly one
/// worker at a time, and the pool wait orders those plain writes before the
/// driving thread reads them (the same discipline sink operators use for
/// their partials). Elapsed time goes into per-shard atomic slots keyed by
/// metrics::ThreadShardIndex, so concurrent workers never contend.
class OperatorProfiler {
 public:
  void Prepare(size_t num_blocks) {
    rows_.assign(num_blocks, 0);
    pushes_.assign(num_blocks, 0);
    // relaxed: reset runs before any worker is handed the profiler; the pool
    // submit that starts them publishes these stores.
    for (Shard &shard : shards_) shard.ns.store(0, std::memory_order_relaxed);
  }

  /// Worker thread, before Push: `rows` entering for this ordinal.
  void RecordRows(size_t ordinal, uint64_t rows) {
    rows_[ordinal] += rows;
    pushes_[ordinal]++;
  }

  /// Worker thread, after Push returns: nanoseconds spent (inclusive).
  void RecordElapsed(uint64_t ns) {
    // relaxed: per-shard tally; the pool quiesce (common::RunTasks' wait)
    // orders every increment before the driving thread aggregates.
    shards_[metrics::ThreadShardIndex()].ns.fetch_add(ns, std::memory_order_relaxed);
  }

  // Driving-thread aggregation (after the pool has quiesced).

  uint64_t TotalRows() const {
    uint64_t total = 0;
    for (const uint64_t rows : rows_) total += rows;
    return total;
  }

  uint64_t TotalChunks() const {
    uint64_t total = 0;
    for (const uint64_t pushes : pushes_) total += pushes;
    return total;
  }

  uint64_t TotalElapsedNs() const {
    uint64_t total = 0;
    // relaxed: read only after the pool has quiesced, which already
    // happens-before this thread; no further ordering needed.
    for (const Shard &shard : shards_) total += shard.ns.load(std::memory_order_relaxed);
    return total;
  }

 private:
  std::vector<uint64_t> rows_;
  std::vector<uint64_t> pushes_;
  struct alignas(64) Shard {
    std::atomic<uint64_t> ns{0};
  };
  Shard shards_[metrics::kNumShards];
};

}  // namespace mainline::execution::op
