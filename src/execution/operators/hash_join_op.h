#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/worker_pool.h"
#include "execution/hash_join.h"
#include "execution/operators/operator.h"

namespace mainline::execution::op {

/// How the build side derives each entry's 8-byte payload — the value every
/// probe match hands downstream. String forms classify dictionary codes once
/// per batch, so frozen build scans never touch the strings row-by-row.
struct PayloadSpec {
  enum class Kind : uint8_t {
    kInt64Column,   ///< the value of an int64 column, verbatim
    kStringIn,      ///< 1 if a string column's value is in a literal list, else 0
    kStringPrefix,  ///< 1 if a string column's value starts with a prefix, else 0
    kF64Computed,   ///< the bits of a computed (projected) double column
  };

  Kind kind = Kind::kInt64Column;
  /// Batch column for the column kinds; ColumnRef::Computed index for
  /// kF64Computed.
  uint16_t col = 0;
  std::vector<std::string> strings;

  static PayloadSpec Int64Column(uint16_t col) {
    PayloadSpec p;
    p.kind = Kind::kInt64Column;
    p.col = col;
    return p;
  }
  static PayloadSpec StringIn(uint16_t col, std::vector<std::string> values) {
    MAINLINE_ASSERT(!values.empty(), "a StringIn payload needs at least one candidate");
    PayloadSpec p;
    p.kind = Kind::kStringIn;
    p.col = col;
    p.strings = std::move(values);
    return p;
  }
  static PayloadSpec StringPrefix(uint16_t col, std::string prefix) {
    PayloadSpec p;
    p.kind = Kind::kStringPrefix;
    p.col = col;
    p.strings.push_back(std::move(prefix));
    MAINLINE_ASSERT(!p.strings.empty(), "a StringPrefix payload needs its prefix");
    return p;
  }
  /// Payload = the bits of a projected double (a ProjectOp output), so a
  /// probe can recover the exact value with a bit cast — how Q3 ships each
  /// lineitem's revenue through the join.
  static PayloadSpec F64Computed(uint16_t computed_index) {
    PayloadSpec p;
    p.kind = Kind::kF64Computed;
    p.col = computed_index;
    return p;
  }

  /// String classification for kStringIn/kStringPrefix. A spec whose string
  /// list is empty (only constructible by bypassing the factories) matches
  /// nothing — guarded here because strings.front() would be UB.
  bool Matches(std::string_view value) const;
};

/// Pipeline-breaking sink that builds a JoinHashTable — the only way one is
/// built: Push collects each selected row's (key, payload) into a
/// per-block-ordinal entry list, and Finish hands the lists to
/// JoinHashTable::FromOrdinalLists, which scatters them in block order into
/// the partitioned table (parallel over the run's pool when one is
/// available), so partition contents and duplicate-match order stay
/// deterministic at any worker count. Rows with a null key or null payload
/// column are dropped (SQL join semantics).
///
/// A build downstream of a probe consumes the chunk's match list instead of
/// its selection vector — one entry per match, so join multiplicity carries
/// into the new table (the bushy-plan shape: build a table from an already
/// joined stream).
///
/// The build pipeline must Run before any pipeline probing this table;
/// PhysicalPlan runs pipelines in insertion order, which PipelineBuilder
/// arranges naturally.
class HashJoinBuildOp final : public Operator {
 public:
  HashJoinBuildOp(uint16_t key_col, PayloadSpec payload)
      : key_col_(key_col), payload_(std::move(payload)) {}

  void Prepare(size_t num_blocks) override {
    per_block_.assign(num_blocks, {});
    table_ = JoinHashTable();
  }

  void Push(Chunk *chunk) override;

  std::string Label() const override { return "HashJoinBuild"; }

  void Finish(common::WorkerPool *pool) override {
    table_ = JoinHashTable::FromOrdinalLists(per_block_, pool);
    per_block_.clear();
  }

  /// The finished table; valid once this operator's pipeline has Run.
  const JoinHashTable &Table() const { return table_; }

 private:
  uint16_t key_col_;
  PayloadSpec payload_;
  std::vector<std::vector<JoinEntry>> per_block_;
  JoinHashTable table_;
};

/// What a HashJoinProbeOp emits per input (a selected row on the first
/// probe; a prior match on a chained probe).
enum class ProbeEmit : uint8_t {
  /// One JoinMatch per matching build entry, in the table's deterministic
  /// match order; the consumed match's payload rides along in
  /// JoinMatch::prior. The default, and the ordinary join shape.
  kEachMatch = 0,
  /// One JoinMatch per input whose key matches at all, with payload = the
  /// bits of the double sum of every matching entry's payload (interpreted
  /// as doubles, added in the table's deterministic match order — so the sum
  /// is bit-exact at any worker count). Inputs with no match are dropped.
  /// This folds a one-to-many join edge into its aggregate in place: Q3 sums
  /// each order's lineitem revenues during the probe, so the revenue is
  /// complete the moment the chunk reaches the Top-K sink.
  kSumPayloadF64,
};

/// Probe a HashJoinBuildOp's table with an int64 key column. On a chunk's
/// first probe the selection is turned into the chunk's match list; on a
/// chunk that was already probed (multi-way joins) the existing match list
/// is consumed instead, each prior match re-probed by its row's key with the
/// prior payload carried along — so N-way joins chain N probe operators in
/// one pipeline. Match order stays deterministic either way: inputs in
/// selection/prior order, duplicates in the table's insertion order. Only
/// chunks with at least one resulting match flow on. Null keys match
/// nothing. The probe is read-only on the shared table, so any number of
/// workers push concurrently.
class HashJoinProbeOp final : public Operator {
 public:
  HashJoinProbeOp(uint16_t key_col, const HashJoinBuildOp *build,
                  ProbeEmit emit = ProbeEmit::kEachMatch)
      : key_col_(key_col), build_(build), emit_(emit) {}

  void Push(Chunk *chunk) override;

  std::string Label() const override { return "HashJoinProbe"; }

 private:
  uint16_t key_col_;
  const HashJoinBuildOp *build_;
  ProbeEmit emit_;
};

}  // namespace mainline::execution::op
