#include "common/worker_pool.h"
#include "arrowlite/array.h"
#include "arrowlite/type.h"
#include "common/selection_vector.h"
#include "execution/operators/aggregate_op.h"

#include <algorithm>
#include <array>
#include <string_view>
#include <type_traits>

namespace mainline::execution::op {

AggregateOp::AggregateOp(std::vector<uint16_t> group_cols, std::vector<AggSpec> aggs)
    : group_cols_(std::move(group_cols)), aggs_(std::move(aggs)) {
  MAINLINE_ASSERT(group_cols_.size() <= 2, "at most two group-by columns are supported");
  MAINLINE_ASSERT(!aggs_.empty(), "an aggregate needs at least one AggSpec");
  for (const AggSpec &spec : aggs_) {
    if (spec.kind == AggSpec::Kind::kSumPayload || spec.payload_gate) needs_payload_ = true;
  }
}

AggregateOp::GroupAcc AggregateOp::NewGroup(std::vector<std::string> keys) const {
  GroupAcc acc;
  acc.keys = std::move(keys);
  acc.values.resize(aggs_.size());
  for (size_t i = 0; i < aggs_.size(); i++) {
    if (aggs_[i].kind == AggSpec::Kind::kMin) {
      acc.values[i].f64 = std::numeric_limits<double>::infinity();
    } else if (aggs_[i].kind == AggSpec::Kind::kMax) {
      acc.values[i].f64 = -std::numeric_limits<double>::infinity();
    }
  }
  return acc;
}

/// Pass 1 of a grouped Push: resolve each row's group to its index in one
/// block partial. Groups are created at first occurrence, so a partial's
/// discovery order is the row/match order — the same order a scalar
/// tuple-at-a-time pass discovers them in. Dictionary-encoded group columns
/// resolve by code through a dense cache (code-pair addressed for two
/// columns), touching each distinct string only once per block. Plain string
/// keys of at most 7 bytes are packed with their length into one word each
/// and resolve through a small direct-mapped cache of those words; longer
/// keys, and mixed plain/dictionary column sets, compare strings.
class AggregateOp::Resolver {
 public:
  Resolver(const AggregateOp &op, const Chunk &chunk) : op_(op), n_(op.group_cols_.size()) {
    bool all_dictionary = true, all_plain = true;
    for (size_t i = 0; i < n_; i++) {
      const arrowlite::Array *col = &chunk.batch->Column(op.group_cols_[i]);
      cols_[i] = col;
      if (col->type() != arrowlite::Type::kDictionary) all_dictionary = false;
      if (col->type() == arrowlite::Type::kString) {
        offsets_[i] = col->buffer(0)->data_as<int32_t>();
        chars_[i] = col->buffer(1)->data_as<uint8_t>();
      } else {
        all_plain = false;
      }
    }
    if (all_plain) {
      mode_ = Mode::kPacked;
      return;
    }
    if (!all_dictionary) {
      mode_ = Mode::kGeneric;
      return;
    }
    codes_a_ = cols_[0]->buffer(0)->data_as<int32_t>();
    const auto len_a = static_cast<size_t>(cols_[0]->dictionary()->length());
    if (n_ == 1) {
      mode_ = Mode::kDict1;
      cache_.assign(len_a, -1);
    } else {
      mode_ = Mode::kDict2;
      codes_b_ = cols_[1]->buffer(0)->data_as<int32_t>();
      num_b_ = static_cast<size_t>(cols_[1]->dictionary()->length());
      cache_.assign(len_a * num_b_, -1);
    }
  }

  uint32_t FindOrAdd(Partial *partial, uint32_t row) {
    switch (mode_) {
      case Mode::kPacked:
        return FindOrAddPacked(partial, row);
      case Mode::kDict1: {
        const auto code = static_cast<size_t>(codes_a_[row]);
        int32_t g = cache_[code];
        if (UNLIKELY(g < 0)) {
          g = Lookup(partial, {cols_[0]->dictionary()->GetString(codes_a_[row])});
          cache_[code] = g;
        }
        return static_cast<uint32_t>(g);
      }
      case Mode::kDict2: {
        const size_t pair =
            static_cast<size_t>(codes_a_[row]) * num_b_ + static_cast<size_t>(codes_b_[row]);
        int32_t g = cache_[pair];
        if (UNLIKELY(g < 0)) {
          g = Lookup(partial, {cols_[0]->dictionary()->GetString(codes_a_[row]),
                               cols_[1]->dictionary()->GetString(codes_b_[row])});
          cache_[pair] = g;
        }
        return static_cast<uint32_t>(g);
      }
      case Mode::kGeneric:
      default:
        // Array::GetString resolves dictionary codes itself, so mixed
        // plain/dictionary column sets land here and still work.
        return static_cast<uint32_t>(Lookup(partial, Keys(row)));
    }
  }

 private:
  enum class Mode : uint8_t { kPacked, kDict1, kDict2, kGeneric };

  /// A direct-mapped cache slot: one group's packed keys and its index.
  struct PackedSlot {
    std::array<uint64_t, 2> words = {0, 0};
    int32_t group = -1;
  };
  static constexpr int kPackedSlotBits = 6;
  static constexpr uint64_t kUnpackable = ~uint64_t{0};

  /// Group column `i`'s key at `row` as one word: its bytes in the low seven
  /// bytes and its length in the top one, so distinct keys of at most 7
  /// bytes get distinct words. \return kUnpackable for a longer key.
  uint64_t Pack(size_t i, uint32_t row) const {
    const int32_t begin = offsets_[i][row];
    const auto len = static_cast<uint32_t>(offsets_[i][row + 1] - begin);
    if (len > 7) return kUnpackable;
    const uint8_t *chars = chars_[i] + begin;
    uint64_t word = uint64_t{len} << 56;
    for (uint32_t b = 0; b < len; b++) word |= uint64_t{chars[b]} << (8 * b);
    return word;
  }

  uint32_t FindOrAddPacked(Partial *partial, uint32_t row) {
    const std::array<uint64_t, 2> words = {Pack(0, row), n_ == 2 ? Pack(1, row) : 0};
    if (UNLIKELY(words[0] == kUnpackable || words[1] == kUnpackable)) {
      return static_cast<uint32_t>(Lookup(partial, Keys(row)));
    }
    const uint64_t hash = (words[0] ^ (words[1] * 0x9E3779B97F4A7C15ull)) * 0xFF51AFD7ED558CCDull;
    PackedSlot *slot = &packed_[hash >> (64 - kPackedSlotBits)];
    if (LIKELY(slot->group >= 0 && slot->words == words)) {
      return static_cast<uint32_t>(slot->group);
    }
    slot->words = words;
    slot->group = Lookup(partial, Keys(row));
    return static_cast<uint32_t>(slot->group);
  }

  std::array<std::string_view, 2> Keys(uint32_t row) const {
    std::array<std::string_view, 2> keys;
    for (size_t i = 0; i < n_; i++) keys[i] = cols_[i]->GetString(row);
    return keys;
  }

  /// Linear probe over the partial's groups (group counts are tiny — Q1's
  /// six is the largest so far), appending a new group on miss.
  int32_t Lookup(Partial *partial, std::array<std::string_view, 2> keys) const {
    for (size_t g = 0; g < partial->size(); g++) {
      const GroupAcc &acc = (*partial)[g];
      bool match = true;
      for (size_t i = 0; i < n_; i++) {
        if (acc.keys[i] != keys[i]) {
          match = false;
          break;
        }
      }
      if (match) return static_cast<int32_t>(g);
    }
    std::vector<std::string> owned;
    owned.reserve(n_);
    for (size_t i = 0; i < n_; i++) owned.emplace_back(keys[i]);
    partial->push_back(op_.NewGroup(std::move(owned)));
    return static_cast<int32_t>(partial->size() - 1);
  }

  const AggregateOp &op_;
  const size_t n_;
  Mode mode_ = Mode::kGeneric;
  std::array<const arrowlite::Array *, 2> cols_ = {nullptr, nullptr};
  std::array<const int32_t *, 2> offsets_ = {nullptr, nullptr};
  std::array<const uint8_t *, 2> chars_ = {nullptr, nullptr};
  std::array<PackedSlot, size_t{1} << kPackedSlotBits> packed_;
  const int32_t *codes_a_ = nullptr;
  const int32_t *codes_b_ = nullptr;
  size_t num_b_ = 0;
  std::vector<int32_t> cache_;
};

namespace {

/// \return the number of the chunk's inputs: selected rows or join matches.
size_t NumInputs(const Chunk &chunk) {
  return chunk.probed ? chunk.matches.size() : chunk.sel.Size();
}

/// Call `f(k, row, payload)` for the chunk's k-th input — selected row or
/// join match — in row/match order.
template <typename F>
void ForEachInput(const Chunk &chunk, F &&f) {
  uint32_t k = 0;
  if (chunk.probed) {
    for (const JoinMatch &match : chunk.matches) f(k++, match.row, match.payload);
  } else {
    for (const uint32_t row : chunk.sel) f(k++, row, uint64_t{0});
  }
}

/// Fold an expression aggregate: `combine` each input's value into
/// `acc[group(k)]`, in input order, with the expression form and the null
/// test hoisted out of the loop. Inputs with a null source, or a zero
/// payload under `gate`, are skipped.
template <typename GroupOf, typename Combine>
void FoldExpr(const Chunk &chunk, const BoundExpr &e, bool gate, GroupOf group, AggValue *acc,
              Combine combine) {
  e.Dispatch([&](const auto &value) {
    const auto each = [&](auto nullable) {
      ForEachInput(chunk, [&](uint32_t k, uint32_t row, uint64_t payload) {
        if (gate && payload == 0) return;
        if (nullable && e.IsNull(row)) return;
        combine(&acc[group(k)].f64, value(row));
      });
    };
    if (e.NullFree()) {
      each(std::false_type{});
    } else {
      each(std::true_type{});
    }
  });
}

/// Fold one aggregate over the chunk's inputs into `acc[group(k)]` for the
/// k-th input, in row/match order — so every accumulator takes its inputs in
/// the order a row-at-a-time pass would, and the result is bit-identical.
template <typename GroupOf>
void Fold(const Chunk &chunk, const AggSpec &spec, const BoundExpr &e, GroupOf group,
          AggValue *acc) {
  switch (spec.kind) {
    case AggSpec::Kind::kCount:
      ForEachInput(chunk, [&](uint32_t k, uint32_t, uint64_t) { acc[group(k)].u64++; });
      break;
    case AggSpec::Kind::kSumPayload:
      ForEachInput(chunk, [&](uint32_t k, uint32_t, uint64_t payload) {
        acc[group(k)].u64 += payload;
      });
      break;
    case AggSpec::Kind::kSum:
      FoldExpr(chunk, e, spec.payload_gate, group, acc, [](double *sum, double x) { *sum += x; });
      break;
    case AggSpec::Kind::kMin:
      FoldExpr(chunk, e, false, group, acc, [](double *min, double x) {
        if (x < *min) *min = x;
      });
      break;
    case AggSpec::Kind::kMax:
      FoldExpr(chunk, e, false, group, acc, [](double *max, double x) {
        if (x > *max) *max = x;
      });
      break;
  }
}

}  // namespace

/// The ungrouped path (Q6's and Q14's shapes): every input folds into the
/// block's one group, through a local copy of each accumulator that the
/// compiler keeps in a register across the loop.
void AggregateOp::UngroupedPush(Chunk *chunk, const std::vector<BoundExpr> &bound) {
  if (NumInputs(*chunk) == 0) return;
  Partial *partial = &partials_[chunk->block_ordinal];
  if (partial->empty()) partial->push_back(NewGroup({}));
  std::vector<AggValue> &values = partial->front().values;
  for (size_t i = 0; i < aggs_.size(); i++) {
    AggValue acc = values[i];
    Fold(*chunk, aggs_[i], bound[i], [](uint32_t) { return 0u; }, &acc);
    values[i] = acc;
  }
}

void AggregateOp::Push(Chunk *chunk) {
  MAINLINE_ASSERT(!needs_payload_ || chunk->probed,
                  "payload aggregates need a join probe upstream");
  std::vector<BoundExpr> bound(aggs_.size());
  for (size_t i = 0; i < aggs_.size(); i++) {
    if (aggs_[i].kind != AggSpec::Kind::kCount &&
        aggs_[i].kind != AggSpec::Kind::kSumPayload) {
      bound[i] = Bind(aggs_[i].expr, *chunk);
    }
  }

  if (group_cols_.empty()) {
    UngroupedPush(chunk, bound);
    return;
  }

  // Pass 1: every input's group index, in row/match order.
  std::vector<uint32_t> groups(NumInputs(*chunk));
  if (groups.empty()) return;
  Partial *partial = &partials_[chunk->block_ordinal];
  Resolver resolver(*this, *chunk);
  ForEachInput(*chunk, [&](uint32_t k, uint32_t row, uint64_t) {
    groups[k] = resolver.FindOrAdd(partial, row);
  });

  // Pass 2: one loop per aggregate over its slice of a flat [aggregate][group]
  // accumulator array.
  const size_t num_groups = partial->size();
  std::vector<AggValue> flat(aggs_.size() * num_groups);
  for (size_t g = 0; g < num_groups; g++) {
    for (size_t i = 0; i < aggs_.size(); i++) flat[i * num_groups + g] = (*partial)[g].values[i];
  }
  for (size_t i = 0; i < aggs_.size(); i++) {
    Fold(*chunk, aggs_[i], bound[i], [&groups](uint32_t k) { return groups[k]; },
         &flat[i * num_groups]);
  }
  for (size_t g = 0; g < num_groups; g++) {
    for (size_t i = 0; i < aggs_.size(); i++) (*partial)[g].values[i] = flat[i * num_groups + g];
  }
}

uint32_t AggregateOp::FindOrAddGroup(Partial *partial, const std::vector<std::string> &keys,
                                     const AggregateOp &op) {
  for (uint32_t g = 0; g < partial->size(); g++) {
    if ((*partial)[g].keys == keys) return g;
  }
  partial->push_back(op.NewGroup(keys));
  return static_cast<uint32_t>(partial->size() - 1);
}

void AggregateOp::Finish(common::WorkerPool *) {
  // Fold the per-block partials in block order — ONE addition per aggregate
  // per (block, group), in each partial's discovery order. Blocks with no
  // qualifying rows have no groups and contribute nothing, exactly like the
  // scalar reference's per-block merge.
  Partial global;
  for (const Partial &partial : partials_) {
    for (const GroupAcc &acc : partial) {
      GroupAcc *dst = &global[FindOrAddGroup(&global, acc.keys, *this)];
      for (size_t i = 0; i < aggs_.size(); i++) {
        switch (aggs_[i].kind) {
          case AggSpec::Kind::kSum:
            dst->values[i].f64 += acc.values[i].f64;
            break;
          case AggSpec::Kind::kCount:
          case AggSpec::Kind::kSumPayload:
            dst->values[i].u64 += acc.values[i].u64;
            break;
          case AggSpec::Kind::kMin:
            if (acc.values[i].f64 < dst->values[i].f64) dst->values[i].f64 = acc.values[i].f64;
            break;
          case AggSpec::Kind::kMax:
            if (acc.values[i].f64 > dst->values[i].f64) dst->values[i].f64 = acc.values[i].f64;
            break;
        }
      }
    }
  }
  partials_.clear();

  if (group_cols_.empty() && global.empty()) global.push_back(NewGroup({}));
  std::sort(global.begin(), global.end(),
            [](const GroupAcc &a, const GroupAcc &b) { return a.keys < b.keys; });
  result_.clear();
  result_.reserve(global.size());
  for (GroupAcc &acc : global) {
    result_.push_back({std::move(acc.keys), std::move(acc.values)});
  }
}

}  // namespace mainline::execution::op
