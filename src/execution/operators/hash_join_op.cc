#include "arrowlite/type.h"
#include "arrowlite/array.h"
#include "execution/operators/hash_join_op.h"

#include <bit>
#include <vector>

namespace mainline::execution::op {

bool PayloadSpec::Matches(std::string_view value) const {
  if (strings.empty()) return false;  // see the header: front() would be UB
  if (kind == Kind::kStringPrefix) return value.starts_with(strings.front());
  for (const std::string &candidate : strings) {
    if (value == candidate) return true;
  }
  return false;
}

void HashJoinBuildOp::Push(Chunk *chunk) {
  const arrowlite::Array &keys = chunk->batch->Column(key_col_);
  const int64_t *key_values = keys.buffer(0)->data_as<int64_t>();
  // The block's entries gather here in row order, then Assign groups them
  // by partition into the block's slot. Per worker thread, so the scratch
  // is reused across blocks and never holds more than one block.
  thread_local std::vector<JoinEntry> rows;
  rows.clear();
  rows.reserve(chunk->probed ? chunk->matches.size() : chunk->sel.Size());

  // One entry per input — a selected row, or a join match when this build
  // consumes an already probed stream (multiplicity carries through).
  // `payload_is_null` covers the payload source's nulls; null keys or null
  // payloads drop the input.
  const auto emit = [&](auto &&payload_of_row, auto &&payload_is_null, bool payload_nulls) {
    const bool has_nulls = keys.null_count() != 0 || payload_nulls;
    const auto body = [&](uint32_t row) {
      if (has_nulls && (keys.IsNull(row) || payload_is_null(row))) return;
      rows.push_back({key_values[row], payload_of_row(row)});
    };
    if (chunk->probed) {
      for (const JoinMatch &match : chunk->matches) body(match.row);
    } else {
      for (const uint32_t row : chunk->sel) body(row);
    }
  };

  switch (payload_.kind) {
    case PayloadSpec::Kind::kInt64Column: {
      const arrowlite::Array &payload_col = chunk->batch->Column(payload_.col);
      const int64_t *values = payload_col.buffer(0)->data_as<int64_t>();
      emit([values](uint32_t row) { return static_cast<uint64_t>(values[row]); },
           [&](uint32_t row) { return payload_col.IsNull(row); },
           payload_col.null_count() != 0);
      break;
    }
    case PayloadSpec::Kind::kStringIn:
    case PayloadSpec::Kind::kStringPrefix: {
      const arrowlite::Array &payload_col = chunk->batch->Column(payload_.col);
      const auto is_null = [&](uint32_t row) { return payload_col.IsNull(row); };
      const bool payload_nulls = payload_col.null_count() != 0;
      if (payload_col.type() == arrowlite::Type::kDictionary) {
        // Classify each distinct string once, then emit by code.
        const arrowlite::Array &dict = *payload_col.dictionary();
        std::vector<uint64_t> payload_of_code(static_cast<size_t>(dict.length()));
        for (int64_t code = 0; code < dict.length(); code++) {
          payload_of_code[static_cast<size_t>(code)] =
              payload_.Matches(dict.GetString(code)) ? 1 : 0;
        }
        const int32_t *codes = payload_col.buffer(0)->data_as<int32_t>();
        emit([&](uint32_t row) { return payload_of_code[static_cast<size_t>(codes[row])]; },
             is_null, payload_nulls);
      } else {
        emit(
            [&](uint32_t row) {
              return payload_.Matches(payload_col.GetString(row)) ? uint64_t{1} : uint64_t{0};
            },
            is_null, payload_nulls);
      }
      break;
    }
    case PayloadSpec::Kind::kF64Computed: {
      MAINLINE_ASSERT(payload_.col < chunk->num_computed,
                      "computed payload column not projected yet");
      const ComputedColumn &col = chunk->computed[payload_.col];
      const double *values = col.values.data();
      emit([values](uint32_t row) { return std::bit_cast<uint64_t>(values[row]); },
           [&](uint32_t row) {
             for (const arrowlite::Array *source : col.null_sources) {
               if (source->IsNull(row)) return true;
             }
             return false;
           },
           !col.null_sources.empty());
      break;
    }
  }
  per_block_[chunk->block_ordinal].Assign(rows);
  // Like Chunk's buffers: a skewed block must not pin a worst-case scratch
  // in every worker thread for the rest of the process.
  if (rows.capacity() > Chunk::kMaxRetainedMatches) std::vector<JoinEntry>().swap(rows);
}

void HashJoinProbeOp::Push(Chunk *chunk) {
  const JoinHashTable &table = build_->Table();
  if (emit_ == ProbeEmit::kSemi) {
    const arrowlite::Array &keys = chunk->batch->Column(key_col_);
    const int64_t *values = keys.buffer(0)->data_as<int64_t>();
    const bool has_nulls = keys.null_count() != 0;
    const auto hit = [&](uint32_t row) {
      return !(has_nulls && keys.IsNull(row)) && table.Contains(values[row]);
    };
    if (chunk->probed) {
      std::erase_if(chunk->matches, [&](const JoinMatch &match) { return !hit(match.row); });
      if (chunk->matches.empty()) return;
    } else {
      chunk->sel.Refine(hit);
      if (chunk->sel.Empty()) return;
    }
    PushNext(chunk);
    return;
  }
  if (!chunk->probed) {
    chunk->probed = true;
    if (chunk->sel.Empty() || table.Empty()) return;
    const arrowlite::Array &keys = chunk->batch->Column(key_col_);
    if (emit_ == ProbeEmit::kEachMatch) {
      table.ProbeSelected(keys, chunk->sel, [chunk](uint32_t row, uint64_t payload) {
        chunk->matches.push_back({row, payload});
      });
    } else {
      const int64_t *values = keys.buffer(0)->data_as<int64_t>();
      const bool has_nulls = keys.null_count() != 0;
      for (const uint32_t row : chunk->sel) {
        if (has_nulls && keys.IsNull(row)) continue;
        double sum = 0;
        bool matched = false;
        table.ForEachMatch(values[row], [&](uint64_t payload) {
          sum += std::bit_cast<double>(payload);
          matched = true;
        });
        if (matched) chunk->matches.push_back({row, std::bit_cast<uint64_t>(sum)});
      }
    }
  } else {
    // Chained probe: consume the prior probe's matches, carrying each one's
    // payload along in JoinMatch::prior. Input order (prior matches) times
    // the table's insertion order keeps the new list deterministic.
    std::vector<JoinMatch> prior;
    prior.swap(chunk->matches);
    if (prior.empty() || table.Empty()) return;
    const arrowlite::Array &keys = chunk->batch->Column(key_col_);
    const int64_t *values = keys.buffer(0)->data_as<int64_t>();
    const bool has_nulls = keys.null_count() != 0;
    for (const JoinMatch &match : prior) {
      if (has_nulls && keys.IsNull(match.row)) continue;
      if (emit_ == ProbeEmit::kEachMatch) {
        table.ForEachMatch(values[match.row], [&](uint64_t payload) {
          chunk->matches.push_back({match.row, payload, match.payload});
        });
      } else {
        double sum = 0;
        bool matched = false;
        table.ForEachMatch(values[match.row], [&](uint64_t payload) {
          sum += std::bit_cast<double>(payload);
          matched = true;
        });
        if (matched) {
          chunk->matches.push_back({match.row, std::bit_cast<uint64_t>(sum), match.payload});
        }
      }
    }
  }
  if (chunk->matches.empty()) return;
  PushNext(chunk);
}

}  // namespace mainline::execution::op
