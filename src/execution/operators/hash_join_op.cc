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
  // Sized for every input up front and written through a local cursor, so
  // the row loop keeps its output position in a register.
  std::vector<JoinEntry> entries(chunk->probed ? chunk->matches.size() : chunk->sel.Size());
  JoinEntry *out = entries.data();

  // One entry per input — a selected row, or a join match when this build
  // consumes an already probed stream (multiplicity carries through).
  // `payload_is_null` covers the payload source's nulls; null keys or null
  // payloads drop the input.
  const auto emit = [&](auto &&payload_of_row, auto &&payload_is_null, bool payload_nulls) {
    const bool has_nulls = keys.null_count() != 0 || payload_nulls;
    const auto body = [&](uint32_t row) {
      if (has_nulls && (keys.IsNull(row) || payload_is_null(row))) return;
      *out++ = {key_values[row], payload_of_row(row)};
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
  entries.resize(static_cast<size_t>(out - entries.data()));
  per_block_[chunk->block_ordinal].Assign(std::move(entries));
}

void HashJoinProbeOp::Push(Chunk *chunk) {
  const arrowlite::Array &keys = chunk->batch->Column(key_col_);
  const int64_t *values = keys.buffer(0)->data_as<int64_t>();
  const bool has_nulls = keys.null_count() != 0;
  const auto is_null = [&](uint32_t row) { return has_nulls && keys.IsNull(row); };
  // One branch on the table's layout per chunk: the loops below run on that
  // layout's probe.
  const bool flows = build_->Table().WithProbe([&](const auto &probe) {
    if (emit_ == ProbeEmit::kSemi) {
      const auto hit = [&](uint32_t row) { return !is_null(row) && probe.Contains(values[row]); };
      if (chunk->probed) {
        std::erase_if(chunk->matches, [&](const JoinMatch &match) { return !hit(match.row); });
        return !chunk->matches.empty();
      }
      chunk->sel.Refine(hit);
      return !chunk->sel.Empty();
    }
    // Append one input's matches (kEachMatch) or their payload sum
    // (kSumPayloadF64), carrying `prior` along.
    const auto probe_input = [&](uint32_t row, uint64_t prior) {
      if (is_null(row)) return;
      if (emit_ == ProbeEmit::kEachMatch) {
        probe.ForEachMatch(values[row], [&](uint64_t payload) {
          chunk->matches.push_back({row, payload, prior});
        });
        return;
      }
      double sum = 0;
      bool matched = false;
      probe.ForEachMatch(values[row], [&](uint64_t payload) {
        sum += std::bit_cast<double>(payload);
        matched = true;
      });
      if (matched) chunk->matches.push_back({row, std::bit_cast<uint64_t>(sum), prior});
    };
    if (!chunk->probed) {
      chunk->probed = true;
      for (const uint32_t row : chunk->sel) probe_input(row, 0);
    } else {
      // Chained probe: consume the prior probe's matches, carrying each
      // one's payload along in JoinMatch::prior. Input order (prior matches)
      // times the table's match order keeps the new list deterministic.
      std::vector<JoinMatch> prior;
      prior.swap(chunk->matches);
      for (const JoinMatch &match : prior) probe_input(match.row, match.payload);
    }
    return !chunk->matches.empty();
  });
  if (flows) PushNext(chunk);
}

}  // namespace mainline::execution::op
