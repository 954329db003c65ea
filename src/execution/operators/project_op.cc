#include "execution/operators/project_op.h"

namespace mainline::execution::op {

void ProjectOp::Push(Chunk *chunk) {
  const auto num_rows = static_cast<uint32_t>(chunk->batch->NumRows());
  for (const Expr &expr : exprs_) {
    // Bind before appending: an expression may read earlier computed
    // columns, but not its own output.
    const BoundExpr bound = Bind(expr, *chunk);
    ComputedColumn *col = chunk->AppendComputed();
    col->values.resize(num_rows);  // recycled capacity; only grows allocate
    col->null_sources = bound.null_sources;
    double *out = col->values.data();
    bound.Dispatch([&](const auto &value) {
      if (chunk->probed) {
        // Duplicate match rows re-evaluate to the same value; no dedup needed.
        for (const JoinMatch &match : chunk->matches) out[match.row] = value(match.row);
      } else {
        for (const uint32_t row : chunk->sel) out[row] = value(row);
      }
    });
  }
  PushNext(chunk);
}

}  // namespace mainline::execution::op
