#include "execution/operators/filter_op.h"

#include "common/selection_vector.h"
#include "execution/vector_ops.h"

namespace mainline::execution::op {

FilterOp::FilterOp(std::vector<Predicate> predicates) : predicates_(std::move(predicates)) {
  string_views_.resize(predicates_.size());
  for (size_t i = 0; i < predicates_.size(); i++) {
    for (const std::string &value : predicates_[i].strings) {
      string_views_[i].emplace_back(value);
    }
  }
}

void FilterOp::Push(Chunk *chunk) {
  MAINLINE_ASSERT(!chunk->probed, "filters refine selections, not join match lists");
  const auto &batch = *chunk->batch;
  common::SelectionVector *sel = &chunk->sel;
  for (size_t i = 0; i < predicates_.size(); i++) {
    const Predicate &p = predicates_[i];
    switch (p.kind) {
      case Predicate::Kind::kU32InRange:
        vector_ops::FilterRange<uint32_t>(batch.Column(p.col_a), sel, p.u_lo, p.u_hi);
        break;
      case Predicate::Kind::kU32AtMost:
        vector_ops::FilterFixed<uint32_t>(batch.Column(p.col_a), sel,
                                          [&p](uint32_t v) { return v <= p.u_hi; });
        break;
      case Predicate::Kind::kF64InRange:
        vector_ops::FilterFixed<double>(
            batch.Column(p.col_a), sel,
            [&p](double v) { return p.f_lo <= v && v <= p.f_hi; });
        break;
      case Predicate::Kind::kF64Below:
        vector_ops::FilterFixed<double>(batch.Column(p.col_a), sel,
                                        [&p](double v) { return v < p.f_hi; });
        break;
      case Predicate::Kind::kU32LessThanColumn:
        vector_ops::FilterLessThanColumn<uint32_t>(batch.Column(p.col_a),
                                                   batch.Column(p.col_b), sel);
        break;
      case Predicate::Kind::kStringIn:
        vector_ops::FilterStringIn(batch.Column(p.col_a), sel, string_views_[i]);
        break;
    }
    if (sel->Empty()) return;
  }
  PushNext(chunk);
}

}  // namespace mainline::execution::op
