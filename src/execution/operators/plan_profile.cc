#include "execution/operators/plan_profile.h"

#include <cstdio>
#include <sstream>

namespace mainline::execution::op {

namespace {

std::string FormatNs(uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  } else if (ns >= 1000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  }
  return buf;
}

}  // namespace

std::string PlanProfile::ToString() const {
  std::ostringstream out;
  out << "Plan (" << pipelines.size() << (pipelines.size() == 1 ? " pipeline)\n" : " pipelines)\n");
  for (size_t p = 0; p < pipelines.size(); p++) {
    const PipelineProfile &pipe = pipelines[p];
    out << "Pipeline " << (p + 1) << ": source=" << pipe.source << " blocks=" << pipe.num_blocks
        << " (frozen=" << pipe.scan.frozen_blocks << " hot=" << pipe.scan.hot_blocks
        << ") rows=" << pipe.scan.rows << " wall=" << FormatNs(pipe.wall_ns)
        << " finish=" << FormatNs(pipe.finish_ns) << "\n";
    for (const OperatorProfile &op : pipe.operators) {
      char sel[16];
      std::snprintf(sel, sizeof(sel), "%.1f%%", op.Selectivity() * 100.0);
      out << "  -> " << op.label << "  rows_in=" << op.rows_in << " rows_out=" << op.rows_out
          << " sel=" << sel << " chunks=" << op.chunks << " incl=" << FormatNs(op.inclusive_ns)
          << " excl=" << FormatNs(op.exclusive_ns) << " finish=" << FormatNs(op.finish_ns);
      if (!op.layout.empty()) out << " layout=" << op.layout << " table_bytes=" << op.table_bytes;
      out << "\n";
    }
  }
  return out.str();
}

std::string PlanProfile::ToJson() const {
  std::ostringstream out;
  out << "{\"pipelines\":[";
  for (size_t p = 0; p < pipelines.size(); p++) {
    const PipelineProfile &pipe = pipelines[p];
    if (p > 0) out << ',';
    out << "{\"source\":\"" << pipe.source << "\",\"num_blocks\":" << pipe.num_blocks
        << ",\"scan\":{\"rows\":" << pipe.scan.rows
        << ",\"frozen_blocks\":" << pipe.scan.frozen_blocks
        << ",\"hot_blocks\":" << pipe.scan.hot_blocks << "},\"wall_ns\":" << pipe.wall_ns
        << ",\"finish_ns\":" << pipe.finish_ns << ",\"operators\":[";
    for (size_t i = 0; i < pipe.operators.size(); i++) {
      const OperatorProfile &op = pipe.operators[i];
      if (i > 0) out << ',';
      out << "{\"label\":\"" << op.label << "\",\"rows_in\":" << op.rows_in
          << ",\"rows_out\":" << op.rows_out << ",\"chunks\":" << op.chunks
          << ",\"inclusive_ns\":" << op.inclusive_ns << ",\"exclusive_ns\":" << op.exclusive_ns
          << ",\"finish_ns\":" << op.finish_ns;
      if (!op.layout.empty()) {
        out << ",\"layout\":\"" << op.layout << "\",\"table_bytes\":" << op.table_bytes;
      }
      out << '}';
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

}  // namespace mainline::execution::op
