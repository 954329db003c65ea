// The end-to-end benchmark driver: runs one workload in this process and
// prints its report as the last stdout line, prefixed "E2E_RESULT ".
// bench/e2e/run.py builds this binary, runs it, and turns the report into
// the benchmark's result; run it by hand as
//
//   e2e_driver --workload oltp|ingest|analytics|htap [--seed N] [--seconds S]
//              [--wal-dir DIR] [--trace-out FILE] [--smoke]
//
// Exit status: 0 when every correctness gate held, 1 when one failed, 2 on
// bad usage or a build that is not Release.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: e2e_driver --workload oltp|ingest|analytics|htap [--seed N] "
               "[--seconds S] [--wal-dir DIR] [--trace-out FILE] [--smoke]\n");
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char **argv) {
  using namespace mainline::e2e;
  Options options;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--wal-dir" && has_value) {
      options.wal_dir = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      options.trace_path = argv[++i];
    } else {
      Usage();
      return 2;
    }
  }
  if (options.seconds <= 0) {
    Usage();
    return 2;
  }

  // Timing gate: only an optimized, assertion-free build measures what users
  // run. A Debug or RelWithDebInfo build is refused before any work.
  bool release = std::strcmp(E2E_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
  release = false;
#endif
  if (!release) {
    std::fprintf(stderr, "e2e_driver: build type is %s, not Release; refusing to measure\n",
                 E2E_BUILD_TYPE);
    return 2;
  }

  void (*run)(const Options &, Report *) = nullptr;
  bool needs_wal = true;
  if (options.workload == "oltp") {
    run = RunOltp;
  } else if (options.workload == "ingest") {
    run = RunIngest;
  } else if (options.workload == "analytics") {
    run = RunAnalytics;
    needs_wal = false;
  } else if (options.workload == "htap") {
    run = RunHtap;
  }
  if (run == nullptr || (needs_wal && options.wal_dir.empty())) {
    Usage();
    return 2;
  }
  if (!options.trace_path.empty()) trace::Enable();

  Report report;
  report.Knob("workload", options.workload);
  report.Knob("seed", static_cast<double>(options.seed));
  report.Knob("seconds", options.seconds);
  report.Knob("smoke", options.smoke ? "yes" : "no");
  report.Knob("traced", trace::Enabled() ? "yes" : "no");
  report.Knob("build_type", E2E_BUILD_TYPE);
  report.Knob("compiler", Compiler());
  run(options, &report);

  if (trace::Enabled()) {
    const int64_t spans = trace::Write(options.trace_path);
    report.Check("trace.written", spans >= 0, "spans written to " + options.trace_path);
    report.Knob("spans", static_cast<double>(spans));
  }
  std::printf("E2E_RESULT %s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.Correct() ? 0 : 1;
}
