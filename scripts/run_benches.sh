#!/usr/bin/env bash
# Build the Release benchmarks and run every figure-reproduction binary,
# capturing each one's report as BENCH_<name>.json in the output directory.
#
# Usage: scripts/run_benches.sh [output-dir]
#
# Knobs (environment variables understood by the bench binaries themselves,
# e.g. row counts) pass straight through.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${REPO_ROOT}/build-bench"
OUT_DIR="${1:-${REPO_ROOT}}"

# figure16_queries' morsel-parallel threads sweep: make the default explicit
# so the sweep is always recorded in the BENCH_*.json snapshot.
export MAINLINE_F16_THREADS="${MAINLINE_F16_THREADS:-1,2,4,8}"

# figure20's HTAP windows: record the shape explicitly so the snapshot is
# reproducible (terminal count, window length, and analytical scale).
export MAINLINE_F20_TERMINALS="${MAINLINE_F20_TERMINALS:-4}"
export MAINLINE_F20_QUERY_WORKERS="${MAINLINE_F20_QUERY_WORKERS:-2}"
export MAINLINE_F20_SECONDS="${MAINLINE_F20_SECONDS:-3}"
export MAINLINE_F20_ROWS="${MAINLINE_F20_ROWS:-300000}"

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
    -DCMAKE_BUILD_TYPE=Release \
    -DMAINLINE_BUILD_TESTS=OFF \
    -DMAINLINE_BUILD_EXAMPLES=OFF
cmake --build "${BUILD_DIR}" -j

mkdir -p "${OUT_DIR}"

for bench in "${BUILD_DIR}"/bench/figure*; do
  [ -x "${bench}" ] || continue
  name="$(basename "${bench}")"
  echo "== running ${name} =="
  start="$(date +%s.%N)"
  status=0
  output="$("${bench}" 2>&1)" || status=$?
  end="$(date +%s.%N)"
  # The report goes through stdin: verbose benches can exceed the kernel's
  # per-environment-string limit, so only small scalars ride in env vars.
  printf '%s' "${output}" | BENCH_NAME="${name}" BENCH_STATUS="${status}" \
  BENCH_START="${start}" BENCH_END="${end}" \
  python3 -c '
import json, os, sys
lines = sys.stdin.read().splitlines()
# Benches that report metrics print one machine-readable tail line:
#   METRICS_JSON {"engine": <registry snapshot>, "profiles": {...}}
# Lift it out of the text transcript into a structured field.
metrics = None
for line in lines:
    if line.startswith("METRICS_JSON "):
        try:
            metrics = json.loads(line[len("METRICS_JSON "):])
        except ValueError:
            pass
with open(sys.argv[1], "w") as f:
    json.dump(
        {
            "name": os.environ["BENCH_NAME"],
            "exit_code": int(os.environ["BENCH_STATUS"]),
            "elapsed_seconds": round(
                float(os.environ["BENCH_END"]) - float(os.environ["BENCH_START"]), 3
            ),
            "metrics": metrics,
            "output": [l for l in lines if not l.startswith("METRICS_JSON ")],
        },
        f,
        indent=2,
    )
    f.write("\n")
' "${OUT_DIR}/BENCH_${name}.json"
  elapsed="$(awk -v a="${start}" -v b="${end}" 'BEGIN { printf "%.1f", b - a }')"
  echo "   -> ${OUT_DIR}/BENCH_${name}.json (exit ${status}, ${elapsed}s)"
done
