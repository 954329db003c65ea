#!/usr/bin/env python3
"""Validate the metrics a figure bench reported.

Accepts raw bench transcripts (the CI smoke pipes bench stdout to a file) or
BENCH_*.json snapshots produced by scripts/run_benches.sh, and checks that:

  * a METRICS_JSON record is present and parses,
  * the engine snapshot carries non-empty counter/gauge/histogram maps with
    the well-known subsystem prefixes,
  * every reported plan profile has pipelines whose operators carry labels,
    row counts, and per-operator timings including finish_ns (the EXPLAIN
    ANALYZE record), and every HashJoinBuild names its table's layout
    ("dense" or "hashed") and size (table_bytes).

Exits non-zero with a per-file report on any violation, so it can gate CI.

Usage: scripts/validate_metrics_json.py FILE [FILE...]
       scripts/validate_metrics_json.py --self-test
"""

import copy
import json
import sys

from fixture_runner import finish, run_fixtures

PREFIX = "METRICS_JSON "
# Subsystems every figure bench exercises. (transform.* is deliberately not
# required: the benches freeze blocks through BlockTransformer directly, so
# the transform *pipeline*'s lazily registered metrics never appear.)
ENGINE_PREFIXES = ("storage.", "txn.", "gc.", "pool.", "scan.")
OPERATOR_KEYS = ("label", "rows_in", "rows_out", "chunks", "inclusive_ns", "exclusive_ns",
                 "finish_ns")
JOIN_BUILD_LAYOUTS = ("dense", "hashed")


def extract(path):
    """The METRICS_JSON payload of `path`, whichever container holds it."""
    with open(path) as f:
        text = f.read()
    try:
        snapshot = json.loads(text)
    except ValueError:
        snapshot = None
    if isinstance(snapshot, dict) and "output" in snapshot:
        # A BENCH_*.json snapshot: run_benches.sh already parsed the line.
        if snapshot.get("metrics") is not None:
            return snapshot["metrics"]
        text = "\n".join(snapshot["output"])
    for line in text.splitlines():
        if line.startswith(PREFIX):
            return json.loads(line[len(PREFIX):])
    raise ValueError("no METRICS_JSON record found")


def check(metrics):
    """All violations in one parsed METRICS_JSON payload."""
    errors = []
    engine = metrics.get("engine")
    if not isinstance(engine, dict):
        errors.append("missing engine snapshot")
        engine = {}
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(engine.get(section), dict) or not engine.get(section):
            errors.append(f"engine.{section} missing or empty")
    counters = engine.get("counters") or {}
    for prefix in ENGINE_PREFIXES:
        if not any(name.startswith(prefix) for name in counters):
            errors.append(f"no engine counter with prefix {prefix!r}")

    profiles = metrics.get("profiles")
    if not isinstance(profiles, dict) or not profiles:
        errors.append("missing plan profiles")
        profiles = {}
    for query, profile in sorted(profiles.items()):
        pipelines = profile.get("pipelines") if isinstance(profile, dict) else None
        if not pipelines:
            errors.append(f"profile {query}: no pipelines")
            continue
        for i, pipeline in enumerate(pipelines):
            where = f"profile {query} pipeline {i}"
            if not str(pipeline.get("source", "")).startswith("table#"):
                errors.append(f"{where}: missing scan source")
            if not isinstance(pipeline.get("scan"), dict):
                errors.append(f"{where}: missing scan stats")
            operators = pipeline.get("operators")
            if not operators:
                errors.append(f"{where}: no operator records")
                continue
            for record in operators:
                label = record.get("label", "?")
                missing = [k for k in OPERATOR_KEYS if k not in record]
                if missing:
                    errors.append(f"{where} operator {label}: missing {', '.join(missing)}")
                if label == "HashJoinBuild":
                    if record.get("layout") not in JOIN_BUILD_LAYOUTS:
                        errors.append(f"{where} operator {label}: layout "
                                      f"{record.get('layout')!r} is not one of "
                                      f"{', '.join(JOIN_BUILD_LAYOUTS)}")
                    if not isinstance(record.get("table_bytes"), int):
                        errors.append(f"{where} operator {label}: missing table_bytes")
            # Per-operator timings must actually tick: a profile whose every
            # inclusive time is zero means the timers never ran.
            if all(r.get("inclusive_ns", 0) == 0 for r in operators):
                errors.append(f"{where}: all operator timings are zero")
    return errors


def fixture_metrics(**edits):
    """A conforming METRICS_JSON payload (one Q3-like profile), with the
    operator records named in `edits` changed: {index: {key: value or None}},
    None deleting the key."""
    def op(label, **extra):
        record = {"label": label, "rows_in": 10, "rows_out": 5, "chunks": 1,
                  "inclusive_ns": 100, "exclusive_ns": 60, "finish_ns": 7}
        record.update(extra)
        return record
    operators = [op("Filter"), op("HashJoinBuild", layout="dense", table_bytes=4096),
                 op("HashJoinProbe")]
    for index, changes in edits.get("operators", {}).items():
        for key, value in changes.items():
            if value is None:
                operators[index].pop(key, None)
            else:
                operators[index][key] = value
    return {
        "engine": {"counters": {f"{prefix}x": 1 for prefix in ENGINE_PREFIXES},
                   "gauges": {"g": 1}, "histograms": {"h": {}}},
        "profiles": {"q3": {"pipelines": [{"source": "table#1", "scan": {"rows": 10},
                                           "operators": copy.deepcopy(operators)}]}},
    }


def rules_fired(metrics):
    """The rule names `check` fires on `metrics`, for the self-test."""
    fired = set()
    for error in check(metrics):
        if "finish_ns" in error:
            fired.add("finish_ns")
        elif "layout" in error:
            fired.add("layout")
        elif "table_bytes" in error:
            fired.add("table_bytes")
        else:
            fired.add("other")
    return fired


FIXTURES = [
    ("conforming profile", fixture_metrics(), set()),
    ("operator without finish_ns",
     fixture_metrics(operators={2: {"finish_ns": None}}), {"finish_ns"}),
    ("join build without layout",
     fixture_metrics(operators={1: {"layout": None}}), {"layout"}),
    ("join build with an unknown layout",
     fixture_metrics(operators={1: {"layout": "sparse"}}), {"layout"}),
    ("join build without table_bytes",
     fixture_metrics(operators={1: {"table_bytes": None}}), {"table_bytes"}),
    ("layout on a non-build operator is not required",
     fixture_metrics(operators={2: {"layout": None}}), set()),
]


def self_test():
    failures = run_fixtures("validate_metrics_json --self-test", FIXTURES, rules_fired)
    return finish("validate_metrics_json --self-test", failures)


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        try:
            errors = check(extract(path))
        except (OSError, ValueError) as exc:
            errors = [str(exc)]
        if errors:
            failed = True
            for error in errors:
                print(f"{path}: FAIL: {error}")
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
