#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Builds bench/e2e (a standalone CMake project over src/) in Release under
build-e2e/, runs each workload of BENCHMARK.json in its own e2e_driver
process, checks the outputs are correct, and reports every metric by name
with its unit.

  run.py --workload W --seed N --seconds S --trace 0|1
        One run of one workload. The last stdout line is one JSON object with
        the keys correct, attempted, failed and metrics: the end-to-end
        metrics untraced (--trace 0), the per-layer metrics traced (--trace 1).
  run.py [--seed N] [--seconds S] [--trace]
        Every workload, one process each; prints every metric and writes
        build-e2e/results/<workload>-seed<N>[-traced].json with provenance.
        --trace also runs each workload traced and reports per-layer self
        times, counts and the tracing overhead.
  run.py --smoke
        Every workload at tiny scale, untraced and traced, checking the
        result shape (a CI step; under a minute once built).
  run.py --selftest
        Checks the quartile, spread, verdict and result-shape code on fixed
        fixtures.
  run.py compare REV_A REV_B [--pairs N] [--seconds S] [--workloads a,b]
        Builds this driver against each revision's src/, runs N alternating
        pairs per workload (same seed within a pair), and labels each
        end-to-end metric improved, unchanged, regressed or unresolved.
        Exit status 1 on a regression or a rise in the failed-operations share.

Exit status 2 means the benchmark could not run (build failure, bad usage).
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ beside the sources
import trace_report  # noqa: E402  (beside this script, so on sys.path when it runs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
SMOKE_BUDGET_S = 60
WIN_SHARE = 0.9  # a gain needs the change to win at least 9 pairs in 10


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read {SPEC_PATH}: {error}")


# -- building -----------------------------------------------------------------

def build(build_dir, src=None):
    """Configure and build e2e_driver in Release (both no-ops when up to date).
    Returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
    if src is not None:
        configure.append(f"-DMAINLINE_SRC={src}")
    commands = [configure, ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)]]
    with open(log_path, "w") as out:
        for command in commands:
            if subprocess.run(command, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return build_dir / "e2e_driver"


# -- provenance ---------------------------------------------------------------

def filesystem_of(path):
    """(fstype, device, mount point) of the mount holding `path`."""
    target = os.path.realpath(path)
    best = ("unknown", "unknown", "")
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                device, mount, fstype = line.split()[:3]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best[2]):
                    best = (fstype, device, mount)
    except OSError:
        pass
    return {"fstype": best[0], "device": best[1], "mount": best[2]}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True)
    except OSError:
        return "unknown (git not installed)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def provenance(commit):
    """Host and source facts for a result file; the driver's report beside it
    carries the compiler, build type and every workload knob."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "git_commit": commit,
        "python": platform.python_version(),
        "fsync_note": "WAL latencies are this host's filesystem and virtual disk, "
                      "not a device's",
    }


# -- running ------------------------------------------------------------------

def run_driver(driver, workload, seed, seconds, trace_path=None, smoke=False):
    """Run one workload in its own process; return the driver's report."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    wal_dir = tempfile.mkdtemp(prefix="wal-", dir=tmp)
    command = [str(driver), "--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--wal-dir", wal_dir]
    if trace_path is not None:
        command += ["--trace-out", str(trace_path)]
    if smoke:
        command.append("--smoke")
    try:
        wal_fs = filesystem_of(wal_dir)
        try:
            proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                                  cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: driver exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("E2E_RESULT ")]
    if not lines:
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise BenchError(f"{workload}: driver exited {proc.returncode} without a result\n{tail}")
    report = json.loads(lines[-1].split(" ", 1)[1])
    report["exit_code"] = proc.returncode
    report["knobs"]["wal_filesystem"] = wal_fs
    report["knobs"]["wal_dir"] = "temporary directory under build-e2e/tmp, deleted after the run"
    return report


def trace_metrics(trace_path):
    """Per-layer metrics and report text from a span file (see trace_report.py)."""
    metrics, layers, findings = trace_report.analyze(trace_report.load(trace_path))
    text = trace_report.format_layers(layers) + "\n" + "\n".join(findings)
    return {name: {"value": v, "unit": u, "n": n} for name, (v, u, n) in metrics.items()}, text


def contract_result(report, spec, traced, extra=None):
    """The benchmark's result object for one run: the spec's end-to-end (or,
    traced, per-layer) metrics with their units. A per-layer metric the
    workload does not exercise reads 0. Raises BenchError on a metric the
    spec does not know or a unit that disagrees with it."""
    section = "per_layer" if traced else "end_to_end"
    measured = dict(report[section])
    measured.update(extra or {})
    wanted = {m["name"]: m for m in spec[section]}
    unknown = sorted(set(measured) - set(wanted))
    if unknown:
        raise BenchError(f"driver reported metrics BENCHMARK.json lacks: {unknown}")
    metrics = {}
    for name, entry in wanted.items():
        got = measured.get(name)
        if got is None:
            if not traced:
                raise BenchError(f"driver did not report end-to-end metric {name}")
            got = {"value": 0.0, "unit": entry["unit"]}
        if got["unit"] != entry["unit"]:
            raise BenchError(f"{name}: driver unit {got['unit']} != spec unit {entry['unit']}")
        value = got["value"]
        if value is None or not math.isfinite(value):
            raise BenchError(f"{name}: non-finite value {value}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    correct = bool(report["correct"]) and report["exit_code"] == 0
    return {"correct": correct, "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def check_shape(result, spec, traced):
    """Problems with one result object, as strings (empty when well-formed)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result.get("attempted", 0) < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed must be a whole number")
    names = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
    if set(result.get("metrics", {})) != names:
        problems.append("metric names differ from BENCHMARK.json")
    if not result.get("correct"):
        problems.append("correct is false")
    return problems


def write_result(name, payload):
    out_dir = BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def print_report(workload, report, traced):
    print(f"== {workload}{' (traced)' if traced else ''}: correct={report['correct']} "
          f"attempted={report['attempted']} failed={report['failed']}")
    for check in report["checks"]:
        status = "ok" if check["ok"] else "FAILED"
        print(f"   check {check['name']}: {status} — {check['detail']}")
    for section in ("end_to_end", "per_layer") if traced else ("end_to_end",):
        for name, m in report[section].items():
            print(f"   {name:<36} {m['value']:>16.6g} {m['unit']:<6} n={m['n']}")


# -- modes --------------------------------------------------------------------

def mode_single(args, spec):
    driver = build(BUILD / "release")
    traced = args.trace == 1
    trace_path = BUILD / "traces" / f"{args.workload}.tsv" if traced else None
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
    report = run_driver(driver, args.workload, args.seed, args.seconds, trace_path)
    extra = None
    if traced:
        extra, text = trace_metrics(trace_path)
        log(text)
    result = contract_result(report, spec, traced, extra)
    write_result(f"{args.workload}-seed{args.seed}{'-traced' if traced else ''}",
                 {"result": result, "report": report,
                  "provenance": provenance(git_commit())})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def mode_all(args, spec):
    driver = build(BUILD / "release")
    prov = provenance(git_commit())
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        report = run_driver(driver, workload, args.seed, args.seconds)
        print_report(workload, report, False)
        result = contract_result(report, spec, False)
        ok &= result["correct"]
        payload = {"result": result, "report": report, "provenance": prov}
        print(f"   wrote {write_result(f'{workload}-seed{args.seed}', payload)}")
        if not args.trace:
            continue
        trace_path = BUILD / "traces" / f"{workload}.tsv"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        traced = run_driver(driver, workload, args.seed, args.seconds, trace_path)
        extra, text = trace_metrics(trace_path)
        traced["per_layer"].update(extra)
        print_report(workload, traced, True)
        print(text)
        for line in trace_report.overhead(report["end_to_end"], traced["end_to_end"]):
            print(line)
        traced_result = contract_result(traced, spec, True)
        ok &= traced_result["correct"]
        payload = {"result": traced_result, "report": traced, "provenance": prov}
        print(f"   wrote {write_result(f'{workload}-seed{args.seed}-traced', payload)}")
    return 0 if ok else 1


def mode_smoke(spec):
    driver = build(BUILD / "release")
    start = time.monotonic()
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for traced in (False, True):
            trace_path = BUILD / "traces" / f"{workload}-smoke.tsv" if traced else None
            if trace_path is not None:
                trace_path.parent.mkdir(parents=True, exist_ok=True)
            report = run_driver(driver, workload, DEFAULT_SEED, 1, trace_path, smoke=True)
            extra = trace_metrics(trace_path)[0] if traced else None
            result = contract_result(report, spec, traced, extra)
            found = check_shape(result, spec, traced)
            label = f"{workload}{' traced' if traced else ''}"
            print(f"smoke {label:<18} {'ok' if not found else 'FAILED: ' + '; '.join(found)}")
            problems += [f"{label}: {p}" for p in found]
    elapsed = time.monotonic() - start
    if elapsed > SMOKE_BUDGET_S:
        problems.append(f"took {elapsed:.1f} s, over the {SMOKE_BUDGET_S} s budget")
    print(f"smoke: {'ok' if not problems else 'FAILED'} in {elapsed:.1f} s")
    return 0 if not problems else 1


# -- compare ------------------------------------------------------------------

def quartiles(values):
    """(first quartile, median, third quartile), as statistics.quantiles(n=4)
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def verdict(parent, change, better, bound):
    """Label one metric from paired runs (parent[i] and change[i] share a seed).

    unresolved: either side's spread exceeds the bound, unless every change
                run is better than every parent run;
    regressed:  the change's median is worse than the parent's by more than
                the bound;
    improved:   the change wins at least 9 pairs in 10 (ties count for
                neither) and the medians differ by more than the parent's IQR;
    unchanged:  otherwise.
    """
    sign = 1 if better == "higher" else -1
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    if sign * (p_median - c_median) / abs(p_median) > bound:
        return "regressed"
    if wins >= WIN_SHARE * len(parent) and sign * (c_median - p_median) > p_q3 - p_q1:
        return "improved"
    return "unchanged"


def extract_tree(rev, dest):
    """Put `rev`'s src/ under dest/src (via git archive). Returns the commit."""
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise BenchError(f"unknown revision {rev}")
    commit = out.stdout.strip()
    shutil.rmtree(dest / "src", ignore_errors=True)
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        raise BenchError(f"git archive {commit} src failed")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return commit


def mode_compare(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    sides = {}
    for label, rev in (("A", args.rev_a), ("B", args.rev_b)):
        tree = BUILD / "compare" / label
        commit = extract_tree(rev, tree)
        # Extracted files carry the commit's timestamps, which can be older
        # than a previous side's objects: build from scratch.
        shutil.rmtree(tree / "build", ignore_errors=True)
        log(f"building side {label} ({rev} = {commit[:12]}) ...")
        sides[label] = {"rev": rev, "commit": commit,
                        "driver": build(tree / "build", tree / "src")}
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = {w: {"A": [], "B": []} for w in workloads}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ("A", "B") if pair % 2 == 0 else ("B", "A")
        for workload in workloads:
            for label in order:
                report = run_driver(sides[label]["driver"], workload, seed, args.seconds)
                runs[workload][label].append(report)
                log(f"pair {pair + 1}/{args.pairs} {workload} side {label}: "
                    f"correct={report['correct']}")

    failed = False
    summary = {"A": {k: v for k, v in sides["A"].items() if k != "driver"},
               "B": {k: v for k, v in sides["B"].items() if k != "driver"},
               "pairs": args.pairs, "seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        print(f"== {workload}: {args.pairs} pairs, A={args.rev_a} B={args.rev_b}")
        print(f"   {'metric':<16} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
              f"{'B wins':>7}  verdict")
        rows = {}
        for name, entry in bounds.items():
            a = [r["end_to_end"][name]["value"] for r in runs[workload]["A"]]
            b = [r["end_to_end"][name]["value"] for r in runs[workload]["B"]]
            label = verdict(a, b, entry["better"], entry["bound"])
            sign = 1 if entry["better"] == "higher" else -1
            wins = sum(1 for p, c in zip(a, b) if sign * (c - p) > 0)
            qa, qb = quartiles(a), quartiles(b)
            print(f"   {name:<16} {qa[1]:>14.6g} [{qa[0]:.6g}, {qa[2]:.6g}]".ljust(54) +
                  f"{qb[1]:>14.6g} [{qb[0]:.6g}, {qb[2]:.6g}]".ljust(36) +
                  f"{wins:>5}/{len(a)}  {label}")
            rows[name] = {"verdict": label, "A": qa, "B": qb, "b_wins": wins,
                          "bound": entry["bound"]}
            failed |= label == "regressed"
        share = {}
        for label in ("A", "B"):
            attempted = sum(r["attempted"] for r in runs[workload][label])
            share[label] = sum(r["failed"] for r in runs[workload][label]) / max(attempted, 1)
            if not all(r["correct"] for r in runs[workload][label]):
                print(f"   side {label}: a run failed its correctness checks")
        if share["B"] > share["A"]:
            print(f"   FAIL: failed-operations share rose from {share['A']:.3g} "
                  f"to {share['B']:.3g}")
            failed = True
        summary["workloads"][workload] = {"metrics": rows, "failed_share": share}
    path = write_result(f"compare-{sides['A']['commit'][:12]}-{sides['B']['commit'][:12]}",
                        {"summary": summary, "provenance": provenance(git_commit())})
    print(f"wrote {path}")
    return 1 if failed else 0


# -- selftest -----------------------------------------------------------------

def selftest():
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    expect("quartiles 1..8", quartiles([1, 2, 3, 4, 5, 6, 7, 8]), (2.25, 4.5, 6.75))
    expect("quartiles single", quartiles([3.0]), (3.0, 3.0, 3.0))
    expect("spread 1..8", spread([1, 2, 3, 4, 5, 6, 7, 8]), 1.0)
    expect("spread flat", spread([5.0] * 10), 0.0)

    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [110, 111, 109, 110, 112, 108, 110, 111, 109, 110]
    slower = [80, 81, 79, 80, 82, 78, 80, 81, 79, 80]
    noisy = [50, 150, 100, 60, 140, 100, 70, 130, 100, 90]
    expect("improved (higher)", verdict(parent, faster, "higher", 0.05), "improved")
    expect("unchanged (higher)", verdict(parent, list(parent), "higher", 0.05), "unchanged")
    expect("regressed (higher)", verdict(parent, slower, "higher", 0.05), "regressed")
    expect("regressed (lower)", verdict(parent, faster, "lower", 0.05), "regressed")
    expect("improved (lower)", verdict(parent, slower, "lower", 0.05), "improved")
    expect("unresolved", verdict(parent, noisy, "higher", 0.05), "unresolved")
    expect("noisy but all better", verdict(noisy, [200] * 10, "higher", 0.05), "improved")
    # 8 wins in 10 is below the 9-in-10 rule: not a gain, though the median moved.
    eight = [104, 104, 104, 104, 104, 104, 104, 104, 90, 90]
    expect("8 of 10 wins", verdict(parent, eight, "higher", 0.2), "unchanged")
    # A median gap inside the parent's IQR is not a gain either.
    wide = [90, 95, 100, 105, 110, 90, 95, 100, 105, 110]
    expect("gap inside IQR", verdict(wide, [v + 1 for v in wide], "higher", 0.5), "unchanged")

    spec = {"end_to_end": [{"name": "x_s", "unit": "s"}],
            "per_layer": [{"name": "a", "unit": "count"}, {"name": "b", "unit": "ms"}]}
    report = {"correct": True, "exit_code": 0, "attempted": 3, "failed": 0,
              "end_to_end": {"x_s": {"value": 1.5, "unit": "s", "n": 3}},
              "per_layer": {"a": {"value": 2, "unit": "count", "n": 1}}}
    result = contract_result(report, spec, False)
    expect("e2e result", result, {"correct": True, "attempted": 3, "failed": 0,
                                  "metrics": {"x_s": {"value": 1.5, "unit": "s"}}})
    expect("e2e shape", check_shape(result, spec, False), [])
    traced = contract_result(report, spec, True, {"b": {"value": 4.0, "unit": "ms", "n": 1}})
    expect("traced metrics", sorted(traced["metrics"]), ["a", "b"])
    expect("unexercised layer reads 0",
           contract_result(report, spec, True)["metrics"]["b"]["value"], 0.0)
    for label, bad in (("unknown metric", {"zz": {"value": 1, "unit": "s", "n": 1}}),
                       ("unit mismatch", {"x_s": {"value": 1, "unit": "ms", "n": 1}})):
        try:
            contract_result(dict(report, end_to_end=bad), spec, False)
            failures.append(f"{label}: accepted")
        except BenchError:
            pass

    for failure in failures:
        print(f"selftest FAIL {failure}")
    print(f"selftest: {'ok' if not failures else f'{len(failures)} failure(s)'}")
    return 0 if not failures else 1


# -- main ---------------------------------------------------------------------

def main(argv):
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("rev_a")
        parser.add_argument("rev_b")
        parser.add_argument("--pairs", type=int, default=10)
        parser.add_argument("--seconds", type=int, default=None)
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
        parser.add_argument("--workloads", default=None)
        args = parser.parse_args(argv[1:])
        spec = load_spec()
        args.seconds = args.seconds or spec["run_seconds"]
        return mode_compare(args, spec)

    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    spec = load_spec()
    if args.smoke:
        return mode_smoke(spec)
    args.seconds = args.seconds or spec["run_seconds"]
    if args.workload is not None:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload}")
        return mode_single(args, spec)
    return mode_all(args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as error:
        log(f"run.py: {error}")
        sys.exit(2)
