#!/usr/bin/env python3
"""Per-layer self time and counts from one traced e2e_driver run.

The driver writes one tab-separated line per span: name, thread, id,
parent, request, start_ns, end_ns. A span's layer is its name up to the
first dot (storage.insert -> storage). A span's self time is its duration
minus the part of it its child spans cover; a layer's self time is the sum
over its spans.

Usage: trace_report.py SPANS.tsv   (prints the layer table and findings)

run.py calls analyze() on every traced run and reports its metrics.
"""

import sys
from collections import defaultdict

# Engine modules whose self time is a per-layer metric. The other span
# layers are the driver's own framing (setup, ingest, htap, query, check).
MODULE_LAYERS = ("storage", "txn", "log", "gc", "transform", "exec", "export", "tpcc")

# Attribution check: an ingest transaction's time should be covered by these
# layer calls; a larger gap is reported as a finding.
ATTRIBUTION_ROOT = "ingest.txn"
ATTRIBUTION_PARTS = ("storage.insert", "txn.commit", "log.durable_wait")
ATTRIBUTION_GAP_LIMIT = 0.05


def load(path):
    """Yield the spans of `path` as (name, id, parent, start_ns, end_ns)."""
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            name, _thread, span_id, parent, _request, start, end = line.rstrip("\n").split("\t")
            yield name, int(span_id), int(parent), int(start), int(end)


def covered_ns(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def analyze(spans):
    """Return (metrics, layers, findings) for one run's spans.

    metrics:  {name: (value, unit, n)} — the per-layer metrics run.py reports
    layers:   {layer: {"self_ns", "spans"}} over every span layer
    findings: human-readable lines (the ingest attribution check)

    The driver writes each thread's spans in the order they end, and a child
    ends before its parent on the same thread, so every span's children have
    been read by the time it is: one pass with a map of pending children.
    """
    pending = defaultdict(list)  # parent id -> [(name, start, end)] of ended children
    layers = defaultdict(lambda: {"self_ns": 0, "spans": 0})
    insert_ns = inserts = 0
    root_ns = attributed_ns = roots = 0
    count = 0
    for name, span_id, parent, start, end in spans:
        count += 1
        kids = pending.pop(span_id, ())
        layer = layers[name.split(".", 1)[0]]
        layer["self_ns"] += (end - start) - covered_ns([(s, e) for _, s, e in kids])
        layer["spans"] += 1
        if name == "storage.insert":
            insert_ns += end - start
            inserts += 1
        elif name == ATTRIBUTION_ROOT:
            roots += 1
            root_ns += end - start
            attributed_ns += covered_ns([(s, e) for n, s, e in kids if n in ATTRIBUTION_PARTS])
        if parent:
            pending[parent].append((name, start, end))

    metrics = {}
    for layer in MODULE_LAYERS:
        entry = layers.get(layer, {"self_ns": 0, "spans": 0})
        metrics[f"{layer}.self_ms"] = (entry["self_ns"] / 1e6, "ms", entry["spans"])
    metrics["storage.insert_ns_per_row"] = (insert_ns / inserts if inserts else 0.0, "ns", inserts)
    share = attributed_ns / root_ns if root_ns else 0.0
    metrics["trace.ingest_attribution_pct"] = (100.0 * share, "%", roots)
    metrics["trace.spans"] = (float(count), "count", count)

    findings = []
    if roots and 1.0 - share > ATTRIBUTION_GAP_LIMIT:
        findings.append(
            f"finding: {ATTRIBUTION_ROOT} is {100 * (1 - share):.1f}% outside "
            f"{' + '.join(ATTRIBUTION_PARTS)} (limit {100 * ATTRIBUTION_GAP_LIMIT:.0f}%); "
            "inside the span but outside those calls the driver builds rows and calls "
            "BeginTransaction, neither spanned")
    elif roots:
        findings.append(
            f"attribution: {' + '.join(ATTRIBUTION_PARTS)} cover {100 * share:.1f}% of "
            f"{ATTRIBUTION_ROOT} over {roots} transactions")
    return metrics, dict(layers), findings


def format_layers(layers):
    """The layer table: self time, share of all self time, span count."""
    total = sum(entry["self_ns"] for entry in layers.values()) or 1
    lines = [f"{'layer':<12} {'self ms':>12} {'share':>7} {'spans':>10}"]
    for layer, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(f"{layer:<12} {entry['self_ns'] / 1e6:>12.3f} "
                     f"{100 * entry['self_ns'] / total:>6.1f}% {entry['spans']:>10}")
    return "\n".join(lines)


def overhead(untraced, traced):
    """Tracing overhead lines from two e2e results (end-to-end metric maps)."""
    lines = []
    for name in ("ops_per_s", "op_p50_us"):
        if name in untraced and name in traced and untraced[name]["value"]:
            ratio = traced[name]["value"] / untraced[name]["value"]
            lines.append(f"tracing overhead: traced/untraced {name} = {ratio:.3f}")
    return lines


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    _, layers, findings = analyze(load(argv[1]))
    print(format_layers(layers))
    for line in findings:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
