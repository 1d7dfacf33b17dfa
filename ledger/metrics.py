"""Arithmetic of the host-time ledger.

Tail selection, span self time, the per-layer self-time
table, the residual check and strict-JSON output. run.py uses these; the
tests in test_metrics.py pin them down.
"""

import json
import math

# A tail is the highest of these percentiles that has at least MIN_BEYOND
# samples ranked above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(pct, n):
    """1-based nearest rank of percentile `pct` among n samples: the smallest
    sample with at least pct% of the samples at or below it. Rounding first
    keeps 99.9% of 10000 at rank 9990, not 9991."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def tail(values):
    """The highest percentile in TAIL_PERCENTILES with at least MIN_BEYOND
    samples ranked above it. With too few samples for any of them, the tail
    is the maximum (reported as percentile 100, nothing beyond).

    Returns (percentile, value, sample count, samples beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = _rank(pct, n)
        if n - rank >= MIN_BEYOND:
            return pct, ordered[rank - 1], n, n - rank
    return 100.0, ordered[-1], n, 0


def covered_length(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover. Children may nest, overlap each other or
    stick out of the parent; only their union inside the parent counts.

    `spans` are dicts with id, parent, start and end. Returns {id: self}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        inside = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                  for c in children.get(s["id"], [])]
        inside = [(a, b) for a, b in inside if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - covered_length(inside)
    return out


def spans_from_chrome(doc):
    """The complete ("X") events of a Chrome Trace Event document as span
    dicts, times in ms."""
    spans = []
    for e in doc["traceEvents"]:
        if e.get("ph") != "X":
            continue
        start = e["ts"] / 1e3
        spans.append({"name": e["name"], "id": e["args"]["id"],
                      "parent": e["args"]["parent"], "start": start,
                      "end": start + e["dur"] / 1e3, "lane": e["tid"]})
    return spans


def layer_table(spans):
    """Per layer (the span name up to its first dot): span count, total
    duration and total self time, in the spans' time unit."""
    own = self_times(spans)
    table = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        row = table.setdefault(layer, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += own[s["id"]]
    return {k: tuple(v) for k, v in table.items()}


def residual(explained, wall):
    """Share of `wall` that `explained` misses (or overshoots)."""
    return abs(wall - explained) / wall if wall > 0 else math.inf


def strict_json(obj):
    """Compact JSON that every strict parser reads: no NaN or Infinity."""
    return json.dumps(obj, allow_nan=False, separators=(",", ":"))


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last output line. `metrics` maps name to
    (value, unit)."""
    if not isinstance(correct, bool):
        raise TypeError("correct must be a bool")
    for name, count in (("attempted", attempted), ("failed", failed)):
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ValueError(f"{name} must be a whole number >= 0")
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    body = {}
    for name, (value, unit) in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"metric {name} is not a number")
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite")
        body[name] = {"value": value, "unit": unit}
    return strict_json({"correct": correct, "attempted": attempted,
                        "failed": failed, "metrics": body})
