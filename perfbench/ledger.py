"""Span and sample arithmetic for the benchmark: percentiles, self time and
Chrome trace-event export. Pure functions; run.py feeds them the driver's
record and test_ledger.py checks them.
"""

import math
import statistics

# A tail percentile is reported only with at least this many samples beyond
# it, so that it does not rest on a handful of outliers.
MIN_BEYOND = 10


def nearest_rank(sorted_values, pct):
    """The nearest-rank pct-th percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def samples_beyond(n, pct):
    """How many of n samples lie above the nearest-rank pct-th percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_percentile(values, pct=95.0, min_beyond=MIN_BEYOND):
    """(value, samples beyond it) of the pct-th percentile, or None when
    fewer than min_beyond samples lie beyond it."""
    if samples_beyond(len(values), pct) < min_beyond:
        return None
    return nearest_rank(sorted(values), pct), samples_beyond(len(values), pct)


def median(values):
    return statistics.median(values) if values else 0.0


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of (start, end) intervals.
    Overlapping intervals count once."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals
                     if min(e, hi) > max(s, lo))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Span id -> self time in microseconds: the span's duration minus the
    part of its interval covered by its children. Parallel children that
    overlap one another are subtracted once, not once each."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(
                (s["ts_us"], s["ts_us"] + s["dur_us"]))
    out = {}
    for s in spans:
        lo, hi = s["ts_us"], s["ts_us"] + s["dur_us"]
        # rounded to the nanosecond so fully covered spans read exactly 0
        out[s["id"]] = round(s["dur_us"] - covered_length(
            children.get(s["id"], []), lo, hi), 3)
    return out


def self_ms_by_layer(spans):
    """Layer (span category) -> summed self time in milliseconds."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        out[s["cat"]] = out.get(s["cat"], 0.0) + selfs[s["id"]] / 1000.0
    return out


def chrome_trace(spans, process_name, other_data=None):
    """Chrome trace-event JSON (object form) for the spans: one complete
    ("X") event each, timestamps in microseconds. Opens in Perfetto UI or
    chrome://tracing without a server."""
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
               "args": {"name": process_name}}]
    for s in sorted(spans, key=lambda s: (s["ts_us"], -s["dur_us"])):
        args = dict(s.get("args") or {})
        args.update({"span_id": s["id"], "parent_id": s["parent"]})
        if s.get("rid"):
            args["request_id"] = s["rid"]
        events.append({"name": s["name"], "cat": s["cat"], "ph": "X",
                       "ts": s["ts_us"], "dur": s["dur_us"], "pid": 1,
                       "tid": s["tid"], "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": other_data or {}}
