"""Metric math of the benchmark, kept free of I/O so test_metrics.py can
check it: nearest-rank percentiles and the tail rule, the failed share,
Chrome trace parsing and span self time, and panic lines of aborted
replays."""

import json
import math
import re

# A tail percentile is reported only when at least this many samples lie
# beyond it; fewer make it an estimate of a handful of sessions.
TAIL_MIN_BEYOND = 10
TAIL_CANDIDATES = (0.99, 0.95, 0.90)


def nearest_rank(sorted_xs, q):
    """The ceil(q * n)-th smallest sample (1-based), as the program's own
    Percentiles reducer computes it, so both agree bit for bit."""
    if not sorted_xs:
        raise ValueError("no samples")
    if q <= 0:
        return sorted_xs[0]
    if q >= 1:
        return sorted_xs[-1]
    rank = max(1, math.ceil(q * len(sorted_xs)))
    return sorted_xs[min(rank, len(sorted_xs)) - 1]


def beyond(n, q):
    """Samples ranked after the nearest-rank q-quantile of n samples."""
    return n - max(1, math.ceil(q * n))


def tail(xs):
    """Highest of p99/p95/p90 with at least TAIL_MIN_BEYOND samples beyond
    it.  Returns (quantile, value, samples beyond); quantile is None when
    even p90 has too few samples beyond it (then the maximum is given)."""
    s = sorted(xs)
    for q in TAIL_CANDIDATES:
        if beyond(len(s), q) >= TAIL_MIN_BEYOND:
            return q, nearest_rank(s, q), beyond(len(s), q)
    return None, s[-1], 0


def failed_share(parts):
    """Share of attempted sessions that failed.  `parts` holds one
    (sessions, failed, aborted) triple per replay; an aborted replay fails
    every one of its sessions, whatever it managed to report."""
    attempted = sum(p[0] for p in parts)
    failed = sum(p[0] if p[2] else p[1] for p in parts)
    return attempted, failed, (failed / attempted if attempted else 1.0)


PANIC_RE = re.compile(r"SOD panic at (?:.*/)?(src/[\w./-]+:\d+): (.*)")


def panic_site(stderr_text):
    """(site, message) of the first SOD panic line, site relative to the
    repository root; None when the text holds no panic."""
    for line in stderr_text.splitlines():
        m = PANIC_RE.search(line)
        if m:
            return m.group(1), m.group(2).strip()
    return None


def parse_chrome_trace(text):
    """Parses Chrome trace-event JSON (the object form) and returns its
    complete ("X") events.  Raises ValueError on anything a trace viewer
    would not open."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("not a trace-event object")
    events = []
    for e in doc["traceEvents"]:
        for key, kind in (("name", str), ("ph", str), ("ts", (int, float)),
                          ("pid", int), ("tid", int)):
            if not isinstance(e.get(key), kind):
                raise ValueError(f"event without a valid {key!r}: {e!r}")
        if e["ph"] == "X":
            if not isinstance(e.get("dur"), (int, float)) or e["dur"] < 0:
                raise ValueError(f"complete event without a duration: {e!r}")
            events.append(e)
    return events


def _covered(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(events):
    """Self time of each span: its duration minus the part of its interval
    its child spans cover (children found through args.parent).  Returns
    {span id: self time} in the trace's time unit."""
    by_id = {e["args"]["id"]: e for e in events}
    children = {}
    for e in events:
        parent = e["args"].get("parent", -1)
        if parent in by_id:
            start, end = e["ts"], e["ts"] + e["dur"]
            p = by_id[parent]
            # Clip to the parent: a child can only hide its parent's time.
            start, end = max(start, p["ts"]), min(end, p["ts"] + p["dur"])
            if end > start:
                children.setdefault(parent, []).append((start, end))
    return {i: e["dur"] - _covered(children.get(i, [])) for i, e in by_id.items()}


def layer_self_ms(events):
    """Self time per layer in ms; a span's layer is the name up to its
    first dot (its Chrome category)."""
    out = {}
    st = self_times(events)
    for e in events:
        layer = e["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + st[e["args"]["id"]] / 1e3
    return out
