#!/usr/bin/env python3
"""Repository benchmark: host and virtual cost of replaying seeded
multi-tenant traces through cluster::run_loadgen, plus a traced per-layer
pass.

    python3 perfbench/run.py --workload tenant_mix --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first run configures and builds
perfbench/driver.cpp against the repository's sod_core target into
.bench_build/perfbench (Release).  Every measured step runs in its own
driver process, so an abort inside the program fails that step's sessions
instead of the benchmark.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the run's spans to .bench_out/ as Chrome trace-event JSON).
Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Every run also
replays the two known-defect probes and reports them as known failures.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import metrics  # noqa: E402

ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
DRIVER = BUILD_DIR / "perfbench_driver"

# Seed kept out of every tuning run, for confirming a later claim.
HELD_OUT_SEED = 7919

# Host seconds one sub-trace replay takes on a 4-core box; a run replays
# round(seconds / part_s) sub-traces of its seed, so the set of sessions,
# and every vt_* metric with it, depends only on the seed and --seconds.
WORKLOADS = {
    "tenant_mix": {"part_s": 1.1},
    "offload_storm": {"part_s": 1.2},
    "wall_engine": {"part_s": 3.1},
}

# Known aborts reproduced on every invocation: probe -> expected message.
PROBES = {
    "defect_a": "write-back of unresolvable stub",
    "defect_b": "migrated segment crashed: NullPointerException",
}

# Set-up cost varies more between processes, and over time, than within
# one process: it is timed in a process before every sub-trace replay, and
# the median of the per-process medians is reported.
SETUP_REPS = 10
LAYER_SAMPLE = 32
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "host_ms_per_session": "ms",
    "vt_p50_ms": "ms",
    "vt_tail_ms": "ms",
    "vt_makespan_s": "s",
    "wall_replay_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

APPS = ("fib", "nqueens", "fft", "tsp")
PER_LAYER = {
    **{f"svm.fast_ns_per_instr.{a}": "ns" for a in APPS},
    **{f"svm.debug_ns_per_instr.{a}": "ns" for a in APPS},
    "svm.instr_per_session": "count",
    "sod.capture_ns_per_frame": "ns",
    "sod.restore_ns_per_frame": "ns",
    "sod.serialize_ns_per_kb": "ns",
    "sod.deserialize_ns_per_kb": "ns",
    "sod.wire_size_ns": "ns",
    "sod.state_bytes_per_frame": "B",
    "sod.write_back_us": "us",
    "sod.write_back_bytes": "B",
    "sod.checkpoint_us": "us",
    "sod.checkpoint_delta_ratio": "ratio",
    "sod.faults_per_segment": "count",
    "sod.fault_bytes_per_segment": "B",
    "sod.fetch_us": "us",
    "sod.class_fetch_bytes": "B",
    "cluster.round_us_per_segment": "us",
    "cluster.events_per_segment": "count",
    "cluster.spec_cancel_ratio": "ratio",
    "cluster.redispatched": "count",
    "cluster.statics_scan_ratio": "ratio",
    "cluster.admission_wait_ms": "ms",
    "cluster.stripe_contended_ratio": "ratio",
    "cluster.stripe_wait_us_per_acq": "us",
    "cluster.wall_max_queue": "count",
    "bytecode.build_ms": "ms",
    "prep.preprocess_ms": "ms",
    "analysis.analyze_ms": "ms",
    **{f"{layer}.self_ms": "ms"
       for layer in ("svm", "sod", "cluster", "bytecode", "prep", "analysis")},
    "trace.overhead_ms_per_session": "ms",
}


def say(*parts):
    print(*parts, flush=True)


def build():
    """Configures (once) and builds the driver; exits 2 if that fails."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_driver",
                  "-j", "4"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            sys.stderr.write(f"perfbench: build step failed: {' '.join(cmd)}\n")
            sys.exit(2)


class Child:
    """One driver process: its JSON lines, stderr and exit status."""

    def __init__(self, *args):
        argv = [str(DRIVER), *map(str, args)]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.timed_out = False
        try:
            out, self.stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, self.stderr = proc.communicate()
            self.timed_out = True
        self.returncode = proc.returncode
        self.lines = []
        for line in out.splitlines():
            try:
                self.lines.append(json.loads(line))
            except ValueError:
                pass

    @property
    def ok(self):
        return self.returncode == 0 and not self.timed_out and bool(self.lines)

    @property
    def result(self):
        return self.lines[-1] if self.ok else None

    def why(self):
        site = metrics.panic_site(self.stderr)
        if site:
            return f"abort at {site[0]}: {site[1]}"
        if self.timed_out:
            return f"timed out after {CHILD_TIMEOUT_S} s"
        return f"exit status {self.returncode}: {self.stderr.strip()[-300:]}"


class Replay:
    """One sub-trace replay.  An aborted replay fails all its sessions."""

    def __init__(self, workload, seed, part, engine=None):
        self.child = Child("replay", workload, seed, part, *([engine] if engine else []))
        r = self.child.result
        announced = self.child.lines[0].get("sessions", 0) if self.child.lines else 0
        self.aborted = r is None or "host_s" not in r
        self.r = r or {}
        self.sessions = self.r.get("sessions", announced)
        self.failed = self.sessions if self.aborted else self.r["failed"]


def probe_known_defects():
    """Replays each known-defect probe; returns one record per probe."""
    found = []
    for name, message in PROBES.items():
        c = Child("replay", name, 1, 0)
        site = metrics.panic_site(c.stderr)
        reproduced = not c.ok and site is not None and message in site[1]
        found.append({"probe": name, "reproduced": reproduced,
                      "site": site[0] if site else None,
                      "message": site[1] if site else c.why()})
    return found


def percentile_set(xs):
    s = sorted(xs)
    return [metrics.nearest_rank(s, q) for q in (0.5, 0.9, 0.95, 0.99, 1.0)]


def end_to_end(workload, seed, seconds, checks):
    nparts = max(2, round(seconds / WORKLOADS[workload]["part_s"]))
    setups, parts = [], []
    for j in range(nparts):
        setups.append(Child("setup", workload, seed, SETUP_REPS))
        parts.append(Replay(workload, seed, j))
    checks["setup admitted"] = all(c.ok and c.result["admitted"] for c in setups)
    setup_s = (statistics.median(statistics.median(c.result["setup_s"]) for c in setups)
               if checks["setup admitted"] else None)
    attempted, failed, share = metrics.failed_share(
        [(p.sessions, p.failed, p.aborted) for p in parts])
    for p in parts:
        if p.aborted:
            say(f"replay aborted: {p.child.why()}")
    done = [p.r for p in parts if not p.aborted]
    checks["no replay aborted"] = len(done) == len(parts)
    checks["every session returned its reference result"] = failed == 0
    checks["program admitted"] = all(r["admitted"] for r in done)
    checks["exactly_once"] = all(r["exactly_once"] for r in done)
    checks["run_loadgen all_ok agrees"] = all(r["all_ok"] == (r["failed"] == 0) for r in done)

    # Same seed, new process: the virtual results must be bit-identical.
    again = Replay(workload, seed, 0)
    checks["vt bit-identical across runs of one seed"] = (
        not again.aborted and not parts[0].aborted
        and again.r["vt_digest"] == parts[0].r["vt_digest"])
    if workload == "wall_engine":
        twin = Replay(workload, seed, 0, "virtual")
        checks["wall engine percentiles equal the virtual Scheduler's"] = (
            not twin.aborted and not parts[0].aborted
            and percentile_set(twin.r["session_ms"]) == percentile_set(parts[0].r["session_ms"])
            and twin.r["total_ms"] == parts[0].r["total_ms"])

    if not done or setup_s is None:
        return attempted, failed, None, share
    session_ms = [x for r in done for x in r["session_ms"]]
    s = sorted(session_ms)
    q, tail_value, n_beyond = metrics.tail(session_ms)
    checks["p50 matches the program's own percentile"] = all(
        metrics.nearest_rank(sorted(r["session_ms"]), 0.5) == r["p50_ms"] for r in done)
    m = {
        "host_ms_per_session": 1e3 * sum(r["host_s"] for r in done) / sum(r["sessions"] for r in done),
        "vt_p50_ms": metrics.nearest_rank(s, 0.5),
        "vt_tail_ms": tail_value,
        "vt_makespan_s": statistics.fmean(r["total_ms"] for r in done) / 1e3,
        "wall_replay_s": statistics.median(r["host_s"] for r in done),
        "setup_s": setup_s,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in done) / 1024.0,
    }
    label = f"p{round(q * 100)}" if q else "max"
    say(f"vt_tail_ms is {label} of {len(s)} sessions, {n_beyond} beyond it")
    return attempted, failed, m, share


def per_layer(workload, seed, checks):
    rep = Replay(workload, seed, 0)
    if rep.aborted:
        say(f"replay aborted: {rep.child.why()}")
    checks["program admitted"] = not rep.aborted and rep.r["admitted"]
    checks["exactly_once"] = not rep.aborted and rep.r["exactly_once"]

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload}-{seed}.json"
    lay = Child("layers", workload, seed, LAYER_SAMPLE, trace_path)
    if not lay.ok:
        say(f"layer pass failed: {lay.why()}")
    res = lay.result or {}
    checks["layer pass sessions returned their reference results"] = (
        lay.ok and res.get("failed") == 0)
    checks["layer pass program admitted"] = bool(res.get("admitted"))
    try:
        events = metrics.parse_chrome_trace(trace_path.read_text())
        checks["trace file parses as Chrome trace JSON"] = len(events) == res.get("spans")
    except (OSError, ValueError) as e:
        say(f"trace file unreadable: {e}")
        events = None
        checks["trace file parses as Chrome trace JSON"] = False

    attempted = rep.sessions + res.get("sample", LAYER_SAMPLE)
    failed = rep.failed + (res.get("sample", LAYER_SAMPLE) if not lay.ok else res["failed"])
    if rep.aborted or not lay.ok or events is None:
        return attempted, failed, None
    r, m = rep.r, dict(res["metrics"])
    m["cluster.spec_cancel_ratio"] = r["cancelled"] / r["speculated"] if r["speculated"] else 0.0
    m["cluster.redispatched"] = r["redispatched"]
    scans = r["statics_scans"] + r["statics_skipped"]
    m["cluster.statics_scan_ratio"] = r["statics_scans"] / scans if scans else 0.0
    m["cluster.admission_wait_ms"] = r["admission_wait_ms"]
    self_ms = metrics.layer_self_ms(events)
    for layer in ("svm", "sod", "cluster", "bytecode", "prep", "analysis"):
        m[f"{layer}.self_ms"] = self_ms.get(layer, 0.0)
    m["trace.overhead_ms_per_session"] = (m.pop("trace.traced_ms_per_session")
                                          - m.pop("trace.untraced_ms_per_session"))
    say(f"trace written to {trace_path.relative_to(ROOT)} ({len(events)} spans); "
        "Scheduler::run is timed inclusive of the sod calls it makes")
    return attempted, failed, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build()
    stamp = Child("stamp")
    if not stamp.ok:
        sys.stderr.write(f"perfbench: driver does not run: {stamp.why()}\n")
        sys.exit(2)
    st = stamp.result
    say(f"perfbench workload={a.workload} seed={a.seed} seconds={a.seconds} trace={a.trace} "
        f"held_out_seed={HELD_OUT_SEED}")
    say(f"stamp compiler={st['compiler']!r} build_type={st['build_type']} nproc={st['nproc']}")

    t0 = time.monotonic()
    known = probe_known_defects()
    for k in known:
        state = "reproduced" if k["reproduced"] else "NOT reproduced"
        say(f"known failure {k['probe']}: {state} ({k['site']}: {k['message']})")

    checks = {}
    if a.trace == 0:
        attempted, failed, m, share = end_to_end(a.workload, a.seed, a.seconds, checks)
        units = END_TO_END
        say(f"failed_share {share!r} ratio ({failed} of {attempted} sessions)")
    else:
        attempted, failed, m = per_layer(a.workload, a.seed, checks)
        units = PER_LAYER
    for name, ok in checks.items():
        say(f"check {'ok  ' if ok else 'FAIL'} {name}")
    if m is not None:
        for name, unit in units.items():
            say(f"metric {name} {m[name]!r} {unit}")
    say(f"elapsed {time.monotonic() - t0:.1f} s")

    correct = m is not None and failed == 0 and all(checks.values())
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": m[n], "unit": u} for n, u in units.items()} if m else {},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{a.workload}-{a.seed}-trace{a.trace}.json").write_text(json.dumps(
        {**out, "stamp": st, "known_failures": known, "checks": checks,
         "held_out_seed": HELD_OUT_SEED}, indent=1) + "\n")
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
