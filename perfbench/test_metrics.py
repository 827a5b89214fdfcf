"""Tests of the benchmark's metric math.  Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import stat
import tempfile
import unittest
from pathlib import Path

import metrics
import run


class TailRule(unittest.TestCase):
    def test_nearest_rank_matches_the_programs_percentiles(self):
        xs = [float(i) for i in range(1, 11)]
        self.assertEqual(metrics.nearest_rank(xs, 0.5), 5.0)
        self.assertEqual(metrics.nearest_rank(xs, 0.95), 10.0)
        self.assertEqual(metrics.nearest_rank(xs, 0.0), 1.0)
        self.assertEqual(metrics.nearest_rank(xs, 1.0), 10.0)

    def test_p99_needs_ten_samples_beyond_it(self):
        q, value, n = metrics.tail(range(1000))
        self.assertEqual((q, value, n), (0.99, 989, 10))
        # One sample fewer leaves only nine beyond p99: fall back to p95.
        q, value, n = metrics.tail(range(999))
        self.assertEqual((q, n), (0.95, 49))
        self.assertEqual(value, 949)

    def test_small_samples_fall_back_to_p90_then_max(self):
        self.assertEqual(metrics.tail(range(100))[0::2], (0.90, 10))
        q, value, n = metrics.tail(range(50))
        self.assertEqual((q, value, n), (None, 49, 0))

    def test_order_does_not_matter(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
        self.assertEqual(metrics.tail(xs), metrics.tail(sorted(xs)))


class FailedShare(unittest.TestCase):
    def test_an_aborted_replay_fails_all_its_sessions(self):
        attempted, failed, share = metrics.failed_share(
            [(200, 0, False), (200, 3, True), (100, 1, False)])
        self.assertEqual((attempted, failed), (500, 201))
        self.assertAlmostEqual(share, 201 / 500)

    def test_clean_replays_share_zero(self):
        self.assertEqual(metrics.failed_share([(96, 0, False)] * 3), (288, 0, 0.0))

    def test_aborting_child_process(self):
        """A driver that announces its sessions and then aborts with a
        panic line: the replay counts every session as failed and the
        panic site is recorded."""
        with tempfile.TemporaryDirectory() as d:
            fake = Path(d) / "driver"
            fake.write_text(
                "#!/bin/sh\n"
                "echo '{\"sessions\":30}'\n"
                "echo 'SOD panic at /x/src/sod/migrate.cpp:342: write-back of unresolvable stub' >&2\n"
                "kill -ABRT $$\n")
            fake.chmod(fake.stat().st_mode | stat.S_IEXEC)
            saved = run.DRIVER
            run.DRIVER = fake
            try:
                rep = run.Replay("tenant_mix", 1, 0)
            finally:
                run.DRIVER = saved
        self.assertTrue(rep.aborted)
        self.assertEqual((rep.sessions, rep.failed), (30, 30))
        self.assertEqual(metrics.failed_share([(rep.sessions, rep.failed, rep.aborted)])[2], 1.0)
        self.assertIn("src/sod/migrate.cpp:342", rep.child.why())


class PanicSite(unittest.TestCase):
    def test_site_is_relative_to_the_repository(self):
        text = ("noise\nSOD panic at /build/checkout/perfbench/../src/sod/migrate.cpp:228: "
                "migrated segment crashed: NullPointerException: local slot 4\n")
        self.assertEqual(metrics.panic_site(text),
                         ("src/sod/migrate.cpp:228",
                          "migrated segment crashed: NullPointerException: local slot 4"))
        self.assertIsNone(metrics.panic_site("Segmentation fault\n"))


def span(i, name, ts, dur, parent=-1):
    return {"name": name, "cat": name.split(".")[0], "ph": "X", "ts": ts, "dur": dur,
            "pid": 1, "tid": 1, "args": {"id": i, "parent": parent, "session": 0}}


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped_to_the_parent(self):
        events = [span(0, "cluster.scheduler_run", 0, 100),
                  span(1, "sod.restore", 10, 20, 0),   # 10..30
                  span(2, "sod.fault", 20, 20, 0),     # 20..40 overlaps the first
                  span(3, "svm.run", 90, 30, 0),       # 90..120, 10 inside parent
                  span(4, "sod.fault", 12, 5, 1)]      # grandchild: only its parent loses it
        st = metrics.self_times(events)
        self.assertEqual(st[0], 100 - 30 - 10)
        self.assertEqual(st[1], 20 - 5)
        self.assertEqual(st[2], 20)
        self.assertEqual(st[4], 5)

    def test_layer_totals_in_ms(self):
        events = [span(0, "svm.run_guest", 0, 3000), span(1, "sod.fault", 1000, 1000, 0)]
        self.assertEqual(metrics.layer_self_ms(events), {"svm": 2.0, "sod": 1.0})


class ChromeTrace(unittest.TestCase):
    def test_the_drivers_format_parses(self):
        text = ('{"displayTimeUnit":"ns","traceEvents":[\n'
                '{"name":"sod.capture","cat":"sod","ph":"X","ts":1.500,"dur":0.250,'
                '"pid":1,"tid":1,"args":{"id":0,"parent":-1,"session":3}}\n]}\n')
        events = metrics.parse_chrome_trace(text)
        self.assertEqual([e["name"] for e in events], ["sod.capture"])

    def test_malformed_traces_are_rejected(self):
        for bad in ('[', '{"events":[]}',
                    '{"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":1,"tid":1}]}',
                    '{"traceEvents":[{"ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}'):
            with self.assertRaises(ValueError):
                metrics.parse_chrome_trace(bad)


class BenchmarkFile(unittest.TestCase):
    def test_names_and_units_match_the_runner(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
