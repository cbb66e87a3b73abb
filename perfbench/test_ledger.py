"""Tests for the benchmark's own arithmetic and checks.

    python3 perfbench/test_ledger.py
"""

import json
import sys
import unittest

sys.dont_write_bytecode = True
import ledger  # noqa: E402
import run  # noqa: E402


def span(sid, parent, ts, dur, cat="layer", name="op", tid=1):
    return {"id": sid, "parent": parent, "rid": 0, "ts_us": ts,
            "dur_us": dur, "cat": cat, "name": name, "tid": tid, "args": {}}


class PercentileTest(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond(self):
        self.assertIsNone(ledger.tail_percentile(list(range(199)), 95.0))
        value, beyond = ledger.tail_percentile(list(range(1, 201)), 95.0)
        self.assertEqual(value, 190)
        self.assertEqual(beyond, 10)

    def test_nearest_rank_ignores_input_order(self):
        values = [float(v) for v in range(1000, 0, -1)]
        value, beyond = ledger.tail_percentile(values, 95.0)
        self.assertEqual(value, 950.0)
        self.assertEqual(beyond, 50)

    def test_samples_beyond_counts_strictly_above(self):
        self.assertEqual(ledger.samples_beyond(200, 95.0), 10)
        self.assertEqual(ledger.samples_beyond(219, 95.0), 10)
        self.assertEqual(ledger.samples_beyond(220, 95.0), 11)
        self.assertEqual(ledger.samples_beyond(10, 50.0), 5)

    def test_median_of_nothing_is_zero(self):
        self.assertEqual(ledger.median([]), 0.0)
        self.assertEqual(ledger.median([3.0, 1.0, 2.0]), 2.0)


class SelfTimeTest(unittest.TestCase):
    def test_sequential_children(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 20), span(3, 1, 40, 30)]
        self.assertEqual(ledger.self_times(spans)[1], 50)

    def test_overlapping_children_subtracted_once(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 20), span(3, 1, 20, 30)]
        # union of [10,30] and [20,50] is 40 us, not 50
        self.assertEqual(ledger.self_times(spans)[1], 60)

    def test_parallel_dcb_block_children(self):
        # compress_file with four blocks, as trace_blocks lays them out:
        # [0,40] [0,35] [5,45] on three lanes, then [40,80] on the first.
        parent = span(1, 0, 0, 100, cat="stream", name="compress_file")
        blocks = [span(2, 1, 0, 40, cat="container", tid=1000),
                  span(3, 1, 0, 35, cat="container", tid=1001),
                  span(4, 1, 5, 40, cat="container", tid=1002),
                  span(5, 1, 40, 40, cat="container", tid=1000)]
        selfs = ledger.self_times([parent] + blocks)
        self.assertEqual(selfs[1], 20)  # covered: [0,80]
        self.assertEqual(sum(selfs[b["id"]] for b in blocks), 155)

    def test_children_clipped_to_parent(self):
        spans = [span(1, 0, 100, 50), span(2, 1, 90, 30), span(3, 1, 140, 40)]
        # covered inside [100,150]: [100,120] and [140,150]
        self.assertEqual(ledger.self_times(spans)[1], 20)

    def test_grandchildren_do_not_reach_grandparent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 0, 50), span(3, 2, 0, 50)]
        selfs = ledger.self_times(spans)
        self.assertEqual(selfs[1], 50)
        self.assertEqual(selfs[2], 0)
        self.assertEqual(selfs[3], 50)

    def test_self_ms_by_layer_sums_per_category(self):
        spans = [span(1, 0, 0, 4000, cat="exchange"),
                 span(2, 1, 0, 1000, cat="cloud"),
                 span(3, 1, 1000, 1000, cat="cloud")]
        self.assertEqual(ledger.self_ms_by_layer(spans),
                         {"exchange": 2.0, "cloud": 2.0})


class ChromeTraceTest(unittest.TestCase):
    def test_trace_is_well_formed_json(self):
        spans = [span(1, 0, 0.5, 100, cat="exchange", name="exchange.request"),
                 span(2, 1, 0.5, 20, cat="ml", name="select")]
        spans[0]["rid"] = 7
        spans[1]["args"] = {"codec": "dnax"}
        doc = json.loads(json.dumps(
            ledger.chrome_trace(spans, "perfbench test", {"seed": 1})))
        self.assertEqual(doc["displayTimeUnit"], "ms")
        self.assertEqual(doc["otherData"], {"seed": 1})
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        self.assertEqual(meta[0]["args"]["name"], "perfbench test")
        self.assertEqual(len(complete), 2)
        for e in complete:
            for key in ("name", "cat", "ts", "dur", "pid", "tid", "args"):
                self.assertIn(key, e)
            self.assertGreaterEqual(e["dur"], 0)
        # parents sort before their children at equal start times
        self.assertEqual(complete[0]["name"], "exchange.request")
        self.assertEqual(complete[0]["args"]["request_id"], 7)
        self.assertEqual(complete[1]["args"],
                         {"codec": "dnax", "span_id": 2, "parent_id": 1})


class StealGateTest(unittest.TestCase):
    def record(self, usable):
        windows = [{"raw_bytes": 2e6, "wall_s": 1.0, "peak_rss_mib": 10.0,
                    "usable": u} for u in usable]
        per_window = 120
        lat, tags = [], []
        for k in range(len(windows)):
            lat += [float(k)] * per_window
            tags += [k] * per_window
        lat.append(99.0)  # a request that overlapped no usable window
        tags.append(-1)
        return {"windows": windows, "latency_ms": lat,
                "latency_window": tags}

    def test_samples_from_unusable_windows_are_dropped(self):
        windows, lat, fallback = run.usable_samples(
            self.record([True, False, True]))
        self.assertFalse(fallback)
        self.assertEqual(len(windows), 2)
        self.assertEqual(sorted(set(lat)), [0.0, 2.0])

    def test_too_few_usable_samples_fall_back_to_all(self):
        windows, lat, fallback = run.usable_samples(
            self.record([True, False, False]))
        self.assertTrue(fallback)
        self.assertEqual(len(windows), 3)
        self.assertEqual(len(lat), 361)


class ChecksTest(unittest.TestCase):
    EXPECTED = {"canary": {"dnax": 10},
                "workloads": {"grid": {"1": 500}}}

    def record(self, **kw):
        r = {"workload": "grid", "seed": 1.0, "checks": [], "failed": 0,
             "attempted": 3, "canary_bytes": {"dnax": 10},
             "bytes_checked": 500}
        r.update(kw)
        return r

    def test_clean_record_passes(self):
        self.assertEqual(run.checks(self.record(), self.EXPECTED), [])

    def test_size_change_fails(self):
        self.assertTrue(run.checks(self.record(bytes_checked=501),
                                   self.EXPECTED))
        self.assertTrue(run.checks(self.record(canary_bytes={"dnax": 11}),
                                   self.EXPECTED))

    def test_unrecorded_seed_checks_canary_only(self):
        self.assertEqual(run.checks(self.record(seed=9.0, bytes_checked=1),
                                    self.EXPECTED), [])

    def test_failed_operations_and_checks_fail(self):
        self.assertTrue(run.checks(self.record(failed=1), self.EXPECTED))
        bad = [{"name": "read-back", "ok": False, "detail": "1 mismatch"}]
        self.assertTrue(run.checks(self.record(checks=bad), self.EXPECTED))


if __name__ == "__main__":
    unittest.main()
