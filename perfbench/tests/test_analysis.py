"""Tests of the benchmark's own arithmetic on fixed inputs.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import analysis  # noqa: E402

PINS = [
    ("labelings", "soundness", True, "no unanimous accept on a no-instance", 4, "exhaustive"),
    ("labelings", "quantified", None, "1 of 2 views unextractable", 4, "exhaustive"),
    ("instances", "completeness", True, "2 passed, 0 failed, max certificate 8 bits", 2, "sampled"),
]


def report(pins, telemetry=()):
    panels = {}
    for shape, prop, passed, detail, checked, coverage in pins:
        panel = panels.setdefault(shape, {"shape": shape, "checked": checked, "members": []})
        panel["members"].append(
            {"property": prop, "label": prop, "passed": passed, "detail": detail,
             "checked": checked, "short_circuited": False, "coverage": coverage, "errors": 0}
        )
    return json.dumps({"decoder": "d", "k": 2, "seed": 1, "panels": list(panels.values()),
                       "telemetry": list(telemetry), "notes": []}, indent=2)


def events(*spans, tid=0):
    """Chrome B/E events from (name, start, end) triples given in the
    order their B events occur."""
    out = []
    for name, start, end in spans:
        out.append({"name": name, "ph": "B", "ts": start, "tid": tid})
        out.append({"name": name, "ph": "E", "ts": end, "tid": tid})
    return sorted(out, key=lambda e: (e["ts"], e["ph"] == "B"))


class Statistics(unittest.TestCase):
    def test_median_and_quartiles_match_the_statistics_module(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        self.assertEqual(analysis.median(values), 5.5)
        self.assertEqual(analysis.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(analysis.quartiles(values), (2.75, 5.5, 8.25))

    def test_one_sample_is_its_own_quartiles(self):
        self.assertEqual(analysis.quartiles([0.5]), (0.5, 0.5, 0.5))

    def test_ratio_of_an_empty_base_is_zero(self):
        self.assertEqual(analysis.ratio(3, 4), 0.75)
        self.assertEqual(analysis.ratio(3, 0), 0.0)


class Verdicts(unittest.TestCase):
    def test_good_report_passes(self):
        self.assertIsNone(analysis.verdict_error(report(PINS), PINS))
        self.assertEqual(analysis.parse_verdicts(report(PINS)), PINS)

    def test_wrong_verdict_is_named(self):
        wrong = list(PINS)
        wrong[0] = wrong[0][:2] + (False,) + wrong[0][3:]
        error = analysis.verdict_error(report(wrong), PINS)
        self.assertIn("soundness", error)

    def test_wrong_checked_count_and_missing_member_fail(self):
        fewer = [PINS[0][:4] + (3,) + PINS[0][5:]] + PINS[1:]
        self.assertIsNotNone(analysis.verdict_error(report(fewer), PINS))
        self.assertIn("2 members reported", analysis.verdict_error(report(PINS[:2]), PINS))

    def test_every_truncation_fails_without_raising(self):
        text = report(PINS)
        for cut in range(len(text)):
            self.assertIsNotNone(analysis.verdict_error(text[:cut], PINS), cut)

    def test_wrong_shapes_fail_without_raising(self):
        for text in ("[]", "null", '{"panels": 3}', '{"panels": [{"members": [{}]}]}'):
            self.assertIsNotNone(analysis.verdict_error(text, PINS), text)

    def test_telemetry_is_ignored_when_comparing_renders(self):
        a = report(PINS)
        b = report(PINS, telemetry=[{"shape": "labelings"}])
        self.assertNotEqual(a, b)
        self.assertEqual(analysis.without_telemetry(a), analysis.without_telemetry(b))

    def test_shard_retries_are_read_from_the_coordinator_line(self):
        stderr = "audit: shard 0/2 report written\naudit: 2 shards merged (3 dispatches, 1 retries)\n"
        self.assertEqual(analysis.shard_retries(stderr), 1)
        self.assertEqual(analysis.shard_retries("audit: note: x\n"), 0)

    def test_labelings_checked(self):
        self.assertEqual(analysis.labelings_checked(report(PINS)), 4)


class Spans(unittest.TestCase):
    def test_nesting_gives_parents_and_self_times(self):
        span_list = analysis.spans(events(("audit", 0, 100), ("plan.run", 10, 70), ("render", 80, 90)))
        self.assertEqual(
            span_list,
            [("plan.run", 10, 70, "audit"), ("render", 80, 90, "audit"), ("audit", 0, 100, None)],
        )
        self.assertEqual(analysis.self_times(span_list), {"audit": 30, "plan.run": 60, "render": 10})
        self.assertEqual(analysis.durations(span_list)["audit"], 100)

    def test_suffixed_names_fold_into_one_layer(self):
        span_list = analysis.spans(
            events(("panel", 0, 50), ("block:0", 5, 20), ("block:1", 20, 45))
        )
        self.assertEqual(analysis.self_times(span_list), {"panel": 10, "block": 40})

    def test_threads_nest_separately(self):
        evs = events(("panel", 0, 50)) + events(("chunk:0", 1, 30), tid=1)
        span_list = analysis.spans(sorted(evs, key=lambda e: e["ts"]))
        self.assertEqual(analysis.self_times(span_list), {"panel": 50, "chunk": 29})

    def test_unbalanced_traces_are_refused(self):
        with self.assertRaises(ValueError):
            analysis.spans([{"name": "a", "ph": "B", "ts": 0, "tid": 0}])
        with self.assertRaises(ValueError):
            analysis.spans([{"name": "a", "ph": "E", "ts": 0, "tid": 0}])

    def test_tail_after(self):
        span_list = analysis.spans(
            events(("plan", 0, 100), ("panel", 5, 60), ("panel", 70, 80))
        )
        self.assertEqual(analysis.tail_after(span_list, "panel", "plan"), 40)


def metrics_doc(counters, walk_us, reduce_us, cache_us):
    stable = {k: counters.get(k, 0) for k in (
        "items_walked", "items_inspected", "items_orbit_skipped", "cache_hits",
        "cache_misses", "verdict_refreshes", "quotient_blocks")}
    observed = {k: counters.get(k, 0) for k in (
        "memo_hits", "memo_misses", "verdict_decisions", "interner_contention",
        "interner_front_hits", "interner_front_misses")}
    phase = lambda us: {"count": 1, "sum": us, "buckets": {}}  # noqa: E731
    return {"counters": {"stable": stable, "observed": observed},
            "phases": {"cache_build": phase(cache_us), "walk": phase(walk_us), "reduce": phase(reduce_us)}}


COUNTERS = {
    "items_walked": 2_000_000, "items_inspected": 1_500_000, "items_orbit_skipped": 500_000,
    "cache_hits": 90, "cache_misses": 10, "verdict_refreshes": 7, "quotient_blocks": 3,
    "memo_hits": 75, "memo_misses": 25, "verdict_decisions": 100, "interner_contention": 4,
    "interner_front_hits": 30, "interner_front_misses": 10,
}


class Layers(unittest.TestCase):
    def unsharded_probe(self):
        probe_spans = events(
            ("universe.build", 0, 100_000),
            ("plan.run.untraced", 100_000, 2_100_000),
            ("audit", 2_100_000, 4_600_000),
            ("plan.run", 2_100_000, 4_500_000),
            ("render", 4_500_000, 4_550_000),
            ("plan.run.untraced.after", 4_600_000, 6_400_000),
        )
        engine = events(("plan", 2_100_000, 4_500_000), ("panel", 2_200_000, 4_200_000),
                        ("panel", 4_300_000, 4_400_000))
        doc = metrics_doc(COUNTERS, walk_us=1_500_000, reduce_us=300_000, cache_us=100_000)
        return {"blocks": 12, "labelings": 4096, "render_bytes": 999, "shard_report_bytes": 0,
                "probe_trace": {"traceEvents": probe_spans}, "root_trace": {"traceEvents": engine},
                "root_metrics": doc, "walk_trace": {"traceEvents": engine}, "walk_metrics": doc}

    def test_unsharded_layers_ratios_and_residual(self):
        v, na, breakdown = analysis.layer_metrics(
            self.unsharded_probe(), [2.9, 3.0, 3.5], 0, sharded=False, quotient=True)
        self.assertEqual({name for name, _, _ in analysis.LAYER_METRICS}, set(v))
        self.assertEqual(na, analysis.SHARD_METRICS)
        self.assertAlmostEqual(v["plan.run_s"], 2.4)
        self.assertAlmostEqual(v["plan.self_s"], 2.4 - 1.5 - 0.3 - 0.1)
        self.assertAlmostEqual(v["plan.linear_panels_s"], 0.3)
        self.assertAlmostEqual(v["panel.ns_per_item"], 1.5e9 / 2e6)
        self.assertAlmostEqual(v["panel.skeleton_hit_ratio"], 0.9)
        self.assertAlmostEqual(v["panel.memo_hit_ratio"], 0.75)
        self.assertAlmostEqual(v["panel.decisions_per_item"], 100 / 2e6)
        self.assertAlmostEqual(v["interner.contention_per_mitem"], 2.0)
        self.assertAlmostEqual(v["interner.front_hit_ratio"], 0.75)
        self.assertAlmostEqual(v["symmetry.orbit_skip_ratio"], 0.25)
        self.assertAlmostEqual(v["audit.process_overhead_s"], 3.0 - 2.5)
        self.assertAlmostEqual(v["telemetry.overhead_ratio"], 2.4 / 1.9)
        # Layers: universe 0.1 + cache 0.1 + walk 1.5 + reduce 0.3 +
        # linear 0.3 + render 0.05 = 2.35 of a 2.5 s audit span.
        self.assertAlmostEqual(sum(breakdown["residual_layers_s"].values()), 2.35)
        self.assertAlmostEqual(v["trace.residual_share"], 0.15 / 2.5)
        self.assertAlmostEqual(breakdown["probe_self_s"]["audit"], 0.05)

    def test_delta_workloads_mark_symmetry_not_applicable(self):
        _, na, _ = analysis.layer_metrics(self.unsharded_probe(), [3.0], 0, sharded=False, quotient=False)
        self.assertEqual(na, analysis.SHARD_METRICS | analysis.SYMMETRY_METRICS)

    def test_sharded_layers(self):
        probe_spans = events(
            ("universe.build", 0, 10),
            ("plan.run.untraced", 10, 1_010),
            ("audit", 1_010, 3_010),
            ("shard.run", 1_010, 2_010),
            ("shard.merge", 2_010, 2_810),
            ("render", 2_810, 2_910),
            ("plan.run.traced", 3_010, 4_210),
            ("plan.run.untraced.after", 4_210, 5_210),
        )
        root = events(("plan", 2_010, 2_810), ("merge", 2_100, 2_500))
        walk = events(("plan", 3_010, 4_210), ("panel", 3_020, 4_000))
        doc = metrics_doc(COUNTERS, walk_us=800, reduce_us=100, cache_us=10)
        probe = {"blocks": 1, "labelings": 2, "render_bytes": 3, "shard_report_bytes": 4,
                 "probe_trace": {"traceEvents": probe_spans}, "root_trace": {"traceEvents": root},
                 "root_metrics": doc, "walk_trace": {"traceEvents": walk}, "walk_metrics": doc}
        v, na, breakdown = analysis.layer_metrics(probe, [0.004], 1, sharded=True, quotient=True)
        self.assertEqual(na, set())
        self.assertAlmostEqual(v["shard.run_s"], 0.001)
        # run_with_shards took 800 us, 310 of them after the merge span.
        self.assertAlmostEqual(v["shard.merge_s"], 0.00049)
        self.assertAlmostEqual(v["plan.run_s"], 0.0012)
        self.assertAlmostEqual(v["plan.linear_panels_s"], 0.00021)
        self.assertEqual(v["shard.retries"], 1)
        self.assertAlmostEqual(v["trace.residual_share"], 0.1 / 2.0)
        self.assertEqual(set(breakdown["residual_layers_s"]),
                         {"shard.run_s", "shard.merge_s", "plan.linear_panels_s", "render.s"})


if __name__ == "__main__":
    unittest.main()
