"""Pure arithmetic of the audit benchmark: summary statistics, the
verdict gate, span self times and the per-layer metrics of a traced run.

Nothing here spawns a process or reads a clock, so every function is
tested on fixed inputs by ``perfbench/tests/test_analysis.py``.
"""

import json
import statistics

# A traced run whose layers leave more than this share of the root span
# unattributed is flagged.
RESIDUAL_FLAG = 0.05


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them (one sample is its
    own quartiles)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def ratio(numerator, denominator):
    """``numerator / denominator``, or 0.0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


# --- the verdict gate -------------------------------------------------

MEMBER_FIELDS = ("passed", "detail", "checked", "coverage")


def parse_verdicts(text):
    """The per-member verdicts of an audit report, as
    ``(shape, property, passed, detail, checked, coverage)`` tuples in
    report order. Raises ``ValueError`` on a report that is truncated,
    unparsable or missing a field."""
    try:
        report = json.loads(text)
        return [
            (panel["shape"], member["property"])
            + tuple(member[field] for field in MEMBER_FIELDS)
            for panel in report["panels"]
            for member in panel["members"]
        ]
    except (KeyError, TypeError, json.JSONDecodeError) as e:
        raise ValueError(f"unreadable report: {e!r}") from None


def verdict_error(text, expected):
    """``None`` when ``text`` is a report whose verdicts equal
    ``expected``, else a one-line description of the first difference."""
    try:
        got = parse_verdicts(text)
    except ValueError as e:
        return str(e)
    for want, have in zip(expected, got):
        if want != have:
            return f"verdict {have} != pinned {want}"
    if len(got) != len(expected):
        return f"{len(got)} members reported, {len(expected)} pinned"
    return None


def without_telemetry(text):
    """A report's JSON minus its ``telemetry`` section, which only a run
    with a recorder attached fills."""
    report = json.loads(text)
    report.pop("telemetry", None)
    return report


def labelings_checked(text):
    """The labelings panel's ``checked`` count."""
    return next(p["checked"] for p in json.loads(text)["panels"] if p["shape"] == "labelings")


def shard_retries(stderr):
    """Retries the ``audit --shards`` coordinator reported on stderr
    (``audit: 2 shards merged (3 dispatches, 1 retries)``)."""
    for line in stderr.splitlines():
        if "shards merged" in line and line.endswith("retries)"):
            return int(line.rsplit(",", 1)[1].split()[0])
    return 0


# --- spans ------------------------------------------------------------


def spans(events):
    """Balanced Chrome ``B``/``E`` events as ``(name, start, end, parent)``
    tuples in microseconds, in order of their exit; ``parent`` is the
    enclosing span's name on the same thread, or ``None``."""
    stacks = {}
    out = []
    for e in events:
        if e["ph"] not in ("B", "E"):
            continue
        stack = stacks.setdefault(e["tid"], [])
        if e["ph"] == "B":
            stack.append((e["name"], e["ts"]))
            continue
        if not stack or stack[-1][0] != e["name"]:
            raise ValueError(f"unbalanced exit of {e['name']!r} at {e['ts']}")
        name, start = stack.pop()
        out.append((name, start, e["ts"], stack[-1][0] if stack else None))
    if any(stacks.values()):
        raise ValueError("spans left open")
    return out


def layer_of(name):
    """The layer a span belongs to: its name up to any ``:`` suffix, so
    ``block:3`` and ``shard:0/2`` fold into ``block`` and ``shard``."""
    return name.split(":", 1)[0]


def self_times(span_list):
    """Each layer's span durations minus the durations of their direct
    children, in microseconds."""
    out = {}
    for name, start, end, parent in span_list:
        layer = layer_of(name)
        out[layer] = out.get(layer, 0) + (end - start)
        if parent is not None:
            out[layer_of(parent)] = out.get(layer_of(parent), 0) - (end - start)
    return out


def durations(span_list):
    """Total duration per span name, in microseconds."""
    out = {}
    for name, start, end, _ in span_list:
        out[name] = out.get(name, 0) + (end - start)
    return out


def tail_after(span_list, first, last):
    """Microseconds from the exit of the first ``first`` span to the exit
    of the last ``last`` span: the panels a plan runs after its labelings
    walk (or after a shard merge)."""
    first_end = min(end for name, _, end, _ in span_list if name == first)
    last_end = max(end for name, _, end, _ in span_list if name == last)
    return last_end - first_end


# --- per-layer metrics ------------------------------------------------

# (name, unit, base) for every per-layer metric; a ratio names its base.
LAYER_METRICS = [
    ("universe.build_s", "s", None),
    ("universe.blocks", "count", None),
    ("universe.labelings", "count", None),
    ("plan.run_s", "s", None),
    ("plan.self_s", "s", "plan.run_s - panel.walk_s - panel.reduce_s - panel.cache_build_s"),
    ("plan.linear_panels_s", "s", "labelings panel exit to plan exit"),
    ("panel.walk_s", "s", None),
    ("panel.cache_build_s", "s", None),
    ("panel.ns_per_item", "ns/item", "panel.walk_s / items_walked"),
    ("panel.items_walked", "count", None),
    ("panel.items_inspected", "count", None),
    ("panel.verdict_refreshes", "count", None),
    ("panel.skeleton_hit_ratio", "ratio", "cache_hits / (cache_hits + cache_misses)"),
    ("panel.memo_hit_ratio", "ratio", "memo_hits / (memo_hits + memo_misses)"),
    ("panel.decisions_per_item", "1/item", "verdict_decisions / items_walked"),
    ("panel.reduce_s", "s", None),
    ("interner.contention_per_mitem", "1/Mitem", "interner_contention per million items_walked"),
    (
        "interner.front_hit_ratio",
        "ratio",
        "interner_front_hits / (interner_front_hits + interner_front_misses)",
    ),
    ("symmetry.orbit_skip_ratio", "ratio", "items_orbit_skipped / items_walked"),
    ("symmetry.quotient_blocks", "count", None),
    ("shard.run_s", "s", None),
    ("shard.merge_s", "s", "run_with_shards up to the merge span's exit"),
    ("shard.report_bytes", "bytes", None),
    ("shard.retries", "count", None),
    ("render.s", "s", None),
    ("render.bytes", "bytes", None),
    ("audit.process_overhead_s", "s", "median process wall - in-process audit span"),
    ("telemetry.overhead_ratio", "ratio", "traced / mean of two untraced AuditPlan::run walls"),
    ("trace.residual_share", "ratio", "(audit span - sum of layers) / audit span"),
]

SHARD_METRICS = {"shard.run_s", "shard.merge_s", "shard.report_bytes", "shard.retries"}
SYMMETRY_METRICS = {"symmetry.orbit_skip_ratio", "symmetry.quotient_blocks"}


def recorder_counters(metrics):
    """Counters of a ``MetricsRecorder::metrics_json`` document."""
    counters = metrics["counters"]
    return {**counters["stable"], **counters["observed"]}


def phase_seconds(metrics):
    """Summed phase durations of a ``MetricsRecorder::metrics_json``
    document, in seconds."""
    return {name: h["sum"] / 1e6 for name, h in metrics["phases"].items()}


def layer_metrics(probe, process_walls, retries, sharded, quotient):
    """Per-layer metrics of one traced run.

    ``probe`` is the ``perfbench-probe`` document, ``process_walls`` the
    walls in seconds of the same workload run as an ``audit`` process,
    and ``retries`` the shard retries those processes reported. Returns
    ``(values, not_applicable, breakdown)``: every metric of
    ``LAYER_METRICS`` by name, the names that measure a layer the
    workload does not run (reported as 0), and the seconds behind them —
    the layers summed for the residual and the self time of each probe
    and engine span layer."""
    own = spans(probe["probe_trace"]["traceEvents"])
    wall = {name: us / 1e6 for name, us in durations(own).items()}
    root_spans = spans(probe["root_trace"]["traceEvents"])
    walk_spans = spans(probe["walk_trace"]["traceEvents"])
    phases = phase_seconds(probe["walk_metrics"])
    counters = recorder_counters(probe["walk_metrics"])
    walked = counters["items_walked"]
    plan_run = wall["plan.run.traced" if sharded else "plan.run"]
    linear = tail_after(walk_spans, "panel", "plan") / 1e6

    v = {
        "universe.build_s": wall["universe.build"],
        "universe.blocks": probe["blocks"],
        "universe.labelings": probe["labelings"],
        "plan.run_s": plan_run,
        "plan.self_s": plan_run - phases["walk"] - phases["reduce"] - phases["cache_build"],
        "plan.linear_panels_s": linear,
        "panel.walk_s": phases["walk"],
        "panel.cache_build_s": phases["cache_build"],
        "panel.ns_per_item": ratio(phases["walk"] * 1e9, walked),
        "panel.items_walked": walked,
        "panel.items_inspected": counters["items_inspected"],
        "panel.verdict_refreshes": counters["verdict_refreshes"],
        "panel.skeleton_hit_ratio": ratio(
            counters["cache_hits"], counters["cache_hits"] + counters["cache_misses"]
        ),
        "panel.memo_hit_ratio": ratio(
            counters["memo_hits"], counters["memo_hits"] + counters["memo_misses"]
        ),
        "panel.decisions_per_item": ratio(counters["verdict_decisions"], walked),
        "panel.reduce_s": phases["reduce"],
        "interner.contention_per_mitem": ratio(counters["interner_contention"] * 1e6, walked),
        "interner.front_hit_ratio": ratio(
            counters["interner_front_hits"],
            counters["interner_front_hits"] + counters["interner_front_misses"],
        ),
        "symmetry.orbit_skip_ratio": ratio(counters["items_orbit_skipped"], walked),
        "symmetry.quotient_blocks": counters["quotient_blocks"],
        "shard.run_s": 0.0,
        "shard.merge_s": 0.0,
        "shard.report_bytes": probe["shard_report_bytes"],
        "shard.retries": retries,
        "render.s": wall["render"],
        "render.bytes": probe["render_bytes"],
        "audit.process_overhead_s": median(process_walls) - wall["audit"],
        "telemetry.overhead_ratio": ratio(
            plan_run, (wall["plan.run.untraced"] + wall["plan.run.untraced.after"]) / 2
        ),
    }
    if sharded:
        merged_tail = tail_after(root_spans, "merge", "plan") / 1e6
        v["shard.run_s"] = wall["shard.run"]
        v["shard.merge_s"] = wall["shard.merge"] - merged_tail
        layers = {
            "shard.run_s": v["shard.run_s"],
            "shard.merge_s": v["shard.merge_s"],
            "plan.linear_panels_s": merged_tail,
            "render.s": v["render.s"],
        }
    else:
        layers = {
            name: v[name]
            for name in (
                "universe.build_s",
                "panel.cache_build_s",
                "panel.walk_s",
                "panel.reduce_s",
                "plan.linear_panels_s",
                "render.s",
            )
        }
    v["trace.residual_share"] = ratio(wall["audit"] - sum(layers.values()), wall["audit"])
    not_applicable = set() if sharded else set(SHARD_METRICS)
    if not quotient:
        not_applicable |= SYMMETRY_METRICS
    breakdown = {
        "residual_layers_s": layers,
        "probe_self_s": {k: us / 1e6 for k, us in self_times(own).items()},
        "engine_self_s": {k: us / 1e6 for k, us in self_times(walk_spans).items()},
    }
    return v, not_applicable, breakdown
