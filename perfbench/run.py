#!/usr/bin/env python3
"""Closed-loop benchmark of the ``audit`` binary.

    python3 perfbench/run.py --workload ec4-delta-t1 --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds ``audit`` and ``perfbench-probe``
(release, into ``$CARGO_TARGET_DIR``, default ``.bench_build``), then:

* ``--trace 0``: one client runs the workload's ``audit`` command back
  to back for ``--seconds`` seconds, each process started after the
  previous one exited, and reports the end-to-end metrics, with times
  calibrated against ``perfbench-probe --calibrate``;
* ``--trace 1``: ``perfbench-probe`` replays the workload in-process with
  a span around each public call, the command runs as a process for the
  rest of ``--seconds`` seconds, and the per-layer metrics are reported.

Every report is checked against the workload's pinned verdicts. The last
line of stdout is the JSON result; the lines before it are a readable
table and the host block. Samples, per-layer bases and the Chrome trace
go to ``.bench_out/``. See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import analysis  # noqa: E402

ALL_PROPERTIES = "soundness,strong,hiding,quantified,completeness,erasure,invariance"
EC4_ITEMS = 1_000_000
# Set-up invocations after each audit invocation; their median is setup_s.
SETUPS_PER_AUDIT = 2
# What `perfbench-probe --calibrate T` takes, in seconds, on the host the
# benchmark was written on when that host was quiet. Times are scaled by
# this over the run's median calibration (see README.md).
CALIBRATION_S = 0.1
# A single audit process that runs longer than this is killed and failed.
INVOCATION_TIMEOUT_S = 120
# A run starts no new invocation after this, so it ends within 180 s.
RUN_DEADLINE_S = 150


def pins(checked, coverage, hiding, views, yes, bits):
    """Per-member verdicts, ``(shape, property, passed, detail, checked,
    coverage)``, of an audit whose labelings panel checked ``checked``
    labelings and whose prover certified ``yes`` instances with at most
    ``bits``-bit certificates."""
    return [
        ("labelings", "soundness", True, "no unanimous accept on a no-instance", checked, coverage),
        ("labelings", "strong", True, f"every accepting set in {checked} labelings induces G(L)", checked, coverage),
        ("labelings", "hiding", *hiding, checked, coverage),
        ("labelings", "quantified", None, views, checked, coverage),
        ("instances", "completeness", True, f"{yes} passed, 0 failed, max certificate {bits} bits", yes, "sampled"),
        ("erasure", "erasure", None, "8 of 8 trials drew rejections", 8, "sampled"),
        ("invariance", "invariance", True, "verdicts unchanged under id remapping", 16, "sampled"),
    ]


HIDING = (True, "V(D, .) is not k-colorable")
# Every workload's audit passes and exits 0. One labeling never shows
# V(D, .) non-colorable, so set-up runs report hiding violated and exit
# 1; that is their pinned answer.
AUDIT_EXIT = 0
SETUP_HIDING = (False, "V(D, .) is k-colorable over an exhaustive universe")
SETUP_EXIT = 1


def ec4(threads):
    shape = ["--decoder", "even-cycle", "--max-n", "4", "--strategy", "delta", "--threads", str(threads)]
    flags = shape + ["--properties", ALL_PROPERTIES]
    return {
        "flags": flags + ["--budget-items", str(EC4_ITEMS)],
        "setup_flags": flags + ["--budget-items", "1"],
        "reference_flags": None,
        "pins": pins(EC4_ITEMS, "sampled", HIDING, "30 of 96 views unextractable", 16, 48),
        "setup_pins": pins(1, "sampled", SETUP_HIDING, "0 of 0 views unextractable", 16, 48),
        "probe": shape + ["--budget-items", str(EC4_ITEMS)],
    }


D1_FLAGS = ["--decoder", "degree-one", "--max-n", "4", "--strategy", "quotient",
            "--threads", "1", "--stable"]

WORKLOADS = {
    "ec4-delta-t1": ec4(1),
    "ec4-delta-t2": ec4(2),
    "d1-quotient-shards2": {
        "flags": D1_FLAGS + ["--shards", "2"],
        "setup_flags": D1_FLAGS + ["--budget-items", "1"],
        "reference_flags": D1_FLAGS,
        # Lemma 4.1 at n = 4: sound, strong and hiding, exhaustively.
        "pins": pins(932530, "exhaustive", HIDING, "70 of 74 views unextractable", 13, 8),
        "setup_pins": pins(1, "sampled", SETUP_HIDING, "0 of 1 views unextractable", 13, 8),
        "probe": D1_FLAGS + ["--shards", "2"],
    },
}

END_TO_END = [
    ("wall_s", "s"),
    ("labelings_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- build and provenance ---------------------------------------------


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for argv in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", "Cargo.toml", "--bin", "audit"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/probe/Cargo.toml"],
    ):
        done = subprocess.run(argv, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(argv)}")
    return target / "release" / "audit", target / "release" / "perfbench-probe"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_revision():
    """The checkout's commit, read from ``.git`` without running git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def host_block(audit, probe):
    probed = subprocess.run([str(probe), "--host"], capture_output=True, text=True, check=True)
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True)
    return {
        "available_parallelism": json.loads(probed.stdout)["available_parallelism"],
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc.stdout.strip() or "unknown",
        "profile": "release",
        "features": "default (hiding-lcp-core: parallel, telemetry)",
        "git_revision": git_revision(),
        "audit_sha256": sha256(audit),
        "probe_sha256": sha256(probe),
    }


# --- one audit process --------------------------------------------------


@dataclass
class Invocation:
    """One finished process: wall and CPU seconds, peak RSS, exit code
    and output."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def spawn(argv, out_dir, env):
    """Runs ``argv`` to completion. Wall time runs from spawn to reap;
    CPU time and peak RSS come from ``wait4``, which covers the process
    and every child it waited for (the shard children of ``--shards``)."""
    stdout_path, stderr_path = out_dir / "stdout", out_dir / "stderr"
    with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        # A session of its own, so a timeout also kills shard children.
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        proc.returncode,
        stdout_path.read_text(errors="replace"),
        stderr_path.read_text(errors="replace"),
    )


class Gate:
    """Counts invocations and the ones whose exit code or verdicts differ
    from the pins."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, what, inv, exit_code, pins, reference=None):
        self.attempted += 1
        if inv.code != exit_code:
            error = f"exit code {inv.code}, pinned {exit_code}: {inv.stderr.strip()[-300:]}"
        else:
            error = analysis.verdict_error(inv.stdout, pins)
        if error is None and reference is not None and inv.stdout != reference:
            error = "sharded --stable report differs from the unsharded one"
        if error is not None:
            self.failures.append(f"{what}: {error}")
        return error is None


# --- the two kinds of run -----------------------------------------------


def end_to_end(w, audit, probe, seed, seconds, out_dir, env, gate, started):
    """Closed loop of audit invocations, each followed by set-up runs and
    a calibration run. Returns calibrated and raw samples per metric."""
    command = [str(audit)] + w["flags"] + ["--seed", str(seed)]
    setup = [str(audit)] + w["setup_flags"] + ["--seed", str(seed)]
    reference = None
    if w["reference_flags"]:
        inv = spawn([str(audit)] + w["reference_flags"] + ["--seed", str(seed)], out_dir, env)
        gate.check("unsharded reference", inv, AUDIT_EXIT, w["pins"])
        reference = inv.stdout

    # Calibrate on as many threads as the workload runs.
    threads = w["flags"][w["flags"].index("--threads") + 1]

    def calibrate():
        return spawn([str(probe), "--calibrate", threads], out_dir, env).wall

    # The first set-up invocation warms the page cache and is not timed.
    gate.check("setup", spawn(setup, out_dir, env), SETUP_EXIT, w["setup_pins"])
    raw = {name: [] for name, _ in END_TO_END}
    calibrations = [calibrate()]
    loop_start = time.perf_counter()
    while len(calibrations) == 1 or time.perf_counter() - loop_start < seconds:
        if time.perf_counter() - started > RUN_DEADLINE_S:
            break
        inv = spawn(command, out_dir, env)
        if gate.check("audit", inv, AUDIT_EXIT, w["pins"], reference):
            raw["wall_s"].append(inv.wall)
            raw["labelings_per_s"].append(analysis.labelings_checked(inv.stdout) / inv.wall)
            raw["cpu_s"].append(inv.cpu)
            raw["peak_rss_mb"].append(inv.rss_mb)
        for _ in range(SETUPS_PER_AUDIT):
            inv = spawn(setup, out_dir, env)
            if gate.check("setup", inv, SETUP_EXIT, w["setup_pins"]):
                raw["setup_s"].append(inv.wall)
        calibrations.append(calibrate())
    if not raw["wall_s"] or not raw["setup_s"]:
        return {}, {}, {}
    # One factor per run: the run's median calibration against the quiet
    # host's. Run-long drift is what the per-run medians cannot remove.
    speed = CALIBRATION_S / analysis.median(calibrations)
    calibrated = {
        "wall_s": [t * speed for t in raw["wall_s"]],
        "labelings_per_s": [r / speed for r in raw["labelings_per_s"]],
        "cpu_s": [t * speed for t in raw["cpu_s"]],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": [t * speed for t in raw["setup_s"]],
    }
    raw["calibration_s"] = calibrations
    values = {name: analysis.median(calibrated[name]) for name, _ in END_TO_END}
    return values, calibrated, raw


def traced(w, audit, probe, seed, seconds, out_dir, env, gate, started, name):
    """The probe's in-process replay, then the workload's command as a
    process until ``seconds`` have passed. Returns the per-layer metrics,
    the ones not applicable, their breakdown and the trace path."""

    def failed(message):
        gate.failures.append(message)
        return {}, set(), {}, None

    report_path = out_dir / "probe-report.json"
    argv = [str(probe)] + w["probe"] + ["--seed", str(seed), "--report-out", str(report_path)]
    inv = spawn(argv, out_dir, env)
    gate.attempted += 1
    if inv.code != 0:
        return failed(f"probe exit code {inv.code}: {inv.stderr.strip()[-300:]}")
    try:
        probed = json.loads(inv.stdout)
    except json.JSONDecodeError as e:
        return failed(f"probe output unreadable: {e!r}")
    rendered = report_path.read_text()
    error = analysis.verdict_error(rendered, w["pins"])
    if error is not None:
        return failed(f"probe report: {error}")

    command = [str(audit)] + w["flags"] + ["--seed", str(seed)]
    walls, retries, attempts = [], 0, 0
    while attempts == 0 or time.perf_counter() - started < seconds:
        if time.perf_counter() - started > RUN_DEADLINE_S:
            break
        attempts += 1
        inv = spawn(command, out_dir, env)
        if not gate.check("audit", inv, AUDIT_EXIT, w["pins"]):
            continue
        # The in-process report must equal the process's, telemetry aside.
        if "--stable" in w["flags"] and analysis.without_telemetry(inv.stdout) != analysis.without_telemetry(rendered):
            gate.failures.append("in-process --stable report differs from the audit process's")
            continue
        walls.append(inv.wall)
        retries += analysis.shard_retries(inv.stderr)
    if not walls:
        return {}, set(), {}, None
    try:
        values, not_applicable, breakdown = analysis.layer_metrics(
            probed, walls, retries, sharded="--shards" in w["flags"], quotient="quotient" in w["flags"]
        )
    except (KeyError, ValueError) as e:
        return failed(f"probe trace incomplete: {e!r}")
    trace_path = out_dir / f"{name}-seed{seed}.trace.json"
    write_chrome_trace(trace_path, probed)
    return values, not_applicable, breakdown, trace_path


def write_chrome_trace(path, probed):
    """One Chrome trace of the probe's spans and the engine's, on the
    same clock: pid 0 is the probe, pid 1 the recorder of the
    root audit span, pid 2 the recorder of the unsharded traced run."""
    events = []
    sources = [("perfbench probe", probed["probe_trace"]), ("engine: audit span", probed["root_trace"])]
    if probed["walk_trace"] != probed["root_trace"]:
        sources.append(("engine: plan.run.traced", probed["walk_trace"]))
    for pid, (label, trace) in enumerate(sources):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": label}})
        events.extend(dict(e, pid=pid) for e in trace["traceEvents"])
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


# --- reporting ------------------------------------------------------------


def print_table(rows):
    for row in rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, (32, 16, 16, 16, 8, 8, 16))))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        raise BenchError("--seed must fit in 64 bits")
    w = WORKLOADS[args.workload]

    out_dir = Path(".bench_out").resolve()
    (out_dir / "tmp").mkdir(parents=True, exist_ok=True)
    audit, probe = build(Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    host = host_block(audit, probe)
    cores = min(host["available_parallelism"], host["nproc"])
    threads = int(w["flags"][w["flags"].index("--threads") + 1])
    if threads > cores:
        raise BenchError(f"{args.workload} needs {threads} threads; this host has {cores} cores")
    # Shard children write their reports under TMPDIR, which stays inside the checkout.
    env = dict(os.environ, TMPDIR=str(out_dir / "tmp"))
    gate = Gate()
    # Run time counts from here: the first run in a checkout also builds.
    started = time.perf_counter()
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "host": host}

    print(f"host: {json.dumps(host)}")
    if args.trace == 0:
        values, samples, raw = end_to_end(w, audit, probe, args.seed, args.seconds, out_dir, env, gate, started)
        units = dict(END_TO_END)
        print_table([("metric", "median", "q1", "q3", "n", "unit", "raw median")])
        for name, unit in END_TO_END:
            if name in samples:
                q1, q2, q3 = analysis.quartiles(samples[name])
                print_table([(name, f"{q2:.6g}", f"{q1:.6g}", f"{q3:.6g}", len(samples[name]), unit,
                              f"{analysis.median(raw[name]):.6g}")])
        if raw:
            q1, q2, q3 = analysis.quartiles(raw["calibration_s"])
            print_table([("calibration_s", f"{q2:.6g}", f"{q1:.6g}", f"{q3:.6g}", len(raw["calibration_s"]), "s")])
        result.update(samples=samples, raw_samples=raw)
    else:
        values, not_applicable, breakdown, trace_path = traced(
            w, audit, probe, args.seed, args.seconds, out_dir, env, gate, started, args.workload
        )
        units = {name: unit for name, unit, _ in analysis.LAYER_METRICS}
        print_table([("metric", "value", "unit", "base")])
        for name, unit, base in analysis.LAYER_METRICS:
            if name in values:
                shown = "n/a" if name in not_applicable else f"{values[name]:.6g}"
                print_table([(name, shown, unit, base or "")])
        if values:
            residual = values["trace.residual_share"]
            if residual > analysis.RESIDUAL_FLAG:
                print(f"FLAG: trace.residual_share {residual:.3f} > {analysis.RESIDUAL_FLAG} on {args.workload}")
            print(f"chrome trace: {trace_path}")
        result.update(
            not_applicable=sorted(not_applicable),
            breakdown=breakdown,
            bases={name: base for name, _, base in analysis.LAYER_METRICS if base},
        )
    failed = len(gate.failures)
    for failure in gate.failures[:5]:
        print(f"FAILED {failure}")
    if failed > 5:
        print(f"... and {failed - 5} more failures in the result file")
    print_table([("fail_share", f"{analysis.ratio(failed, gate.attempted):.6g}", "", "", gate.attempted, "share")])
    result.update(values=values, failures=gate.failures, attempted=gate.attempted)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.result.json").write_text(
        json.dumps(result, indent=1)
    )
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    print(json.dumps({
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
