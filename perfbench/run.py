#!/usr/bin/env python3
"""sdflow benchmark: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload check-cli --seed 1 --seconds 40 --trace 0

Set-up runs SETUP_REPEATS times (median reported as setup_s).  The run then
cycles through the workload's operations until --seconds are spent, always
completing one full pass.  A fixed stdlib-only probe is timed between
operations; each sample is scaled by PROBE_NOMINAL_S / (mean probe time just
before and after it), so times read as on an idle host and do not swing with
how busy a shared host is.  Each operation's time is the median of its scaled samples,
and every end-to-end metric is computed from those per-operation times, so
it does not depend on how many samples fitted.  Unscaled figures are in the
context line.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes of the in-process operations and prints per-layer metrics
(see layers.py) plus the tracing overhead.  A JSON line with the run context
precedes the result, which is always the last line of standard output.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# the probe's time on an idle 2-vCPU Xeon VM, where scaled and raw times agree
PROBE_NOMINAL_S = 0.001
UNITS = {"setup_s": "s", "wall_s": "s", "verdict_p50_ms": "ms",
         "verdict_tail_ms": "ms", "peak_rss_mb": "MB"}
IMPORT_SAMPLES = 5


def _kernel() -> int:
    """Fixed stdlib-only work: tuples, dicts, sorting and recursion."""
    d: dict = {}
    for i in range(2000):
        key = (i % 97, str(i))
        d[key] = d.get(key, 0) + i
    items = sorted(d.items(), key=lambda kv: (kv[1], kv[0]))

    def depth(n: int) -> int:
        return 0 if n == 0 else 1 + depth(n - 1)
    return len(items) + depth(200)


def probe() -> float:
    """Median of five timings of `_kernel`: how fast this host runs Python
    right now."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_until(ops: list, seconds: float) -> tuple[dict[str, list], list]:
    """Cycle through the operations in order until `seconds` are spent,
    completing at least one full pass and starting no operation that its
    first-pass time says would overrun.  The probe runs before the first
    operation and after each one.  Returns (scaled seconds, raw seconds,
    outcome) samples per operation, and the probe times; a sample is scaled
    by the mean of the probes just before and just after it."""
    log, probes = [], [probe()]
    deadline = time.perf_counter() + seconds
    first: dict[str, float] = {}
    for i in itertools.count():
        op = ops[i % len(ops)]
        if i >= len(ops) and time.perf_counter() + first[op.name] > deadline:
            break
        t0 = time.perf_counter()
        out = op.fn()
        dt = time.perf_counter() - t0
        first.setdefault(op.name, dt)
        probes.append(probe())
        log.append((op.name, dt, out))
    samples: dict[str, list] = {op.name: [] for op in ops}
    for i, (name, dt, out) in enumerate(log):
        speed = (probes[i] + probes[i + 1]) / 2
        samples[name].append((scaled(dt, speed), dt, out))
    return samples, probes


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values above it, and that
    percentile; the maximum (100) when there are fewer than eleven values."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, or of the largest finished child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


def context(workload: str, seed: int, seconds: float, trace: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "sdflow").glob("*.py")))
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "git_sha": git_sha,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "src_sdflow_lines": src_lines}


def judge(outcomes: list) -> dict:
    """Every operation of the workload counts once in `attempted`, however
    many times it ran, and once in `failed` if any of its runs missed its
    oracle.  So both are fixed by the inputs and the code under test, not by
    how many runs fitted in the time."""
    by_op: dict = {}
    for op, out in outcomes:
        if op.name not in by_op or not out.ok:
            by_op[op.name] = (op, out)
    failed = [(op, out) for op, out in by_op.values() if not out.ok]
    return {
        "correct": all(op.known_defect for op, _ in failed),
        "attempted": len(by_op),
        "failed": len(failed),
        "runs": len(outcomes),
        "failed_runs": sum(not out.ok for _, out in outcomes),
        "failed_ops": sorted({f"{op.name}: {out.detail}"
                              for op, out in outcomes if not out.ok}),
        "known_defects_passing": sorted(
            op.name for op, out in by_op.values()
            if op.known_defect and out.ok),
    }


def scaled(dt: float, probe_s: float) -> float:
    """`dt` at the host speed where the probe takes PROBE_NOMINAL_S."""
    return dt * PROBE_NOMINAL_S / probe_s


def summary(per_op: dict[str, float]) -> dict[str, float]:
    tail_s, _ = tail(list(per_op.values()))
    return {"wall_s": sum(per_op.values()),
            "verdict_p50_ms": 1000 * statistics.median(per_op.values()),
            "verdict_tail_ms": 1000 * tail_s}


def measure(workload, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    raw_setups, setup_probes = [], [probe()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        raw_setups.append(time.perf_counter() - t0)
        setup_probes.append(probe())
    setup_speed = statistics.median(setup_probes)
    samples, probes = run_until(inputs.ops, seconds)
    outcomes = [(op, out) for op in inputs.ops for _, _, out in samples[op.name]]
    first_pass = [(op, samples[op.name][0][2]) for op in inputs.ops]
    per_op = {name: statistics.median(t for t, _, _ in v)
              for name, v in samples.items()}
    raw_per_op = {name: statistics.median(dt for _, dt, _ in v)
                  for name, v in samples.items()}
    metrics = {"setup_s": scaled(statistics.median(raw_setups), setup_speed),
               **summary(per_op),
               "peak_rss_mb": peak_rss_mb(workload.via_cli)}
    # work verified per second, over the operations that do that work
    comms = sum(out.comms for _, out in first_pass)
    states = sum(out.states for _, out in first_pass)
    comm_s = sum(per_op[op.name] for op, out in first_pass if out.comms)
    state_s = sum(per_op[op.name] for op, out in first_pass if out.states)
    verdict = judge(outcomes)
    info = {
        "samples": sum(len(v) for v in samples.values()),
        "operations": len(inputs.ops),
        "tail_percentile": round(tail(list(per_op.values()))[1], 1),
        "failed_frac": verdict["failed"] / verdict["attempted"],
        "comms_per_pass": comms,
        "comms_per_s": comms / comm_s if comm_s else None,
        "states_per_pass": states,
        "states_per_s": states / state_s if state_s else None,
        "probe_median_ms": 1000 * statistics.median(probes),
        "raw": {"setup_s": statistics.median(raw_setups),
                **summary(raw_per_op)},
        "per_op_ms": {name: round(1000 * t, 3)
                      for name, t in sorted(per_op.items())},
    }
    return {name: (value, UNITS[name]) for name, value in metrics.items()}, \
        verdict, info


def import_ms() -> float:
    """`import sdflow.cli` in a fresh interpreter, median of IMPORT_SAMPLES."""
    from workloads import cli_env
    code = ("import time; t = time.perf_counter(); import sdflow.cli; "
            "print(time.perf_counter() - t)")
    before = probe()
    raw = statistics.median(float(subprocess.run(
        [sys.executable, "-c", code], env=cli_env(), capture_output=True,
        text=True, check=True, timeout=60).stdout)
        for _ in range(IMPORT_SAMPLES))
    return 1000 * scaled(raw, (before + probe()) / 2)


def one_pass(ops: list) -> tuple[dict[str, float], list, float]:
    """One probed pass: scaled seconds per operation, (op, outcome) pairs,
    and the median probe time."""
    samples, probes = run_until(ops, 0)
    return ({name: v[0][0] for name, v in samples.items()},
            [(op, samples[op.name][0][2]) for op in ops],
            statistics.median(probes))


def scale_layer(metrics: dict[str, float], probe_s: float) -> dict[str, float]:
    """Per-layer times at the nominal host speed, like the end-to-end ones."""
    import layers
    factor = PROBE_NOMINAL_S / probe_s
    exponent = {"s": 1, "ms": 1, "1/s": -1}
    return {name: value * factor ** exponent.get(layers.UNITS[name], 0)
            for name, value in metrics.items()}


def measure_traced(workload, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """On check-cli, one CLI pass first.  Then, after an untimed warm-up pass,
    alternate untraced and traced passes of the in-process operations until
    `seconds` are spent (at least one of each)."""
    import layers
    from spans import Tracer
    deadline = time.perf_counter() + seconds
    inputs = workload.setup(seed)
    ops = inputs.traced_ops
    outcomes, cli_times = [], {}
    cli = {"cli.import_ms": 0.0, "cli.overhead_ms": 0.0}
    if workload.via_cli:
        cli["cli.import_ms"] = import_ms()
        cli_times, outcomes, _ = one_pass(inputs.ops)
    # an untimed pass first, so first-run costs do not count as overhead
    outcomes += one_pass(ops)[1]
    untraced, traced, per_pass = [], [], []
    inproc: dict[str, list] = {op.name: [] for op in ops}
    missing: set = set()
    while True:
        start = time.perf_counter()
        times, outs, _ = one_pass(ops)
        outcomes += outs
        for name, dt in times.items():
            inproc[name].append(dt)
        tracer = Tracer()
        layers.install(tracer, inputs.mods)
        try:
            traced_times, outs, probe_s = one_pass(ops)
        finally:
            tracer.uninstall()
        outcomes += outs
        untraced.append(sum(times.values()))
        traced.append(sum(traced_times.values()))
        per_pass.append(scale_layer(layers.layer_metrics(tracer), probe_s))
        missing |= tracer.missing
        now = time.perf_counter()
        if now + (now - start) > deadline:     # no time for another cycle
            break
    inproc_ms = {name: 1000 * statistics.median(v)
                 for name, v in sorted(inproc.items())}
    if cli_times:
        cli["cli.overhead_ms"] = statistics.median(
            1000 * t - inproc_ms[name] for name, t in cli_times.items())
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    metrics.update(cli)
    metrics["trace.overhead_pct"] = 100 * (
        statistics.median(traced) / statistics.median(untraced) - 1)
    info = {"passes": len(traced), "untraced_pass_s": untraced,
            "traced_pass_s": traced, "absent_wrapped": sorted(missing),
            "untraced_per_op_ms": {k: round(v, 3) for k, v in inproc_ms.items()}}
    return ({k: (v, layers.UNITS[k]) for k, v in metrics.items()},
            judge(outcomes), info)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sdflow" / "__init__.py").is_file():
        print(f"perfbench: sdflow sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 64
    run = measure_traced if args.trace else measure
    metrics, verdict, info = run(workload, args.seed, args.seconds)
    print(json.dumps({"context": context(args.workload, args.seed,
                                         args.seconds, args.trace),
                      "info": info, "runs": verdict["runs"],
                      "failed_runs": verdict["failed_runs"],
                      "failed_ops": verdict["failed_ops"],
                      "known_defects_passing": verdict["known_defects_passing"]}))
    print(json.dumps({
        "correct": verdict["correct"], "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
