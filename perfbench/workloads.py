"""The benchmark's three closed-loop workloads and their verdict oracles.

Each workload's `setup(seed)` imports sdflow afresh, builds its inputs and
returns `Inputs`: the operations the untraced run times (`ops`) and the
in-process operations a traced run wraps (`traced_ops`).  One client drives
one operation at a time.  Every operation returns an `Outcome` judged
against an answer that does not come from the code path under test:

  check-cli        expected verdicts from the corpus directory a program
                   sits in, or "accept" for generated programs;
  run-scale        per-channel communication counts from the checker's rate
                   summary at the instantiated sizes, plus a hand-written
                   total per network;
  conform-explore  ok reports for good programs, stuck reports for rejected
                   ones, and the same hand-written communication totals.

Operations named in `KNOWN_DEFECTS` are expected to fail at the first
measured commit; their failures are counted like any other.
"""

from __future__ import annotations

import importlib
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
WORK = ROOT / ".bench_build" / "perfbench"
CLI_TIMEOUT_S = 30

KNOWN_DEFECTS = {
    "pipeline-600": "progress DFS overflows the recursion limit and falsely "
                    "rejects with FS Prog Par",
    "long_actor-2000": "RecursionError escapes the checker",
    "deep_parens-300": "RecursionError escapes the parser",
}

# check-cli: generated families, one axis each (see gen.py)
CHECK_FAMILIES = {
    "pipeline": (50, 100, 200, 400, 600),
    "long_actor": (100, 200, 400, 800, 2000),
    "actor_array": (4, 16, 64, 256),
    "nested_loops": (2, 8, 32, 128),
    "deep_parens": (25, 50, 100, 300),
}


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    comms: int = 0       # verified send + receive events
    states: int = 0      # configurations visited by exhaustive exploration


@dataclass
class Op:
    name: str
    fn: Callable[[], Outcome]
    known_defect: Optional[str] = None


@dataclass
class Inputs:
    ops: list[Op]
    traced_ops: list[Op]
    mods: dict           # the freshly imported sdflow modules, by name


def import_sdflow() -> dict:
    """Import sdflow afresh, so every set-up pays the import."""
    for name in [m for m in sys.modules
                 if m == "sdflow" or m.startswith("sdflow.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"sdflow.{name}")
            for name in ("syntax", "parser", "kinding", "flowstate",
                         "typecheck", "runtime", "conformance")}


def _rules(diags) -> list[str]:
    return [d.rule for d in diags]


def judge_verdict(expect: str, rules: list[str]) -> Outcome:
    """Oracle shared by the CLI and in-process paths.  `rules` lists the
    diagnostics' rule names; empty means the program was accepted."""
    if expect == "accept":
        return Outcome(not rules, "; ".join(rules) or "accepted")
    if expect == "reject-network":
        ok = bool(rules) and all(r.startswith(("FS Prog", "FS Det"))
                                 for r in rules)
        return Outcome(ok, "; ".join(rules) or "accepted")
    ok = bool(rules) and all(rules)
    return Outcome(ok, "; ".join(rules) or "accepted")


_RULE = re.compile(r"^\[([^\]]+)\]")


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def cli_check(path: Path, expect: str) -> Outcome:
    """`sdflow check` as a fresh process."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sdflow.cli", "check", str(path)],
            env=cli_env(), capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome(False, f"no verdict within {CLI_TIMEOUT_S} s")
    if "Traceback (most recent call last)" in proc.stderr:
        last = proc.stderr.strip().splitlines()[-1]
        return Outcome(False, f"exit {proc.returncode}: {last}")
    rules = [m.group(1) for line in proc.stderr.splitlines()
             if (m := _RULE.match(line))]
    if expect == "accept":
        ok = proc.returncode == 0 and proc.stdout.strip() == "ok"
        return Outcome(ok and not rules, f"exit {proc.returncode}: "
                       + ("; ".join(rules) or proc.stdout.strip()))
    if proc.returncode != 1 or not rules:
        return Outcome(False, f"exit {proc.returncode} without a named rule")
    return judge_verdict(expect, rules)


def count_comps(syntax, flow) -> int:
    """Comprehensions in a synthesized process flowstate (iterative, so a
    long flowstate cannot exhaust the recursion limit here)."""
    total, stack = 0, [flow] if flow is not None else []
    while stack:
        f = stack.pop()
        if isinstance(f, (syntax.PPar, syntax.FSeq)):
            stack += [f.left, f.right]
        elif isinstance(f, syntax.PActor):
            stack.append(f.flow)
        elif isinstance(f, syntax.PArray):
            stack.append(f.body)
        elif isinstance(f, syntax.Comp):
            total += 1
    return total


def expected_counts(mods: dict, net, sizes: dict) -> Optional[dict]:
    """Per-(channel, direction) communication counts implied by the checked
    network's rate summary at concrete sizes; None if the check fails."""
    result = mods["typecheck"].check_network(net)
    if not result.ok:
        return None
    eval_size = mods["kinding"].eval_size
    counts: dict = {}
    summary = mods["flowstate"].proc_rate_summary(net.tenv, result.flow)
    for key, mult in summary.items():
        n = eval_size(mult, sizes)
        if len(key) == 3 and hasattr(key[2], "lo"):
            n *= eval_size(key[2].hi, sizes) - eval_size(key[2].lo, sizes) + 1
        counts[key[:2]] = counts.get(key[:2], 0) + n
    return {k: v for k, v in counts.items() if v}


def _sub_seeds(seed: int) -> random.Random:
    return random.Random(f"perfbench:{seed}")


# ---------------------------------------------------------------------------
# check-cli
# ---------------------------------------------------------------------------

class CheckCli:
    """`sdflow check` as a subprocess on the corpus and generated families."""

    name = "check-cli"
    via_cli = True      # operations are subprocesses

    def setup(self, seed: int) -> Inputs:
        mods = import_sdflow()
        programs = []   # (name, path, source, expect)
        for kind, expect in (("good", "accept"), ("rejected", "reject-network"),
                             ("negative", "reject-named")):
            for path in sorted((CORPUS / kind).glob("*.sdf")):
                programs.append((f"{kind}/{path.stem}", path,
                                 path.read_text(), expect))
        WORK.mkdir(parents=True, exist_ok=True)
        for family, axes in CHECK_FAMILIES.items():
            for axis in axes:
                prog = gen.FAMILIES[family](axis)
                path = WORK / f"{prog.name}.sdf"
                path.write_text(prog.source)
                programs.append((prog.name, path, prog.source, prog.expect))
        _sub_seeds(seed).shuffle(programs)
        # compile sdflow's bytecode and warm the file cache, as a user's
        # second invocation would find it
        subprocess.run([sys.executable, "-c", "import sdflow.cli"],
                       env=cli_env(), check=True, timeout=CLI_TIMEOUT_S)

        def in_process(source: str, expect: str) -> Outcome:
            try:
                net = mods["parser"].parse_program(source)
                if isinstance(net, list):
                    return judge_verdict(expect, _rules(net))
                return judge_verdict(
                    expect, _rules(mods["typecheck"].check_network(net).diagnostics))
            except Exception as exc:  # a crash is a failed verdict
                return Outcome(False, f"{type(exc).__name__}: {exc}"[:200])

        ops, traced = [], []
        for name, path, source, expect in programs:
            defect = KNOWN_DEFECTS.get(name)
            ops.append(Op(name, lambda p=path, e=expect: cli_check(p, e), defect))
            traced.append(Op(name, lambda s=source, e=expect: in_process(s, e),
                             defect))
        return Inputs(ops, traced, mods)


# ---------------------------------------------------------------------------
# run-scale
# ---------------------------------------------------------------------------

def _corpus_source(name: str) -> str:
    return (CORPUS / "good" / f"{name}.sdf").read_text()


# (label, source, sizes, hand-written total of sends + receives)
RUN_NETWORKS = [
    ("pipeline3", lambda: _corpus_source("pipeline3"), {"n": 1024}, 4 * 1024),
    ("downsampler", lambda: _corpus_source("downsampler"), {"s": 1024},
     1024 * 2 + 512 * 2),
    ("nested_loops", lambda: _corpus_source("nested_loops"),
     {"p": 32, "q": 32}, 2 * 32 * 32),
    ("pipeline-66", lambda: gen.pipeline(66).source, {"s": 16},
     gen.pipeline_comms(66, 16)),
    ("worker_array_pipeline", lambda: _corpus_source("worker_array_pipeline"),
     {"s": 128}, 4 * 128),
]

CONFORM_NETWORKS = [
    ("pipeline3", lambda: _corpus_source("pipeline3"), {"n": 256}, 4 * 256),
    ("downsampler", lambda: _corpus_source("downsampler"), {"s": 256},
     256 * 2 + 128 * 2),
    ("nested_loops", lambda: _corpus_source("nested_loops"),
     {"p": 16, "q": 16}, 2 * 16 * 16),
    ("worker_array_pipeline", lambda: _corpus_source("worker_array_pipeline"),
     {"s": 32}, 4 * 32),
]
EXPLORE_SIZE = 4


def _prepare(mods: dict, networks) -> list:
    """Parse and check each network and derive its expected counts."""
    out = []
    for label, source, sizes, total in networks:
        net = mods["parser"].parse_program(source())
        expected = None if isinstance(net, list) else \
            expected_counts(mods, net, sizes)
        tag = ",".join(f"{k}={v}" for k, v in sizes.items())
        out.append((f"{label}@{tag}", net, sizes, total, expected))
    return out


def _schedulers(rng: random.Random) -> list[tuple[str, int]]:
    return [("roundRobin", 0), ("random", rng.randrange(1 << 31))]


class RunScale:
    """`runtime.instantiate` + `runtime.run` on networks growing in rate or
    in actor count."""

    name = "run-scale"
    via_cli = False

    def setup(self, seed: int) -> Inputs:
        mods = import_sdflow()
        rng = _sub_seeds(seed)
        runtime = mods["runtime"]

        def run_once(net, sizes, scheduler, sched_seed, total, expected):
            if expected is None:
                return Outcome(False, "network does not check")
            try:
                cfg = runtime.instantiate(net, sizes)
                out = runtime.run(cfg, scheduler=scheduler, seed=sched_seed)
            except Exception as exc:
                return Outcome(False, f"{type(exc).__name__}: {exc}"[:200])
            counts = {k: v for k, v in out.comm_counts.items() if v}
            ok = (out.status == "done" and counts == expected
                  and sum(counts.values()) == total)
            return Outcome(ok, f"{out.status}, {sum(counts.values())} of "
                           f"{total} communications", comms=total if ok else 0)

        ops = []
        for name, net, sizes, total, expected in _prepare(mods, RUN_NETWORKS):
            for scheduler, sched_seed in _schedulers(rng):
                ops.append(Op(f"{name}/{scheduler}",
                              lambda a=(net, sizes, scheduler, sched_seed,
                                        total, expected): run_once(*a)))
        rng.shuffle(ops)
        return Inputs(ops, ops, mods)


# ---------------------------------------------------------------------------
# conform-explore
# ---------------------------------------------------------------------------

class ConformExplore:
    """`conformance.check_preservation` at high rate and
    `conformance.check_progress_theorem` (exhaustive exploration) on the
    corpus."""

    name = "conform-explore"
    via_cli = False

    def setup(self, seed: int) -> Inputs:
        mods = import_sdflow()
        rng = _sub_seeds(seed)
        conformance = mods["conformance"]

        def preserve(net, sizes, scheduler, sched_seed, total, expected, name):
            if expected is None:
                return Outcome(False, "network does not check")
            try:
                rep = conformance.check_preservation(
                    net, sizes, scheduler=scheduler, seed=sched_seed, name=name)
            except Exception as exc:
                return Outcome(False, f"{type(exc).__name__}: {exc}"[:200])
            detail = (f"{len(rep.violations)} violations over {rep.steps} steps")
            return Outcome(rep.ok, detail, comms=total if rep.ok else 0)

        def progress(net, sizes, expect_ok, name):
            if isinstance(net, list):
                return Outcome(False, "does not parse")
            try:
                rep = conformance.check_progress_theorem(net, sizes, name=name)
            except Exception as exc:
                return Outcome(False, f"{type(exc).__name__}: {exc}"[:200])
            if expect_ok:
                ok = rep.ok
            else:
                ok = not rep.complete and bool(rep.stuck) and not rep.truncated
            return Outcome(ok, f"{rep.states} states, complete={rep.complete}, "
                           f"stuck={len(rep.stuck)}", states=rep.states)

        ops = []
        for name, net, sizes, total, expected in _prepare(mods, CONFORM_NETWORKS):
            for scheduler, sched_seed in _schedulers(rng):
                ops.append(Op(f"preserve:{name}/{scheduler}",
                              lambda a=(net, sizes, scheduler, sched_seed, total,
                                        expected, name): preserve(*a)))
        for kind in ("good", "rejected"):
            for path in sorted((CORPUS / kind).glob("*.sdf")):
                net = mods["parser"].parse_program(path.read_text())
                sizes = {} if isinstance(net, list) else {
                    n: EXPLORE_SIZE for n, k in net.tenv.items
                    if isinstance(k, mods["syntax"].SizeKind)}
                ops.append(Op(f"explore:{kind}/{path.stem}",
                              lambda a=(net, sizes, kind == "good",
                                        path.name): progress(*a)))
        rng.shuffle(ops)
        return Inputs(ops, ops, mods)


WORKLOADS = {w.name: w for w in (CheckCli(), RunScale(), ConformExplore())}
