"""Cost cells: one layer's deterministic counter at two sizes of one
workload axis, 4x apart, with a bound on how much it may grow.

Counters, not times, so a cell holds or fails the same way on any host.
The check cells count, over one `parse_program` and one `check_network`
of a freshly parsed perfbench program:

    tokens      `parser.Token` objects built
    targets     comprehension targets computed (`flowstate._comp_target`)
    summaries   rate summaries computed (`flowstate._rate_summary`)
    normalize   `kinding.normalize_size` calls from outside itself

Before targets and summaries were kept on their nodes, pipeline-150 took
2 086 targets, 750 summaries and 5 364 normalize calls; pipeline-600 21 564
normalize calls and long_actor-2000 8 017.

The start-up cells count, in a fresh interpreter that reads no bytecode
cache, the record classes whose generated methods are compiled (`<record
...>` sources) by `import sdflow.cli`, and by that import plus one `check`
of downsampler.sdf.  When every class compiled its methods as it was
defined, both read 61.  The same `check` gives `check_tokens`: the tokens
(comments and layout left out) of the sdflow source files it compiles.
That was 26 949 while `check` also compiled the value substitution, the
program printer and argparse's parser set-up, and the cell asserts that
none of those modules is then loaded.

The run cell counts the `subst_expr` calls, recursive ones included, that
`runtime.instantiate` makes on pipelines 4x apart.  The step cells count
the Python-level calls (`sys.setprofile` "call" events) per step of one
roundRobin `runtime.run`, the `sdflow.syntax` records it constructs per
step (calls of a generated `__init__`), and the `Label`s it constructs, on
pipeline3 at n=64 and the 16-stage pipeline at s=16.  While every context
position of a step rule pre-tested `is_value` and stepped its subterm
through a rebuild closure, and every communication built a fresh `Label`,
they read 18.74 and 19.75 calls per step, and 257 and 482 labels.  While
every iteration of a loop rebuilt its body, whether or not the body used
the index, and every communication looked its channel up in the value
environment, they read 15.14 and 15.57 calls and 2.46 and 2.35 records
per step.

The explore cells count, per state `runtime.explore` visits on pipelines
16x apart at s=4, the actors it polls (`_actor_outcome` calls), the
expression hashes it computes (calls of an expression class's `__hash__`,
nested ones included) and the times it brings a state's index of live
actors by site up to date (`exploration._Search.reindex` calls).  When
every state polled every actor and rehashed every actor's expression,
pipeline-16 read 16.0 polls and 87.5 hashes per state, and pipeline-256
256.0 and 1 287.7.  Before expressions kept their hashes, both read about
7.5 hashes per state; before the clash test asked the static owner index
first, both read 0.37 re-indexes per state, and now none is needed.  A
pipeline's reduced state space is one chain and it holds no application,
so the search keeps no key, and it hashes only the final values of its
one terminal (0.05 per state); while every state was keyed, both read
about 4.8 hashes per state.

The memory cells count bytes, not time: tracemalloc's peak over
`runtime.run` with no observer on pipeline-64 at rates 4x apart, which
must hold about level, and the peak RSS of text `sdflow run` on
pipeline-1024 at s=16 as a child process.  While every communication
copied a map of every buffer's fill into a trace entry that `run` kept,
the first read 4.1 and 16.4 MB and the second 883 MB.  The last cell sets
the peak RSS of text `sdflow conform` against that of `sdflow run` on
downsampler at s=8192, both as child processes: while `explore` kept a key
for every state, they read 88.6 and 17.0 MB.

Run as a script, it writes every cell's counters and the line count of
`src/sdflow` to a JSON file, to compare one change's before and after:

    PYTHONPATH=src python tests/test_scaling.py --write BENCH_<tag>.json
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import tokenize
import tracemalloc
from collections import Counter

import pytest
from conftest import ROOT

from sdflow import exploration, flowstate, kinding, parser, runtime, syntax
from sdflow.parser import parse_program
from sdflow.typecheck import check_network

# workload axis -> (small, large) sizes, 4x apart
AXES = {"pipeline": (150, 600), "long_actor": (500, 2000)}
COUNTERS = ("tokens", "targets", "summaries", "normalize")
GROWTH = 4.2
# normalize_size calls before this layer kept its results on the nodes
NORMALIZE_BEFORE = {("pipeline", 600): 21_564, ("long_actor", 2000): 8_017}
# a fresh interpreter's work -> statements run after counting starts
STARTUP = {"import": "import sdflow.cli",
           "check": "from sdflow.cli import main\n"
                    "main(['check', 'corpus/good/downsampler.sdf'])"}
# record classes one `check` may build, of the 61 `import sdflow.cli` defines
CHECK_RECORDS_BOUND = 40
# tokens of the sdflow sources one `check` compiles (26 949 when it also
# compiled value substitution and the program printer, 25 318 when `cli`
# also held the `run` and `conform` commands, 24 863 when `netcheck` kept a
# guarded channel-array branch and `kinding` two atom keys)
CHECK_TOKENS_BOUND = 24_850
# modules a `check` has no use for
NOT_CHECKED = ("argparse", "gettext", "locale", "sdflow.printer",
               "sdflow.runtime", "sdflow.exploration", "sdflow.conformance",
               "sdflow.simulate")
# pipeline stages instantiated by the run cell, 4x apart
RUN_STAGES = (16, 64)
# step cells: network -> its sizes, and the Python-level calls and the
# syntax records built per `run` step it read when set, which it may
# exceed by at most RUN_CALLS_SLACK
RUN_CALLS = {"pipeline3": ({"n": 64}, 12.769, 1.765),
             "pipeline-16": ({"s": 16}, 12.425, 1.413)}
RUN_CALLS_SLACK = 1.05
# pipeline stages explored at s=4 by the explore cells, 16x apart, and how
# much the work per visited state may grow between them
EXPLORE_STAGES = (16, 256)
EXPLORE_GROWTH = 1.5
# pipeline stages and rates, 4x apart, of the `run` memory cell, and how
# much its tracemalloc peak may grow between them
RUN_MEMORY = (64, (16, 64))
RUN_MEMORY_GROWTH = 1.2
# pipeline stages and rate of text `sdflow run` in a child process, and the
# bound on its peak RSS in MB
CLI_RUN = (1024, 16)
CLI_RUN_RSS_MB = 100
# corpus program and rate of text `sdflow conform` and `sdflow run` in a
# child process, and how much larger conform's peak RSS may be than run's
CLI_CONFORM = ("downsampler", 8192)
CLI_CONFORM_OVER_RUN = 1.25


def _patch_everywhere(mp: pytest.MonkeyPatch, original, replacement) -> None:
    """Replace `original` in every sdflow module that holds it, as
    `from .kinding import normalize_size` makes copies of the name."""
    for name, module in list(sys.modules.items()):
        if name == "sdflow" or name.startswith("sdflow."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    mp.setattr(module, attr, replacement)


def measure(source: str) -> dict:
    """Counters of one parse and one check of `source`, and the objects
    each target and summary was computed for."""
    counts: Counter = Counter()
    targets, summaries = [], []
    depth = [0]

    class CountedToken(parser.Token):
        __slots__ = ()

        def __init__(self, *args):
            counts["tokens"] += 1
            super().__init__(*args)

    def normalize(e, inner=kinding.normalize_size):
        counts["normalize"] += not depth[0]
        depth[0] += 1
        try:
            return inner(e)
        finally:
            depth[0] -= 1

    def comp_target(comp, inner=flowstate._comp_target):
        targets.append(comp)
        return inner(comp)

    def rate_summary(fs, inner=flowstate._rate_summary):
        summaries.append(fs)
        return inner(fs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parser, "Token", CountedToken)
        _patch_everywhere(mp, kinding.normalize_size, normalize)
        mp.setattr(flowstate, "_comp_target", comp_target)
        mp.setattr(flowstate, "_rate_summary", rate_summary)
        result = check_network(parse_program(source))
    assert result.ok, result.diagnostics
    counts["targets"], counts["summaries"] = len(targets), len(summaries)
    return {"counts": counts, "targets": targets, "summaries": summaries}


def perfbench_gen():
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench import gen
    finally:
        sys.path.remove(str(ROOT))
    return gen


def measure_cells() -> dict:
    """`measure` of each cell's perfbench program, by (family, size)."""
    gen = perfbench_gen()
    return {(family, n): measure(gen.FAMILIES[family](n).source)
            for family, sizes in AXES.items() for n in sizes}


@pytest.fixture(scope="module")
def cells():
    return measure_cells()


@pytest.mark.parametrize("counter", COUNTERS)
@pytest.mark.parametrize("family", AXES)
def test_check_counter_grows_at_most_linearly(cells, family, counter):
    small, large = (cells[family, n]["counts"][counter] for n in AXES[family])
    assert small > 0
    assert large <= GROWTH * small, (small, large)


@pytest.mark.parametrize("cell", [(f, n) for f, ns in AXES.items() for n in ns],
                         ids=lambda c: f"{c[0]}-{c[1]}")
def test_each_target_and_summary_is_computed_once(cells, cell):
    measured = cells[cell]
    # the objects are kept alive in the lists, so their ids are distinct
    for what in ("targets", "summaries"):
        repeats = Counter(map(id, measured[what]))
        assert max(repeats.values()) == 1, what


@pytest.mark.parametrize("cell", NORMALIZE_BEFORE, ids=lambda c: f"{c[0]}-{c[1]}")
def test_normalize_calls_fell_by_at_least_two_fifths(cells, cell):
    assert cells[cell]["counts"]["normalize"] <= 0.6 * NORMALIZE_BEFORE[cell]


def source_tokens(path: str) -> int:
    """Tokens of a Python source file, comments and layout left out."""
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
              tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
    with open(path, "rb") as f:
        return sum(tok.type not in layout
                   for tok in tokenize.tokenize(f.readline))


def src_env(**extra) -> dict:
    """This environment with the repository's `src` first on PYTHONPATH,
    and `extra` set."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                                  if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def fresh_run(statements: str) -> dict:
    """What a fresh interpreter compiles while it runs `statements` from the
    repository root with no bytecode cache to read: `records`, the record
    classes whose methods it builds; `tokens`, those of the sdflow source
    files; and `modules`, the names then in `sys.modules`."""
    script = ("import json, sys\n"
              "records, files = set(), []\n"
              "def hook(event, args):\n"
              "    if event == 'compile':\n"
              "        name = str(args[1])\n"
              "        if name.startswith('<record '):\n"
              "            records.add(name)\n"
              "        elif name.startswith(sys.argv[1]):\n"
              "            files.append(name)\n"
              "sys.addaudithook(hook)\n"
              f"{statements}\n"
              "print(json.dumps([len(records), files, sorted(sys.modules)]),"
              " file=sys.stderr)\n")
    src = ROOT / "src"
    with tempfile.TemporaryDirectory() as no_cache:
        env = src_env(PYTHONDONTWRITEBYTECODE="1",
                      PYTHONPYCACHEPREFIX=no_cache)
        out = subprocess.run([sys.executable, "-c", script,
                              str(src / "sdflow")],
                             capture_output=True, text=True, cwd=ROOT,
                             env=env, check=True)
    records, files, modules = json.loads(out.stderr.splitlines()[-1])
    return {"records": records, "tokens": sum(map(source_tokens, files)),
            "modules": modules}


def measure_startup() -> dict:
    runs = {name: fresh_run(statements)
            for name, statements in STARTUP.items()}
    return {"import_records": runs["import"]["records"],
            "check_records": runs["check"]["records"],
            "check_tokens": runs["check"]["tokens"],
            "check_modules": runs["check"]["modules"]}


@pytest.fixture(scope="module")
def startup():
    return measure_startup()


def test_import_builds_no_record_and_check_builds_a_bounded_few(startup):
    assert startup["import_records"] == 0
    assert 0 < startup["check_records"] <= CHECK_RECORDS_BOUND


def test_check_compiles_only_the_checker(startup):
    assert 0 < startup["check_tokens"] <= CHECK_TOKENS_BOUND
    assert "sdflow.typecheck" in startup["check_modules"]
    assert set(NOT_CHECKED).isdisjoint(startup["check_modules"])


def instantiate_substs(stages: int) -> int:
    """`subst_expr` calls, recursive ones included, that `instantiate`
    makes on `gen.pipeline(stages)` at rate 2."""
    net = parse_program(perfbench_gen().pipeline(stages).source)
    calls = [0]

    def counted(e, mapping, inner=runtime.subst_expr):
        calls[0] += 1
        return inner(e, mapping)

    with pytest.MonkeyPatch.context() as mp:
        _patch_everywhere(mp, runtime.subst_expr, counted)
        runtime.instantiate(net, {"s": 2})
    return calls[0]


def test_instantiate_substitutions_grow_at_most_linearly():
    small, large = map(instantiate_substs, RUN_STAGES)
    assert small > 0
    assert large <= GROWTH * small, (small, large)


def run_calls(name: str) -> dict:
    """Python-level calls per step of one roundRobin `runtime.run` of the
    step cell `name`, after a first run has built the record methods a run
    builds, the `sdflow.syntax` records constructed per step, and the
    `Label`s constructed inside it."""
    source = ((ROOT / "corpus" / "good" / "pipeline3.sdf").read_text()
              if name == "pipeline3" else
              perfbench_gen().pipeline(int(name.split("-")[1])).source)
    cfg = runtime.instantiate(parse_program(source), RUN_CALLS[name][0])
    runtime.run(cfg)
    syntax._build(runtime.Label)
    label_init = runtime.Label.__init__.__code__
    calls = nodes = labels = 0

    def profile(frame, event, arg):
        nonlocal calls, nodes, labels
        if event == "call":
            calls += 1
            code = frame.f_code
            labels += code is label_init
            nodes += code.co_name == "__init__" and \
                code.co_filename.startswith("<record sdflow.syntax.")

    sys.setprofile(profile)
    try:
        steps = runtime.run(cfg).steps
    finally:
        sys.setprofile(None)
    return {"calls_per_step": round(calls / steps, 3),
            "nodes_per_step": round(nodes / steps, 3), "labels": labels}


@pytest.mark.parametrize("name", RUN_CALLS)
def test_run_step_calls_stay_bounded_and_build_no_label(name):
    measured = run_calls(name)
    _, calls, nodes = RUN_CALLS[name]
    assert 0 < measured["calls_per_step"] <= RUN_CALLS_SLACK * calls, measured
    assert 0 < measured["nodes_per_step"] <= RUN_CALLS_SLACK * nodes, measured
    assert measured["labels"] == 0


def explore_work(stages: int) -> dict:
    """Per state `explore` visits on `gen.pipeline(stages)` at s=4: the
    actors it polls, the expression hashes it computes and the re-indexes
    of live actors by site it makes; and the states, the actors and the
    hashes in all."""
    net = parse_program(perfbench_gen().pipeline(stages).source)
    cfg = runtime.instantiate(net, {"s": 4})
    counts: Counter = Counter()

    def polled(cfg, i, inner=runtime._actor_outcome):
        counts["polls"] += 1
        return inner(cfg, i)

    def reindexed(search, state, inner=exploration._Search.reindex):
        counts["reindex"] += 1
        return inner(search, state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "_actor_outcome", polled)
        mp.setattr(exploration._Search, "reindex", reindexed)
        for cls in runtime._STEP:
            # a class's generated methods replace their stubs when first
            # called, and would replace the counting wrapper with them
            syntax._build(cls)

            def hashed(e, inner=cls.__hash__):
                counts["hashes"] += 1
                return inner(e)
            mp.setattr(cls, "__hash__", hashed)
        states = runtime.explore(cfg).states
    return {"states": states, "actors": len(cfg.actors),
            "hashes": counts["hashes"],
            "polls_per_state": round(counts["polls"] / states, 3),
            "hashes_per_state": round(counts["hashes"] / states, 3),
            "reindex_per_state": round(counts["reindex"] / states, 3)}


@pytest.fixture(scope="module")
def explored():
    return {n: explore_work(n) for n in EXPLORE_STAGES}


@pytest.mark.parametrize("work", ["polls_per_state"])
def test_explore_work_per_state_does_not_grow_with_actors(explored, work):
    small, large = (explored[n][work] for n in EXPLORE_STAGES)
    assert small > 0
    assert large <= EXPLORE_GROWTH * small, (small, large)


@pytest.mark.parametrize("stages", EXPLORE_STAGES)
def test_explore_needs_no_reindex_on_a_pipeline(explored, stages):
    # each channel has one writer and one reader from the start and no
    # procedure is ever on the heap, so the owner index decides every step
    assert explored[stages]["reindex_per_state"] == 0


@pytest.mark.parametrize("stages", EXPLORE_STAGES)
def test_explore_hashes_only_the_terminal_on_a_pipeline(explored, stages):
    # the search never branches and no actor applies a procedure, so it
    # keeps no visited key (chain mode); what it hashes is the one
    # terminal's final value of each actor, as the set of terminals holds
    work = explored[stages]
    assert work["hashes"] == work["actors"]
    assert work["hashes_per_state"] <= 0.05


def run_peak(stages: int, s: int) -> int:
    """tracemalloc's peak, in bytes, over `runtime.run` with no observer on
    `gen.pipeline(stages)` at rate s."""
    net = parse_program(perfbench_gen().pipeline(stages).source)
    cfg = runtime.instantiate(net, {"s": s})
    tracemalloc.start()
    try:
        assert runtime.run(cfg).status == "done"
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_memory() -> dict:
    """`run_peak` at each rate of `RUN_MEMORY`, after a small run has built
    the record methods a first run builds."""
    stages, rates = RUN_MEMORY
    run_peak(4, 2)
    return {s: run_peak(stages, s) for s in rates}


def test_run_memory_does_not_grow_with_steps():
    small, large = run_memory().values()
    assert small > 0
    assert large <= RUN_MEMORY_GROWTH * small, (small, large)


# Runs a command and prints its exit code, its peak RSS in kB and its
# output.  A child's peak RSS counts the RSS of the process that started it
# (its image before `exec`), so the command is started from this small
# interpreter, not from the caller, whose heap may be larger than the bound.
_PEAK_RSS = """\
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE,
                        stderr=subprocess.STDOUT, text=True)
with proc.stdout:
    out = proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss, out, sep="\\n", end="")
"""


def peak_rss_mb(*args: str) -> tuple:
    """Peak RSS, in MB, of text `sdflow` with `args` as a child process,
    and its output, once it has exited 0."""
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "sdflow.cli",
         *args], capture_output=True, text=True, env=src_env(), check=True)
    code, kb, out = done.stdout.split("\n", 2)
    assert code == "0", done.stdout
    return round(int(kb) / 1024, 1), out  # kB on Linux


def cli_run_rss_mb() -> float:
    """Peak RSS, in MB, of text `sdflow run` on `gen.pipeline(stages)` at
    rate s (`CLI_RUN`) as a child process."""
    stages, s = CLI_RUN
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pipeline.sdf")
        with open(path, "w") as f:
            f.write(perfbench_gen().pipeline(stages).source)
        mb, out = peak_rss_mb("run", path, "--size", f"s={s}")
    assert out.startswith("done in "), out
    return mb


def test_cli_run_peak_rss_is_bounded():
    assert cli_run_rss_mb() < CLI_RUN_RSS_MB


def cli_conform_rss_mb() -> dict:
    """Peak RSS, in MB, of text `sdflow run` and `sdflow conform` on one
    corpus program at one rate (`CLI_CONFORM`), each as a child process."""
    name, s = CLI_CONFORM
    args = (str(ROOT / "corpus" / "good" / f"{name}.sdf"), "--size", f"s={s}")
    run_mb, out = peak_rss_mb("run", *args)
    assert out.startswith("done in "), out
    conform_mb, out = peak_rss_mb("conform", *args)
    assert out.endswith(", complete\n"), out
    return {"run": run_mb, "conform": conform_mb}


def test_cli_conform_peak_rss_is_close_to_run():
    rss = cli_conform_rss_mb()
    assert rss["conform"] <= CLI_CONFORM_OVER_RUN * rss["run"], rss


def write_bench(path: str) -> dict:
    """Write the counters of every cell, the start-up, run, step, explore
    and memory cells and the line count of `src/sdflow` to `path` as JSON;
    return what was written."""
    bench = {
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in sorted((ROOT / "src" / "sdflow").glob("*.py"))),
        "cells": {f"{family}-{n}": {c: cell["counts"][c] for c in COUNTERS}
                  for (family, n), cell in measure_cells().items()},
        "startup": {name: value for name, value in measure_startup().items()
                    if name != "check_modules"},
        "run": {**{f"pipeline-{n}": {"substs": instantiate_substs(n)}
                   for n in RUN_STAGES},
                **{f"{name}-steps": run_calls(name) for name in RUN_CALLS}},
        "explore": {f"pipeline-{n}": explore_work(n) for n in EXPLORE_STAGES},
        "memory": {**{f"run_peak_bytes-pipeline-{RUN_MEMORY[0]}-s{s}": peak
                      for s, peak in run_memory().items()},
                   f"cli_run_rss_mb-pipeline-{CLI_RUN[0]}-s{CLI_RUN[1]}":
                       cli_run_rss_mb(),
                   **{f"cli_{command}_rss_mb-{CLI_CONFORM[0]}-s{CLI_CONFORM[1]}":
                      mb for command, mb in cli_conform_rss_mb().items()}},
    }
    with open(path, "w") as out:
        json.dump(bench, out, indent=2)
        out.write("\n")
    return bench


if __name__ == "__main__":
    import argparse
    ap = argparse.ArgumentParser(description="Write the cost cells' counters, "
                                 "the start-up cells and the src/sdflow line "
                                 "count as JSON.")
    ap.add_argument("--write", required=True, metavar="BENCH_<tag>.json")
    print(json.dumps(write_bench(ap.parse_args().write), indent=2))
