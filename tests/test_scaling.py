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

The start-up cells count, in a fresh interpreter, the record classes whose
generated methods are compiled (`<record ...>` sources) by `import
sdflow.cli`, and by that import plus one `check` of downsampler.sdf.  When
every class compiled its methods as it was defined, both read 61.

Run as a script, it writes every cell's counters and the line count of
`src/sdflow` to a JSON file, to compare one change's before and after:

    PYTHONPATH=src python tests/test_scaling.py --write BENCH_<tag>.json
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter

import pytest
from conftest import ROOT

from sdflow import flowstate, kinding, parser
from sdflow.parser import parse_program
from sdflow.typecheck import check_network

# workload axis -> (small, large) sizes, 4x apart
AXES = {"pipeline": (150, 600), "long_actor": (500, 2000)}
COUNTERS = ("tokens", "targets", "summaries", "normalize")
GROWTH = 4.2
# normalize_size calls before this layer kept its results on the nodes
NORMALIZE_BEFORE = {("pipeline", 600): 21_564, ("long_actor", 2000): 8_017}
# a fresh interpreter's work -> statements run after counting starts
STARTUP = {"import_records": "import sdflow.cli",
           "check_records": "from sdflow.cli import main\n"
                            "main(['check', 'corpus/good/downsampler.sdf'])"}
# record classes one `check` may build, of the 61 `import sdflow.cli` defines
CHECK_RECORDS_BOUND = 40


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


def measure_cells() -> dict:
    """`measure` of each cell's perfbench program, by (family, size)."""
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench import gen
    finally:
        sys.path.remove(str(ROOT))
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


def records_built(statements: str) -> int:
    """Record classes whose methods a fresh interpreter compiles while it
    runs `statements` from the repository root."""
    script = ("import sys\n"
              "built = set()\n"
              "def hook(event, args):\n"
              "    if event == 'compile' and str(args[1]).startswith('<record '):\n"
              "        built.add(args[1])\n"
              "sys.addaudithook(hook)\n"
              f"{statements}\n"
              "print(len(built), file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, cwd=ROOT, env=env, check=True)
    return int(out.stderr.split()[-1])


def measure_startup() -> dict:
    return {name: records_built(statements)
            for name, statements in STARTUP.items()}


def test_import_builds_no_record_and_check_builds_a_bounded_few():
    built = measure_startup()
    assert built["import_records"] == 0
    assert 0 < built["check_records"] <= CHECK_RECORDS_BOUND


def write_bench(path: str) -> dict:
    """Write the counters of every cell, the start-up cells and the line
    count of `src/sdflow` to `path` as JSON; return what was written."""
    bench = {
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in sorted((ROOT / "src" / "sdflow").glob("*.py"))),
        "cells": {f"{family}-{n}": {c: cell["counts"][c] for c in COUNTERS}
                  for (family, n), cell in measure_cells().items()},
        "startup": measure_startup(),
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
