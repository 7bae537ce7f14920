"""`runtime.explore` commits in place into a state with one successor and
copies only a state with several; these tests hold what that must not
change, and what it is for.

A configuration handed out as a stuck sample must stay as it was found:
re-polling it shows no enabled actor, no two samples are one state, and
`check_progress_theorem` reports the same actors and buffers as when each
successor was a fresh copy (the reports below were recorded then).  And
`sdflow conform` on a wide network costs a small multiple of `sdflow run`,
where it cost 258 times as much when every state polled every actor.
"""

import os
import subprocess
import sys
import time

import pytest
from conftest import ROOT, load, state_key
from test_runtime import STUCK_BESIDE_BLOCKED

from sdflow.conformance import check_progress_theorem
from sdflow.parser import parse_program_or_raise
from sdflow.runtime import STUCK_LIMIT, Stepped, explore, instantiate, step_expr

# two writers race on c and two on d, each of capacity 1; c's reader takes
# two of the four values and d has none, so every interleaving ends with
# one writer of each blocked, and the search branches on both channels
RACE = """
chan c : Channel(0, 1);
chan d : Channel(0, 1);
val cw1 : Chan(-, c, Integer);
val cw2 : Chan(-, c, Integer);
val cr : Chan(+, c, Integer);
val dw1 : Chan(-, d, Integer);
val dw2 : Chan(-, d, Integer);
flow eps;
network {
  actor { send cw1 1; send cw1 2 }
  ||
  actor { send cw2 3; send cw2 4 }
  ||
  actor { let a = recv cr; let b = recv cr; a * 10 + b }
  ||
  actor { send dw1 4 }
  ||
  actor { send dw2 5 }
}
"""


def _race_report(c_writer: str, d_writer: str) -> dict:
    actors = {a: "done" for a in ("a0", "a1", "a2", "a3", "a4")}
    actors[c_writer] = "buffer c is full"
    actors[d_writer] = "buffer d is full"
    return {"actors": actors, "buffers": {"c": 1, "d": 1}}


# (source, sizes) -> the stuck reports, in order
RECORDED = [
    (STUCK_BESIDE_BLOCKED, {"s": 2, "k": 3},
     [{"actors": {"a0": "index 3 outside channel array a", "a1": "done",
                  "a2": "buffer b is empty"},
       "buffers": {"a": [0, 0], "b": 0}}]),
    (STUCK_BESIDE_BLOCKED, {"s": 3, "k": 1},
     [{"actors": {"a0": "done", "a1": "buffer a[2] is empty",
                  "a2": "buffer b is empty"},
       "buffers": {"a": [0, 0, 0], "b": 0}}]),
    (RACE, {},
     [_race_report(c, d) for c, d in (("a0", "a3"), ("a0", "a3"), ("a1", "a3"),
                                      ("a0", "a3"), ("a1", "a3"), ("a1", "a3"),
                                      ("a0", "a4"), ("a0", "a4"))]),
    (load("rejected", "rate_starved.sdf"), {"n": 4},
     [{"actors": {"a0": "done", "a1": "buffer c is empty"},
       "buffers": {"c": 0}}]),
    (load("rejected", "three_cycle.sdf"), {"n": 4},
     [{"actors": {"a0": "buffer e is empty", "a1": "buffer c is empty",
                  "a2": "buffer d is empty"},
       "buffers": {"c": 0, "d": 0, "e": 0}}]),
    (load("rejected", "undelayed_cycle.sdf"), {"n": 4},
     [{"actors": {"a0": "buffer d is empty", "a1": "buffer c is empty"},
       "buffers": {"c": 0, "d": 0}}]),
]


@pytest.mark.parametrize("source, sizes, reports", RECORDED,
                         ids=["stuck_beside_blocked", "index_stuck", "race",
                              "rate_starved", "three_cycle",
                              "undelayed_cycle"])
def test_stuck_samples_stay_as_they_were_found(source, sizes, reports):
    net = parse_program_or_raise(source)
    ex = explore(instantiate(net, sizes))
    assert ex.stuck and len(ex.stuck) <= STUCK_LIMIT
    for s in ex.stuck:
        assert not s.done()
        assert not any(isinstance(step_expr(a.expr, s.heap, a.name, s.venv),
                                  Stepped)
                       for a in s.actors if not a.done)
    assert len({state_key(s) for s in ex.stuck}) == len(ex.stuck)
    assert len({id(s.heap) for s in ex.stuck}) == len(ex.stuck)
    assert check_progress_theorem(net, sizes).stuck == reports


def _seconds(*args: str) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "sdflow.cli", *args], cwd=ROOT,
                   env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def test_conform_costs_a_small_multiple_of_run():
    # the best of two child processes each, so a busy host does not decide
    args = ("corpus/good/worker_array_pipeline.sdf", "--size", "s=1024")
    run = min(_seconds("run", *args) for _ in range(2))
    conform = min(_seconds("conform", *args) for _ in range(2))
    assert conform < 5 * run, (run, conform)
