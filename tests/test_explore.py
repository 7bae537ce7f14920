"""`runtime.explore` commits in place into a state with one successor and
copies only a state with several; these tests hold what that must not
change, and what it is for.

A configuration handed out as a stuck sample must stay as it was found:
re-polling it shows no enabled actor, no two samples are one state, and
`check_progress_theorem` reports the same actors and buffers as when each
successor was a fresh copy (the reports below were recorded then).  And
`sdflow conform` on a wide network costs a small multiple of `sdflow run`,
where it cost 258 times as much when every state polled every actor.

The clash test of `exploration._persistent` asks the search's static owner
index while no procedure has been on the heap, and the exact index of live
actors otherwise; forced onto the exact test throughout, `explore` must
find the same states, terminals, stuck samples and truncation.
"""

import os
import subprocess
import sys
import time

import pytest
from conftest import ROOT, corpus_files, load, sizes_for, state_key
from test_explore_oracle import HAND_WRITTEN
from test_runtime import STUCK_BESIDE_BLOCKED

from sdflow import exploration
from sdflow.conformance import check_progress_theorem
from sdflow.parser import parse_program_or_raise
from sdflow.runtime import STUCK_LIMIT, Stepped, explore, instantiate, step_expr
from sdflow.syntax import IntLit

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


# --- the owner index against the exact clash test ----------------------------

# Landin's knot: a cell holds a procedure that calls itself through the
# cell, so the actor never ends (ROADMAP Defect 2)
KNOT = """
network {
  actor {
    let r = ref (fn (v : Integer) [eps => eps] v);
    r := (fn (v : Integer) [eps => eps] (!r)(v));
    (!r)(1)
  }
}
"""

# the same knot, with a second actor waiting on a receive from the first
KNOT_AWAITED = """
chan c : Channel(0, 1);
val cw : Chan(-, c, Integer);
val cr : Chan(+, c, Integer);
flow c! || c?;
network {
  actor {
    let r = ref (fn (v : Integer) [eps => eps] v);
    r := (fn (v : Integer) [eps => eps] (!r)(v));
    send cw (!r)(1)
  }
  ||
  actor { recv cr }
}
"""

# the actor that makes a procedure sending on `c` hands it away and then
# sends on `c` itself: it owns every send on `c` in the initial
# configuration, yet its send races the procedure's, so `c` sees both
# arrival orders only if the owner index is off once the procedure is on
# the heap, in a buffer or in a cell
PROC_CARRIED_AWAY = """
chan c : Channel(0, 2);
chan f : Channel(0, 1);
val cw : Chan(-, c, Integer);
val cr : Chan(+, c, Integer);
val fw : Chan(-, f, () -> [c! => eps] Integer);
val fr : Chan(+, f, () -> [c! => eps] Integer);
flow eps;
network {
  actor { send fw (fn () [c! => eps] send cw 2); send cw 1 }
  ||
  actor { let p = recv fr; p() }
  ||
  actor { let a = recv cr; let b = recv cr; a * 10 + b }
}
"""

PROC_CARRIED_IN_CELL = (
    PROC_CARRIED_AWAY
    .replace("() -> [c! => eps] Integer)", "Ref(() -> [c! => eps] Integer))")
    .replace("(fn () [c! => eps] send cw 2)",
             "(ref (fn () [c! => eps] send cw 2))")
    .replace("p()", "(!p)()"))

CARRIED = pytest.mark.parametrize(
    "source", [PROC_CARRIED_AWAY, PROC_CARRIED_IN_CELL],
    ids=["proc_carried_away", "proc_carried_in_cell"])

KNOTS = pytest.mark.parametrize("source", [KNOT, KNOT_AWAITED],
                                ids=["knot", "knot_awaited"])


def _explored(net, sizes) -> tuple:
    """What `explore` finds: states, completion, terminals, each stuck
    sample with its actors' blocked reasons, and truncation."""
    ex = explore(instantiate(net, sizes))
    stuck = [(state_key(s), {a.name: step_expr(a.expr, s.heap, a.name,
                                               s.venv).reason
                             for a in s.actors if not a.done})
             for s in ex.stuck]
    return (ex.states, ex.any_complete, ex.all_complete, ex.terminals, stuck,
            ex.truncated)


def _searches(monkeypatch) -> list:
    """The `exploration._Search` of each later `explore`, in order."""
    made = []

    class Recorded(exploration._Search):
        def __init__(self, cfg):
            super().__init__(cfg)
            made.append(self)
    monkeypatch.setattr(exploration, "_Search", Recorded)
    return made


def _exact_only(monkeypatch) -> None:
    """Make every later `explore` skip the owner index, as a search does
    once a procedure has been on the heap."""
    first = exploration._Search.first

    def raised(search, cfg):
        state = first(search, cfg)
        search.lams = True
        return state
    monkeypatch.setattr(exploration._Search, "first", raised)


DIFFERENTIAL = (
    [(f"{kind}/{p.stem}", p.read_text(), None)
     for kind in ("good", "rejected") for p in corpus_files(kind)]
    + [(name, source, sizes) for name, (source, sizes) in HAND_WRITTEN.items()]
    + [("knot", KNOT, {}), ("knot_awaited", KNOT_AWAITED, {}),
       ("proc_carried_away", PROC_CARRIED_AWAY, {}),
       ("proc_carried_in_cell", PROC_CARRIED_IN_CELL, {})])


@pytest.mark.parametrize("source, sizes", [d[1:] for d in DIFFERENTIAL],
                         ids=[d[0] for d in DIFFERENTIAL])
def test_owner_index_explores_as_the_exact_clash_test(source, sizes,
                                                      monkeypatch):
    net = parse_program_or_raise(source)
    cases = [sizes] if sizes is not None else \
        [sizes_for(net, v) for v in (1, 2, 3, 4)]
    indexed = [_explored(net, s) for s in cases]
    _exact_only(monkeypatch)
    assert [_explored(net, s) for s in cases] == indexed


@CARRIED
def test_a_procedure_carried_away_races_its_maker(source):
    ex = explore(instantiate(parse_program_or_raise(source), {}))
    assert ex.all_complete
    assert {t[-1][-1] for t in ex.terminals} == {IntLit(12), IntLit(21)}


@KNOTS
def test_a_procedure_in_a_cell_turns_the_owner_index_off(source, monkeypatch):
    searches = _searches(monkeypatch)
    ex = explore(instantiate(parse_program_or_raise(source), {}))
    assert searches[0].lams
    # what `explore` returned before the owner index: no terminal and no
    # stuck state, yet all complete (Defect 2, pinned unfixed)
    assert (ex.states, ex.terminals, ex.stuck, ex.truncated) == \
        (6, set(), [], False)
    assert not ex.any_complete and ex.all_complete


@pytest.mark.xfail(strict=True, reason="ROADMAP Defect 2: exploration "
                   "calls a divergent network done")
@KNOTS
def test_a_divergent_network_is_not_all_complete(source):
    ex = explore(instantiate(parse_program_or_raise(source), {}))
    assert ex.all_complete is False
