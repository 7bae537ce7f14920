"""`runtime.explore` commits in place into a state with one successor and
copies only a state with several; these tests hold what that must not
change, and what it is for.

A configuration handed out as a stuck sample must stay as it was found:
re-polling it shows no enabled actor and gives the reasons the search kept
beside it (`ExploreResult.blocked`), no two samples are one state, and
`check_progress_theorem` reports the same actors and buffers as when each
successor was a fresh copy (the reports below were recorded then).  And
`sdflow conform` on a wide network costs a small multiple of `sdflow run`,
where it cost 258 times as much when every state polled every actor.

The clash test of `exploration._persistent` asks the search's static owner
facts while no procedure has been on the heap, walking only the other
owners' terms, and walks every live actor's term and every stored
procedure otherwise; forced onto that full walk throughout, `explore` must
find the same states, terminals, stuck samples and truncation.  Where the
owners are a strict subset of the live actors, or an owner's site gains
its index, it must also reach what the oracle's full search does.
Likewise a search of a network with no application keeps no visited key
until it branches (chain mode); forced to key every state, it must find
the same.
A search that meets a state again on its own path reports a cycle, and is
then not all complete.
"""

import os
import subprocess
import sys
import time

import pytest
from conftest import (
    ROOT, corpus_files, load, sizes_for, state_key,
    two_writers_beside_pipeline,
)
from test_explore_oracle import HAND_WRITTEN, assert_same_verdicts
from test_runtime import STUCK_BESIDE_BLOCKED

from sdflow import exploration
from sdflow.conformance import check_progress_theorem
from sdflow.parser import parse_program_or_raise
from sdflow.runtime import (
    STUCK_LIMIT, Stepped, explore, instantiate, run, step_expr,
)
from sdflow.syntax import ActorE, App, IntLit, IntType, Lam, Network, Var

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
    assert len(ex.blocked) == len(ex.stuck)
    for s, reasons in zip(ex.stuck, ex.blocked):
        assert not s.done()
        outcomes = {a.name: step_expr(a.expr, s.heap, a.name)
                    for a in s.actors if not a.done}
        assert not any(isinstance(out, Stepped) for out in outcomes.values())
        assert reasons == {name: out.reason for name, out in outcomes.items()}
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


def _omega() -> Network:
    """One actor that applies `fn x => x(x)` to itself: ill-typed, so built
    through the API, and it steps back to itself with no heap at all."""
    shell = parse_program_or_raise(
        "network { actor { (fn (v : Integer) [eps => eps] v)(1) } }")
    template = shell.body.expr.fn
    lam = Lam((("x", IntType()),), template.latent, template.rest,
              App(Var("x"), (Var("x"),)))
    return Network(shell.tenv, shell.venv, shell.flow, ActorE(App(lam, (lam,))))


def _explored(net, sizes, max_states=300_000) -> tuple:
    """What `explore` finds: states, completion, terminals, each stuck
    sample with its actors' blocked reasons, truncation and a cycle."""
    ex = explore(instantiate(net, sizes), max_states)
    # a search that ends untruncated with no terminal and no stuck state
    # met only states it had seen: it ran in a cycle
    if not (ex.truncated or ex.terminals or ex.stuck):
        assert ex.cycle and not ex.all_complete
    stuck = [(state_key(s), {a.name: step_expr(a.expr, s.heap, a.name).reason
                             for a in s.actors if not a.done})
             for s in ex.stuck]
    # the reasons the search kept are those a fresh poll gives
    assert ex.blocked == [reasons for _, reasons in stuck]
    return (ex.states, ex.any_complete, ex.all_complete, ex.terminals, stuck,
            ex.truncated, ex.cycle)


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


# a channel array written through a literal index and through a loop
# index: the loop writer's site has no index until its loop is unrolled, so
# the clash test of the literal writer's send asks the loop writer's current
# term, not the sites it started with
ARRAY_INDEX_GAINED = """
size k : Size(inf);
chanarray a : ChannelArray(0, 2, 2);
val kk : Size(k);
val aw : ChanArray(-, a, Integer, 2);
val ar : ChanArray(+, a, Integer, 2);
flow eps;
network {
  actor { send aw[index(1)] 5 }
  ||
  actor { for (t, x in 1..kk) send aw[x] fromIndex(x) }
  ||
  actor { let p = recv ar[index(1)]; let q = recv ar[index(1)];
          let u = recv ar[index(2)]; p * 100 + q * 10 + u }
}
"""

# networks where the exact clash test runs on owners that are a strict
# subset of the live actors, or on an owner whose site gained its index;
# they are not among the oracle's networks, so they are checked against
# its full search here
OWNERS_SCANNED = [
    ("two_writers_beside_pipeline", two_writers_beside_pipeline(3), {"s": 3}),
    ("array_index_gained", ARRAY_INDEX_GAINED, {"k": 2})]

DIFFERENTIAL = (
    [(f"{kind}/{p.stem}", p.read_text(), None)
     for kind in ("good", "rejected") for p in corpus_files(kind)]
    + [(name, source, sizes) for name, (source, sizes) in HAND_WRITTEN.items()]
    + [("knot", KNOT, {}), ("knot_awaited", KNOT_AWAITED, {}),
       ("proc_carried_away", PROC_CARRIED_AWAY, {}),
       ("proc_carried_in_cell", PROC_CARRIED_IN_CELL, {})]
    + OWNERS_SCANNED)


def _keyed_throughout(monkeypatch) -> None:
    """Make every later `explore` key every state from the first, as a
    search of a network with an application does."""
    first = exploration._Search.first

    def cyclic(search, cfg):
        state = first(search, cfg)
        search.acyclic = False
        return state
    monkeypatch.setattr(exploration._Search, "first", cyclic)


def _cases(source, sizes) -> tuple:
    net = parse_program_or_raise(source)
    return net, ([sizes] if sizes is not None else
                 [sizes_for(net, v) for v in (1, 2, 3, 4)])


ON_DIFFERENTIAL = pytest.mark.parametrize(
    "source, sizes", [d[1:] for d in DIFFERENTIAL],
    ids=[d[0] for d in DIFFERENTIAL])


@ON_DIFFERENTIAL
def test_owner_index_explores_as_the_exact_clash_test(source, sizes,
                                                      monkeypatch):
    net, cases = _cases(source, sizes)
    indexed = [_explored(net, s) for s in cases]
    _exact_only(monkeypatch)
    assert [_explored(net, s) for s in cases] == indexed


@pytest.mark.parametrize("source, sizes", [c[1:] for c in OWNERS_SCANNED],
                         ids=[c[0] for c in OWNERS_SCANNED])
def test_a_scan_of_the_owners_reaches_what_the_full_search_does(source,
                                                                 sizes):
    full, reduced = assert_same_verdicts(parse_program_or_raise(source),
                                         sizes)
    # both arrival orders on the clashing channel
    assert len(full.terminals) == 2 and reduced.states < full.states


@ON_DIFFERENTIAL
def test_chain_mode_explores_as_a_search_keyed_throughout(source, sizes,
                                                          monkeypatch):
    net, cases = _cases(source, sizes)
    chained = [_explored(net, s) for s in cases]
    _keyed_throughout(monkeypatch)
    assert [_explored(net, s) for s in cases] == chained


def test_a_self_application_is_keyed_from_the_start(monkeypatch):
    searches = _searches(monkeypatch)
    found = _explored(_omega(), {})
    assert not searches[0].acyclic
    # one state, which steps back to itself
    assert found == (1, False, False, set(), [], False, True)
    _keyed_throughout(monkeypatch)
    assert _explored(_omega(), {}) == found


CORPUS = [(f"{kind}/{p.stem}", parse_program_or_raise(p.read_text()))
          for kind in ("good", "rejected") for p in corpus_files(kind)]


@pytest.mark.parametrize("max_states", [1, 2, 5, 17])
def test_chain_mode_truncates_as_a_search_keyed_throughout(max_states,
                                                           monkeypatch):
    cases = [(net, sizes_for(net, v)) for _, net in CORPUS
             for v in (1, 2, 3, 4)]
    chained = [_explored(net, s, max_states) for net, s in cases]
    assert any(found[5] for found in chained)  # some search is truncated
    _keyed_throughout(monkeypatch)
    assert [_explored(net, s, max_states) for net, s in cases] == chained


GOOD = [(name, net) for name, net in CORPUS if name.startswith("good/")]


@pytest.mark.parametrize("net", [net for _, net in GOOD],
                         ids=[name for name, _ in GOOD])
def test_an_accepted_network_without_application_is_one_chain(net,
                                                              monkeypatch):
    searches = _searches(monkeypatch)
    acyclic = "App(" not in repr(net)
    for v in (1, 2, 3, 4):
        sizes = sizes_for(net, v)
        ex = explore(instantiate(net, sizes))
        assert ex.all_complete
        assert ex.states == run(instantiate(net, sizes)).steps + 1
        assert searches[-1].acyclic is acyclic
        if acyclic:
            assert not searches[-1].interned


def test_a_branching_search_leaves_chain_mode(monkeypatch):
    searches = _searches(monkeypatch)
    source, sizes, reports = next(r for r in RECORDED if r[0] is RACE)
    assert check_progress_theorem(parse_program_or_raise(source),
                                  sizes).stuck == reports
    assert searches[0].acyclic and searches[0].interned


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
    # the states `explore` visited before the owner index
    assert (ex.states, ex.terminals, ex.stuck, ex.truncated) == \
        (6, set(), [], False)
    assert not ex.any_complete and not ex.all_complete


@KNOTS
def test_a_divergent_network_is_not_all_complete(source):
    net = parse_program_or_raise(source)
    ex = explore(instantiate(net, {}))
    assert ex.cycle and ex.all_complete is False
    progress = check_progress_theorem(net, {})
    assert progress.cycle and not progress.complete and not progress.ok
    assert progress.stuck == []


@KNOTS
def test_only_a_cycle_adds_its_key_to_the_progress_json(source):
    # `conform --format json` prints this object as its `progress`
    report = check_progress_theorem(parse_program_or_raise(source), {})
    assert report.to_json() == {
        "network": "<network>", "sizes": {}, "states": 6, "complete": False,
        "stuckStates": [], "truncated": False, "cycle": True}
    acyclic = check_progress_theorem(
        parse_program_or_raise(STUCK_BESIDE_BLOCKED), {"s": 2, "k": 3})
    assert not acyclic.cycle and "cycle" not in acyclic.to_json()
