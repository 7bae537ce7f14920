"""`runtime.explore` against the full search it replaced.

`full_explore` expands every enabled actor at every state.  `explore`
expands a persistent set, so it visits fewer states, but it must reach the
same verdicts: identical `any_complete`, `all_complete`, `truncated`,
`cycle` and terminal sets and, whenever the full search finds at most `STUCK_LIMIT`
stuck configurations (so its samples are all of them), the same stuck
configurations with the same blocked reasons.
"""

from collections import Counter

import pytest
from conftest import corpus_files, sizes_for, state_key
from test_netcheck import pipeline_source
from test_runtime import (
    RACY_REF, REF_OVER_CHANNEL, STUCK_BESIDE_BLOCKED, TWO_WRITERS,
)

from sdflow.parser import parse_program, parse_program_or_raise
from sdflow.runtime import (
    STUCK_LIMIT, ExploreResult, InstantiationError, Stepped, _actor_outcome,
    _signature, commit, explore, instantiate, step_expr,
)


# --- the replaced implementation --------------------------------------------

def full_explore(cfg, max_states=300_000):
    visited: dict = {}  # key -> its depth on the path it was met on
    path: list = []     # the keys on the current path, by depth
    terminals: set = set()
    stuck: list = []
    any_complete = False
    all_complete = True
    truncated = cycle = False
    stack = [(cfg.copy(), Counter(), 0)]
    while stack:
        current, counts, depth = stack.pop()
        key = (state_key(current), tuple(sorted(counts.items())))
        del path[depth:]
        if key in visited:
            # a state met again on its own path: a cycle
            cycle = cycle or key in path
            continue
        visited[key] = depth
        path.append(key)
        if len(visited) > max_states:
            truncated = True
            break
        outs = []
        for i in range(len(current.actors)):
            out = _actor_outcome(current, i)
            if isinstance(out, Stepped):
                outs.append((i, out))
        if not outs:
            if current.done():
                any_complete = True
                terminals.add(_signature(current, tuple(sorted(counts.items()))))
            else:
                all_complete = False
                if len(stuck) < STUCK_LIMIT:
                    stuck.append(current)
            continue
        for i, out in outs:
            nxt = current.copy()
            commit(nxt, i, out)
            nc = Counter(counts)
            if out.label is not None:
                nc[(out.label.chan,
                    "send" if out.label.is_send else "recv")] += 1
            stack.append((nxt, nc, depth + 1))
    return ExploreResult(any_complete,
                         all_complete and not truncated and not cycle,
                         len(visited), terminals, stuck, truncated, cycle)


# --- the comparison ----------------------------------------------------------

def _blocked(cfg):
    """A stuck configuration with what each of its actors waits for."""
    reasons = tuple((a.name, "done" if a.done else
                     step_expr(a.expr, cfg.heap, a.name).reason)
                    for a in cfg.actors)
    return state_key(cfg), reasons


def assert_same_verdicts(net, sizes):
    full = full_explore(instantiate(net, sizes))
    reduced = explore(instantiate(net, sizes))
    assert not full.truncated, "the full search must fit its budget"
    assert (reduced.any_complete, reduced.all_complete, reduced.truncated,
            reduced.cycle) \
        == (full.any_complete, full.all_complete, full.truncated, full.cycle)
    assert reduced.terminals == full.terminals
    if len(full.stuck) < STUCK_LIMIT:
        assert {_blocked(s) for s in reduced.stuck} \
            == {_blocked(s) for s in full.stuck}
    else:
        assert len(reduced.stuck) == STUCK_LIMIT
    assert reduced.states <= full.states
    return full, reduced


# two writers on one channel array: one names its element by a literal, the
# other through a loop variable, so the receiver sees both arrival orders
ARRAY_TWO_WRITERS = """
size k : Size(inf);
chanarray a : ChannelArray(0, 2, 2);
val kk : Size(k);
val aw : ChanArray(-, a, Integer, 2);
val ar : ChanArray(+, a, Integer, 2);
flow eps;
network {
  actor { send aw[index(1)] 1; send aw[index(2)] 2 }
  ||
  actor { for (t, x in 1..kk) send aw[x] 3 }
  ||
  actor { let p = recv ar[index(1)]; let q = recv ar[index(1)];
          let u = recv ar[index(2)]; let v = recv ar[index(2)];
          p * 1000 + q * 100 + u * 10 + v }
}
"""

# a procedure that sends on `c` travels to the actor that calls it, in a
# buffer or in a heap cell; until it is called, the first actor's send on
# `c` is not alone on the channel, and `c` sees both arrival orders
PROC_IN_BUFFER = """
chan c : Channel(0, 2);
chan f : Channel(0, 1);
val cw : Chan(-, c, Integer);
val cr : Chan(+, c, Integer);
val fw : Chan(-, f, () -> [c! => eps] Integer);
val fr : Chan(+, f, () -> [c! => eps] Integer);
flow eps;
network {
  actor { send cw 1 }
  ||
  actor { send fw (fn () [c! => eps] send cw 2) }
  ||
  actor { let p = recv fr; p() }
  ||
  actor { let a = recv cr; let b = recv cr; a * 10 + b }
}
"""

PROC_IN_CELL = (PROC_IN_BUFFER
                .replace("() -> [c! => eps] Integer)",
                         "Ref(() -> [c! => eps] Integer))")
                .replace("(fn () [c! => eps] send cw 2)",
                         "(ref (fn () [c! => eps] send cw 2))")
                .replace("p()", "(!p)()"))

HAND_WRITTEN = {"racy_ref": (RACY_REF, {}),
                "ref_over_channel": (REF_OVER_CHANNEL, {}),
                "stuck_beside_blocked": (STUCK_BESIDE_BLOCKED,
                                         {"s": 2, "k": 3}),
                "two_writers": (TWO_WRITERS, {}),
                "array_two_writers": (ARRAY_TWO_WRITERS, {"k": 2}),
                "proc_in_buffer": (PROC_IN_BUFFER, {}),
                "proc_in_cell": (PROC_IN_CELL, {})}

CORPUS_NETS = [(f"{kind}/{p.name}", parse_program_or_raise(p.read_text()))
               for kind in ("good", "rejected") for p in corpus_files(kind)]

NEGATIVE_NETS = [(p.name, net) for p in corpus_files("negative")
                 if not isinstance(net := parse_program(p.read_text()), list)]


@pytest.mark.parametrize("name, net", CORPUS_NETS,
                         ids=[name for name, _ in CORPUS_NETS])
def test_reduced_matches_full_on_corpus(name, net):
    for v in (1, 2, 3, 4):
        assert_same_verdicts(net, sizes_for(net, v))


def test_reduced_matches_full_on_negative_programs_that_instantiate():
    compared = 0
    for name, net in NEGATIVE_NETS:
        for v in (1, 2, 3, 4):
            try:
                instantiate(net, sizes_for(net, v))
            except InstantiationError:
                continue
            assert_same_verdicts(net, sizes_for(net, v))
            compared += 1
    assert compared


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_reduced_matches_full_on_hand_written_networks(name):
    source, sizes = HAND_WRITTEN[name]
    assert_same_verdicts(parse_program_or_raise(source), sizes)


def test_racy_and_two_writer_networks_keep_every_outcome():
    for source, sizes, outcomes in ((RACY_REF, {}, 3),
                                    (TWO_WRITERS, {}, 6),
                                    (ARRAY_TWO_WRITERS, {"k": 2}, 4),
                                    (PROC_IN_BUFFER, {}, 2),
                                    (PROC_IN_CELL, {}, 2)):
        ex = explore(instantiate(parse_program_or_raise(source), sizes))
        assert ex.all_complete and len(ex.terminals) == outcomes


@pytest.mark.parametrize("stages", [3, 4, 5])
def test_reduced_matches_full_on_pipelines(stages):
    net = parse_program_or_raise(pipeline_source(stages))
    full, reduced = assert_same_verdicts(net, {"s": 3})
    assert reduced.states < full.states
