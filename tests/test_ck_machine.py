"""`runtime`'s CK machine against the rules of `test_step_oracle`.

An actor holds its term as a focus in a continuation of frames, and a poll
refocuses from the focus instead of walking the term from its root.  After
every step of `run`, on the corpus and on hand-written networks under
roundRobin and three random seeds, each actor's plugged `expr` must be the
term that the `match` rules of `test_step_oracle` reach by stepping that
actor's term on the same heap, with the same label.  Plugging a term and
keying a state walk frames in a loop, so a long actor, a body nested as
deep as the parser allows and a network whose search keys every state run,
explore and conform at the default recursion limit.
"""

import sys

import pytest
from conftest import corpus_files, sizes_for
from test_explore import (
    KNOT, KNOT_AWAITED, PROC_CARRIED_AWAY, PROC_CARRIED_IN_CELL, RACE,
)
from test_runtime import PROC_OVER_CHANNEL, RACY_REF, REF_OVER_CHANNEL
from test_step_oracle import step_expr as oracle_step

from sdflow import runtime
from sdflow.conformance import check_preservation, check_progress_theorem
from sdflow.parser import MAX_NESTING, parse_program_or_raise
from sdflow.runtime import (
    InstantiationError, Machine, Stepped, explore, instantiate, run,
)

SCHEDULES = ([{"scheduler": "roundRobin"}]
             + [{"scheduler": "random", "seed": s} for s in range(3)])

HAND_WRITTEN = {"race": RACE, "knot": KNOT, "knot_awaited": KNOT_AWAITED,
                "racy_ref": RACY_REF, "ref_over_channel": REF_OVER_CHANNEL,
                "proc_over_channel": PROC_OVER_CHANNEL,
                "proc_carried_away": PROC_CARRIED_AWAY,
                "proc_carried_in_cell": PROC_CARRIED_IN_CELL}

NETS = ([(f"{kind}/{p.stem}", p.read_text(), (1, 2, 3))
         for kind in ("good", "rejected") for p in corpus_files(kind)]
        + [(name, source, (None,))
           for name, source in sorted(HAND_WRITTEN.items())])

# the knots run forever; a run of any of these networks is cut here
MAX_STEPS = 400


@pytest.mark.parametrize("name, source, values", NETS,
                         ids=[name for name, _, _ in NETS])
def test_every_step_reaches_the_oracles_term(name, source, values,
                                             monkeypatch):
    net = parse_program_or_raise(source)
    committed = runtime.commit
    terms: list = []
    steps = 0

    def checked(cfg, i, out):
        nonlocal steps
        actor = cfg.actors[i]
        want = oracle_step(terms[i], cfg.heap, actor.name, net.venv)
        assert isinstance(want, Stepped) and want.label == out.label
        committed(cfg, i, out)
        terms[i] = want.expr
        assert [a.expr for a in cfg.actors] == terms
        steps += 1

    monkeypatch.setattr(runtime, "commit", checked)
    for v in values:
        try:
            cfg = instantiate(net, {} if v is None else sizes_for(net, v))
        except InstantiationError:
            continue
        for kwargs in SCHEDULES:
            terms[:] = [a.expr for a in cfg.actors]
            run(cfg, max_steps=MAX_STEPS, **kwargs)
    assert steps > 0


def test_a_copied_machine_shares_every_continuation():
    cfg = instantiate(parse_program_or_raise(RACE), {})
    machine = Machine(cfg)
    copy = machine.copy()
    assert any(a.k is not None for a in cfg.actors)
    for old, new in zip(cfg.actors, copy.cfg.actors):
        assert new is not old
        assert (new.focus, new.k) == (old.focus, old.k)
        assert new.k is old.k


# --- no recursion per frame --------------------------------------------------

def network(sender: str, sends: int) -> str:
    """`sender` sends `sends` items on `c` to a looping receiver, beside an
    actor that applies a procedure, so `explore` keys every state from the
    first."""
    return ("chan c : Channel(0, 2);\n"
            f"val n : Size({sends});\n"
            "val cw : Chan(-, c, Integer);\n"
            "val cr : Chan(+, c, Integer);\n"
            f"flow c!<t in 1..{sends}> || c?<t in 1..{sends}> || eps;\n"
            f"network {{ actor {{ {sender} }}\n"
            "  || actor { for (t, x in 1..n) recv cr }\n"
            "  || actor { let g = fn (a : Integer) [eps => eps] a + 1; g(1) }"
            " }\n")


LONG = 5000
# `(send cw 1) + (1 + (... (7)))`, each group one level deeper than the
# one around it: `test_nesting`'s "parens" shape at its limit
DEEP = MAX_NESTING - 2
DEEP_SENDER = "send cw " + "1 + (" * DEEP + "7" + ")" * DEEP

DEEP_NETS = {
    "long_actor": (network("; ".join(f"send cw {i}"
                                     for i in range(1, LONG + 1)), LONG),
                   LONG),
    "nested_body": (network(DEEP_SENDER, 1), 1),
}


@pytest.mark.parametrize("name", DEEP_NETS)
def test_run_explore_and_conform_do_not_recurse_per_frame(name):
    source, sends = DEEP_NETS[name]
    assert sys.getrecursionlimit() <= 1000
    net = parse_program_or_raise(source)
    result = run(instantiate(net, {}))
    assert result.status == "done"
    assert result.comm_counts == {("c", "send"): sends, ("c", "recv"): sends}
    explored = explore(instantiate(net, {}))
    assert explored.all_complete and len(explored.terminals) == 1
    assert check_preservation(net, {}).ok
    assert check_progress_theorem(net, {}).ok


def test_a_deep_body_keeps_a_frame_per_level_it_is_inside():
    # once its send is taken, the sender sums the nested groups from the
    # innermost out: its continuation then holds a frame for each group
    # around its focus
    cfg = instantiate(parse_program_or_raise(network(DEEP_SENDER, 1)), {})
    machine = Machine(cfg)
    deepest = 0
    while 0 in machine.enabled:
        machine.step(0, machine.outcomes[0])
        depth, k = 0, cfg.actors[0].k
        while k is not None:
            depth, k = depth + 1, k[3]
        deepest = max(deepest, depth)
    assert deepest >= DEEP
