"""`runtime.Machine`, the one step machine `run` and `explore` drive.

A machine re-polls only the actors a step may have woken, so after every
step it must still hold what polling every actor afresh would give: each
actor's outcome, the stepped actors in actor order as `enabled`, and as
`waits` the key of each outcome, the buffer or cell it touched, with
`readers` its inverse.  A copy stepped on its own must leave the original
holding all of that too.
"""

import random

import pytest
from conftest import corpus_files, dropped_push, sizes_for
from test_explore import RACE
from test_runtime import RACY_REF, REF_OVER_CHANNEL

from sdflow.parser import parse_program_or_raise
from sdflow.runtime import (
    Blocked, Machine, Stepped, Stuck, _actor_outcome, instantiate,
)

MAX_STEPS = 2_000


def _read(out):
    return out.key if isinstance(out, (Stepped, Blocked)) else None


def _same_outcome(kept, fresh) -> bool:
    if kept.__class__ is not fresh.__class__:
        return False
    if isinstance(fresh, Stepped):
        return (kept.label, kept.expr, kept.key) \
            == (fresh.label, fresh.expr, fresh.key)
    if isinstance(fresh, Blocked):
        return (kept.key, kept.reason) == (fresh.key, fresh.reason)
    if isinstance(fresh, Stuck):
        return kept.reason == fresh.reason
    return True  # None: the actor is done


def assert_consistent(machine: Machine) -> None:
    cfg = machine.cfg
    fresh = [_actor_outcome(cfg, j) for j in range(len(cfg.actors))]
    for j, out in enumerate(fresh):
        assert _same_outcome(machine.outcomes[j], out), cfg.actors[j].name
    assert machine.enabled == [j for j, out in enumerate(fresh)
                               if isinstance(out, Stepped)]
    assert machine.waits == [_read(out) for out in fresh]
    inverse: dict = {}
    for j, key in enumerate(machine.waits):
        if key is not None:
            inverse.setdefault(key, set()).add(j)
    assert {key: held for key, held in machine.readers.items() if held} \
        == inverse


def drive(cfg, pick) -> int:
    """Step a machine over `cfg` until no actor is enabled, choosing by
    `pick`; before each step, fork a copy, step it by the last enabled
    actor, dropping the item it pushes if it sends, and check both.
    Returns the steps taken."""
    machine = Machine(cfg)
    assert_consistent(machine)
    steps = 0
    while machine.enabled and steps < MAX_STEPS:
        fork = machine.copy()
        j = fork.enabled[-1]
        with dropped_push(1):
            fork.step(j, fork.outcomes[j])
        assert_consistent(fork)
        assert_consistent(machine)
        i = pick(machine.enabled)
        machine.step(i, machine.outcomes[i])
        assert_consistent(machine)
        steps += 1
    return steps


def _first(enabled):
    return enabled[0]


def _seeded(seed):
    rng = random.Random(seed)
    return lambda enabled: rng.choice(enabled)


def _networks():
    for p in corpus_files("good"):
        net = parse_program_or_raise(p.read_text())
        for v in (1, 2, 3):
            yield f"{p.stem}-{v}", instantiate(net, sizes_for(net, v))
    for name, source in (("race", RACE), ("racy_ref", RACY_REF),
                         ("ref_over_channel", REF_OVER_CHANNEL)):
        yield name, instantiate(parse_program_or_raise(source), {})


NETWORKS = list(_networks())


@pytest.mark.parametrize("cfg", [cfg for _, cfg in NETWORKS],
                         ids=[name for name, _ in NETWORKS])
def test_machine_matches_fresh_polls_after_every_step(cfg):
    for pick in (_first, _seeded(len(cfg.actors))):
        assert drive(cfg.copy(), pick) > 0
