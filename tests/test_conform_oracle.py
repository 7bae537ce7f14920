"""The conformance observer before flowstates were reduced on integers, kept
as the oracle of the one in `sdflow.conformance`.

`_silent_normalize`, `_event_matches`, `try_consume_comp`,
`consume_actor_flow`, `step_flowstate_internal`, `actor_flows` and
`check_preservation` below are that observer's code: it rebuilds each
residual comprehension with `subst_comp`, counts every residual
comprehension of the actor after each label, and recounts every buffer of
the heap on every communication.  The oracle runs on
`test_run_oracle.polling_run`, which drops a send's item by counting sends
itself, and the observer under `dropped_push`, so two independent fault
paths meet.  The tests compare full violation lists, residual
comprehensions and their printed text.

The oracle refuses labels a flow emits when a guard on an outer iterator
sits before one on an inner iterator.  There, and on generated ground
comprehensions, the observer is checked against `unroll`, which lists a
comprehension's events point by point.
"""

import itertools
import random
from collections import Counter
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    ProgramGen, comp, corpus_files, dropped_push, ev, it, sizes_for,
)
from test_run_oracle import polling_run

from sdflow import conformance
from sdflow.conformance import (
    ConformanceReport, Violation, _counts_str, comp_occurrence_count,
)
from sdflow.flowstate import count_in_range
from sdflow.kinding import normalize_size
from sdflow.netcheck import PRODUCER, classify_event
from sdflow.parser import parse_program_or_raise
from sdflow.printer import print_comp
from sdflow.runtime import (
    Configuration, Heap, Label, _rel_holds, instantiate,
)
from sdflow.syntax import (
    ActorComp, ActorE, Add, ChannelArrayKind, ChannelKind, Comp, Divides,
    Env, Event, Iterator, Network, Num, Par, PArray, Stop, SVar, AtMost,
    flow_comps, proc_components, seq_flow, subst_comp, subst_flow,
    subst_size,
)
from sdflow.typecheck import Checker


# ---------------------------------------------------------------------------
# The oracle: comprehension-level reduction and full heap recounts
# ---------------------------------------------------------------------------

def heap_flow_counts(tenv: Env, heap: Heap) -> Counter:
    """Pending communications recorded by the heap, as concrete counts."""
    counts: Counter = Counter()
    kinds: dict = {}
    for (chan, idx), buf in heap.bufs.items():
        if chan not in kinds:
            kinds[chan] = tenv.lookup(chan)
        kind = kinds[chan]
        if not isinstance(kind, (ChannelKind, ChannelArrayKind)):
            continue
        element = () if idx is None else (idx,)
        if kind.delay == 0:
            if buf:
                counts[(chan, True) + element] = len(buf)
        else:
            free = heap.caps[chan] - len(buf)
            if free:
                counts[(chan, False) + element] = free
    return counts


def _silent_normalize(comp: Comp) -> Optional[Comp]:
    """Discharge decided guards (whose operand reduction has made a number)
    and empty iterator ranges.  Returns None when the comprehension reduces
    silently to the empty flowstate."""
    guards = list(comp.guards)
    while guards and not isinstance(guards[-1].operand, SVar):
        k = guards[-1].operand
        holds = count_in_range(k, k, guards[-1:])
        if holds is None:
            break
        if not holds:
            return None
        guards.pop()
    if comp.iterators:
        it = comp.iterators[-1]
        lo, hi = normalize_size(it.lo), normalize_size(it.hi)
        if isinstance(lo, Num) and isinstance(hi, Num) and lo.value > hi.value:
            # exhausted range: the event never fires
            return None
    return Comp(comp.event, comp.iterators, tuple(guards))


def _event_matches(ev: Event, label: Label) -> bool:
    if ev.chan != label.chan or ev.is_send != label.is_send:
        return False
    if label.index is None:
        return ev.index is None
    idx = normalize_size(ev.index) if ev.index is not None else None
    return isinstance(idx, Num) and idx.value == label.index


def try_consume_comp(comp: Comp, label: Label) -> Optional[list[Comp]]:
    """Residual comprehensions after `comp` emits `label` first, or None."""
    pending: list[Comp] = []
    current: Optional[Comp] = comp
    while True:
        current = _silent_normalize(current)
        if current is None:
            return None
        if not current.iterators:
            if current.guards:
                return None  # symbolic guard cannot be discharged
            if _event_matches(current.event, label):
                return pending
            return None
        it = current.iterators[-1]
        lo, hi = normalize_size(it.lo), normalize_size(it.hi)
        if not (isinstance(lo, Num) and isinstance(hi, Num)):
            return None
        head = subst_comp(Comp(current.event, current.iterators[:-1],
                               current.guards), it.var, lo)
        rest = Comp(current.event,
                    current.iterators[:-1] + (Iterator(it.var, Num(lo.value + 1), hi),),
                    current.guards)
        head_n = _silent_normalize(head)
        if head_n is None:
            current = rest
            continue
        inner = try_consume_comp(head_n, label)
        if inner is None:
            return None
        rest_n = _silent_normalize(rest)
        residual = inner + ([rest_n] if rest_n is not None else [])
        return pending + residual



def consume_actor_flow(comps: list[Comp], label: Label) -> Optional[list[Comp]]:
    """Consume one labeled event anywhere in the actor's comprehension list
    (sequencing inside an actor is reorderable)."""
    for i, comp in enumerate(comps):
        residual = try_consume_comp(comp, label)
        if residual is not None:
            rest = comps[:i] + residual + comps[i + 1:]
            return [c for c in rest if comp_occurrence_count(c) != 0]
    return None


def step_flowstate_internal(fs) -> list[Comp]:
    """Silent closure of an actor flowstate: numeric guards discharged,
    exhausted iterators dropped, comprehensions that provably emit nothing
    removed."""
    out = []
    for comp in flow_comps(fs):
        c = _silent_normalize(comp)
        if c is not None and comp_occurrence_count(c) != 0:
            out.append(c)
    return out


# ---------------------------------------------------------------------------
# Per-actor concrete flows aligned with the instantiated configuration
# ---------------------------------------------------------------------------

def actor_flows(net: Network, sizes: dict[str, int]) -> list[list[Comp]]:
    checker = Checker()
    flows: list[list[Comp]] = []

    def ground(flow) -> list[Comp]:
        for name in sizes:
            flow = subst_flow(flow, name, Num(sizes[name]))
        return step_flowstate_internal(flow)

    for part in proc_components(net.body):
        match part:
            case Stop():
                flows.append([])
            case ActorE(expr):
                _, flow = checker.infer(net.tenv, net.venv, expr)
                flows.append(ground(flow))
            case ActorComp(tvar, var, lo, hi, body):
                synth = checker.check_proc(net.tenv, net.venv, part)
                assert isinstance(synth, PArray)
                hi_n = normalize_size(
                    _ground_size(synth.hi, sizes))
                assert isinstance(hi_n, Num)
                for k in range(lo, hi_n.value + 1):
                    flows.append(ground(subst_flow(synth.body, synth.var, Num(k))))
            case Par():
                raise AssertionError("proc_components flattens parallel")
    if checker.diags:
        raise ValueError("network does not typecheck: "
                         + "; ".join(str(d) for d in checker.diags))
    return flows




def _ground_size(e, sizes: dict[str, int]):
    for name, value in sizes.items():
        e = subst_size(e, name, Num(value))
    return e


def oracle_check_preservation(net: Network, sizes: dict[str, int],
                              scheduler: str = "roundRobin", seed: int = 0,
                              drop: Optional[int] = None,
                              name: str = "<network>") -> ConformanceReport:
    """Co-simulates a run against the flowstates, checking on every
    communication that (1) producers extend the heap flowstate with the
    event, and (2) consumers discharge its complement from the heap
    flowstate, while the acting actor's flowstate reduces by the label."""
    cfg = instantiate(net, sizes)
    flows = actor_flows(net, sizes)
    index_of = {a.name: i for i, a in enumerate(cfg.actors)}
    violations: list[Violation] = []
    heap_before = heap_flow_counts(net.tenv, cfg.heap)
    if heap_before:
        violations.append(Violation(
            -1, "final", "eps",
            f"initial heap flowstate {_counts_str(heap_before)}"))
    state = {"heap_counts": heap_before}

    def observer(entry, after: Configuration):
        label = entry.label
        if label is None:
            return
        i = index_of[entry.actor]
        residual = consume_actor_flow(flows[i], label)
        if residual is None:
            violations.append(Violation(
                entry.step, "flow-reduction",
                f"{entry.actor} flowstate reduces by {label}",
                "; ".join(print_comp(c) for c in flows[i]) or "eps"))
        else:
            flows[i] = residual
        old = state["heap_counts"]
        new = heap_flow_counts(net.tenv, after.heap)
        element = () if label.index is None else (label.index,)
        key = (label.chan, label.is_send) + element
        comp_key = (label.chan, not label.is_send) + element
        if classify_event(net.tenv, Event(label.chan, label.is_send)) == PRODUCER:
            want = Counter(old)
            want[key] += 1
            if new != want:
                violations.append(Violation(
                    entry.step, "clause-1",
                    _counts_str(want), _counts_str(new)))
        else:
            want = Counter(new)
            want[comp_key] += 1
            if old != want:
                violations.append(Violation(
                    entry.step, "clause-2",
                    _counts_str(want), _counts_str(old)))
        state["heap_counts"] = new

    result = polling_run(cfg, scheduler=scheduler, seed=seed,
                         observer=observer, drop_send=drop)
    if result.status != "done":
        violations.append(Violation(
            result.steps, "run", "complete execution",
            f"{result.status}: {result.blocked}"))
    else:
        leftovers = [f"{cfg.actors[i].name}: "
                     + "; ".join(print_comp(c) for c in comps)
                     for i, comps in enumerate(flows) if comps]
        if leftovers:
            violations.append(Violation(
                result.steps, "final", "all actor flowstates at eps",
                " | ".join(leftovers)))
        final_counts = state["heap_counts"]
        if final_counts:
            violations.append(Violation(
                result.steps, "final", "heap flowstate back to eps",
                _counts_str(final_counts)))
    return ConformanceReport(name, dict(sizes), scheduler, seed,
                             result.steps, violations)


# ---------------------------------------------------------------------------
# The observer against the oracle
# ---------------------------------------------------------------------------

GRID_SIZES = (1, 2, 3, 4, 7)
GRID_SCHEDULES = (("roundRobin", 0), ("random", 1), ("random", 5))
GRID_DROPS = (None, 1, 2, 5)


@pytest.mark.parametrize("path", corpus_files("good"), ids=lambda p: p.stem)
def test_violations_match_the_oracle_over_the_corpus(path):
    # sizes x schedules x dropped sends: 60 runs per program, 1440 in all
    net = parse_program_or_raise(path.read_text())
    flagged = 0
    for size in GRID_SIZES:
        sizes = sizes_for(net, size)
        for scheduler, seed in GRID_SCHEDULES:
            for drop in GRID_DROPS:
                want = oracle_check_preservation(net, sizes, scheduler, seed,
                                                 drop)
                with dropped_push(drop):
                    got = conformance.check_preservation(net, sizes,
                                                         scheduler, seed)
                assert (got.steps, got.violations) == \
                    (want.steps, want.violations), (size, scheduler, seed, drop)
                flagged += bool(want.violations)
    assert flagged >= len(GRID_SIZES) * len(GRID_SCHEDULES)


def _walk(comps: list[Comp], labels: list[Label], rng: random.Random):
    """Reduce one actor's flowstate by labels drawn at random until no label
    applies, in the oracle and in the observer's piece list, comparing the
    silent closure, then the residual comprehensions and their text at each
    step."""
    flow = seq_flow(*comps)
    old = step_flowstate_internal(flow)
    pieces = conformance._silent_pieces(flow)
    assert [conformance._piece_comp(p) for p in pieces] == old
    while True:
        for label in rng.sample(labels, len(labels)):
            want = consume_actor_flow(old, label)
            assert conformance._consume_actor(pieces, label) == \
                (want is not None), (old, label)
            if want is not None:
                got = [conformance._piece_comp(p) for p in pieces]
                assert got == want, (old, label)
                assert [print_comp(c) for c in got] == \
                    [print_comp(c) for c in want]
                old = want
                break
        else:
            return old


ARRAY_LABELS = [Label(chan, is_send, k) for chan in ("a",)
                for is_send in (True, False) for k in range(0, 6)]
PLAIN_LABELS = [Label(chan, is_send) for chan in ("c", "d")
                for is_send in (True, False)]

HAND_BUILT = {
    "shadowed names": [
        comp(ev("c!"), it("t", 1, 3), it("t", 0, 2), Divides(Num(2), SVar("t"))),
        comp(ev("a!", "t"), it("t", 1, 2), it("u", 1, 2), it("t", 2, 3)),
    ],
    "0 | t from 0 and from 1": [
        comp(ev("c!"), it("t", 0, 3), Divides(Num(0), SVar("t"))),
        comp(ev("c!"), it("t", 1, 3), Divides(Num(0), SVar("t"))),
        comp(ev("c?"), it("u", 0, 2), it("t", 0, 2),
             Divides(Num(0), SVar("t"))),
    ],
    "AtMost": [
        comp(ev("c!"), it("t", 1, 6), AtMost(SVar("t"), Num(3))),
        comp(ev("c!"), AtMost(Num(4), Num(3))),
        comp(ev("d?"), AtMost(Num(2), Num(3)), it("t", 2, 4)),
    ],
    "array index expressions": [
        comp(Event("a", True, Add(SVar("t"), Num(1))), it("t", 1, 3)),
        comp(Event("a", False, Add(SVar("u"), SVar("t"))),
             it("u", 0, 2), it("t", 1, 2)),
        comp(ev("a?", 2), it("t", 1, 2)),
    ],
    "head cannot emit, a later piece can": [
        comp(ev("a?", "t"), it("t", 1, 3)),
        comp(ev("a?", 2)),
        comp(ev("c!"), it("t", 1, 4), Divides(Num(2), SVar("t"))),
    ],
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_flows_reduce_as_the_oracle(case):
    # none of these puts a guard on an outer iterator before one on an inner
    # iterator: there the oracle cannot skip an outer value whose head ends
    # in the inner guard, and refuses labels the flow emits
    rng = random.Random(case)
    for trial in range(20):
        _walk(HAND_BUILT[case], ARRAY_LABELS + PLAIN_LABELS, rng)


def _bound_guards(c: Comp) -> bool:
    names = {i.var for i in c.iterators}
    return all(not isinstance(g.operand, SVar) or g.operand.name in names
               for g in c.guards)


def test_generated_flows_reduce_as_the_oracle():
    rng = random.Random(2024)
    gen = ProgramGen(rng)
    gen.sizes = ["s"]
    walked = 0
    for trial in range(300):
        flow = subst_flow(gen.actor_flow(), "s", Num(rng.randint(0, 4)))
        comps = [c for c in flow_comps(flow) if _bound_guards(c)]
        if comps:
            _walk(comps, PLAIN_LABELS, rng)
            walked += 1
    assert walked > 200


# ---------------------------------------------------------------------------
# The observer against brute force, where the oracle gets stuck
# ---------------------------------------------------------------------------

def unroll(c: Comp) -> list[Label]:
    """The labels a ground comprehension emits, in loop order: the last
    iterator is the outermost loop and moves slowest, a name is bound to
    its first iterator, and every guard is evaluated at every point."""
    loops = c.iterators[::-1]
    labels = []
    for point in itertools.product(*(range(_value(i.lo, {}),
                                           _value(i.hi, {}) + 1)
                                     for i in loops)):
        env = {}
        for i, k in zip(loops, point):
            env[i.var] = k  # the first iterator of a name is bound last
        if all(_rel_holds("|", _value(g.divisor, env), _value(g.operand, env))
               if isinstance(g, Divides) else
               _rel_holds("<=", _value(g.operand, env), _value(g.bound, env))
               for g in c.guards):
            index = c.event.index
            labels.append(Label(c.event.chan, c.event.is_send, None
                                if index is None else _value(index, env)))
    return labels


def _value(e, env: dict) -> int:
    for name, k in env.items():
        e = subst_size(e, name, Num(k))
    e = normalize_size(e)
    assert isinstance(e, Num), e
    return e.value


def _reduce_as_unrolled(c: Comp):
    """Feed one comprehension's unrolled labels to the observer: each is
    consumed, and no piece is left.  On the way, every label the rest of
    the sequence does not hold is refused; one it holds later may be taken
    early, as the observer lets the rests of an array's elements commute."""
    labels = unroll(c)
    pieces = conformance._silent_pieces(c)
    assert sum(map(conformance._piece_count, pieces)) == len(labels), c
    universe = set(ARRAY_LABELS + PLAIN_LABELS + labels)
    for k, label in enumerate(labels + [None]):
        for other in universe - set(labels[k:]):
            assert not conformance._consume_actor(pieces, other), (c, other)
        if label is not None:
            assert conformance._consume_actor(pieces, label), (c, label)
    assert pieces == [], c


OUTER_GUARD_FIRST = [
    comp(ev("c!"), it("u", 1, 3), it("t", 1, 4),
         Divides(Num(2), SVar("t")), AtMost(SVar("u"), Num(2))),
    comp(ev("c?"), it("u", 0, 3), it("t", 1, 3),
         AtMost(SVar("u"), Num(1)), Divides(Num(3), SVar("t"))),
]


def test_outer_guard_before_inner_guard_reduces_as_unrolled():
    # the oracle refuses these once an outer value fails its guard
    for c in OUTER_GUARD_FIRST:
        _reduce_as_unrolled(c)


def test_unroll_binds_a_shadowed_name_to_its_first_iterator():
    c = comp(ev("a!", "t"), it("t", 1, 2), it("t", 5, 6),
             AtMost(SVar("t"), Num(1)))
    assert unroll(c) == 2 * [Label("a", True, 1)]


NAMES = ("t", "u")
SMALL = st.integers(0, 4).map(Num)


@st.composite
def ground_comprehensions(draw):
    """1-3 iterators over small ranges, a name sometimes shadowing another,
    and up to four `Divides`/`AtMost` guards in any order, a `0 |` divisor
    and guards on numbers among them."""
    iters = [Iterator(draw(st.sampled_from(NAMES)), draw(SMALL), draw(SMALL))
             for _ in range(draw(st.integers(1, 3)))]
    name = st.sampled_from(sorted({i.var for i in iters})).map(SVar)
    guard = st.one_of(st.builds(Divides, SMALL, name),
                      st.builds(AtMost, name, SMALL),
                      st.builds(Divides, SMALL, SMALL),
                      st.builds(AtMost, SMALL, SMALL))
    event = draw(st.one_of(
        st.just(ev("c!")), st.just(ev("c?")),
        name.map(lambda v: Event("a", True, v)),
        name.map(lambda v: Event("a", False, Add(v, Num(1))))))
    return Comp(event, tuple(iters),
                tuple(draw(st.lists(guard, max_size=4))))


@settings(max_examples=300, deadline=None)
@given(ground_comprehensions())
@example(comp(ev("c!"), it("u", 1, 3), it("t", 1, 4),
              Divides(Num(2), SVar("t")), AtMost(SVar("u"), Num(2))))
@example(comp(ev("c!"), it("t", 0, 3), it("t", 0, 2),
              Divides(Num(0), SVar("t"))))
def test_generated_comprehensions_reduce_as_unrolled(c):
    _reduce_as_unrolled(c)
