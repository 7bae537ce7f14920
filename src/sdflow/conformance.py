"""Mechanical checking of the soundness theorems by co-simulation.

The flowstate of each actor is reduced alongside execution: every
communication step of the machine must be matched by a flowstate reduction
with the same label, and the heap's own flowstate must absorb or discharge
the event according to whether it is a producer or a consumer.  Undelayed
channels record buffered items as pending sends; delayed channels record
freed slots as pending receives, so a full delay buffer (the initial and
steady state) contributes nothing.

Cost model: each ground comprehension is compiled once into a plan of
integers, and a residual comprehension is a piece: a plan, the values of its
fixed outer iterators, where its outermost open range starts and how many
guards are left.  A label unrolls only the head of the piece that emits it,
by index arithmetic, and counts only the new residual pieces, in closed form
(`flowstate.count_multiples`), so a step costs a small constant in the rate
and in the length of the actor.  A piece becomes a comprehension again only
for text and for `step_flowstate`.  On the heap side, `Heap.touched` names
the buffers a step pushed or popped; only those are recounted, from the
heap, so the two clauses still compare two independent views.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional

from .flowstate import count_in_range, count_multiples
from .netcheck import PRODUCER, classify_event
from .kinding import eval_size, normalize_size
from .runtime import (
    Configuration, Fault, Heap, Label, buffer_name, channel_payloads, explore,
    instantiate, run, step_expr,
)
from .syntax import (
    ActorComp, ActorE, ActorFlow, BoolLit, BoolType, ChannelArrayKind,
    ChannelKind, Comp, Diagnostic, Divides, Env, Event, IntLit, IntType,
    Iterator, Network, Num, PActor, PArray, ProcFlow, SizeType, Stop,
    SVar, flow_comps, par_flow, proc_components, proc_flow_components,
    print_comp, seq_flow, subst_comp, subst_flow, subst_size, MkSize, MkIndex,
    record,
)
from .typecheck import Checker

CountKey = tuple  # (chan, is_send) or (chan, is_send, element)


# ---------------------------------------------------------------------------
# Heap typing
# ---------------------------------------------------------------------------

def _value_has_type(value, ty) -> bool:
    match value:
        case IntLit():
            return isinstance(ty, IntType)
        case BoolLit():
            return isinstance(ty, BoolType)
        case MkSize(IntLit()):
            return isinstance(ty, SizeType)
        case MkIndex(IntLit()):
            return True  # index witnesses are not tracked at runtime
        case _:
            return True


def heap_flow_counts(tenv: Env, heap: Heap) -> Counter:
    """Pending communications recorded by the heap, as concrete counts."""
    counts: Counter = Counter()
    kinds: dict = {}
    for key in heap.bufs:
        chan = key[0]
        if chan not in kinds:
            kinds[chan] = tenv.lookup(chan)
        if isinstance(kinds[chan], (ChannelKind, ChannelArrayKind)):
            count_key, n = _buffer_count(kinds[chan], heap, key)
            if n:
                counts[count_key] = n
    return counts


def _buffer_count(kind, heap: Heap, key: tuple) -> tuple[CountKey, int]:
    """The one count a buffer records, from its fill: buffered items of an
    undelayed channel as sends, free slots of a delayed one as receives."""
    chan, idx = key
    element = () if idx is None else (idx,)
    fill = len(heap.bufs[key])
    if kind.delay == 0:
        return (chan, True) + element, fill
    return (chan, False) + element, heap.caps[chan] - fill


def heap_flowstate(tenv: Env, venv: Env, heap: Heap
                   ) -> tuple[ProcFlow, list[Diagnostic]]:
    """The heap's flowstate, plus diagnostics for ill-typed buffer contents."""
    diags: list[Diagnostic] = []
    payload = channel_payloads(venv)
    for key, buf in heap.bufs.items():
        want = payload.get(key[0])
        if want is None:
            continue
        for v in buf:
            if not _value_has_type(v, want):
                diags.append(Diagnostic("Heap", f"buffer {buffer_name(key)} "
                                        "holds a value of the wrong type"))
    comps = []
    for key, n in sorted(heap_flow_counts(tenv, heap).items(),
                         key=lambda kv: str(kv[0])):
        chan, is_send = key[0], key[1]
        index = Num(key[2]) if len(key) == 3 else None
        comps.append(PActor(Comp(Event(chan, is_send, index),
                                 (Iterator("t", Num(1), Num(n)),))))
    return par_flow(*comps), diags


# ---------------------------------------------------------------------------
# Flowstate reduction (concrete labels)
#
# A residual comprehension is a piece, `(plan, values, open, guards)`:
# iterator i is fixed to `values[i]` when i >= open and otherwise ranges
# from `values[i]` to its bound (only the outermost open one, open - 1,
# moves), and the first `guards` guards are left.  Decided guards are
# popped off the end only, as substitution decides them, and a guard whose
# name an open iterator binds is undecided.
# ---------------------------------------------------------------------------

class _Plan:
    """A ground comprehension compiled to integers: each iterator as
    `(var, lo, hi)` and each guard as `(divides, slot, parameter)`.  The
    slot of an operand is the index of the first iterator of its name, the
    one a substitution reaches; a numeric operand gets a slot after them,
    holding its value in `start`, so it is decided from the outset."""

    __slots__ = ("comp", "iters", "first", "guards", "start")

    def __init__(self, comp: Comp):
        self.comp = comp
        self.iters = [(it.var, _ground(it.lo), _ground(it.hi))
                      for it in comp.iterators]
        self.first: dict = {}
        for j, it in enumerate(comp.iterators):
            self.first.setdefault(it.var, j)
        start = [lo for _, lo, _ in self.iters]
        self.guards = []
        for g in comp.guards:
            if isinstance(g.operand, SVar):
                assert g.operand.name in self.first, f"unbound {g.operand}"
                slot = self.first[g.operand.name]
            else:
                slot = len(start)
                start.append(_ground(g.operand))
            divides = isinstance(g, Divides)
            self.guards.append(
                (divides, slot, _ground(g.divisor if divides else g.bound)))
        self.start = tuple(start)


def _ground(e) -> int:
    # the checker bounds loops by sizes, which grounding makes numbers
    n = normalize_size(e)
    assert isinstance(n, Num), f"{n} is not ground"
    return n.value


def _holds(divides: bool, value: int, param: int) -> bool:
    if divides:
        return value % param == 0 if param else value == 0
    return value <= param


def _settle(plan: _Plan, values: tuple, open: int, guards: int):
    """Silent reduction: the piece with its decided guards popped, or None
    when one fails or the outermost open range is empty."""
    while guards:
        divides, slot, param = plan.guards[guards - 1]
        if slot < open:
            break
        if not _holds(divides, values[slot], param):
            return None
        guards -= 1
    if open and values[open - 1] > plan.iters[open - 1][2]:
        return None
    return plan, values, open, guards


def _consume(piece, label: Label) -> Optional[list]:
    """Residual pieces after `piece` emits `label` first, or None: the
    outermost open iterator splits into a head at its value and a rest after
    it, a silently empty head is skipped, and the first head that is not is
    reduced in turn."""
    plan, values, open, guards = piece
    rests = []
    while open:
        head = _settle(plan, values, open - 1, guards)
        rest = _settle(plan, values[:open - 1] + (values[open - 1] + 1,)
                       + values[open:], open, guards)
        if head is None:
            if rest is None:
                return None
            values = rest[1]
            continue
        if rest is not None:
            rests.append(rest)
        open, guards = head[2], head[3]
    event = plan.comp.event
    if guards or (event.chan, event.is_send) != (label.chan, label.is_send):
        return None
    if label.index is None:
        matches = event.index is None
    else:
        matches = event.index is not None and \
            _index(plan, values) == label.index
    return rests[::-1] if matches else None  # innermost first


def _index(plan: _Plan, values: tuple) -> Optional[int]:
    e = plan.comp.event.index
    if e.__class__ is SVar and e.name in plan.first:
        return values[plan.first[e.name]]
    for name, j in plan.first.items():
        e = subst_size(e, name, Num(values[j]))
    e = normalize_size(e)
    return e.value if isinstance(e, Num) else None


def _piece_count(piece) -> int:
    """Events a piece will emit, as `comp_occurrence_count` counts its
    comprehension: 0 when a decided guard fails, else the product over open
    iterators of the values that pass the guards on the iterator's name."""
    plan, values, open, guards = piece
    on: dict = {}  # name -> (lcm of its divisors, least bound)
    for divides, slot, param in plan.guards[:guards]:
        if slot >= open:
            if not _holds(divides, values[slot], param):
                return 0
            continue
        d, top = on.get(plan.iters[slot][0], (1, math.inf))
        on[plan.iters[slot][0]] = (math.lcm(d, param), top) if divides \
            else (d, min(top, param))
    total = 1
    for i, (var, _, hi) in enumerate(plan.iters[:open]):
        d, top = on.get(var, (1, hi))
        total *= count_multiples(values[i], min(top, hi), d)
    return total


def _piece_comp(piece) -> Comp:
    """The comprehension a piece stands for, built as reduction on
    comprehensions builds it: one `subst_comp` per fixed iterator."""
    plan, values, open, guards = piece
    comp = plan.comp
    for j in range(len(plan.iters) - 1, open - 1, -1):
        comp = subst_comp(Comp(comp.event, comp.iterators[:j], comp.guards),
                          plan.iters[j][0], Num(values[j]))
    iters = comp.iterators
    if open and values[open - 1] != plan.start[open - 1]:
        iters = iters[:-1] + (Iterator(iters[-1].var, Num(values[open - 1]),
                                       iters[-1].hi),)
    return Comp(comp.event, iters, comp.guards[:guards])


def comp_occurrence_count(comp: Comp) -> Optional[int]:
    """Number of events a comprehension will emit, in closed form: the
    product over its iterators of the values that pass that iterator's
    guards.  0 when a decided guard fails or some factor is empty; None when
    a bound or guard stays symbolic and no factor is provably 0."""
    by_var: dict[str, list] = {it.var: [] for it in comp.iterators}
    total: Optional[int] = 1
    for g in comp.guards:
        k = g.operand
        if isinstance(k, SVar) and k.name in by_var:
            by_var[k.name].append(g)
            continue
        # a decided guard holds once or never; one on a name no iterator
        # binds stays undecided
        holds = count_in_range(k, k, [g])
        if holds == 0:
            return 0
        if holds is None:
            total = None
    for it in comp.iterators:
        n = count_in_range(it.lo, it.hi, by_var[it.var])
        if n == 0:
            return 0
        total = None if n is None or total is None else total * n
    return total


def _consume_actor(pieces: list, label: Label) -> bool:
    """Consume one labeled event, in place, from the first of an actor's
    pieces that can emit it first (sequencing inside an actor is
    reorderable); False when none can.  Pieces already in the list have a
    nonzero count, so only new ones are counted."""
    for i, piece in enumerate(pieces):
        event = piece[0].comp.event
        if event.chan == label.chan and event.is_send == label.is_send:
            residual = _consume(piece, label)
            if residual is not None:
                pieces[i:i + 1] = [r for r in residual if _piece_count(r)]
                return True
    return False


def _silent_pieces(fs: ActorFlow) -> list:
    """The pieces of a ground actor flowstate that can still emit."""
    out = []
    for comp in flow_comps(fs):
        plan = _Plan(comp)
        piece = _settle(plan, plan.start, len(plan.iters), len(plan.guards))
        if piece and _piece_count(piece):
            out.append(piece)
    return out


def step_flowstate_internal(fs: ActorFlow) -> list[Comp]:
    """Silent closure of a ground actor flowstate: numeric guards
    discharged, exhausted iterators dropped, comprehensions that provably
    emit nothing removed."""
    return [_piece_comp(p) for p in _silent_pieces(fs)]


def step_flowstate(tenv: Env, fs: ProcFlow, label: Label
                   ) -> Optional[ProcFlow]:
    """One labeled reduction of a ground process flowstate, or None when no
    component can emit the label."""
    parts = proc_flow_components(fs)
    for i, part in enumerate(parts):
        if not isinstance(part, PActor):
            continue
        pieces = _silent_pieces(part.flow)
        if _consume_actor(pieces, label):
            new_parts = list(parts)
            new_parts[i] = PActor(seq_flow(*map(_piece_comp, pieces)))
            return par_flow(*new_parts)
    return None


# ---------------------------------------------------------------------------
# Per-actor concrete flows aligned with the instantiated configuration
# ---------------------------------------------------------------------------

def actor_flows(net: Network, sizes: dict[str, int]) -> list[list]:
    """Each actor's flowstate grounded at `sizes`, as its pieces, in the
    order of the instantiated configuration."""
    checker = Checker()
    flows: list[list] = []

    def ground(flow):
        for name in sizes:
            flow = subst_flow(flow, name, Num(sizes[name]))
        return flow

    for part in proc_components(net.body):
        match part:
            case Stop():
                flows.append([])
            case ActorE(expr):
                _, flow = checker.infer(net.tenv, net.venv, expr)
                flows.append(_silent_pieces(ground(flow)))
            case ActorComp(tvar, var, lo, hi, body):
                synth = checker.check_proc(net.tenv, net.venv, part)
                assert isinstance(synth, PArray)
                # the checker keeps the index from shadowing a size name
                body = ground(synth.body)
                for k in range(lo, eval_size(synth.hi, sizes) + 1):
                    flows.append(_silent_pieces(
                        subst_flow(body, synth.var, Num(k))))
    if checker.diags:
        raise ValueError("network does not typecheck: "
                         + "; ".join(str(d) for d in checker.diags))
    return flows


# ---------------------------------------------------------------------------
# Theorem checking
# ---------------------------------------------------------------------------

@record
class Violation:
    step: int
    clause: str    # "flow-reduction" | "clause-1" | "clause-2" | "final" | "run"
    expected: str
    actual: str

    def to_json(self) -> dict:
        return {"step": self.step, "clause": self.clause,
                "expected": self.expected, "actual": self.actual}


@record
class ConformanceReport:
    network: str
    sizes: dict
    scheduler: str
    seed: int
    steps: int
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"network": self.network, "sizes": self.sizes,
                "scheduler": self.scheduler, "seed": self.seed,
                "steps": self.steps,
                "violations": [v.to_json() for v in self.violations]}


def _counts_str(counts: Counter) -> str:
    if not counts:
        return "eps"
    parts = []
    for key in sorted(counts, key=str):
        name = buffer_name((key[0], key[2] if len(key) == 3 else None))
        parts.append(f"<{counts[key]}>{name}{'!' if key[1] else '?'}")
    return " ; ".join(parts)


def check_preservation(net: Network, sizes: dict[str, int],
                       scheduler: str = "roundRobin", seed: int = 0,
                       fault: Optional[Fault] = None,
                       name: str = "<network>") -> ConformanceReport:
    """Co-simulates a run against the flowstates, checking on every
    communication that (1) producers extend the heap flowstate with the
    event, and (2) consumers discharge its complement from the heap
    flowstate, while the acting actor's flowstate reduces by the label."""
    cfg = instantiate(net, sizes)
    flows = actor_flows(net, sizes)
    index_of = {a.name: i for i, a in enumerate(cfg.actors)}
    violations: list[Violation] = []
    counts = heap_flow_counts(net.tenv, cfg.heap)  # kept current below
    if counts:
        violations.append(Violation(
            -1, "final", "eps",
            f"initial heap flowstate {_counts_str(counts)}"))
    kinds = {chan: net.tenv.lookup(chan) for chan in cfg.heap.caps}
    produces = {(chan, is_send): classify_event(
                    net.tenv, Event(chan, is_send)) == PRODUCER
                for chan in kinds for is_send in (True, False)}
    cfg.heap.touched = set()

    def observer(entry, after: Configuration):
        label = entry.label
        if label is None:
            return
        pieces = flows[index_of[entry.actor]]
        if not _consume_actor(pieces, label):
            violations.append(Violation(
                entry.step, "flow-reduction",
                f"{entry.actor} flowstate reduces by {label}",
                "; ".join(print_comp(_piece_comp(p)) for p in pieces)
                or "eps"))
        # recount the buffers the step changed, from the heap
        heap = after.heap
        old: dict = {}
        for key in heap.touched:
            count_key, n = _buffer_count(kinds[key[0]], heap, key)
            old[count_key] = counts.pop(count_key, 0)
            if n:
                counts[count_key] = n
        heap.touched.clear()
        # a producer adds its event to the heap flowstate, a consumer takes
        # away its complement's
        producer = produces[label.chan, label.is_send]
        key = (label.chan, label.is_send == producer) + (
            () if label.index is None else (label.index,))
        change = 1 if producer else -1
        if key not in old or any(counts.get(k, 0) - n != (k == key) * change
                                 for k, n in old.items()):
            before = +Counter({**counts, **old})  # `+` drops zero counts
            want = Counter(before if producer else counts)
            want[key] += 1
            violations.append(Violation(
                entry.step, "clause-1" if producer else "clause-2",
                _counts_str(want), _counts_str(counts if producer else before)))

    result = run(cfg, scheduler=scheduler, seed=seed, observer=observer,
                 fault=fault)
    if result.status != "done":
        violations.append(Violation(
            len(result.trace), "run", "complete execution",
            f"{result.status}: {result.blocked}"))
    else:
        leftovers = [f"{cfg.actors[i].name}: "
                     + "; ".join(print_comp(_piece_comp(p)) for p in pieces)
                     for i, pieces in enumerate(flows) if pieces]
        if leftovers:
            violations.append(Violation(
                len(result.trace), "final", "all actor flowstates at eps",
                " | ".join(leftovers)))
        if counts:
            violations.append(Violation(
                len(result.trace), "final", "heap flowstate back to eps",
                _counts_str(counts)))
    return ConformanceReport(name, dict(sizes), scheduler, seed,
                             len(result.trace), violations)


@record
class ProgressReport:
    network: str
    sizes: dict
    states: int
    complete: bool
    stuck: list
    truncated: bool

    @property
    def ok(self) -> bool:
        return self.complete and not self.stuck and not self.truncated

    def to_json(self) -> dict:
        return {"network": self.network, "sizes": self.sizes,
                "states": self.states, "complete": self.complete,
                "stuckStates": self.stuck, "truncated": self.truncated}


def check_progress_theorem(net: Network, sizes: dict[str, int],
                           max_states: int = 300_000,
                           name: str = "<network>") -> ProgressReport:
    """Exhaustively explores interleavings and reports any reachable
    configuration that is neither finished nor able to step."""
    cfg = instantiate(net, sizes)
    result = explore(cfg, max_states=max_states)
    stuck_desc = []
    for s in result.stuck:
        # every live actor of a stuck configuration is Blocked or Stuck
        residual = {a.name: "done" if a.done else
                    step_expr(a.expr, s.heap, a.name, s.venv).reason
                    for a in s.actors}
        stuck_desc.append({"actors": residual,
                           "buffers": s.heap.buffer_sizes()})
    return ProgressReport(name, dict(sizes), result.states,
                          result.any_complete and result.all_complete,
                          stuck_desc, result.truncated)
