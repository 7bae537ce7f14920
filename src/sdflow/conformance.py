"""Mechanical checking of the soundness theorems by co-simulation.

The flowstate of each actor is reduced alongside execution: every
communication step of the machine must be matched by a flowstate reduction
with the same label, and the heap's own flowstate must absorb or discharge
the event according to whether it is a producer or a consumer.  Undelayed
channels record buffered items as pending sends; delayed channels record
freed slots as pending receives, so a full delay buffer (the initial and
steady state) contributes nothing.

Cost model: each ground comprehension is compiled once into a plan of
integers, which folds each guard into the iterator it names, and a residual
comprehension is a piece: a plan, the values of its fixed outer iterators
and where its outermost open range starts; an actor array is planned once,
its elements' pieces fixing its index.  A label fixes each open
iterator of the piece that emits it at the first value that passes its
guards, in closed form (the lexicographic next point of polyhedra
scanning), and counts only the new residual pieces, by
`flowstate.count_multiples`, so a step costs a small constant in the rate
and in the length of the actor.  A ground flowstate is held in this one
form, a list of pieces; a piece becomes a comprehension again only for the
text of a violation.  On the heap side, a label's buffer count and whether
it produces are found once; a step recounts only its buffer, from its new
fill on the heap, so the two clauses still compare two independent views.
Each part's flowstate is the checker's (`Checker.check_proc`), and each
stuck sample's reasons are the search's polls (`ExploreResult.blocked`).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional

from .flowstate import count_in_range, count_multiples
from .netcheck import PRODUCER, classify_event
from .kinding import eval_size, normalize_size
from .runtime import (
    Configuration, Heap, Label, buffer_name, explore, instantiate, run,
)
from .syntax import (
    ActorFlow, Comp, Divides, Env, Event, Iterator, Network, Num, PActor,
    PArray, SVar, flow_comps, proc_components, print_comp, subst_comp,
    subst_flow, subst_size, record,
)
from .typecheck import Checker

CountKey = tuple  # (chan, is_send) or (chan, is_send, element)


# ---------------------------------------------------------------------------
# The heap's flowstate, as counts
# ---------------------------------------------------------------------------

def heap_flow_counts(tenv: Env, heap: Heap) -> Counter:
    """Pending communications recorded by the heap, as concrete counts."""
    counts: Counter = Counter()
    sends_produce = {chan: _send_produces(tenv, chan) for chan in heap.caps}
    for key in heap.bufs:
        count_key, n = _buffer_count(sends_produce[key[0]], heap, key)
        if n:
            counts[count_key] = n
    return counts


def _send_produces(tenv: Env, chan: str) -> bool:
    return classify_event(tenv, Event(chan, True)) == PRODUCER


def _buffer_count(send_produces: bool, heap: Heap, key: tuple
                  ) -> tuple[CountKey, int]:
    """The one count a buffer records, from its fill: the pending producer
    events of its channel (`netcheck.classify_event`), buffered items where
    a send produces, free slots where a receive does."""
    chan, idx = key
    element = () if idx is None else (idx,)
    fill = len(heap.bufs[key])
    if send_produces:
        return (chan, True) + element, fill
    return (chan, False) + element, heap.caps[chan] - fill


# ---------------------------------------------------------------------------
# Flowstate reduction (concrete labels)
#
# A residual comprehension is a piece, `(plan, values, open)`: iterator i is
# fixed to `values[i]` when i >= open and otherwise ranges from `values[i]`
# to its bound; only the outermost open one, open - 1, starts past its lower
# bound.  The plan has folded each guard into the iterator it names, so a
# fixed value always passes its guards and a piece holds none.
# ---------------------------------------------------------------------------

class _Plan:
    """A ground comprehension compiled to integers.  Its event is `chan`,
    `is_send` and `index`, None on a plain channel.  Each iterator is
    `(var, lo, hi)`.  A guard on a name is folded into the first iterator of
    that name, the one a substitution reaches: `steps[j]` is `[d, top]`, the
    lcm of that iterator's divisors and its least bound, so a value passes
    its guards when it is a multiple of d (0 only, when d is 0) and at most
    top.  A guard on a number is decided here, and `inner[j]` is the number
    of points of iterators 0..j-1, all 0 when such a guard fails."""

    __slots__ = ("comp", "chan", "is_send", "index", "iters", "first",
                 "start", "steps", "inner")

    def __init__(self, comp: Comp):
        self.comp = comp
        self.chan, self.is_send = comp.event.chan, comp.event.is_send
        self.index = comp.event.index
        self.iters = [(it.var, _ground(it.lo), _ground(it.hi))
                      for it in comp.iterators]
        self.start = tuple(lo for _, lo, _ in self.iters)
        self.first: dict = {}
        for j, it in enumerate(comp.iterators):
            self.first.setdefault(it.var, j)
        self.steps = [[1, hi] for _, _, hi in self.iters]
        ok = True
        for g in comp.guards:
            if not isinstance(g.operand, SVar):
                ok = ok and count_in_range(g.operand, g.operand, [g]) == 1
                continue
            assert g.operand.name in self.first, f"unbound {g.operand}"
            step = self.steps[self.first[g.operand.name]]
            if isinstance(g, Divides):
                step[0] = math.lcm(step[0], _ground(g.divisor))
            else:
                step[1] = min(step[1], _ground(g.bound))
        self.inner = [int(ok)]
        for lo, (d, top) in zip(self.start, self.steps):
            self.inner.append(self.inner[-1] * count_multiples(lo, top, d))


def _ground(e) -> int:
    # the checker bounds loops by sizes, which grounding makes numbers
    n = normalize_size(e)
    assert isinstance(n, Num), f"{n} is not ground"
    return n.value


def _consume(piece, label: Label) -> Optional[list]:
    """The residual pieces with a nonzero count after `piece` emits `label`
    first, or None, where the piece has a nonzero count and the label's
    channel and direction: each open iterator, outermost first, is fixed at
    its first value that passes its guards, leaving a rest one past it."""
    plan, values, open = piece
    rests = []
    for j in range(open - 1, -1, -1):
        d = plan.steps[j][0]
        v = -(-values[j] // d) * d if d else 0
        values = values[:j] + (v,) + values[j + 1:]
        rest = (plan, values[:j] + (v + 1,) + values[j + 1:], j + 1)
        if _piece_count(rest):
            rests.append(rest)
    index = plan.index if plan.index is None else _index(plan, values)
    return rests[::-1] if index == label.index else None  # innermost first


def _index(plan: _Plan, values: tuple):
    e = plan.index
    if e.__class__ is SVar and e.name in plan.first:
        return values[plan.first[e.name]]
    for name, j in plan.first.items():
        e = subst_size(e, name, Num(values[j]))
    e = normalize_size(e)
    return e.value if isinstance(e, Num) else e


def _piece_count(piece) -> int:
    """Events a piece will emit, in closed form: the values of its outermost
    open iterator that pass their guards, times the points inside it."""
    plan, values, open = piece
    if not open:
        return plan.inner[0]
    d, top = plan.steps[open - 1]
    return count_multiples(values[open - 1], top, d) * plan.inner[open - 1]


def _piece_comp(piece) -> Comp:
    """The comprehension a piece stands for, built as reduction on
    comprehensions builds it: one `subst_comp` per fixed iterator, and the
    guards up to the last one whose name an open iterator still binds."""
    plan, values, open = piece
    comp = plan.comp
    for j in range(len(plan.iters) - 1, open - 1, -1):
        comp = subst_comp(Comp(comp.event, comp.iterators[:j], comp.guards),
                          plan.iters[j][0], Num(values[j]))
    iters = comp.iterators
    if open and values[open - 1] != plan.start[open - 1]:
        iters = iters[:-1] + (Iterator(iters[-1].var, Num(values[open - 1]),
                                       iters[-1].hi),)
    keep = max((i + 1 for i, g in enumerate(comp.guards)
                if isinstance(g.operand, SVar)), default=0)
    return Comp(comp.event, iters, comp.guards[:keep])


def comp_occurrence_count(comp: Comp) -> Optional[int]:
    """Number of events a comprehension will emit, in closed form: the
    product over its iterators of the values that pass that iterator's
    guards.  A guard on a name is the first iterator of that name's, as in
    `_Plan`.  0 when a decided guard fails or some factor is empty; None
    when a bound or guard stays symbolic and no factor is provably 0."""
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
        n = count_in_range(it.lo, it.hi, by_var.pop(it.var, ()))
        if n == 0:
            return 0
        total = None if n is None or total is None else total * n
    return total


def _consume_actor(pieces: list, label: Label) -> bool:
    """Consume one labeled event, in place, from the first of an actor's
    pieces that can emit it first (sequencing inside an actor is
    reorderable); False when none can.  Every piece in the list has a
    nonzero count."""
    for i, piece in enumerate(pieces):
        plan = piece[0]
        if plan.chan == label.chan and plan.is_send == label.is_send:
            residual = _consume(piece, label)
            if residual is not None:
                pieces[i:i + 1] = residual
                return True
    return False


def _silent_pieces(fs: ActorFlow) -> list:
    """The pieces of a ground actor flowstate that can still emit."""
    out = []
    for comp in flow_comps(fs):
        plan = _Plan(comp)
        piece = (plan, plan.start, len(plan.iters))
        if _piece_count(piece):
            out.append(piece)
    return out


# ---------------------------------------------------------------------------
# Per-actor concrete flows aligned with the instantiated configuration
# ---------------------------------------------------------------------------

def _element_pieces(body: ActorFlow, var: str, lo: int, hi: int) -> list:
    """The pieces of elements lo..hi of an actor array whose flowstate,
    `body`, is ground but for `var`, as grounding each alone gives them."""
    plans = []
    for comp in flow_comps(body):
        m = len(comp.iterators)
        plan = _Plan(Comp(comp.event, comp.iterators
                          + (Iterator(var, Num(lo), Num(hi)),), comp.guards))
        if plan.inner[m]:
            plans.append((plan, plan.start[:m], m, *plan.steps[m]))
    flows = []
    for k in range(lo, hi + 1):  # with no Python-level call per element
        pieces = []
        for plan, start, m, d, top in plans:
            if k <= top and (k % d == 0 if d else k == 0):
                pieces.append((plan, start + (k,), m))
        flows.append(pieces)
    return flows


def actor_flows(net: Network, sizes: dict[str, int]) -> list[list]:
    """Each actor's flowstate grounded at `sizes`, as its pieces, in the
    order of the instantiated configuration."""
    flows: list[list] = []

    def ground(flow):
        for name in sizes:
            flow = subst_flow(flow, name, Num(sizes[name]))
        return flow

    for flow in _inferred(net):
        match flow:
            case PActor(actor):
                flows.append(_silent_pieces(ground(actor)))
            case PArray(var, Num(lo), hi, body):
                # the checker keeps the index from shadowing a size name
                flows += _element_pieces(ground(body), var, lo,
                                         eval_size(hi, sizes))
            case _:
                flows.append([])
    return flows


def _inferred(net: Network) -> list:
    """The flowstate the checker gives each part of `net` (`check_proc`),
    ungrounded: `PEmpty` for `stop`, `PActor` for an actor and `PArray`
    for an actor array.  They are kept on the network the first time, as
    `flowstate` keeps a rate summary, so a network checked again is not
    typed again; nothing is kept when inference fails."""
    inferred = net.__dict__.get("_inferred")
    if inferred is not None:
        return inferred
    checker = Checker()
    inferred = [checker.check_proc(net.tenv, net.venv, part)
                for part in proc_components(net.body)]
    if checker.diags:
        raise ValueError("network does not typecheck: "
                         + "; ".join(str(d) for d in checker.diags))
    net.__dict__["_inferred"] = inferred
    return inferred


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
                       name: str = "<network>") -> ConformanceReport:
    """Co-simulates a run against the flowstates, checking on every
    communication that (1) producers extend the heap flowstate with the
    event, and (2) consumers discharge its complement from the heap
    flowstate, while the acting actor's flowstate reduces by the label."""
    cfg = instantiate(net, sizes)
    flows = actor_flows(net, sizes)
    pieces_of = {a.name: pieces for a, pieces in zip(cfg.actors, flows)}
    violations: list[Violation] = []
    counts = heap_flow_counts(net.tenv, cfg.heap)  # kept current below
    if counts:
        violations.append(Violation(
            -1, "final", "eps",
            f"initial heap flowstate {_counts_str(counts)}"))
    # id of a label -> its count key, producer?, capacity if counting slots
    facts = {}
    sends_produce = {chan: _send_produces(net.tenv, chan)
                     for chan in cfg.heap.caps}
    for key, labels in cfg.heap.labels.items():
        produces = sends_produce[key[0]]
        count_key = _buffer_count(produces, cfg.heap, key)[0]
        cap = None if produces else cfg.heap.caps[key[0]]
        for label in labels:
            facts[id(label)] = count_key, label.is_send == produces, cap

    def observer(entry, after: Configuration):
        label = entry.label
        if label is None:
            return
        pieces = pieces_of[entry.actor]
        if not _consume_actor(pieces, label):
            violations.append(Violation(
                entry.step, "flow-reduction",
                f"{entry.actor} flowstate reduces by {label}",
                "; ".join(print_comp(_piece_comp(p)) for p in pieces)
                or "eps"))
        # recount the buffer the step pushed or popped, from its new fill
        # on the heap: its one count is the producer event's, so a producer
        # adds 1 to it and a consumer, discharging its complement, takes 1
        key, producer, cap = facts[id(label)]
        n = entry.fill if cap is None else cap - entry.fill
        old = counts.pop(key, 0)
        if n:
            counts[key] = n
        if n - old != (1 if producer else -1):
            before = +Counter({**counts, key: old})  # `+` drops zero counts
            want = Counter(before if producer else counts)
            want[key] += 1
            violations.append(Violation(
                entry.step, "clause-1" if producer else "clause-2",
                _counts_str(want), _counts_str(counts if producer else before)))

    result = run(cfg, scheduler=scheduler, seed=seed, observer=observer)
    if result.status != "done":
        violations.append(Violation(
            result.steps, "run", "complete execution",
            f"{result.status}: {result.blocked}"))
    else:
        leftovers = [f"{cfg.actors[i].name}: "
                     + "; ".join(print_comp(_piece_comp(p)) for p in pieces)
                     for i, pieces in enumerate(flows) if pieces]
        if leftovers:
            violations.append(Violation(
                result.steps, "final", "all actor flowstates at eps",
                " | ".join(leftovers)))
        if counts:
            violations.append(Violation(
                result.steps, "final", "heap flowstate back to eps",
                _counts_str(counts)))
    return ConformanceReport(name, dict(sizes), scheduler, seed,
                             result.steps, violations)


@record
class ProgressReport:
    network: str
    sizes: dict
    states: int
    complete: bool
    stuck: list
    truncated: bool
    cycle: bool

    @property
    def ok(self) -> bool:
        return self.complete and not self.stuck and not self.truncated

    def to_json(self) -> dict:
        out = {"network": self.network, "sizes": self.sizes,
               "states": self.states, "complete": self.complete,
               "stuckStates": self.stuck, "truncated": self.truncated}
        return {**out, "cycle": True} if self.cycle else out


def check_progress_theorem(net: Network, sizes: dict[str, int],
                           max_states: int = 300_000,
                           name: str = "<network>") -> ProgressReport:
    """Exhaustively explores interleavings and reports any reachable
    configuration that is neither finished nor able to step, and whether
    some interleaving runs forever (a cycle)."""
    cfg = instantiate(net, sizes)
    result = explore(cfg, max_states=max_states)
    # every live actor of a stuck configuration is Blocked or Stuck
    stuck_desc = [{"actors": {a.name: reasons.get(a.name, "done")
                              for a in s.actors},
                   "buffers": s.heap.buffer_sizes()}
                  for s, reasons in zip(result.stuck, result.blocked)]
    return ProgressReport(name, dict(sizes), result.states,
                          result.any_complete and result.all_complete,
                          stuck_desc, result.truncated, result.cycle)
