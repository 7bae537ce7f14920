"""Mechanical checking of the soundness theorems by co-simulation.

The flowstate of each actor is reduced alongside execution: every
communication step of the machine must be matched by a flowstate reduction
with the same label, and the heap's own flowstate must absorb or discharge
the event according to whether it is a producer or a consumer.  Undelayed
channels record buffered items as pending sends; delayed channels record
freed slots as pending receives, so a full delay buffer (the initial and
steady state) contributes nothing.

Cost model: each label unrolls only the head of the comprehension that emits
it and counts every residual comprehension once, in closed form
(`flowstate.count_in_range`), so a co-simulation is linear in the rate.  Heap
counts are recomputed from the heap on every step, so both clauses compare
two independent views.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .flowstate import count_in_range
from .netcheck import PRODUCER, classify_event
from .kinding import normalize_size
from .printer import print_comp
from .runtime import (
    Configuration, Fault, Heap, Label, buffer_name, channel_payloads, explore,
    instantiate, run, step_expr,
)
from .syntax import (
    ActorComp, ActorE, BoolLit, BoolType, ChannelArrayKind, ChannelKind, Comp,
    Diagnostic, Env, Event, IntLit, IntType, Iterator, Network, Num, PActor,
    Par, PArray, ProcFlow, SizeType, Stop, SVar, flow_comps, par_flow,
    proc_components, proc_flow_components, seq_flow, subst_comp, subst_flow,
    subst_size, MkSize, MkIndex, record,
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
# ---------------------------------------------------------------------------

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


def step_flowstate(tenv: Env, fs: ProcFlow, label: Label
                   ) -> Optional[ProcFlow]:
    """One labeled reduction of a process flowstate, or None when no
    component can emit the label."""
    parts = proc_flow_components(fs)
    for i, part in enumerate(parts):
        if not isinstance(part, PActor):
            continue
        comps = step_flowstate_internal(part.flow)
        residual = consume_actor_flow(comps, label)
        if residual is not None:
            new_parts = list(parts)
            new_parts[i] = PActor(seq_flow(*residual))
            return par_flow(*new_parts)
    return None


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

    result = run(cfg, scheduler=scheduler, seed=seed, observer=observer,
                 fault=fault)
    if result.status != "done":
        violations.append(Violation(
            len(result.trace), "run", "complete execution",
            f"{result.status}: {result.blocked}"))
    else:
        leftovers = [f"{cfg.actors[i].name}: "
                     + "; ".join(print_comp(c) for c in comps)
                     for i, comps in enumerate(flows) if comps]
        if leftovers:
            violations.append(Violation(
                len(result.trace), "final", "all actor flowstates at eps",
                " | ".join(leftovers)))
        final_counts = state["heap_counts"]
        if final_counts:
            violations.append(Violation(
                len(result.trace), "final", "heap flowstate back to eps",
                _counts_str(final_counts)))
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
