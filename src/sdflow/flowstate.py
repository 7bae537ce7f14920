"""Flowstate formation, guard folding, iterator/guard distribution, rate
summaries and decidable equivalence.

A comprehension `ev<it1, .., itk, g1, .., gm>` describes a communication
repeated under loop iterators and filtered by guards.  The analysis reduces
each comprehension to a per-channel multiplicity by folding guards into
iterator bounds and multiplying iterator extents.  Divisibility guards are
counted by `count_in_range`, the range counter the conformance harness also
uses; only a symbolic bound or divisor falls back to the closed form
`hi / d`, for a single divisor on an iterator starting at 1, where it is
exact.

A summary entry is grounded into per-element event counts by one function,
`ground_target`, which the equivalence probes and the progress check's
record of channel-array production share.

Nodes are immutable, so what is computed about one is computed once and
kept on it: a comprehension's folded form (`fold`), its target and
multiplicity (`comp_target`), and an actor flowstate's rate summary
(`_summary`), which the summaries, the equivalence check and the progress
check all read.  Nothing kept on a node refers back to it.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Optional

from .kinding import (
    eval_size, is_inf, kind_of, normalize_size, size_leq, size_lower_bound,
    sizes_equal,
)
from .syntax import (
    ActorFlow, Add, AtMost, ChannelArrayKind, ChannelKind, Comp, Diagnostic,
    Div, Divides, Env, Event, Guard, Iterator, Mul, Num, PActor, PArray,
    ProcFlow, SizeArithmeticError, SizeExpr, SizeKind, SMin, Sub, SVar,
    flow_comps, free_size_vars, map_comps, rename_binder, subst_flow,
    proc_flow_components, record, ONE, ZERO,
)


# random valuations tried before symbolic summaries that differ are left
# undecided
PROBES = 24


class FlowstateError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(str(diag))
        self.diag = diag


# ---------------------------------------------------------------------------
# Formation
# ---------------------------------------------------------------------------

def check_flowstate(env: Env, fs: ActorFlow) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for comp in flow_comps(fs):
        diags.extend(_check_comp(env, comp))
    return diags


def _check_comp(env: Env, comp: Comp) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    seen_vars: set[str] = set()
    for it in comp.iterators:
        if it.var in seen_vars:
            diags.append(Diagnostic(
                "FS Comp", f"duplicate iterator variable {it.var}"))
        seen_vars.add(it.var)
        for bound in (it.lo, it.hi):
            k = kind_of(env, bound)
            if isinstance(k, Diagnostic):
                diags.append(Diagnostic("FS Iter", k.message))
            elif not isinstance(k, SizeKind):
                diags.append(Diagnostic(
                    "FS Iter", f"iterator bound of {it.var} is not a size"))
    inner = env
    for it in comp.iterators:
        inner = inner.extend(it.var, SizeKind(it.hi))
    diags.extend(_check_event(inner, comp.event))
    for g in comp.guards:
        diags.extend(_check_guard(inner, g))
    return diags


def _check_event(env: Env, ev: Event) -> list[Diagnostic]:
    kind = env.lookup(ev.chan)
    rule = ("FS Send" if ev.is_send else "FS Recv") if ev.index is None else \
           ("FS Array Send" if ev.is_send else "FS Array Recv")
    if kind is None:
        return [Diagnostic(rule, f"unbound channel {ev.chan}")]
    if ev.index is None:
        if not isinstance(kind, ChannelKind):
            return [Diagnostic(rule, f"{ev.chan} is not a plain channel")]
        return []
    if not isinstance(kind, ChannelArrayKind):
        return [Diagnostic(rule, f"{ev.chan} is not a channel array")]
    k = kind_of(env, ev.index)
    if isinstance(k, Diagnostic):
        return [Diagnostic(rule, k.message)]
    if not isinstance(k, SizeKind):
        return [Diagnostic(rule, "array index must be a size quantity")]
    if size_leq(env, ev.index, kind.bound) is not True:
        return [Diagnostic(
            rule,
            f"index {ev.chan}[..] not within declared bound")]
    return []


def _check_guard(env: Env, g: Guard) -> list[Diagnostic]:
    match g:
        case Divides(size, _):
            rule, what = "FS Gd Div", "divisor"
        case AtMost(_, size):
            rule, what = "FS Gd Bnd", "bound"
        case _:
            raise TypeError(f"not a guard: {g!r}")
    out = []
    if not isinstance(kind_of(env, size), SizeKind):
        out.append(Diagnostic(rule, f"{what} must be a size"))
    if isinstance(g.operand, SVar) and env.lookup(g.operand.name) is None:
        out.append(Diagnostic(rule, f"unbound guard variable {g.operand.name}"))
    return out


# ---------------------------------------------------------------------------
# Distribution metafunctions
# ---------------------------------------------------------------------------

def distribute_iterator(fs: ActorFlow, it: Iterator) -> ActorFlow:
    """Push an iterator into every comprehension of a flowstate."""
    def push(comp: Comp) -> Comp:
        comp = rename_binder(comp, it.var, set())
        return Comp(comp.event, comp.iterators + (it,), comp.guards)
    return map_comps(fs, push)


def distribute_guard(fs: ActorFlow, g: Guard) -> ActorFlow:
    def push(comp: Comp) -> Comp:
        if isinstance(g.operand, SVar):
            comp = rename_binder(comp, g.operand.name, set())
        return Comp(comp.event, comp.iterators, comp.guards + (g,))
    return map_comps(fs, push)


# ---------------------------------------------------------------------------
# Guard folding
# ---------------------------------------------------------------------------

def extent(it: Iterator) -> SizeExpr:
    """Number of iterations of lo..hi, max(0, hi - lo + 1), as a size
    expression.  When lo is provably >= 1, lo - 1 does not clamp and
    hi - (lo - 1) keeps the canonical form of the range shifted to start at 1
    (3..s and 1..s-2 both give s - 2); a lo that may be 0 adds the 1 to hi."""
    lo_min = size_lower_bound(it.lo)
    if is_inf(lo_min) or lo_min >= 1:
        return normalize_size(Sub(it.hi, Sub(it.lo, ONE)))
    return normalize_size(Sub(Add(it.hi, ONE), it.lo))


def fold_guards_comp(comp: Comp) -> Comp:
    """Fold all guards of one comprehension into its iterators."""
    if not comp.guards:
        return comp
    if comp.event.index is not None:
        raise FlowstateError(Diagnostic(
            "FS Comp", f"guarded communication on channel array {comp.event.chan}"))
    by_var: dict[str, list[Guard]] = {}
    order: list[str] = []
    for g in comp.guards:
        if not isinstance(g.operand, SVar):
            raise FlowstateError(Diagnostic(
                "FS Comp", "numeric guard outside flowstate reduction"))
        var = g.operand.name
        if var not in by_var:
            order.append(var)
        by_var.setdefault(var, []).append(g)
    iters = list(comp.iterators)
    for var in order:
        guards = by_var[var]
        pos = next((i for i, it in enumerate(iters) if it.var == var), None)
        if pos is None:
            raise FlowstateError(Diagnostic(
                "FS Comp", f"guard variable {var} is not an iterator of the event"))
        others_free: set[str] = set()
        for i, it in enumerate(iters):
            if i != pos:
                others_free |= free_size_vars(it.lo) | free_size_vars(it.hi)
        if var in others_free:
            raise FlowstateError(Diagnostic(
                "FS Comp", f"guarded iterator {var} feeds another iterator bound"))
        iters[pos] = _fold_onto_iterator(iters[pos], guards)
    return Comp(comp.event, tuple(iters), ())


def _fold_onto_iterator(it: Iterator, guards: list[Guard]) -> Iterator:
    lo, hi = normalize_size(it.lo), normalize_size(it.hi)
    at_most = [g for g in guards if isinstance(g, AtMost)]
    divides = [g for g in guards if isinstance(g, Divides)]
    for g in at_most:
        hi = normalize_size(SMin(g.bound, hi))
    if not divides:
        return Iterator(it.var, lo, hi)
    count = count_in_range(lo, hi, divides)
    if count is not None:
        return Iterator(it.var, Num(1), Num(count))
    if lo == Num(1):
        if len(divides) == 1:
            d = normalize_size(divides[0].divisor)
            return Iterator(it.var, Num(1), normalize_size(Div(hi, d)))
        raise FlowstateError(Diagnostic(
            "FS Comp", f"cannot fold several symbolic divisors on {it.var}"))
    raise FlowstateError(Diagnostic(
        "FS Comp",
        f"cannot fold divisibility over symbolic range not starting at 1 ({it.var})"))


def count_in_range(lo: SizeExpr, hi: SizeExpr, guards: list[Guard]
                   ) -> Optional[int]:
    """How many k in lo..hi pass every guard on k, in closed form: `AtMost`
    clamps hi and `Divides` keeps the multiples of the divisors' lcm, where
    `0 | k` holds only for k == 0 as at run time.  None when a bound or
    divisor stays symbolic, unless the numeric ones already leave no k."""
    lo = normalize_size(lo)
    if not isinstance(lo, Num):
        return None
    his = [normalize_size(b) for b in
           [hi] + [g.bound for g in guards if isinstance(g, AtMost)]]
    divisors = [normalize_size(g.divisor) for g in guards
                if isinstance(g, Divides)]
    top = min((b.value for b in his if isinstance(b, Num)), default=None)
    l = math.lcm(*(d.value for d in divisors if isinstance(d, Num)))
    if l and top is None:
        return None
    count = count_multiples(lo.value, top, l)
    exact = all(isinstance(x, Num) for x in his + divisors)
    return count if exact or count == 0 else None


def count_multiples(lo: int, hi: int, d: int) -> int:
    """How many k in lo..hi are multiples of d, where `0 | k` holds only
    for k == 0, as at run time (hi is then unread: it is never below 0)."""
    if d == 0:
        return int(lo == 0)
    return max(0, hi // d - (lo - 1) // d)


def fold_guards(fs: ActorFlow) -> ActorFlow:
    return map_comps(fs, fold_guards_comp)


# ---------------------------------------------------------------------------
# Rate summaries
# ---------------------------------------------------------------------------

@record(frozen=True)
class SingleIndex:
    index: SizeExpr


@record(frozen=True)
class RangeIndex:
    lo: SizeExpr
    hi: SizeExpr


CommTarget = tuple  # (chan, "send"|"recv") or (chan, dir, SingleIndex|RangeIndex)


def fold(comp: Comp) -> Comp:
    """`comp` with its guards folded into its iterators, computed once and
    kept on the node."""
    if not comp.guards:
        return comp
    folded = comp.__dict__.get("_folded")
    if folded is None:
        folded = comp.__dict__["_folded"] = fold_guards_comp(comp)
    return folded


def comp_target(comp: Comp) -> tuple[CommTarget, SizeExpr]:
    """The target and multiplicity of `comp` once its guards are folded,
    computed once and kept on the node and on the folded node, as `SeqE`
    keeps its hash."""
    fact = comp.__dict__.get("_target")
    if fact is None:
        folded = fold(comp)
        fact = folded.__dict__.get("_target") or _comp_target(folded)
        comp.__dict__["_target"] = folded.__dict__["_target"] = fact
    return fact


def rate_summary(env: Env, fs: ActorFlow) -> dict[CommTarget, SizeExpr]:
    """Per-channel multiplicities of a flowstate, after guard folding: a
    copy of the summary kept on the node."""
    return dict(_summary(fs))


def _summary(fs: ActorFlow) -> dict[CommTarget, SizeExpr]:
    """The rate summary of `fs`, computed once and kept on the node.  It is
    shared: callers in this module only read it."""
    summary = fs.__dict__.get("_summary")
    if summary is None:
        summary = fs.__dict__["_summary"] = _rate_summary(fs)
    return summary


def _rate_summary(fs: ActorFlow) -> dict[CommTarget, SizeExpr]:
    summary: dict[CommTarget, SizeExpr] = {}
    for comp in flow_comps(fs):
        key, mult = comp_target(comp)
        if key in summary:
            summary[key] = normalize_size(Add(summary[key], mult))
        else:
            summary[key] = mult
    return {k: v for k, v in summary.items() if v != ZERO}


def _comp_target(comp: Comp) -> tuple[CommTarget, SizeExpr]:
    ev = comp.event
    direction = "send" if ev.is_send else "recv"
    mult: SizeExpr = ONE
    range_part: Optional[RangeIndex] = None
    index_var = ev.index.name if isinstance(ev.index, SVar) else None
    for it in comp.iterators:
        if index_var is not None and it.var == index_var and range_part is None:
            range_part = RangeIndex(normalize_size(it.lo), normalize_size(it.hi))
            continue
        mult = normalize_size(Mul(mult, extent(it)))
    if ev.index is None:
        return (ev.chan, direction), mult
    if range_part is not None:
        return (ev.chan, direction, range_part), mult
    return (ev.chan, direction, SingleIndex(normalize_size(ev.index))), mult


def proc_rate_summary(env: Env, fs: ProcFlow) -> dict[CommTarget, SizeExpr]:
    summary: dict[CommTarget, SizeExpr] = {}

    def merge(other: dict[CommTarget, SizeExpr]):
        for k, v in other.items():
            if k in summary:
                summary[k] = normalize_size(Add(summary[k], v))
            else:
                summary[k] = v

    for part in proc_flow_components(fs):
        match part:
            case PActor(flow):
                merge(_summary(flow))
            case PArray(var, lo, hi, body):
                merge(_summary(distribute_iterator(body, Iterator(var, lo, hi))))
    return {k: v for k, v in summary.items() if v != ZERO}


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

def ground_target(key: CommTarget, mult: SizeExpr, valuation: dict[str, int]
                  ) -> Optional[dict]:
    """One summary entry as event counts under `valuation`, keyed
    (chan, dir), or (chan, dir, element) on a channel array, one key per
    element of a range; zero counts are left out.  None when a quantity is
    infinite or stays symbolic."""
    try:
        n = eval_size(mult, valuation)
        match key:
            case (_, _):
                elements = [()]
            case (_, _, SingleIndex(index)):
                elements = [(eval_size(index, valuation),)]
            case (_, _, RangeIndex(lo, hi)):
                lo, hi = eval_size(lo, valuation), eval_size(hi, valuation)
                if is_inf(lo) or is_inf(hi):
                    return None
                elements = [(i,) for i in range(lo, hi + 1)]
    except SizeArithmeticError:
        return None
    if is_inf(n):
        return None
    return {key[:2] + e: n for e in elements} if n else {}


def _concrete_summary(summary: dict[CommTarget, SizeExpr],
                      valuation: dict[str, int]) -> Optional[Counter]:
    """Ground a symbolic summary into per-element event counts."""
    out: Counter = Counter()
    for key, mult in summary.items():
        counts = ground_target(key, mult, valuation)
        if counts is None:
            return None
        out.update(counts)
    return out


def _summary_vars(summary: dict[CommTarget, SizeExpr]) -> set[str]:
    out: set[str] = set()
    for key, mult in summary.items():
        out |= free_size_vars(mult)
        if len(key) == 3:
            idx = key[2]
            if isinstance(idx, SingleIndex):
                out |= free_size_vars(idx.index)
            else:
                out |= free_size_vars(idx.lo) | free_size_vars(idx.hi)
    return out


def flowstates_equivalent(env: Env, a: ActorFlow, b: ActorFlow
                          ) -> Optional[bool]:
    """True when rate summaries agree exactly; False when refuted by a
    concrete instantiation; None when symbolic forms differ but no refuting
    valuation was found."""
    try:
        sa = _summary(a)
        sb = _summary(b)
    except (FlowstateError, SizeArithmeticError):
        return None
    return summaries_equivalent(sa, sb)


def summaries_equivalent(sa: dict, sb: dict) -> Optional[bool]:
    if sa == sb:
        return True
    names = sorted(_summary_vars(sa) | _summary_vars(sb))
    rng = random.Random(7)
    for trial in range(PROBES):
        valuation = {n: rng.randint(1, 64) for n in names}
        ca = _concrete_summary(sa, valuation)
        cb = _concrete_summary(sb, valuation)
        if ca is None or cb is None:
            return None
        if ca != cb:
            return False
    return None


def _live_components(env: Env, fs: ProcFlow) -> list[ProcFlow]:
    """Parallel components that can communicate at all; components whose rate
    summary is empty behave as the empty flowstate."""
    out = []
    for part in proc_flow_components(fs):
        if isinstance(part, PActor):
            try:
                if not _summary(part.flow):
                    continue
            except (FlowstateError, SizeArithmeticError):
                pass
        out.append(part)
    return out


def proc_flows_equivalent(env: Env, a: ProcFlow, b: ProcFlow) -> Optional[bool]:
    """Componentwise equivalence: parallel components match in order, actor
    arrays match on bounds and bodies (up to renaming the array index)."""
    pa = _live_components(env, a)
    pb = _live_components(env, b)
    if len(pa) != len(pb):
        return False
    verdict: Optional[bool] = True
    for x, y in zip(pa, pb):
        match (x, y):
            case (PActor(fx), PActor(fy)):
                sub = flowstates_equivalent(env, fx, fy)
            case (PArray(vx, lox, hix, bx), PArray(vy, loy, hiy, by)):
                if not (sizes_equal(lox, loy) and sizes_equal(hix, hiy)):
                    return False
                by_renamed = subst_flow(by, vy, SVar(vx)) if vy != vx else by
                sub = flowstates_equivalent(env, bx, by_renamed)
            case _:
                return False
        if sub is False:
            return False
        if sub is None:
            verdict = None
    return verdict
