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
"""

from __future__ import annotations

import math
import random
from typing import Optional, Union

from .kinding import (
    eval_size, is_inf, kind_of, normalize_size, size_leq, sizes_equal,
    Quantity,
)
from .syntax import (
    ActorFlow, AtMost, ChannelArrayKind, ChannelKind, Comp, Diagnostic, Div,
    Divides, Event, FEmpty, FSeq, Guard, Iterator, Mul, Num, NumGuard,
    PActor, PArray, ProcFlow, SizeArithmeticError, SizeExpr, SizeKind, SMin,
    Sub, SVar, TypeEnv, flow_comps, flow_free_vars, free_size_vars,
    fresh_var, subst_flow, proc_flow_components, record,
)


class FlowstateError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(str(diag))
        self.diag = diag


# ---------------------------------------------------------------------------
# Formation
# ---------------------------------------------------------------------------

def check_flowstate(env: TypeEnv, fs: ActorFlow) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for comp in flow_comps(fs):
        diags.extend(_check_comp(env, comp))
    return diags


def _check_comp(env: TypeEnv, comp: Comp) -> list[Diagnostic]:
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


def _check_event(env: TypeEnv, ev: Event) -> list[Diagnostic]:
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


def _check_guard(env: TypeEnv, g: Guard) -> list[Diagnostic]:
    match g:
        case Divides(divisor, var):
            out = []
            k = kind_of(env, divisor)
            if isinstance(k, Diagnostic) or not isinstance(k, SizeKind):
                out.append(Diagnostic("FS Gd Div", "divisor must be a size"))
            if env.lookup(var) is None:
                out.append(Diagnostic("FS Gd Div", f"unbound guard variable {var}"))
            return out
        case AtMost(var, bound):
            out = []
            k = kind_of(env, bound)
            if isinstance(k, Diagnostic) or not isinstance(k, SizeKind):
                out.append(Diagnostic("FS Gd Bnd", "bound must be a size"))
            if env.lookup(var) is None:
                out.append(Diagnostic("FS Gd Bnd", f"unbound guard variable {var}"))
            return out
        case NumGuard():
            return []
    raise TypeError(f"not a guard: {g!r}")


# ---------------------------------------------------------------------------
# Distribution metafunctions
# ---------------------------------------------------------------------------

def distribute_iterator(fs: ActorFlow, it: Iterator) -> ActorFlow:
    """Push an iterator into every comprehension of a flowstate."""
    match fs:
        case FEmpty():
            return fs
        case FSeq(a, b):
            return FSeq(distribute_iterator(a, it), distribute_iterator(b, it))
        case Comp() as comp:
            comp = _avoid_binder(comp, it.var)
            return Comp(comp.event, comp.iterators + (it,), comp.guards)
    raise TypeError(f"not an actor flowstate: {fs!r}")


def distribute_guard(fs: ActorFlow, g: Guard) -> ActorFlow:
    match fs:
        case FEmpty():
            return fs
        case FSeq(a, b):
            return FSeq(distribute_guard(a, g), distribute_guard(b, g))
        case Comp() as comp:
            gvar = g.var if isinstance(g, (Divides, AtMost)) else None
            if gvar is not None:
                comp = _avoid_binder(comp, gvar)
            return Comp(comp.event, comp.iterators, comp.guards + (g,))
    raise TypeError(f"not an actor flowstate: {fs!r}")


def _avoid_binder(comp: Comp, var: str) -> Comp:
    """Rename a comprehension binder that collides with `var`."""
    from .syntax import subst_size, _subst_guard
    pos = next((i for i, it in enumerate(comp.iterators) if it.var == var), None)
    if pos is None:
        return comp
    taken = {it.var for it in comp.iterators} | flow_free_vars(comp) | {var}
    new = fresh_var(var, taken)
    event = comp.event
    if event.index is not None:
        event = Event(event.chan, event.is_send,
                      subst_size(event.index, var, SVar(new)))
    iters = list(comp.iterators)
    iters[pos] = Iterator(new, iters[pos].lo, iters[pos].hi)
    for j in range(pos + 1, len(iters)):
        iters[j] = Iterator(iters[j].var,
                            subst_size(iters[j].lo, var, SVar(new)),
                            subst_size(iters[j].hi, var, SVar(new)))
    guards = tuple(_subst_guard(g, var, SVar(new)) for g in comp.guards)
    return Comp(event, tuple(iters), guards)


# ---------------------------------------------------------------------------
# Guard folding
# ---------------------------------------------------------------------------

def extent(it: Iterator) -> SizeExpr:
    """Number of iterations of lo..hi as a clamped size expression."""
    return normalize_size(Sub(it.hi, Sub(it.lo, Num(1))))


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
        if isinstance(g, NumGuard):
            raise FlowstateError(Diagnostic(
                "FS Comp", "numeric guard outside flowstate reduction"))
        if g.var not in by_var:
            order.append(g.var)
        by_var.setdefault(g.var, []).append(g)
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
    if l == 0:
        count = int(lo.value == 0)  # only k == 0 passes, and hi >= 0
    elif top is None:
        return None
    else:
        count = max(0, top // l - (lo.value - 1) // l)
    exact = all(isinstance(x, Num) for x in his + divisors)
    return count if exact or count == 0 else None


def fold_guards(fs: ActorFlow) -> ActorFlow:
    match fs:
        case FEmpty():
            return fs
        case Comp() as comp:
            return fold_guards_comp(comp)
        case FSeq(a, b):
            return FSeq(fold_guards(a), fold_guards(b))
    raise TypeError(f"not an actor flowstate: {fs!r}")


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


def rate_summary(env: TypeEnv, fs: ActorFlow) -> dict[CommTarget, SizeExpr]:
    """Per-channel multiplicities of a flowstate, after guard folding."""
    summary: dict[CommTarget, SizeExpr] = {}
    for comp in flow_comps(fs):
        comp = fold_guards_comp(comp)
        key, mult = _comp_target(comp)
        if key in summary:
            from .syntax import Add
            summary[key] = normalize_size(Add(summary[key], mult))
        else:
            summary[key] = mult
    return {k: v for k, v in summary.items() if v != Num(0)}


def _comp_target(comp: Comp) -> tuple[CommTarget, SizeExpr]:
    ev = comp.event
    direction = "send" if ev.is_send else "recv"
    mult: SizeExpr = Num(1)
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


def proc_rate_summary(env: TypeEnv, fs: ProcFlow) -> dict[CommTarget, SizeExpr]:
    from .syntax import Add
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
                merge(rate_summary(env, flow))
            case PArray(var, lo, hi, body):
                merge(rate_summary(env, distribute_iterator(body, Iterator(var, lo, hi))))
    return {k: v for k, v in summary.items() if v != Num(0)}


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

def _concrete_summary(summary: dict[CommTarget, SizeExpr],
                      valuation: dict[str, int]) -> Optional[dict]:
    """Ground a symbolic summary: ranges expand to per-element counts."""
    out: dict = {}

    def add(key, n: Quantity):
        if is_inf(n):
            return None
        if n:
            out[key] = out.get(key, 0) + n
        return True

    for key, mult in summary.items():
        n = eval_size(mult, valuation)
        if is_inf(n):
            return None
        if len(key) == 2:
            if add(key, n) is None:
                return None
        else:
            chan, direction, idx = key
            if isinstance(idx, SingleIndex):
                i = eval_size(idx.index, valuation)
                add((chan, direction, i), n)
            else:
                lo = eval_size(idx.lo, valuation)
                hi = eval_size(idx.hi, valuation)
                if is_inf(lo) or is_inf(hi):
                    return None
                for i in range(lo, hi + 1):
                    add((chan, direction, i), n)
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


def flowstates_equivalent(env: TypeEnv, a: ActorFlow, b: ActorFlow,
                          probes: int = 24) -> Optional[bool]:
    """True when rate summaries agree exactly; False when refuted by a
    concrete instantiation; None when symbolic forms differ but no refuting
    valuation was found."""
    try:
        sa = rate_summary(env, a)
        sb = rate_summary(env, b)
    except (FlowstateError, SizeArithmeticError):
        return None
    return summaries_equivalent(sa, sb, probes)


def summaries_equivalent(sa: dict, sb: dict, probes: int = 24) -> Optional[bool]:
    if sa == sb:
        return True
    names = sorted(_summary_vars(sa) | _summary_vars(sb))
    rng = random.Random(7)
    for trial in range(probes):
        valuation = {n: rng.randint(1, 64) for n in names}
        try:
            ca = _concrete_summary(sa, valuation)
            cb = _concrete_summary(sb, valuation)
        except SizeArithmeticError:
            return None
        if ca is None or cb is None:
            return None
        if ca != cb:
            return False
    return None


def _live_components(env: TypeEnv, fs: ProcFlow) -> list[ProcFlow]:
    """Parallel components that can communicate at all; components whose rate
    summary is empty behave as the empty flowstate."""
    out = []
    for part in proc_flow_components(fs):
        if isinstance(part, PActor):
            try:
                if not rate_summary(env, part.flow):
                    continue
            except (FlowstateError, SizeArithmeticError):
                pass
        out.append(part)
    return out


def proc_flows_equivalent(env: TypeEnv, a: ProcFlow, b: ProcFlow) -> Optional[bool]:
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
                env2 = env.extend(vx, SizeKind(hix))
                sub = flowstates_equivalent(env2, bx, by_renamed)
            case _:
                return False
        if sub is False:
            return False
        if sub is None:
            verdict = None
    return verdict
