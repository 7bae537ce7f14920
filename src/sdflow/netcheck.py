"""Global network checks: determinism (single writer and reader per
channel) and progress (a deadlock-free firing order exists).  Both walk the
flat component list of the network flowstate once.

Determinism computes each component's channel reads and writes once and
compares them only with the earlier uses of the same channel.

Progress fires the lowest-numbered enabled actor until none is enabled.  A
producer event (send on an undelayed channel, or receive on a delayed one)
is always enabled and leaves a record; a consumer event is enabled only
against a matching record left by another actor.  Within one actor,
comprehensions fire in program order: the analysis does not track causality
inside an actor, so its inputs are conservatively treated as preconditions
of its outputs.  Numeric comprehensions on channel arrays are counted per
element by `flowstate.ground_target`, at any rate, so partial consumption
works; symbolic ones are matched whole, up to renaming and bound
normalization.  The network is accepted when every actor finishes and no
record is left over: production that no actor consumes would stay in a
buffer after the firing.

The greedy loop is complete, provided `check_determinism` has passed.  Each
channel then has one writer and one reader, so a record can only be taken by
the one consumer it was left for, and firing an enabled event never disables
another one: the system is persistent (Keller, *A fundamental theorem of
asynchronous parallel computation*, 1975).  Every maximal firing order thus
reaches the same positions, and a runnable-first scheduler finds a complete
schedule whenever one exists (Lee & Messerschmitt, *Static scheduling of
synchronous data flow programs*, IEEE TC 1987).  Without determinism that
argument fails, so `check_network` runs progress only after determinism.
A blocked actor is re-examined only after a producer fires on the channel
it waits on, so one firing costs O(log actors).
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Optional, Union

from .flowstate import (
    FlowstateError, distribute_iterator, fold_guards_comp, ground_target,
    _comp_target, extent,
)
from .kinding import normalize_size, size_leq
from .printer import print_comp, print_size
from .syntax import (
    Add, ChannelArrayKind, ChannelKind, Comp, Diagnostic, Env, Event, Infinity,
    Iterator, Mul, Num, PActor, PArray, ProcFlow, SizeExpr, Sub, SVar,
    field, flow_comps, subst_flow, proc_flow_components, record,
)

PRODUCER = "producer"
CONSUMER = "consumer"


def classify_event(tenv: Env, ev: Event) -> str:
    kind = tenv.lookup(ev.chan)
    if isinstance(kind, ChannelKind) or isinstance(kind, ChannelArrayKind):
        if ev.is_send:
            return PRODUCER if kind.delay == 0 else CONSUMER
        return PRODUCER if kind.delay == 1 else CONSUMER
    raise FlowstateError(Diagnostic(
        "FS Prog Prod", f"unbound channel {ev.chan}"))


def complement_event(ev: Event) -> Event:
    return ev.complement()


# ---------------------------------------------------------------------------
# Channel use sets
# ---------------------------------------------------------------------------
# elements: ("chan", t) | ("elem", t, k) | ("range", t, lo, hi)

def _comp_uses(comp: Comp, want_send: bool) -> set:
    ev = comp.event
    if ev.is_send != want_send:
        return set()
    if ev.index is None:
        return {("chan", ev.chan)}
    if comp.guards:
        raise FlowstateError(Diagnostic(
            "FS Det Par",
            f"guarded communication on channel array {ev.chan}"))
    idx = normalize_size(ev.index)
    if isinstance(idx, Num):
        return {("elem", ev.chan, idx.value)}
    if isinstance(idx, SVar):
        for it in comp.iterators:
            if it.var == idx.name:
                lo = normalize_size(it.lo)
                hi = normalize_size(it.hi)
                if isinstance(lo, Num) and isinstance(hi, Num):
                    return {("elem", ev.chan, k)
                            for k in range(lo.value, hi.value + 1)}
                return {("range", ev.chan, lo, hi)}
    return {("range", ev.chan, idx, idx)}


def _flow_uses(fs: ProcFlow, want_send: bool) -> set:
    uses: set = set()
    for part in proc_flow_components(fs):
        match part:
            case PActor(flow):
                for comp in flow_comps(flow):
                    uses |= _comp_uses(comp, want_send)
            case PArray(var, lo, hi, body):
                distributed = distribute_iterator(body, Iterator(var, lo, hi))
                for comp in flow_comps(distributed):
                    uses |= _comp_uses(comp, want_send)
    return uses


def inchans(fs: ProcFlow) -> set:
    return _flow_uses(fs, want_send=False)


def outchans(fs: ProcFlow) -> set:
    return _flow_uses(fs, want_send=True)


def _uses_overlap(env: Env, a, b) -> bool:
    """Conservative: overlapping unless provably disjoint."""
    if a[1] != b[1]:
        return False
    if a[0] == "chan" or b[0] == "chan":
        return a[0] == b[0]

    def as_range(u):
        if u[0] == "elem":
            return Num(u[2]), Num(u[2])
        return u[2], u[3]

    lo1, hi1 = as_range(a)
    lo2, hi2 = as_range(b)
    before = size_leq(env, Add(hi1, Num(1)), lo2)
    after = size_leq(env, Add(hi2, Num(1)), lo1)
    return not (before is True or after is True)


def _use_order(u) -> tuple:
    """Sort key of a use: range bounds, which do not compare, go by text."""
    return u[:2] + (print_size(u[2]), print_size(u[3])) if u[0] == "range" else u


def _overlapping_pairs(env: Env, left: set, right: set) -> list:
    return [(a, b) for a in sorted(left, key=_use_order)
            for b in sorted(right, key=_use_order)
            if _uses_overlap(env, a, b)]


def _describe(u) -> str:
    if u[0] == "chan":
        return u[1]
    if u[0] == "elem":
        return f"{u[1]}[{u[2]}]"
    return f"{u[1]}[{print_size(u[2])}..{print_size(u[3])}]"


def _array_diags(tenv: Env, part: PArray) -> list[Diagnostic]:
    """Elements of an actor array wider than one must each use their own
    channel-array element, indexed by the array variable."""
    if size_leq(tenv, part.hi, part.lo) is True:
        return []  # at most one element
    diags = []
    for comp in flow_comps(part.body):
        ev = comp.event
        if ev.index is None:
            diags.append(Diagnostic(
                "FS Det Par",
                f"every element of the actor array uses channel {ev.chan}"))
        elif not (isinstance(ev.index, SVar) and ev.index.name == part.var):
            diags.append(Diagnostic(
                "FS Det Par",
                f"actor-array elements share {ev.chan}[..]; the index must "
                f"be the array variable {part.var}"))
    return diags


def check_determinism(tenv: Env, fs: ProcFlow) -> list[Diagnostic]:
    """Each channel (element) is read by at most one component and written
    by at most one.  Every component's uses are compared with the earlier
    uses of the same channel, in sorted order; an error computing the uses
    is reported once and ends the check."""
    diags: list[Diagnostic] = []
    seen: dict[str, dict[str, set]] = {"reads": {}, "writes": {}}
    try:
        for part in proc_flow_components(fs):
            if isinstance(part, PArray):
                diags.extend(_array_diags(tenv, part))
            for label, use in (("reads", inchans), ("writes", outchans)):
                uses = use(part)
                by_chan = seen[label]
                earlier = set().union(*(by_chan.get(c, ())
                                        for c in {u[1] for u in uses}))
                for ua, ub in _overlapping_pairs(tenv, earlier, uses):
                    diags.append(Diagnostic(
                        "FS Det Par",
                        f"{label} on {_describe(ua)} and {_describe(ub)} "
                        f"are not confined to a single actor"))
                for u in uses:
                    by_chan.setdefault(u[1], set()).add(u)
    except FlowstateError as exc:
        diags.append(exc.diag)
    return diags


# ---------------------------------------------------------------------------
# Progress
# ---------------------------------------------------------------------------

@record(frozen=True)
class _CanonComp:
    """Comprehension in matching form: event plus renamed iterators.  The
    comprehension it came from is kept only to describe it."""
    key: tuple
    comp: Comp = field(compare=False, repr=False)

    def __str__(self):
        return self.key.__str__()


def _size_key(e: SizeExpr):
    e = normalize_size(e)
    match e:
        case Num(n):
            return ("n", n)
        case Infinity():
            return ("inf",)
        case SVar(name):
            return ("v", name)
        case _:
            from .kinding import _atom_key_any
            return _atom_key_any(e)


def canonical_comp(comp: Comp) -> _CanonComp:
    """Renames iterator variables positionally and normalizes bounds so two
    comprehensions equal up to alpha-renaming get the same key.  Guards must
    have been folded away."""
    renaming = {it.var: f".{i}" for i, it in enumerate(comp.iterators)}
    iters = tuple(
        (renaming[it.var], _size_key(it.lo), _size_key(it.hi))
        for it in comp.iterators)
    ev = comp.event
    if ev.index is None:
        idx_key = None
    elif isinstance(ev.index, SVar) and ev.index.name in renaming:
        idx_key = ("bound", renaming[ev.index.name])
    else:
        idx_key = ("free", _size_key(ev.index))
    return _CanonComp((ev.chan, ev.is_send, idx_key, iters), comp)


class Record:
    """Producer events already fired, tagged with the producing actor so a
    comprehension can never discharge its own precondition.  Plain channels
    are tracked as a symbolic multiplicity per (channel, direction); channel
    arrays per element when numeric and as whole comprehensions when
    symbolic."""

    def __init__(self, env: Env):
        self.env = env
        self.plain: dict = {}            # (chan, is_send, producer) -> SizeExpr
        self.numeric: Counter = Counter()  # (chan, dir, elem, producer) -> int
        self.symbolic: Counter = Counter()  # (canonical comp, producer) -> int

    def add(self, comp: Comp, producer: int) -> None:
        ev = comp.event
        if ev.index is None:
            _, mult = _comp_target(comp)
            key = (ev.chan, ev.is_send, producer)
            have = self.plain.get(key, Num(0))
            self.plain[key] = normalize_size(Add(have, mult))
            return
        counts = ground_target(*_comp_target(comp), {})
        if counts is not None:
            for k, v in counts.items():
                self.numeric[k + (producer,)] += v
        else:
            self.symbolic[(canonical_comp(comp), producer)] += 1

    def consume(self, comp: Comp, consumer: int) -> bool:
        """Take the records that discharge `comp`, left by an actor other
        than `consumer`.  False, with the record unchanged, if none do."""
        ev = comp.event
        if ev.index is None:
            _, need = _comp_target(comp)
            for key in sorted(self.plain, key=str):
                chan, is_send, producer = key
                if chan != ev.chan or is_send == ev.is_send \
                        or producer == consumer:
                    continue
                have = self.plain[key]
                if size_leq(self.env, need, have) is not True:
                    continue
                left = normalize_size(Sub(have, need))
                if left == Num(0):
                    del self.plain[key]
                else:
                    self.plain[key] = left
                return True
            return False
        want = Comp(ev.complement(), comp.iterators, comp.guards)
        left = ground_target(*_comp_target(want), {})
        if left is not None:
            # elements may come from different producers, as from the
            # unrolled members of a literal-width actor array
            taken = {}
            for k, have in self.numeric.items():
                if k[-1] != consumer and left.get(k[:-1], 0) > 0:
                    taken[k] = min(have, left[k[:-1]])
                    left[k[:-1]] -= taken[k]
            if any(left.values()):
                return False
            _take(self.numeric, taken)
            return True
        want_canon = canonical_comp(want)
        for (canon, producer), n in sorted(self.symbolic.items(),
                                           key=lambda kv: str(kv[0])):
            if canon == want_canon and producer != consumer and n > 0:
                _take(self.symbolic, {(canon, producer): 1})
                return True
        return False

    def leftover(self) -> list[str]:
        """Production never consumed, as "multiplicity on channel"."""
        out = [f"{print_size(v)} on {chan}"
               for (chan, _, _), v in sorted(self.plain.items(), key=str)]
        out += [f"{v} on {chan}[{elem}]"
                for (chan, _, elem, _), v in sorted(self.numeric.items())]
        for (canon, _), n in sorted(self.symbolic.items(),
                                    key=lambda kv: str(kv[0])):
            total = Num(n)
            for it in canon.comp.iterators:
                total = normalize_size(Mul(total, extent(it)))
            out.append(f"{print_size(total)} on {canon.comp.event.chan} "
                       f"({print_comp(canon.comp)})")
        return out


def _take(counts: Counter, taken: dict) -> None:
    for k, v in taken.items():
        counts[k] -= v
        if not counts[k]:
            del counts[k]


@record
class ScheduleStep:
    actor: str
    action: str  # "produce" | "consume"
    event: str
    multiplicity: str

    def to_json(self) -> dict:
        return {"actor": self.actor, "action": self.action,
                "event": self.event, "multiplicity": self.multiplicity}


def _progress_entries(fs: ProcFlow):
    """Per-actor ordered comprehension lists, actor arrays unrolled when
    numeric and kept comprehension-level otherwise."""
    entries: list[tuple[str, list[Comp]]] = []
    for i, part in enumerate(proc_flow_components(fs)):
        match part:
            case PActor(flow):
                entries.append((f"a{i}", _fold_comps(flow_comps(flow))))
            case PArray(var, lo, hi, body):
                lo_n, hi_n = normalize_size(lo), normalize_size(hi)
                if isinstance(lo_n, Num) and isinstance(hi_n, Num) \
                        and hi_n.value - lo_n.value + 1 <= 4096:
                    for k in range(lo_n.value, hi_n.value + 1):
                        comps = _fold_comps(flow_comps(
                            subst_flow(body, var, Num(k))))
                        entries.append((f"a{i}[{k}]", comps))
                else:
                    distributed = distribute_iterator(
                        body, Iterator(var, lo, hi))
                    entries.append((f"a{i}[{var}]",
                                    _fold_comps(flow_comps(distributed))))
    return entries


def _fold_comps(comps: list[Comp]) -> list[Comp]:
    out = []
    for comp in comps:
        folded = fold_guards_comp(comp)
        # drop comprehensions that provably fire zero times
        if any(normalize_size(extent(it)) == Num(0) for it in folded.iterators):
            continue
        out.append(folded)
    return out


def check_progress(tenv: Env, fs: ProcFlow
                   ) -> Union[list[ScheduleStep], list[Diagnostic]]:
    """Fires the lowest-numbered enabled actor until none is enabled.
    Returns that firing order when it discharges every actor flowstate and
    leaves no record, else diagnostics naming the leftover production or
    the cycle the stuck actors form.  Complete only once
    `check_determinism` has passed (see the module docstring)."""
    record = Record(tenv)
    schedule: list[ScheduleStep] = []
    waiting: dict[str, list[int]] = {}   # channel -> actors blocked on it
    try:
        entries = _progress_entries(fs)
        positions = [0] * len(entries)
        ready = list(range(len(entries)))  # heap of actors not known blocked
        while ready:
            i = heapq.heappop(ready)
            name, comps = entries[i]
            if positions[i] == len(comps):
                continue
            comp = comps[positions[i]]
            if classify_event(tenv, comp.event) == PRODUCER:
                record.add(comp, i)
                for j in waiting.pop(comp.event.chan, ()):
                    heapq.heappush(ready, j)
                action = "produce"
            elif record.consume(comp, i):
                action = "consume"
            else:
                waiting.setdefault(comp.event.chan, []).append(i)
                continue
            _, mult = _comp_target(comp)
            schedule.append(ScheduleStep(name, action, print_comp(comp),
                                         print_size(mult)))
            positions[i] += 1
            heapq.heappush(ready, i)
    except FlowstateError as exc:
        return [exc.diag]
    if waiting:
        return _cycle_diagnostics(entries, positions)
    leftover = record.leftover()
    if leftover:
        return [Diagnostic("FS Prog Cons", "production is never consumed: "
                           + "; ".join(leftover))]
    return schedule


def _cycle_diagnostics(entries, positions: list[int]) -> list[Diagnostic]:
    """Report the dependency cycle among the actors stuck at `positions`."""
    blocked = [(i, entries[i][0], entries[i][1][positions[i]])
               for i in range(len(entries))
               if positions[i] < len(entries[i][1])]

    # wait-for edges: a blocked actor waits on whoever still holds the
    # complementary event of its head comprehension
    owners: dict[str, list[int]] = {}
    for i, (name, comps) in enumerate(entries):
        for comp in comps[positions[i]:]:
            owners.setdefault(
                (comp.event.chan, comp.event.is_send), []).append(i)
    waits: dict[int, tuple[int, str]] = {}
    for i, name, comp in blocked:
        want = (comp.event.chan, not comp.event.is_send)
        for j in owners.get(want, []):
            if j != i:
                waits[i] = (j, comp.event.chan)
                break
    cycle = _find_cycle(waits)
    if cycle:
        path = " -> ".join(
            f"{entries[i][0]} (waits on {waits[i][1]})" for i in cycle)
        return [Diagnostic(
            "FS Prog Cons", f"causal cycle among actors: {path}")]
    details = "; ".join(
        f"{name} blocked on {print_comp(comp)}" for _, name, comp in blocked)
    return [Diagnostic(
        "FS Prog Cons", f"communication cannot be satisfied: {details}")]


def _find_cycle(waits: dict[int, tuple[int, str]]) -> Optional[list[int]]:
    for start in waits:
        seen: list[int] = []
        node = start
        while node in waits and node not in seen:
            seen.append(node)
            node = waits[node][0]
        if node in seen:
            return seen[seen.index(node):]
    return None


def schedule_to_json(schedule: list[ScheduleStep]) -> list[dict]:
    return [s.to_json() for s in schedule]
