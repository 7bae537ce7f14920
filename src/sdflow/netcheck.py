"""Global network checks: determinism (single writer and reader per
channel) and progress (a deadlock-free firing order exists).  Both walk the
flat component list of the network flowstate once.

Determinism computes each component's channel reads and writes once and
compares them only with the earlier uses of the same channel.

Progress fires the lowest-numbered enabled actor until none is enabled.  A
producer event (send on an undelayed channel, or receive on a delayed one)
is always enabled and adds to a count; a consumer event is enabled only
when counts left by other actors cover it.  Within one actor,
comprehensions fire in program order: the analysis does not track causality
inside an actor, so its inputs are conservatively treated as preconditions
of its outputs.  A count is kept per channel element, as SDF balance is a
token count per channel, not a match on loop shape: per plain channel, per
element when `flowstate.ground_target` grounds a channel-array
comprehension (at any rate), and otherwise per symbolic index or range,
counting the events on each of its elements.  Numeric needs may be split
over producers and counts; a symbolic need is taken whole from one count
that provably covers it.  The network is accepted when every actor finishes
and no count is left over: production that no actor consumes would stay in
a buffer after the firing.

The greedy loop is complete, provided `check_determinism` has passed.  Each
channel then has one writer and one reader, so a count can only be taken by
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
from typing import Optional, Union

from .flowstate import (
    FlowstateError, RangeIndex, SingleIndex, comp_target,
    distribute_iterator, extent, fold, ground_target,
)
from .kinding import normalize_size, size_leq
from .syntax import (
    Add, Comp, Diagnostic, Env, Event, Iterator, Num, PActor, PArray,
    ProcFlow, Sub, SVar, flow_comps, print_comp, print_size, subst_flow,
    proc_flow_components, record, ZERO,
)

PRODUCER = "producer"
CONSUMER = "consumer"


def classify_event(tenv: Env, ev: Event) -> str:
    """Whether `ev` produces or consumes, by its declared channel's delay;
    `Ty Chan` and `Ty Chan Array` have found every channel declared."""
    delay = tenv.lookup(ev.chan).delay
    if ev.is_send:
        return PRODUCER if delay == 0 else CONSUMER
    return PRODUCER if delay == 1 else CONSUMER


# ---------------------------------------------------------------------------
# Channel use sets
# ---------------------------------------------------------------------------
# elements: ("chan", t) | ("elem", t, k) | ("range", t, lo, hi)

def _comp_uses(comp: Comp, want_send: bool) -> set:
    # guards are ignored, so a guarded use is taken over its whole range
    ev = comp.event
    if ev.is_send != want_send:
        return set()
    if ev.index is None:
        return {("chan", ev.chan)}
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
    uses of the same channel, in sorted order."""
    diags: list[Diagnostic] = []
    seen: dict[str, dict[str, set]] = {"reads": {}, "writes": {}}
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
    return diags


# ---------------------------------------------------------------------------
# Progress
# ---------------------------------------------------------------------------

def _parts(comp: Comp) -> list[tuple]:
    """The events of `comp` as (where, count) pairs: `where` is None on a
    plain channel, an element when the comprehension grounds on a channel
    array, and otherwise its `SingleIndex` or `RangeIndex` target, with the
    count per element."""
    target, mult = comp_target(comp)
    if comp.event.index is None:
        return [(None, mult)]
    counts = ground_target(target, mult, {})
    if counts is None:
        return [(target[2], mult)]
    return [(k[2], Num(n)) for k, n in counts.items()]


def _where_text(chan: str, where) -> str:
    match where:
        case None:
            return chan
        case SingleIndex(index):
            return f"{chan}[{print_size(index)}]"
        case RangeIndex(lo, hi):
            return f"{chan}[{print_size(lo)}..{print_size(hi)}]"
    return f"{chan}[{where}]"


class Record:
    """Producer events fired and not yet consumed, as one count map
    (chan, is_send, where) -> {producer: count}, `where` as in `_parts`.
    The producer is kept so a comprehension can never discharge its own
    precondition."""

    def __init__(self, env: Env):
        self.env = env
        self.counts: dict = {}

    def add(self, comp: Comp, producer: int) -> None:
        ev = comp.event
        for where, n in _parts(comp):
            by_producer = self.counts.setdefault((ev.chan, ev.is_send, where),
                                                 {})
            have = by_producer.get(producer, ZERO)
            by_producer[producer] = normalize_size(Add(have, n))

    def consume(self, comp: Comp, consumer: int) -> bool:
        """Take what `comp` needs from the complementary counts left by
        actors other than `consumer`: between numbers as much as each
        producer has, a symbolic need whole from one producer that provably
        has enough.  False, with the record unchanged, if anything is still
        needed."""
        ev = comp.event
        left = {}  # (key, producer) -> count left after the take
        for where, need in _parts(comp):
            key = (ev.chan, not ev.is_send, where)
            for producer, have in self.counts.get(key, {}).items():
                if need == ZERO:
                    break
                if producer == consumer:
                    continue
                if isinstance(need, Num) and isinstance(have, Num):
                    n = min(need.value, have.value)
                    left[key, producer] = Num(have.value - n)
                    need = Num(need.value - n)
                elif size_leq(self.env, need, have) is True:
                    left[key, producer] = normalize_size(Sub(have, need))
                    need = ZERO
            if need != ZERO:
                return False
        for (key, producer), n in left.items():
            if n != ZERO:
                self.counts[key][producer] = n
                continue
            del self.counts[key][producer]
            if not self.counts[key]:
                del self.counts[key]
        return True

    def leftover(self) -> list[str]:
        """Production never consumed, as "count on target": plain channels,
        then array elements, then symbolic targets, each sorted."""
        rows = []
        for (chan, is_send, where), by_producer in self.counts.items():
            for producer, n in by_producer.items():
                text = f"{print_size(n)} on {_where_text(chan, where)}"
                if where is None:
                    order = (0, str((chan, is_send, producer)))
                elif isinstance(where, int):
                    order = (1, (chan, is_send, where, producer))
                else:
                    order = (2, text)
                rows.append((order, text))
        return [text for _, text in sorted(rows)]


@record
class ScheduleStep:
    """One firing of the progress check: `actor` fires its head
    comprehension `comp`.  Its text is rendered only when it is read."""
    actor: str
    action: str  # "produce" | "consume"
    comp: Comp

    @property
    def event(self) -> str:
        return print_comp(self.comp)

    @property
    def multiplicity(self) -> str:
        return print_size(comp_target(self.comp)[1])

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
        folded = fold(comp)
        # drop comprehensions that provably fire zero times
        if any(normalize_size(extent(it)) == ZERO for it in folded.iterators):
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
            schedule.append(ScheduleStep(name, action, comp))
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
