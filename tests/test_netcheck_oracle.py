"""The network checks against the implementations they replaced.

`dfs_check_progress` is the backtracking search over firing orders and
`recursive_check_determinism` the walk of the `PPar` tree that compares the
uses of each left subtree with those of its right sibling.  Both are kept
here as reference oracles for the greedy progress loop and the single-pass
determinism check in `sdflow.netcheck`.  The search keeps its production in
the record the progress check used before its single count map: plain
channels as a symbolic multiplicity, numeric channel-array comprehensions
per element, symbolic ones as whole comprehensions matched up to renaming.
"""

from collections import Counter

from conftest import CORPUS, comp, ev, it, seq, tenv
from hypothesis import given, settings, strategies as st

from sdflow.flowstate import FlowstateError, _comp_target, ground_target, extent
from sdflow.kinding import _atom_key, normalize_size, size_leq
from sdflow.netcheck import (
    PRODUCER, ScheduleStep, _cycle_diagnostics, _overlapping_pairs,
    _progress_entries, check_determinism, check_progress, classify_event,
    inchans, outchans,
)
from sdflow.parser import parse_program
from sdflow.printer import print_comp, print_size
from sdflow.syntax import (
    Add, ChannelArrayKind, ChannelKind, Comp, Diagnostic, Divides, Env,
    FEmpty, Infinity, Mul, Num, PActor, PArray, PPar, SizeExpr, SizeKind, Sub,
    SVar, INF, field, flow_comps, par_flow, record,
)
from sdflow.typecheck import check_proc


# --- the replaced implementations -------------------------------------------

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
            return _atom_key(e)


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


def _copy(record: Record) -> Record:
    out = Record(record.env)
    out.plain = dict(record.plain)
    out.numeric = record.numeric.copy()
    out.symbolic = record.symbolic.copy()
    return out


def _key(record: Record):
    return (tuple(sorted((k, print_size(v)) for k, v in record.plain.items())),
            tuple(sorted(record.numeric.items())),
            tuple(sorted(record.symbolic.items(), key=lambda kv: str(kv[0]))))


def dfs_check_progress(tenv, fs):
    """Depth-first search over firing orders, memoizing failed states; a
    stuck network is replayed round-robin to find its blocked actors."""
    try:
        entries = _progress_entries(fs)
    except FlowstateError as exc:
        return [exc.diag]
    n = len(entries)
    failed: set = set()

    def dfs(positions, record):
        if all(positions[i] >= len(entries[i][1]) for i in range(n)):
            return [], record
        key = (positions, _key(record))
        if key in failed:
            return None
        for i in range(n):
            name, comps = entries[i]
            if positions[i] >= len(comps):
                continue
            comp = comps[positions[i]]
            role = classify_event(tenv, comp.event)
            rec2 = _copy(record)
            if role == PRODUCER:
                rec2.add(comp, i)
            elif not rec2.consume(comp, i):
                continue
            # a step as `ScheduleStep.to_json` renders it
            step = {"actor": name,
                    "action": "produce" if role == PRODUCER else "consume",
                    "event": print_comp(comp),
                    "multiplicity": print_size(_comp_target(comp)[1])}
            nxt = positions[:i] + (positions[i] + 1,) + positions[i + 1:]
            found = dfs(nxt, rec2)
            if found is not None:
                return [step] + found[0], found[1]
        failed.add(key)
        return None

    try:
        found = dfs(tuple(0 for _ in range(n)), Record(tenv))
    except FlowstateError as exc:
        return [exc.diag]
    if found is None:
        return _round_robin_diagnostics(tenv, entries)
    schedule, record = found
    if record.leftover():
        return [Diagnostic("FS Prog Cons", "production is never consumed: "
                           + "; ".join(record.leftover()))]
    return schedule


def _round_robin_diagnostics(tenv, entries):
    positions = [0] * len(entries)
    record = Record(tenv)
    progressed = True
    while progressed:
        progressed = False
        for i, (name, comps) in enumerate(entries):
            if positions[i] >= len(comps):
                continue
            comp = comps[positions[i]]
            if classify_event(tenv, comp.event) == PRODUCER:
                record.add(comp, i)
            elif not record.consume(comp, i):
                continue
            positions[i] += 1
            progressed = True
    if all(positions[i] >= len(entries[i][1]) for i in range(len(entries))):
        return [Diagnostic("FS Prog Cons",
                           "no firing order discharges the network")]
    return _cycle_diagnostics(entries, positions)


def recursive_check_determinism(tenv, fs):
    diags = []

    def describe(u):
        if u[0] == "chan":
            return u[1]
        if u[0] == "elem":
            return f"{u[1]}[{u[2]}]"
        return f"{u[1]}[{print_size(u[2])}..{print_size(u[3])}]"

    def rec(f):
        match f:
            case PPar(a, b):
                rec(a)
                rec(b)
                try:
                    for label, use in (("reads", inchans), ("writes", outchans)):
                        for ua, ub in _overlapping_pairs(tenv, use(a), use(b)):
                            diags.append(Diagnostic(
                                "FS Det Par",
                                f"{label} on {describe(ua)} and {describe(ub)} "
                                f"are not confined to a single actor"))
                except FlowstateError as exc:
                    diags.append(exc.diag)
            case PArray(var, lo, hi, body):
                if size_leq(tenv, hi, lo) is True:
                    return
                for c in flow_comps(body):
                    e = c.event
                    if e.index is None:
                        diags.append(Diagnostic(
                            "FS Det Par",
                            f"every element of the actor array uses channel "
                            f"{e.chan}"))
                    elif not (isinstance(e.index, SVar) and e.index.name == var):
                        diags.append(Diagnostic(
                            "FS Det Par",
                            f"actor-array elements share {e.chan}[..]; the "
                            f"index must be the array variable {var}"))

    try:
        rec(fs)
    except FlowstateError as exc:
        diags.append(exc.diag)
    return diags


# --- random networks ----------------------------------------------------------

PLAIN = ("c0", "c1", "c2")


def _env(delays):
    return tenv(s=SizeKind(INF),
                **{c: ChannelKind(d, Num(2)) for c, d in zip(PLAIN, delays)},
                a=ChannelArrayKind(delays[3], Num(2), SVar("s")))


def _plain_comp(chan, is_send, rate):
    e = ev(chan + ("!" if is_send else "?"))
    if rate == "s/2":
        return comp(e, it("t", 1, "s"), Divides(Num(2), SVar("t")))
    return comp(e, it("t", 1, rate))


def _array_comp(is_send, form):
    spec = "a!" if is_send else "a?"
    if form == "one":
        return comp(ev(spec, 1))
    return comp(ev(spec, "t"), it("t", 1, 2 if form == "both" else "s"))


# (writer's comprehensions, reader's comprehensions) on one channel; the last
# two pairs of each list do not balance
PLAIN_TRAFFIC = [([1], [1]), ([2], [1, 1]), ([1, 1], [2]), (["s"], ["s"]),
                 (["s/2"], ["s/2"]), ([1], [2]), ([2], [1])]
ARRAY_TRAFFIC = [(["both"], ["both"]), (["all"], ["all"]), (["one"], ["one"]),
                 (["both"], ["one", "one"]), (["both"], ["one"])]


@st.composite
def shapes(draw, parts):
    """A random parallel tree over `parts`, keeping their order."""
    if len(parts) == 1:
        return parts[0]
    k = draw(st.integers(1, len(parts) - 1))
    return PPar(draw(shapes(parts[:k])), draw(shapes(parts[k:])))


@st.composite
def deterministic_networks(draw):
    """Actor flowstates where each channel has one writer and one reader,
    distinct unless there is a single actor, mostly balanced, in random
    order."""
    n = draw(st.integers(1, 4))
    delays = draw(st.lists(st.integers(0, 1), min_size=4, max_size=4))
    comps = [[] for _ in range(n)]
    for chan in PLAIN + ("a",):
        if draw(st.integers(0, 3)) == 0:
            continue  # unused channel
        writes, reads = draw(st.sampled_from(
            ARRAY_TRAFFIC if chan == "a" else PLAIN_TRAFFIC))
        writer = draw(st.integers(0, n - 1))
        reader = (writer + draw(st.integers(1, n - 1))) % n if n > 1 else 0
        for is_send, forms, who in ((True, writes, writer),
                                    (False, reads, reader)):
            for form in forms:
                comps[who].append(_array_comp(is_send, form) if chan == "a"
                                  else _plain_comp(chan, is_send, form))
    actors = [PActor(seq(*cs) if cs else FEmpty())
              for cs in (draw(st.permutations(cs)) for cs in comps)]
    return _env(delays), draw(shapes(actors))


@st.composite
def any_networks(draw):
    """Actors and actor arrays using channels freely, so determinism may
    fail in any way."""
    delays = draw(st.lists(st.integers(0, 1), min_size=4, max_size=4))
    parts = []
    for _ in range(draw(st.integers(1, 5))):
        is_send = draw(st.booleans())
        if draw(st.integers(0, 4)) == 0:
            body = draw(st.sampled_from([
                comp(ev("a!" if is_send else "a?", "k")),
                comp(ev("a!" if is_send else "a?", 2)),
                comp(ev("c0!" if is_send else "c0?"))]))
            hi = draw(st.sampled_from([Num(1), Num(3), SVar("s")]))
            parts.append(PArray("k", Num(1), hi, body))
            continue
        comps = []
        for _ in range(draw(st.integers(1, 3))):
            is_send = draw(st.booleans())
            if draw(st.booleans()):
                form = draw(st.sampled_from(["one", "both", "all"]))
                comps.append(_array_comp(is_send, form))
            else:
                comps.append(_plain_comp(draw(st.sampled_from(PLAIN)), is_send, 1))
        parts.append(PActor(seq(*comps)))
    return _env(delays), parts


# --- differential tests --------------------------------------------------------

def _rendered(result):
    """A schedule as its rendered steps, which the search builds; a list of
    diagnostics as it is."""
    return [s.to_json() if isinstance(s, ScheduleStep) else s for s in result]


@settings(max_examples=400, deadline=None)
@given(deterministic_networks())
def test_greedy_progress_agrees_with_the_search(case):
    env, fs = case
    assert check_determinism(env, fs) == []
    assert _rendered(check_progress(env, fs)) == dfs_check_progress(env, fs)


@settings(max_examples=300, deadline=None)
@given(any_networks(), st.data())
def test_single_pass_determinism_agrees_with_the_tree_walk(case, data):
    env, parts = case
    nested = par_flow(*parts)
    assert check_determinism(env, nested) == \
        recursive_check_determinism(env, nested)
    shaped = data.draw(shapes(parts))
    assert bool(check_determinism(env, shaped)) == \
        bool(recursive_check_determinism(env, shaped))


def test_network_checks_agree_with_the_replaced_ones_on_the_corpus():
    compared = 0
    for f in sorted(CORPUS.glob("*/*.sdf")):
        net = parse_program(f.read_text())
        if isinstance(net, list):
            continue
        flow, diags = check_proc(net.tenv, net.venv, net.body)
        if diags:
            continue
        old = recursive_check_determinism(net.tenv, flow)
        new = check_determinism(net.tenv, flow)
        # an error computing the uses used to be repeated at every level
        assert new == [d for i, d in enumerate(old) if d not in old[:i]], f.name
        if not new:
            assert _rendered(check_progress(net.tenv, flow)) == \
                dfs_check_progress(net.tenv, flow), f.name
            compared += 1
    print(compared)
    assert compared >= 27
