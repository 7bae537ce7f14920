"""Closed-form comprehension counting against unrolling and brute force.

`unrolled_count` is the reference: it expands the outermost iterator one
value at a time and recurses, so it costs O(range) per call.  The harness
and the checker count in closed form; these tests hold the two together.
"""

from hypothesis import example, given, settings, strategies as st

from conftest import comp, corpus_files, ev, it, load, sizes_for

from test_conform_oracle import _silent_normalize, unroll

from sdflow import conformance
from sdflow.conformance import check_preservation, comp_occurrence_count
from sdflow.flowstate import count_in_range, proc_rate_summary
from sdflow.kinding import normalize_size
from sdflow.parser import parse_program_or_raise
from sdflow.runtime import _rel_holds
from sdflow.syntax import (
    AtMost, Comp, Divides, Iterator, Num, SVar, subst_comp,
)
from sdflow.typecheck import check_network


def unrolled_count(comp: Comp):
    """Events a comprehension emits, by unrolling; None when some bound or
    guard stays symbolic."""
    c = _silent_normalize(comp)
    if c is None:
        return 0
    if not c.iterators:
        return None if c.guards else 1
    it = c.iterators[-1]
    lo, hi = normalize_size(it.lo), normalize_size(it.hi)
    if not (isinstance(lo, Num) and isinstance(hi, Num)):
        return None
    total = 0
    for k in range(lo.value, hi.value + 1):
        head = subst_comp(Comp(c.event, c.iterators[:-1], c.guards),
                          it.var, Num(k))
        n = unrolled_count(head)
        if n is None:
            return None
        total += n
    return total


# --- generated comprehensions ---------------------------------------------------

VARS = ("t0", "t1", "t2")
SYM = SVar("s")


@st.composite
def comprehensions(draw, symbolic: bool):
    """1-3 iterators over small (often empty or singleton) ranges, with
    divisibility and bound guards (several may share a variable) and
    leftover numeric guards.  Iterators may share a name; a guard on it is
    the first one's.  With `symbolic`, any size may be `s`, and a guard may
    name a variable no iterator binds."""
    size = st.integers(0, 5).map(Num)
    if symbolic:
        size = st.one_of(size, st.just(SYM))
    names = tuple(draw(st.lists(st.sampled_from(VARS), min_size=1,
                                max_size=3)))
    iters = tuple(Iterator(v, draw(size), draw(size)) for v in names)
    gvar = st.sampled_from(names + (("x",) if symbolic else ())).map(SVar)
    guard = st.one_of(
        st.builds(Divides, size, gvar),
        st.builds(AtMost, gvar, size),
        st.builds(Divides, size, size),
        st.builds(AtMost, size, size),
    )
    return comp(ev("c!"), *iters, *draw(st.lists(guard, max_size=4)))


@settings(max_examples=400, deadline=None)
@given(comprehensions(symbolic=False))
@example(comp(ev("c!"), it("t0", 0, 4), Divides(Num(0), SVar("t0"))))
@example(comp(ev("c!"), it("t0", 3, 3), it("t1", 2, 1)))
@example(comp(ev("c!"), it("t0", 1, 2), it("t0", 5, 6),
              AtMost(SVar("t0"), Num(1))))
def test_closed_form_equals_unrolling_on_numeric_comprehensions(c):
    want = unrolled_count(c)
    assert want is not None
    assert comp_occurrence_count(c) == want


@settings(max_examples=400, deadline=None)
@given(comprehensions(symbolic=True))
@example(comp(ev("c!"), it("t0", 1, 1), Divides(SYM, SVar("t0")),
              Divides(Num(2), SVar("t0"))))
def test_closed_form_never_contradicts_unrolling(c):
    # Where unrolling reaches an answer the closed form gives the same one,
    # and the closed form gives up only where unrolling does too.  (It may
    # prove a count of 0 that unrolling misses behind a symbolic guard.)
    got, want = comp_occurrence_count(c), unrolled_count(c)
    if want is not None:
        assert got == want
    if got is None:
        assert want is None


# a guard on a shadowed name, and what the comprehension emits: the guard is
# the first iterator's, the one a substitution reaches
SHADOWED = [
    (comp(ev("a!"), it("t", 1, 2), it("t", 5, 6), AtMost(SVar("t"), Num(1))),
     2),
    (comp(ev("a!"), it("t", 1, 3), it("t", 1, 1), Divides(Num(2), SVar("t"))),
     1),
]


def test_a_guard_on_a_shadowed_name_counts_for_its_first_iterator():
    for c, emitted in SHADOWED:
        assert len(unroll(c)) == unrolled_count(c) == emitted
        assert comp_occurrence_count(c) == emitted


def test_symbolic_bound_returns_none():
    for c in (comp(ev("c!"), it("t", 1, "s")),
              comp(ev("c!"), it("t", 1, 3), it("u", 1, "s")),
              comp(ev("c!"), it("t", 1, 3), Divides(SYM, SVar("t"))),
              comp(ev("c!"), it("t", 1, 3), AtMost(SVar("t"), SYM)),
              comp(ev("c!"), it("t", 1, 3), AtMost(Num(1), SYM))):
        assert comp_occurrence_count(c) is None
        assert unrolled_count(c) is None


# --- the shared range counter ------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(st.integers(0, 14), st.integers(0, 14),
       st.lists(st.integers(0, 6), max_size=3),
       st.lists(st.integers(0, 14), max_size=2))
def test_range_counter_matches_brute_force(lo, hi, divisors, bounds):
    guards = ([Divides(Num(d), SVar("k")) for d in divisors]
              + [AtMost(SVar("k"), Num(b)) for b in bounds])
    want = sum(1 for k in range(lo, hi + 1)
               if all(_rel_holds("|", d, k) for d in divisors)
               and all(_rel_holds("<=", k, b) for b in bounds))
    assert count_in_range(Num(lo), Num(hi), guards) == want


def test_zero_divisor_holds_only_at_zero():
    zero = [Divides(Num(0), SVar("k"))]
    assert count_in_range(Num(0), Num(5), zero) == 1
    assert count_in_range(Num(1), Num(5), zero) == 0
    assert count_in_range(Num(1), SYM, zero) == 0


ZERO_DIVISOR = """
chan c : Channel(0, 4);
val w : Chan(-, c, Integer);
val r : Chan(+, c, Integer);
flow c!<t in {lo}..3, 0 | t> || c?<u in 1..{n}>;
network {{
  actor {{ for (t, x in {lo}..size(3)) when (size(0) | x) send w 1 }}
  ||
  actor {{ for (u, y in 1..size({n})) recv r }}
}}
"""


def test_checker_counts_zero_divisor_like_the_runtime():
    # `0 | x` fires once, at x = 0: one send from 0..3, none from 1..3
    for lo, sends in ((0, 1), (1, 0)):
        net = parse_program_or_raise(ZERO_DIVISOR.format(lo=lo, n=sends))
        result = check_network(net)
        assert result.ok, result.diagnostics
        rates = proc_rate_summary(net.tenv, result.flow)
        assert rates.get(("c", "send"), Num(0)) == Num(sends)
        assert check_preservation(net, {}).ok


# --- the harness's own counts ------------------------------------------------------

def test_harness_counts_agree_with_unrolling_over_corpus(monkeypatch):
    # every residual piece the observer counts, against unrolling its
    # comprehension
    seen = []
    piece_count = conformance._piece_count

    def checked(p):
        got = piece_count(p)
        c = conformance._piece_comp(p)
        assert got == unrolled_count(c) == comp_occurrence_count(c), c
        seen.append(got)
        return got

    monkeypatch.setattr(conformance, "_piece_count", checked)
    for f in corpus_files("good"):
        net = parse_program_or_raise(f.read_text())
        assert check_preservation(net, sizes_for(net, 3), name=f.name).ok
    assert max(seen) > 1


def test_preservation_substitutions_grow_linearly_in_rate(monkeypatch):
    # the piece reducer's calls, each of which took a `subst_comp` per
    # unrolled iterator when residuals were comprehensions
    calls = 0
    consume = conformance._consume

    def counting(*args):
        nonlocal calls
        calls += 1
        return consume(*args)

    monkeypatch.setattr(conformance, "_consume", counting)
    net = parse_program_or_raise(load("good", "pipeline3.sdf"))
    per_rate = {}
    for n in (128, 512):
        calls = 0
        assert check_preservation(net, {"n": n}).ok
        per_rate[n] = calls
    assert per_rate[512] <= 5 * per_rate[128], per_rate
