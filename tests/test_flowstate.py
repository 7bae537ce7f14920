import random

import pytest

from conftest import comp, ev, it, seq, tenv

from sdflow.flowstate import (
    FlowstateError, RangeIndex, check_flowstate, distribute_guard,
    distribute_iterator, flowstates_equivalent, fold_guards, fold_guards_comp,
    rate_summary,
)
from sdflow.kinding import eval_size, normalize_size
from sdflow.syntax import (
    AtMost, ChannelArrayKind, ChannelKind, Comp, Div, Divides, FEmpty,
    Iterator, Num, SMin, SizeKind, SVar, INF,
)

ENV = tenv(
    s=SizeKind(INF),
    m=SizeKind(SVar("s")),
    i=ChannelKind(0, SVar("s")),
    o=ChannelKind(0, SVar("s")),
    c=ChannelKind(0, Num(4)),
    d=ChannelKind(0, Num(4)),
    a=ChannelArrayKind(0, Num(2), SVar("s")),
    e=ChannelArrayKind(0, Num(2), Num(4)),
)


def brute_count(lo, hi, divisors=(), at_most=None):
    count = 0
    for t in range(lo, hi + 1):
        if at_most is not None and t > at_most:
            continue
        if all(t % d == 0 for d in divisors):
            count += 1
    return count


# --- formation ---------------------------------------------------------------

def test_check_plain_recv_comprehension():
    fs = comp(ev("i?"), it("t", 1, "s"))
    assert check_flowstate(ENV, fs) == []


def test_check_array_comprehension():
    fs = comp(ev("a?", "t"), it("t", 1, "s"))
    assert check_flowstate(ENV, fs) == []


def test_check_rejects_index_beyond_bound():
    fs = comp(ev("e!", 9))
    diags = check_flowstate(ENV, fs)
    assert diags and diags[0].rule == "FS Array Send"


def test_check_rejects_unbound_channel():
    diags = check_flowstate(ENV, comp(ev("zz!")))
    assert diags and "unbound" in diags[0].message


def test_check_duplicate_iterator_variable():
    fs = comp(ev("i?"), it("t", 1, 3), it("t", 1, 3))
    assert any(d.rule == "FS Comp" for d in check_flowstate(ENV, fs))


# --- distribution --------------------------------------------------------------

def test_distribute_iterator_over_sequence():
    body = seq(comp(ev("c?")), comp(ev("d!")))
    out = distribute_iterator(body, it("t", 1, "s"))
    want = seq(comp(ev("c?"), it("t", 1, "s")), comp(ev("d!"), it("t", 1, "s")))
    assert out == want


def test_distribute_iterator_over_empty():
    assert distribute_iterator(FEmpty(), it("t", 1, 4)) == FEmpty()


def test_distribute_iterator_appends():
    body = comp(ev("c!"), it("u", 1, 2))
    out = distribute_iterator(body, it("t", 1, 3))
    assert out == comp(ev("c!"), it("u", 1, 2), it("t", 1, 3))


def test_distribute_iterator_renames_colliding_binder():
    body = comp(ev("c!"), it("t", 1, 2))
    out = distribute_iterator(body, it("t", 1, 3))
    assert isinstance(out, Comp)
    assert out.iterators[-1] == it("t", 1, 3)
    assert out.iterators[0].var != "t"


def test_distribute_guard_over_sequence():
    body = seq(comp(ev("c!")), comp(ev("d!")))
    g = Divides(Num(2), SVar("t"))
    out = distribute_guard(body, g)
    assert out == seq(comp(ev("c!"), g), comp(ev("d!"), g))


def test_distribute_guard_over_empty():
    assert distribute_guard(FEmpty(), Divides(Num(2), SVar("t"))) == FEmpty()


def test_distribute_guard_appends():
    body = comp(ev("c!"), it("u", 1, "s"))
    g = AtMost(SVar("t"), Num(4))
    assert distribute_guard(body, g) == comp(ev("c!"), it("u", 1, "s"), g)


# --- guard folding ---------------------------------------------------------------

def test_fold_divisibility_on_unit_lower_bound():
    fs = comp(ev("o!"), it("t", 1, "s"), Divides(Num(2), SVar("t")))
    assert fold_guards(fs) == comp(ev("o!"), it("t", 1, Div(SVar("s"), Num(2))))


def test_fold_bound_guard_uses_min():
    fs = comp(ev("c!"), it("t", 1, 8), AtMost(SVar("t"), Num(5)))
    assert fold_guards(fs) == comp(ev("c!"), it("t", 1, 5))


def test_fold_no_guards_is_identity():
    fs = comp(ev("c!"), it("t", 1, "s"))
    assert fold_guards(fs) == fs


def test_fold_rejects_array_guards():
    fs = comp(ev("a!", "t"), it("t", 1, "s"), Divides(Num(2), SVar("t")))
    with pytest.raises(FlowstateError):
        fold_guards(fs)


def test_fold_divisibility_matches_brute_force():
    # the folded multiplicity equals a direct count of satisfying iterations
    for d in range(1, 9):
        for n in range(1, 65):
            fs = comp(ev("c!"), it("t", 1, n), Divides(Num(d), SVar("t")))
            folded = fold_guards_comp(fs)
            got = normalize_size(folded.iterators[0].hi)
            assert got == Num(brute_count(1, n, divisors=(d,))), (d, n)


def test_fold_bound_matches_brute_force():
    for b in range(0, 65):
        for n in range(1, 65, 7):
            fs = comp(ev("c!"), it("t", 1, n), AtMost(SVar("t"), Num(b)))
            folded = fold_guards_comp(fs)
            got = eval_size(folded.iterators[0].hi, {})
            assert got == brute_count(1, n, at_most=b), (b, n)


def test_fold_nonunit_numeric_lower_bound_counts_directly():
    for lo in range(2, 6):
        for n in range(lo, 20):
            fs = comp(ev("c!"), it("t", lo, n), Divides(Num(3), SVar("t")))
            folded = fold_guards_comp(fs)
            lo2, hi2 = folded.iterators[0].lo, folded.iterators[0].hi
            assert (lo2, hi2) == (Num(1), Num(brute_count(lo, n, divisors=(3,))))


def test_fold_two_divisors_uses_lcm():
    fs = comp(ev("c!"), it("t", 1, 48), Divides(Num(4), SVar("t")),
              Divides(Num(6), SVar("t")))
    folded = fold_guards_comp(fs)
    assert normalize_size(folded.iterators[0].hi) == Num(brute_count(1, 48, (4, 6)))


def test_fold_stacked_guards_exact():
    for m in range(0, 20, 3):
        fs = comp(ev("c!"), it("t", 1, 16),
                  AtMost(SVar("t"), Num(m)), Divides(Num(2), SVar("t")))
        folded = fold_guards_comp(fs)
        got = eval_size(folded.iterators[0].hi, {})
        assert got == brute_count(1, 16, divisors=(2,), at_most=m), m


# --- rate summaries --------------------------------------------------------------

def test_rate_summary_intro_example():
    fs = seq(comp(ev("i?"), it("t", 1, "s")),
             comp(ev("o!"), it("t", 1, "s"), Divides(Num(2), SVar("t"))))
    assert rate_summary(ENV, fs) == {
        ("i", "recv"): SVar("s"),
        ("o", "send"): Div(SVar("s"), Num(2)),
    }


def test_rate_summary_empty():
    assert rate_summary(ENV, FEmpty()) == {}


def test_rate_summary_matches_enumeration_at_8():
    fs = seq(comp(ev("i?"), it("t", 1, 8)),
             comp(ev("o!"), it("t", 1, 8), Divides(Num(2), SVar("t"))))
    summary = rate_summary(ENV, fs)
    assert summary[("i", "recv")] == Num(8)
    assert summary[("o", "send")] == Num(brute_count(1, 8, divisors=(2,)))


def test_rate_summary_array_range_target():
    fs = comp(ev("a?", "t"), it("t", 1, "s"))
    assert rate_summary(ENV, fs) == {
        ("a", "recv", RangeIndex(Num(1), SVar("s"))): Num(1)}


def test_rate_summary_merges_same_target():
    from sdflow.syntax import Mul
    fs = seq(comp(ev("c!"), it("t", 1, "s")), comp(ev("c!"), it("u", 1, "s")))
    summary = rate_summary(ENV, fs)
    assert summary[("c", "send")] == normalize_size(Mul(Num(2), SVar("s")))


# --- equivalence ------------------------------------------------------------------

def test_equivalence_ignores_order():
    a = seq(comp(ev("c!")), comp(ev("d?")))
    b = seq(comp(ev("d?")), comp(ev("c!")))
    assert flowstates_equivalent(ENV, a, b) is True


def test_equivalence_comprehension_vs_unrolled():
    a = comp(ev("c!"), it("t", 1, 2))
    b = seq(comp(ev("c!")), comp(ev("c!")))
    assert flowstates_equivalent(ENV, a, b) is True


def test_equivalence_direction_matters():
    assert flowstates_equivalent(ENV, comp(ev("c!")), comp(ev("c?"))) is False


def test_equivalence_refuted_by_instantiation():
    a = comp(ev("c!"), it("t", 1, "s"))
    b = comp(ev("c!"), it("t", 1, Div(SVar("s"), Num(2))))
    assert flowstates_equivalent(ENV, a, b) is False


def test_equivalence_is_equivalence_relation_on_decided():
    rng = random.Random(5)
    flows = [
        comp(ev("c!"), it("t", 1, "s")),
        seq(comp(ev("c!"), it("t", 1, "s")), FEmpty()),
        comp(ev("c!"), it("t", 1, 4)),
        seq(*[comp(ev("c!")) for _ in range(4)]),
        comp(ev("d?"), it("t", 1, 4)),
    ]
    for a in flows:
        assert flowstates_equivalent(ENV, a, a) is True
    for a in flows:
        for b in flows:
            ab = flowstates_equivalent(ENV, a, b)
            ba = flowstates_equivalent(ENV, b, a)
            assert ab == ba
    for a in flows:
        for b in flows:
            for c in flows:
                if (flowstates_equivalent(ENV, a, b) is True
                        and flowstates_equivalent(ENV, b, c) is True):
                    assert flowstates_equivalent(ENV, a, c) is True


def test_distribute_then_unroll_count():
    # distributing an iterator multiplies occurrence counts by its extent
    body = seq(comp(ev("c!"), it("u", 1, 3)), comp(ev("d!")))
    out = distribute_iterator(body, it("t", 1, 5))
    summary = rate_summary(ENV, out)
    assert summary[("c", "send")] == Num(15)
    assert summary[("d", "send")] == Num(5)


from hypothesis import given, settings, strategies as st


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.integers(1, 8), st.integers(0, 64),
       st.integers(1, 64))
def test_folded_count_is_exact_for_any_guard_stack(n, d, b, lo_hint):
    # counting soundness over both guard forms together
    fs = comp(ev("c!"), it("t", 1, n), AtMost(SVar("t"), Num(b)),
              Divides(Num(d), SVar("t")))
    folded = fold_guards_comp(fs)
    got = eval_size(folded.iterators[0].hi, {})
    assert got == brute_count(1, n, divisors=(d,), at_most=b)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2), st.integers(1, 12), st.integers(1, 12))
def test_comprehension_extent_times_body(lo, n, m):
    body = comp(ev("c!"), it("u", lo, m))
    out = distribute_iterator(body, it("t", lo, n))
    want = max(0, n - lo + 1) * max(0, m - lo + 1)
    assert rate_summary(ENV, out).get(("c", "send"), Num(0)) == Num(want)
