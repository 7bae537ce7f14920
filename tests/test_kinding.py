import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import gen_size_expr, tenv

from sdflow.kinding import (
    check_type_env, check_value_env, eval_size, is_inf, kind_of,
    normalize_size, size_leq, sizes_equal,
)
from sdflow.syntax import (
    Add, BoolType, ChannelKind, ChanType, Diagnostic, Div, IndexType,
    Infinity, IntType, Mul, Num, ProcType, RefType, SizeArithmeticError,
    SizeKind, SMin, Sub, SVar, SizeType, Env, TypeKind, INF,
    EMPTY_FLOW,
)


# --- evaluation ---------------------------------------------------------------

def test_eval_floor_division():
    assert eval_size(Div(SVar("s"), Num(2)), {"s": 8}) == 4
    assert eval_size(Div(SVar("s"), Num(2)), {"s": 7}) == 3


def test_eval_min():
    assert eval_size(SMin(SVar("x"), Num(3)), {"x": 7}) == 3


def test_eval_infinity_absorbs():
    assert is_inf(eval_size(Add(INF, Num(1)), {}))
    assert is_inf(eval_size(Mul(INF, Num(2)), {}))
    assert eval_size(SMin(INF, Num(9)), {}) == 9


def test_eval_subtraction_clamps():
    assert eval_size(Sub(Num(2), Num(5)), {}) == 0


def test_eval_division_by_zero():
    with pytest.raises(SizeArithmeticError):
        eval_size(Div(Num(4), Num(0)), {})


# --- normalization --------------------------------------------------------------

def test_normalize_additive_cancellation():
    e = Div(Add(Sub(SVar("s"), Num(1)), Num(1)), Num(2))
    assert normalize_size(e) == Div(SVar("s"), Num(2))


def test_normalize_min_constants():
    assert normalize_size(SMin(Num(3), Num(5))) == Num(3)


def test_normalize_identities():
    s = SVar("s")
    assert normalize_size(Add(s, Num(0))) == s
    assert normalize_size(Mul(s, Num(1))) == s
    assert normalize_size(SMin(s, s)) == s
    assert normalize_size(Mul(s, Num(0))) == Num(0)


def test_normalize_drops_a_zero_summand_around_a_clamped_difference():
    # `netcheck.Record.add` starts every count as `0 + n`; a clamped
    # difference is no linear form, so the zero must go before that pass
    diff = Sub(SVar("a"), SVar("b"))
    assert normalize_size(Add(Num(0), diff)) == diff
    assert normalize_size(Add(diff, Num(0))) == diff
    assert normalize_size(Add(Num(0), Add(Num(0), diff))) == diff


def test_normalize_sum_groups_terms():
    s = SVar("s")
    assert sizes_equal(Add(s, s), Mul(Num(2), s))


def test_normalize_division_by_zero_diagnostic():
    with pytest.raises(SizeArithmeticError):
        normalize_size(Div(SVar("s"), Sub(SVar("k"), SVar("k"))))


def _check_normalize_preserves(e, rng, trials=100):
    ne = normalize_size(e)
    assert normalize_size(ne) == ne, e  # idempotent
    for _ in range(trials):
        valuation = {v: rng.randint(1, 100) for v in ("s", "m", "k")}
        try:
            before = eval_size(e, valuation)
        except SizeArithmeticError:
            continue  # partial expressions stay partial or become defined
        after = eval_size(ne, valuation)
        assert before == after, (e, ne, valuation)


def test_normalize_idempotent_and_meaning_preserving():
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        e = gen_size_expr(rng)
        try:
            _check_normalize_preserves(e, rng)
        except SizeArithmeticError:
            continue  # constant division by zero is rejected outright
        checked += 1


# --- ordering ----------------------------------------------------------------

ENV = tenv(s=SizeKind(INF), t=SizeKind(SVar("s")), k=SizeKind(Num(6)))


def test_leq_numeric():
    assert size_leq(ENV, Num(2), Num(5)) is True
    assert size_leq(ENV, Num(6), Num(5)) is False


def test_leq_infinity_top():
    assert size_leq(ENV, SVar("s"), INF) is True
    assert size_leq(ENV, Mul(SVar("s"), SVar("s")), INF) is True


def test_leq_variable_bound():
    assert size_leq(ENV, SVar("t"), SVar("s")) is True
    assert size_leq(ENV, SVar("k"), Num(6)) is True
    assert size_leq(ENV, SVar("k"), Num(8)) is True  # k <= 6 <= 8


def test_leq_reflexive_on_symbolic():
    e = Div(SVar("s"), Num(2))
    assert size_leq(ENV, e, e) is True


def test_leq_undecided_is_none():
    assert size_leq(ENV, SVar("s"), SVar("k")) is None
    assert size_leq(ENV, Mul(SVar("s"), SVar("s")), SVar("s")) is None


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 1 << 30), st.integers(1, 60))
def test_leq_soundness_under_valuations(seed, bound):
    rng = random.Random(seed)
    a = gen_size_expr(rng, 2)
    b = gen_size_expr(rng, 2)
    env = tenv(s=SizeKind(Num(bound)), m=SizeKind(INF), k=SizeKind(INF))
    try:
        verdict = size_leq(env, a, b)
    except SizeArithmeticError:
        return
    if verdict is not True:
        return
    for _ in range(25):
        valuation = {"s": rng.randint(1, bound),
                     "m": rng.randint(1, 80), "k": rng.randint(1, 80)}
        try:
            va, vb = eval_size(a, valuation), eval_size(b, valuation)
        except SizeArithmeticError:
            continue
        if is_inf(vb):
            continue
        assert not is_inf(va) and va <= vb, (a, b, valuation)


# --- kinds ---------------------------------------------------------------------

def test_kind_of_size_constant():
    assert kind_of(ENV, Num(5)) == SizeKind(Num(5))


def test_kind_of_infinity():
    assert kind_of(ENV, INF) == SizeKind(INF)


def test_kind_of_channel_type():
    env = tenv(s=SizeKind(INF), i=ChannelKind(0, SVar("s")))
    assert kind_of(env, ChanType("+", "i", IntType())) == TypeKind()


def test_kind_of_is_never_size_for_ordinary_types():
    for ty in (BoolType(), IntType(), RefType(IntType()),
               ProcType((IntType(),), EMPTY_FLOW, EMPTY_FLOW, IntType())):
        assert kind_of(ENV, ty) == TypeKind()


def test_kind_mismatch_reported():
    env = tenv(i=ChannelKind(0, Num(4)))
    out = kind_of(env, Add(SVar("i"), Num(1)))
    assert isinstance(out, Diagnostic)


def test_check_type_env_empty_ok():
    assert check_type_env(Env()) == []


def test_check_type_env_declaration_order():
    ok = tenv(s=SizeKind(INF), i=ChannelKind(0, SVar("s")))
    assert check_type_env(ok) == []
    bad = tenv(i=ChannelKind(0, SVar("s")))
    diags = check_type_env(bad)
    assert diags and diags[0].rule == "Kind Chan"


def _lines_run(fn, *args) -> int:
    """Python lines executed by `fn(*args)`, in every frame it calls."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return trace
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return lines


def test_check_type_env_work_is_linear_in_declarations():
    # each `Channel(0, s)` looks up `s`, declared first of all
    def work(n):
        env = Env((("s", SizeKind(INF)),) + tuple(
            (f"c{i}", ChannelKind(0, SVar("s"))) for i in range(n)))
        assert check_type_env(env) == []
        return _lines_run(check_type_env, env)
    assert work(2000) <= 4.2 * work(500)


def test_check_value_env():
    env = tenv(s=SizeKind(INF), i=ChannelKind(0, SVar("s")))
    venv = Env((("sz", SizeType(SVar("s"))),
                     ("inp", ChanType("+", "i", IntType()))))
    assert check_value_env(env, venv) == []
