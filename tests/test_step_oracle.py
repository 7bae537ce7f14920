"""The step machine against the `match` dispatch it replaced.

`step_expr`, `_in_context`, `_step_comm`, `_as_int`, `is_value` and
`subst_expr` below are the pattern-matching versions that `sdflow.runtime`
and `sdflow.syntax` replaced with one class lookup per step, and then with
a CK machine that refocuses from each actor's focus.  At every poll
of `run`, on the corpus and on hand-written networks under several
schedules, both machines must give the same outcome: its class, `expr`,
`label`, `reason` and blocking key, and effects that leave equal heaps.  A
step's key must name what it touches: its label's buffer, or the target of
a `Deref` or `Assign` redex, found by `_redex` as exploration once did.
`subst_expr` and `is_value` must agree on every sub-expression of every
corpus actor body.
"""

from __future__ import annotations

import typing
from typing import Callable, Optional, Union

import pytest
from conftest import CORPUS, corpus_files, sizes_for
from test_runtime import (
    RACY_REF, REF_OVER_CHANNEL, STUCK_BESIDE_BLOCKED, TWO_WRITERS,
)
from test_runtime import BINDERS

from sdflow import runtime, syntax
from sdflow.parser import parse_program, parse_program_or_raise
from sdflow.runtime import (
    Blocked, Heap, InstantiationError, Label, Stepped, Stuck, _rel_holds,
    buffer_name, instantiate, run,
)
from sdflow.syntax import (
    ActorComp, ActorE, App, Assign, BinOp, BoolLit, ChanArrayType, ChanType,
    Deref, Env, Expr, For, FromIndex, FromSize, If, IntLit, Lam, Let, LocRef,
    MkIndex, MkSize, NewRef, Recv, Send, SeqE, Var, When, proc_components,
    replace,
)


# --- the replaced implementation --------------------------------------------

def _as_int(v: Expr) -> Optional[int]:
    match v:
        case IntLit(n):
            return n
        case MkSize(IntLit(n)) | MkIndex(IntLit(n)):
            return n
        case _:
            return None


def step_expr(e: Expr, heap: Heap, actor: str, venv: Env
              ) -> Union[Stepped, Blocked, Stuck, None]:
    """One reduction of `e`, or None when `e` is a value.  Heap changes are
    returned as an effect thunk so schedulers can probe without committing."""
    if is_value(e):
        return None
    match e:
        case SeqE(first, second):
            if is_value(first):
                return Stepped(second)
            return _in_context(first, heap, actor, venv,
                               lambda f: SeqE(f, second))
        case Let(var, bound, body):
            if is_value(bound):
                return Stepped(subst_expr(body, {var: bound}))
            return _in_context(bound, heap, actor, venv,
                               lambda b: Let(var, b, body))
        case App(fn, args):
            if not is_value(fn):
                return _in_context(fn, heap, actor, venv,
                                   lambda f: App(f, args))
            for i, a in enumerate(args):
                if not is_value(a):
                    return _in_context(
                        a, heap, actor, venv,
                        lambda x, i=i: App(fn, args[:i] + (x,) + args[i + 1:]))
            if not isinstance(fn, Lam) or len(fn.params) != len(args):
                return Stuck("calling a non-procedure")
            mapping = {name: arg for (name, _), arg in zip(fn.params, args)}
            return Stepped(subst_expr(fn.body, mapping))
        case If(cond, then, els):
            if not is_value(cond):
                return _in_context(cond, heap, actor, venv,
                                   lambda c: If(c, then, els))
            match cond:
                case BoolLit(True):
                    return Stepped(then)
                case BoolLit(False):
                    return Stepped(els)
                case _:
                    return Stuck("condition did not evaluate to a Boolean")
        case When(lhs, op, rhs, body):
            if not is_value(lhs):
                return _in_context(lhs, heap, actor, venv,
                                   lambda l: When(l, op, rhs, body))
            if not is_value(rhs):
                return _in_context(rhs, heap, actor, venv,
                                   lambda r: When(lhs, op, r, body))
            a, b = _as_int(lhs), _as_int(rhs)
            if a is None or b is None:
                return Stuck("guard operands are not numeric")
            return Stepped(body if _rel_holds(op, a, b) else IntLit(0))
        case For(tvar, var, lo, bound, body):
            if not is_value(bound):
                return _in_context(bound, heap, actor, venv,
                                   lambda b: For(tvar, var, lo, b, body))
            n = _as_int(bound)
            if n is None:
                return Stuck("loop bound is not a size value")
            if lo > n:
                return Stepped(IntLit(0))
            unrolled = SeqE(subst_expr(body, {var: MkIndex(IntLit(lo))}),
                            For(tvar, var, lo + 1, bound, body))
            return Stepped(unrolled)
        case FromSize(arg):
            if not is_value(arg):
                return _in_context(arg, heap, actor, venv, FromSize)
            match arg:
                case MkSize(IntLit(n)):
                    return Stepped(IntLit(n))
                case _:
                    return Stuck("fromSize of a non-size value")
        case FromIndex(arg):
            if not is_value(arg):
                return _in_context(arg, heap, actor, venv, FromIndex)
            match arg:
                case MkIndex(IntLit(n)):
                    return Stepped(IntLit(n))
                case _:
                    return Stuck("fromIndex of a non-index value")
        case MkSize(arg):
            return _in_context(arg, heap, actor, venv, MkSize)
        case MkIndex(arg):
            return _in_context(arg, heap, actor, venv, MkIndex)
        case NewRef(init):
            if not is_value(init):
                return _in_context(init, heap, actor, venv, NewRef)
            slot = heap.next_slot.get(actor, 0)
            ref = LocRef(actor, slot)

            def effect(h: Heap, init=init):
                h.alloc(actor, init)
            return Stepped(ref, effect=effect)
        case Deref(target):
            if not is_value(target):
                return _in_context(target, heap, actor, venv, Deref)
            if not isinstance(target, LocRef):
                return Stuck("dereferencing a non-reference")
            return Stepped(heap.locs[(target.actor, target.slot)])
        case Assign(target, value):
            if not is_value(target):
                return _in_context(target, heap, actor, venv,
                                   lambda t: Assign(t, value))
            if not is_value(value):
                return _in_context(value, heap, actor, venv,
                                   lambda v: Assign(target, v))
            if not isinstance(target, LocRef):
                return Stuck("assignment to a non-reference")

            def effect(h: Heap, target=target, value=value):
                h.locs[(target.actor, target.slot)] = value
            return Stepped(value, effect=effect)
        case BinOp(op, lhs, rhs):
            if not is_value(lhs):
                return _in_context(lhs, heap, actor, venv,
                                   lambda l: BinOp(op, l, rhs))
            if not is_value(rhs):
                return _in_context(rhs, heap, actor, venv,
                                   lambda r: BinOp(op, lhs, r))
            a, b = _as_int(lhs), _as_int(rhs)
            if a is None or b is None:
                return Stuck(f"operator {op} on non-integers")
            if op == "+":
                return Stepped(IntLit(a + b))
            if op == "-":
                return Stepped(IntLit(a - b))
            if op == "*":
                return Stepped(IntLit(a * b))
            if op == "/":
                if b == 0:
                    return Stuck("division by zero")
                return Stepped(IntLit(a // b))
            if op == "==":
                return Stepped(BoolLit(a == b))
            if op == "<=":
                return Stepped(BoolLit(a <= b))
            if op == "<":
                return Stepped(BoolLit(a < b))
            return Stuck(f"unknown operator {op}")
        case Send() | Recv():
            return _step_comm(e, heap, actor, venv)
    raise TypeError(f"cannot step {e!r}")


def _in_context(inner: Expr, heap: Heap, actor: str, venv: Env,
                rebuild: Callable[[Expr], Expr]):
    out = step_expr(inner, heap, actor, venv)
    if isinstance(out, Stepped):
        return Stepped(rebuild(out.expr), out.label, out.effect)
    return out


def _step_comm(e: Union[Send, Recv], heap: Heap, actor: str, venv: Env):
    """A send or receive: the index, then a send's payload, evaluate first."""
    if e.index is not None and not is_value(e.index):
        return _in_context(e.index, heap, actor, venv,
                           lambda i: replace(e, index=i))
    is_send = isinstance(e, Send)
    if is_send and not is_value(e.payload):
        # polled on every step: the constructor is cheaper than `replace`
        return _in_context(e.payload, heap, actor, venv,
                           lambda p: Send(e.chan, e.index, p))
    ty = venv.lookup(e.chan)
    if isinstance(ty, ChanType):
        key = (ty.name, None)
    elif isinstance(ty, ChanArrayType):
        idx = _as_int(e.index)
        if idx is None:
            return Stuck("array index is not an index value")
        key = (ty.name, idx)
        if key not in heap.bufs:
            return Stuck(f"index {idx} outside channel array {ty.name}")
    else:
        return Stuck(f"{e.chan} is not bound to a channel")
    buf = heap.bufs[key]
    if is_send:
        if len(buf) >= heap.caps[ty.name]:
            return Blocked(f"buffer {buffer_name(key)} is full", key)
        return Stepped(IntLit(0), Label(ty.name, True, key[1]),
                       lambda h: h.push(key, e.payload))
    if not buf:
        return Blocked(f"buffer {buffer_name(key)} is empty", key)
    return Stepped(buf[0], Label(ty.name, False, key[1]),
                   lambda h: h.pop(key))


def is_value(e: Expr) -> bool:
    match e:
        case IntLit() | BoolLit() | Lam() | LocRef():
            return True
        case Var():
            # surviving free names denote channels, which are atomic values
            return True
        case MkSize(arg) | MkIndex(arg):
            return is_value(arg)
        case _:
            return False


def subst_expr(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Capture-avoiding substitution of values for variables.

    Replacement terms are values, whose free names are channel names; those
    can never be captured because binders never shadow channel declarations
    in well-formed programs, so binder renaming is not needed here.
    """
    if not mapping:
        return e
    match e:
        case IntLit() | BoolLit() | LocRef():
            return e
        case Var(name):
            return mapping.get(name, e)
        case MkSize(a):
            return MkSize(subst_expr(a, mapping))
        case FromSize(a):
            return FromSize(subst_expr(a, mapping))
        case MkIndex(a):
            return MkIndex(subst_expr(a, mapping))
        case FromIndex(a):
            return FromIndex(subst_expr(a, mapping))
        case Lam(params, latent, rest, body):
            inner = {k: v for k, v in mapping.items()
                     if k not in {p for p, _ in params}}
            return Lam(params, latent, rest, subst_expr(body, inner))
        case App(fn, args):
            return App(subst_expr(fn, mapping),
                       tuple(subst_expr(a, mapping) for a in args))
        case Let(var, bound, body):
            inner = {k: v for k, v in mapping.items() if k != var}
            return Let(var, subst_expr(bound, mapping), subst_expr(body, inner))
        case SeqE(a, b):
            return SeqE(subst_expr(a, mapping), subst_expr(b, mapping))
        case If(c, t, f):
            return If(subst_expr(c, mapping), subst_expr(t, mapping),
                      subst_expr(f, mapping))
        case When(l, op, r, body):
            return When(subst_expr(l, mapping), op, subst_expr(r, mapping),
                        subst_expr(body, mapping))
        case For(tvar, var, lo, bound, body):
            inner = {k: v for k, v in mapping.items() if k != var}
            return For(tvar, var, lo, subst_expr(bound, mapping),
                       subst_expr(body, inner))
        case NewRef(a):
            return NewRef(subst_expr(a, mapping))
        case Deref(a):
            return Deref(subst_expr(a, mapping))
        case Assign(t, v):
            return Assign(subst_expr(t, mapping), subst_expr(v, mapping))
        case Recv(chan, index):
            return Recv(chan, None if index is None else subst_expr(index, mapping))
        case Send(chan, index, payload):
            return Send(chan, None if index is None else subst_expr(index, mapping),
                        subst_expr(payload, mapping))
        case BinOp(op, l, r):
            return BinOp(op, subst_expr(l, mapping), subst_expr(r, mapping))
    raise TypeError(f"not an expression: {e!r}")


def _redex(e: Expr) -> Expr:
    """The subterm whose reduction is `e`'s next step, following the
    evaluation order of `step_expr`."""
    while True:
        match e:
            case (SeqE(a) | Let(bound=a) | If(a) | For(bound=a) | FromSize(a)
                  | FromIndex(a) | MkSize(a) | MkIndex(a) | NewRef(a)
                  | Deref(a)):
                parts = (a,)
            case When(a, _, b) | Assign(a, b) | BinOp(_, a, b):
                parts = (a, b)
            case App(fn, args):
                parts = (fn, *args)
            case Send(_, index, payload):
                parts = (index, payload)
            case Recv(_, index):
                parts = (index,)
            case _:
                return e
        inner = next((p for p in parts if p is not None and not is_value(p)),
                     None)
        if inner is None:
            return e
        e = inner


# --- comparison along runs --------------------------------------------------

def _touched(e: Expr, label: Optional[Label]):
    """The key a step of `e` with `label` must carry."""
    if label is not None:
        return (label.chan, label.index)
    redex = _redex(e)
    return redex.target if isinstance(redex, (Deref, Assign)) else None


def assert_same_outcome(new, old, heap: Heap, e: Expr) -> None:
    assert new.__class__ is old.__class__
    if isinstance(old, Stepped):
        assert (new.expr, new.label) == (old.expr, old.label)
        assert new.key == _touched(e, old.label)
        assert (new.effect is None) == (old.effect is None)
        if old.effect is not None:
            new_heap, old_heap = heap.copy(), heap.copy()
            new.effect(new_heap)
            old.effect(old_heap)
            assert new_heap == old_heap
    elif old is not None:
        assert new.reason == old.reason
        assert getattr(new, "key", None) == getattr(old, "key", None)


SCHEDULES = ([{"scheduler": "roundRobin"}]
             + [{"scheduler": "random", "seed": s} for s in range(5)])

HAND_WRITTEN = {"two_writers": TWO_WRITERS, "racy_ref": RACY_REF,
                "ref_over_channel": REF_OVER_CHANNEL,
                "stuck_beside_blocked": STUCK_BESIDE_BLOCKED}

RUN_NETS = ([(f"{kind}/{p.name}", p.read_text())
             for kind in ("good", "rejected") for p in corpus_files(kind)]
            + sorted(HAND_WRITTEN.items()))

# loop indices bound again by an inner loop, a `let` and a procedure
# parameter, and held only by an inner loop's bound or a procedure body:
# every poll is checked against the rebuilding `subst_expr` above
RUN_NETS += [("binders", BINDERS)]


@pytest.mark.parametrize("name, source", RUN_NETS,
                         ids=[name for name, _ in RUN_NETS])
def test_every_poll_matches_the_match_dispatch(name, source, monkeypatch):
    net = parse_program_or_raise(source)
    polled = runtime._actor_outcome
    polls = 0

    def checked(cfg, i):
        nonlocal polls
        polls += 1
        actor = cfg.actors[i]
        new = polled(cfg, i)
        old = None if actor.expr is None else \
            step_expr(actor.expr, cfg.heap, actor.name, net.venv)
        assert_same_outcome(new, old, cfg.heap, actor.expr)
        return new

    monkeypatch.setattr(runtime, "_actor_outcome", checked)
    for v in (1, 2, 3, 4):
        try:
            cfg = instantiate(net, sizes_for(net, v))
        except InstantiationError:
            continue
        for kwargs in SCHEDULES:
            run(cfg, **kwargs)
    assert polls > 0


# --- substitution and values ------------------------------------------------

EXPR_CLASSES = frozenset(typing.get_args(Expr))


def subexpressions(e: Expr):
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        for f in e.__record_fields__:
            value = getattr(e, f.name)
            stack += (x for x in (value if isinstance(value, tuple)
                                  else (value,))
                      if x.__class__ in EXPR_CLASSES)


def actor_bodies(net) -> list:
    out = []
    for part in proc_components(net.body):
        if isinstance(part, ActorE):
            out.append(part.expr)
        elif isinstance(part, ActorComp):
            out += (part.hi, part.body)
    return out


CORPUS_BODIES = [
    (p.relative_to(CORPUS).as_posix(), net)
    for p in sorted(CORPUS.glob("*/*.sdf"))
    if not isinstance(net := parse_program(p.read_text()), list)]


@pytest.mark.parametrize("name, net", CORPUS_BODIES,
                         ids=[name for name, _ in CORPUS_BODIES])
def test_subst_and_is_value_match_the_match_dispatch(name, net):
    try:
        cfg = instantiate(net, sizes_for(net, 2))
    except InstantiationError:  # a capacity names an unbound size: no heap
        cfg = None
    for body in actor_bodies(net):
        for e in subexpressions(body):
            assert runtime.is_value(e) == is_value(e)
            if cfg is not None:
                out = runtime.step_expr(e, cfg.heap, "a0")
                assert (out is None) is is_value(e)
            names = sorted({x.name for x in subexpressions(e)
                            if isinstance(x, Var)})
            assert runtime.subst_expr(e, {}) is e
            for wrap in (IntLit, lambda n: MkIndex(IntLit(n))):
                mapping = {x: wrap(k) for k, x in enumerate(names)}
                new = runtime.subst_expr(e, mapping)
                assert new == subst_expr(e, mapping)
                assert runtime.is_value(new) == is_value(new)


def test_values_behind_size_and_index_wrappers():
    for e, want in [(MkSize(MkIndex(Var("c"))), True),
                    (MkIndex(MkSize(Recv("c"))), False),
                    (LocRef("a0", 0), True), (Recv("c"), False)]:
        assert runtime.is_value(e) is is_value(e) is want


def test_every_expression_class_steps_and_values_step_to_none():
    # `step_expr` takes the classes `subst_expr` takes
    assert set(runtime._SUBST) == EXPR_CLASSES
    values = [IntLit(1), BoolLit(True), LocRef("a0", 0), Var("x"),
              Lam((), syntax.EMPTY_FLOW, syntax.EMPTY_FLOW, IntLit(0))]
    assert {v.__class__ for v in values} == runtime._VALUE_CLASSES
    for v in values:
        for e in (v, MkSize(v), MkIndex(v), MkSize(MkIndex(v))):
            assert runtime.step_expr(e, Heap(), "a0") is None
    assert runtime.step_expr(MkSize(Recv("c")), Heap(),
                             "a0").__class__ is Stuck


def test_unknown_classes_raise_as_before():
    with pytest.raises(TypeError, match="not an expression"):
        runtime.subst_expr(object(), {"x": IntLit(1)})
    with pytest.raises(TypeError, match="cannot step"):
        runtime.step_expr(object(), Heap(), "a0")


RARE = [FromSize(MkSize(IntLit(3))), FromSize(IntLit(1)),
        FromIndex(BoolLit(True)), MkSize(BinOp("+", IntLit(1), IntLit(2))),
        MkIndex(FromIndex(MkIndex(IntLit(2)))),
        BinOp("/", IntLit(1), IntLit(0)), BinOp("%", IntLit(1), IntLit(2)),
        BinOp("+", BoolLit(True), IntLit(2)),
        If(IntLit(1), IntLit(2), IntLit(3)), App(IntLit(1), (IntLit(2),)),
        Deref(IntLit(1)), Assign(IntLit(1), IntLit(2)),
        When(BoolLit(True), "|", IntLit(2), IntLit(3)),
        For("t", "x", 1, BoolLit(True), IntLit(0)),
        Send("nowhere", None, IntLit(1)), Recv("ar", BoolLit(True)),
        Recv("ar", MkIndex(IntLit(9))), Recv("br"), Send("aw", MkIndex(
            BinOp("+", IntLit(1), IntLit(1))), IntLit(4))]


# one expression per context position whose subterm steps, blocks or is
# stuck: the rule must rebuild the node around a step at that position and
# pass a `Blocked` or a `Stuck` through with its reason and key
RARE += [
    When(IntLit(1), "<=", BinOp("+", IntLit(1), IntLit(1)), IntLit(5)),
    When(IntLit(1), "<=", Recv("br"), IntLit(5)),
    Assign(LocRef("a0", 0), BinOp("*", IntLit(2), IntLit(3))),
    Assign(LocRef("a0", 0), FromSize(IntLit(1))),
    App(IntLit(1), (IntLit(2), BinOp("-", IntLit(5), IntLit(3)))),
    App(IntLit(1), (IntLit(2), Recv("br"))),
    App(IntLit(1), (IntLit(2), FromIndex(IntLit(1)))),
    App(BinOp("+", IntLit(1), IntLit(1)), (IntLit(2),)),
    BinOp("+", IntLit(1), Recv("br")),
    BinOp("<", IntLit(1), BinOp("*", IntLit(2), IntLit(3))),
    Send("aw", MkIndex(IntLit(1)), BinOp("+", IntLit(2), IntLit(3))),
    Send("aw", MkIndex(IntLit(2)), Recv("br")),
    Send("aw", MkIndex(IntLit(1)), FromSize(BoolLit(False))),
    Recv("ar", MkIndex(BinOp("+", IntLit(1), IntLit(1)))),
    Recv("ar", MkIndex(Recv("br"))),
    For("t", "x", 1, MkSize(BinOp("+", IntLit(1), IntLit(1))), IntLit(0)),
    For("t", "x", 1, Recv("br"), IntLit(0)),
    NewRef(BinOp("+", IntLit(1), IntLit(2))),
    NewRef(Recv("br")),
    Let("y", Recv("br"), Var("y")),
    Let("y", BinOp("+", IntLit(1), IntLit(2)), Var("y")),
    SeqE(FromIndex(MkIndex(IntLit(4))), IntLit(0)),
    If(Recv("br"), IntLit(1), IntLit(2)),
    Deref(Recv("br")),
    MkIndex(Recv("br")),
    FromSize(MkSize(BinOp("+", IntLit(1), IntLit(1)))),
]


@pytest.mark.parametrize("e", RARE, ids=repr)
def test_rarely_taken_steps_match_the_match_dispatch(e):
    net = parse_program_or_raise(STUCK_BESIDE_BLOCKED)
    cfg = instantiate(net, {"s": 2, "k": 3})
    assert_same_outcome(runtime.step_expr(e, cfg.heap, "a0"),
                        step_expr(e, cfg.heap, "a0", net.venv), cfg.heap, e)
