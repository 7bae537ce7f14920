"""Heap-based small-step execution of instantiated networks.

Channels live on a shared heap as bounded FIFO buffers in one map keyed by
`(channel, index)`: a plain channel is the buffer with index None, and a
channel array is a 1-indexed family of buffers, matching the 1-based
iteration ranges that produce their indices.  Capacities are per channel.
Actors take turns under a scheduler; a send on a full buffer or a receive on
an empty one is simply not enabled, and a configuration where no actor can
step while some are unfinished is a deadlock.  A step is one lookup of the
expression's class in `_STEP`, and a value is what the step table answers
None for (a size or an index of a value included): a rule steps the subterm
in its context position through the table and rebuilds its node only
around a `Stepped`; `commit` pushes or pops a communication's buffer.
Value substitution, `subst_expr`, is the machine's too: `check` never runs
it.  It shares what it does not reach: the free names of each parsed actor
expression are kept on its nodes, so a node none of the substituted names
is free in is returned as it is, and a loop iteration whose body does not
use the index is the body itself.

Both theorems are checked over one step machine, `Machine`.  Each outcome
names what it touches as its `key`: the buffer a communication pushes or
pops or waits on, the heap cell a read or an assignment uses, or nothing.
A step re-polls the actors whose outcome touched its key, or the actor
that moved alone when it has none, so polls per step do not grow with the
number of actors.  `run` drives one machine under a scheduler and counts
its steps; only an observer gets trace entries, each holding the new fill
of the one buffer its step touched.  `explore` drives one machine per
state it visits, at about what a step of `run` costs; its machinery is in
`exploration`.

`explore` visits a reduced state space: at each state it expands one step
that commutes with every step other actors can take first, when there is
one (see `_persistent`), and every enabled step otherwise.  Terminals and
stuck configurations are all still reached, so its verdicts are those of
the full search; its `states`, and the `max_states` budget, count reduced
states.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import Counter, namedtuple
from itertools import chain
from typing import Callable, Optional, Union

from .kinding import eval_size, is_inf
from .syntax import (
    ActorComp, ActorE, App, Assign, BinOp, BoolLit, BoolType, ChanArrayType,
    ChannelArrayKind, ChannelKind, ChanType, Deref, Diagnostic, Env, Expr, For,
    FromIndex, FromSize, If, IntLit, IntType, Lam, Let, LocRef, MkIndex,
    MkSize, Network, NewRef, Recv, Send, SeqE, SizeArithmeticError, SizeKind,
    SizeType, Stop, Var, When, _constant, field, proc_components, record,
)

BufferKey = tuple  # (type-level channel name, element index or None)


def buffer_name(key: BufferKey) -> str:
    chan, index = key
    return chan if index is None else f"{chan}[{index}]"


class InstantiationError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(str(diag))
        self.diag = diag


@record(frozen=True)
class Label:
    """Communication label; internal steps carry no label."""
    chan: str            # type-level channel name
    is_send: bool
    index: Optional[int] = None  # numeric element for channel arrays

    def __str__(self):
        mark = "!" if self.is_send else "?"
        return f"{buffer_name((self.chan, self.index))}{mark}"


@record
class Heap:
    locs: dict = field(default_factory=dict)        # (actor, slot) -> value
    bufs: dict = field(default_factory=dict)        # BufferKey -> tuple(values)
    caps: dict = field(default_factory=dict)        # channel name -> capacity
    labels: dict = field(default_factory=dict)      # BufferKey -> 2 Labels
    blocked: dict = field(default_factory=dict)     # BufferKey -> 2 Blockeds
    chans: dict = field(default_factory=dict)       # val -> (key|None, chan)
    next_slot: dict = field(default_factory=dict)   # actor -> counter

    def copy(self) -> "Heap":
        return Heap(dict(self.locs), dict(self.bufs), self.caps, self.labels,
                    self.blocked, self.chans, dict(self.next_slot))

    def push(self, key: BufferKey, value) -> None:
        buf = self.bufs[key]
        assert len(buf) < self.caps[key[0]], \
            f"buffer overflow on {buffer_name(key)}"
        self.bufs[key] = buf + (value,)

    def pop(self, key: BufferKey):
        buf = self.bufs[key]
        self.bufs[key] = buf[1:]
        return buf[0]

    def alloc(self, actor: str, value) -> LocRef:
        slot = self.next_slot.get(actor, 0)
        self.next_slot[actor] = slot + 1
        self.locs[(actor, slot)] = value
        return LocRef(actor, slot)

    def buffer_sizes(self) -> dict:
        """Fill of each plain channel, and a list per channel array."""
        out: dict = {chan: [] for chan in self.caps}
        for (chan, index), buf in self.bufs.items():
            if index is None:
                out[chan] = len(buf)
            else:
                out[chan].append(len(buf))
        return out


@record
class Actor:
    name: str
    expr: Union[Expr, None]  # None encodes `stop`

    @property
    def done(self) -> bool:
        return self.expr is None or is_value(self.expr)


@record
class Configuration:
    actors: list[Actor]
    heap: Heap
    venv: Env

    def done(self) -> bool:
        return all(a.done for a in self.actors)

    def copy(self) -> "Configuration":
        return Configuration([Actor(a.name, a.expr) for a in self.actors],
                             self.heap.copy(), self.venv)


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------

def _default_value(ty) -> Expr:
    if isinstance(ty, BoolType):
        return BoolLit(False)
    return IntLit(0)


def channel_payloads(venv: Env) -> dict:
    """Payload type of each type-level channel, from its first binding."""
    out: dict = {}
    for _, ty in venv.items:
        if isinstance(ty, (ChanType, ChanArrayType)):
            out.setdefault(ty.name, ty.payload)
    return out


def _eval_quantity(e, sizes: dict, rule: str, what: str) -> int:
    """`e` under `sizes`; a size missing from them, or an unbounded `e`, is
    reported under `rule`."""
    try:
        v = eval_size(e, sizes)
    except SizeArithmeticError as exc:
        raise InstantiationError(Diagnostic(rule, f"{what}: {exc}")) from None
    if is_inf(v):
        raise InstantiationError(Diagnostic(
            rule, f"{what} is unbounded and cannot be instantiated"))
    return v


def instantiate(net: Network, sizes: dict[str, int]) -> Configuration:
    """Build the initial configuration: one buffer per channel, delay
    channels prefilled to capacity, actor comprehensions unrolled.  Each
    buffer's two labels and its two `Blocked` outcomes, a send on it full
    and a receive on it empty, are made here once and shared."""
    declared = [name for name, kind in net.tenv.items
                if isinstance(kind, SizeKind)]
    for name in declared:
        if name not in sizes:
            raise InstantiationError(Diagnostic(
                "Kind Size", f"missing size parameter {name}"))
    for name, value in sizes.items():
        if name not in declared:
            raise InstantiationError(Diagnostic(
                "Kind Size", f"unknown size parameter {name}"))
        if value < 1:
            raise InstantiationError(Diagnostic(
                "Kind Size", f"size parameter {name} must be positive"))

    payloads = channel_payloads(net.venv)
    heap = Heap()
    for name, kind in net.tenv.items:
        if not isinstance(kind, (ChannelKind, ChannelArrayKind)):
            continue
        rule = "Kind Chan Array" if isinstance(kind, ChannelArrayKind) \
            else "Kind Chan"
        cap = _eval_quantity(kind.limit, sizes, rule, f"capacity of {name}")
        if isinstance(kind, ChannelArrayKind):
            bound = _eval_quantity(kind.bound, sizes, rule, f"bound of {name}")
            what, indices = "channel array", range(1, bound + 1)
        else:
            what, indices = "channel", (None,)
        if cap < 1:
            raise InstantiationError(Diagnostic(
                rule, f"{what} {name} has zero capacity"))
        default = _default_value(payloads.get(name, IntType()))
        fill = (default,) * (cap if kind.delay else 0)
        heap.caps[name] = cap
        for index in indices:
            key = (name, index)
            heap.bufs[key] = fill
            heap.labels[key] = (Label(name, True, index),
                                Label(name, False, index))
            shown = buffer_name(key)
            heap.blocked[key] = (Blocked(f"buffer {shown} is full", key),
                                 Blocked(f"buffer {shown} is empty", key))

    # instantiations must respect declared upper bounds
    for name, kind in net.tenv.items:
        if isinstance(kind, SizeKind):
            bound = eval_size(kind.bound, sizes)
            if not is_inf(bound) and sizes[name] > bound:
                raise InstantiationError(Diagnostic(
                    "Size Bound",
                    f"size {name}={sizes[name]} exceeds its declared bound "
                    f"{bound}"))

    # value-level size parameters become size constants, and each channel
    # name its buffer key (None for an array's) and its type-level name
    params: dict[str, Expr] = {}
    for name, ty in net.venv.items:
        if isinstance(ty, SizeType):
            params[name] = MkSize(IntLit(_eval_quantity(
                ty.witness, sizes, "Ty Size", f"value of {name}")))
        elif isinstance(ty, ChanType):
            heap.chans[name] = (ty.name, None), ty.name
        elif isinstance(ty, ChanArrayType):
            heap.chans[name] = None, ty.name

    actors: list[Actor] = []
    for i, part in enumerate(proc_components(net.body)):
        match part:
            case Stop():
                actors.append(Actor(f"a{i}", None))
            case ActorE(expr):
                _free_names(expr)  # kept on the parsed nodes, for sharing
                actors.append(Actor(f"a{i}", subst_expr(expr, params)))
            case ActorComp(tvar, var, lo, hi, body):
                hi_expr = subst_expr(hi, params)
                match hi_expr:
                    case MkSize(IntLit(value=v)):
                        hi_n = v
                    case _:
                        raise InstantiationError(Diagnostic(
                            "Proc Comp", "actor-array bound did not evaluate"))
                _free_names(body)
                body = subst_expr(body, params)
                for k in range(lo, hi_n + 1):
                    actors.append(Actor(
                        f"a{i}[{k}]",
                        subst_expr(body, {var: MkIndex(IntLit(k))})))
            case _:
                raise TypeError(f"unexpected process form {part!r}")
    return Configuration(actors, heap, net.venv)


# --- value-level substitution ----------------------------------------------

# surviving free names (`Var`) denote channels, which are atomic values
_VALUE_CLASSES = frozenset({IntLit, BoolLit, Lam, LocRef, Var})


def is_value(e: Expr) -> bool:
    while e.__class__ is MkSize or e.__class__ is MkIndex:
        e = e.arg
    return e.__class__ in _VALUE_CLASSES


def subst_expr(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Capture-avoiding substitution of values for variables.

    Replacement terms are values, whose free names are channel names; those
    can never be captured because binders never shadow channel declarations
    in well-formed programs, so binder renaming is not needed here.  A node
    whose kept free names (`_free_names`) miss `mapping` is returned as it
    is, so substitution shares what it does not reach; a node without kept
    names, one a step built, is walked.
    """
    if not mapping:
        return e
    try:
        subst = _SUBST[e.__class__]
    except KeyError:
        raise TypeError(f"not an expression: {e!r}") from None
    fv = e._fv
    if fv is not None and fv.isdisjoint(mapping):
        return e
    return subst(e, mapping)


def _subst_spine(e: Union[SeqE, Let], mapping: dict[str, Expr]) -> Expr:
    """A right-nested chain of `SeqE`s and `Let`s, walked in a loop so that
    a long actor does not recurse once per statement, and stops where the
    substituted names end: a chain a step built gets its names kept first."""
    if e._fv is None:
        _free_names(e)
    heads = []
    while (e.__class__ is SeqE or e.__class__ is Let) and \
            not e._fv.isdisjoint(mapping):
        if e.__class__ is SeqE:
            heads.append((None, subst_expr(e.first, mapping)))
            e = e.second
        else:
            heads.append((e.var, subst_expr(e.bound, mapping)))
            mapping = {k: v for k, v in mapping.items() if k != e.var}
            e = e.body
    out = subst_expr(e, mapping)
    for var, head in reversed(heads):
        out = SeqE(head, out) if var is None else Let(var, head, out)
    return out


def _free_names(e: Expr) -> frozenset:
    """The names free in `e`, kept on each node of `e` as `_fv`.  A chain
    of binders and sequences is walked in a loop, from its tail up, as
    `syntax._spine_hash` walks one, so a long actor does not recurse once
    per statement."""
    chain = []  # the nodes whose `body` (a `SeqE`'s `second`) is walked
    while e._fv is None and e.__class__ in (SeqE, Let, For, Lam):
        chain.append(e)
        e = e.second if e.__class__ is SeqE else e.body
    fv = e._fv
    if fv is None:
        fv = frozenset((e.name,)) if e.__class__ is Var else frozenset()
        for f in e.__record_fields__:
            v = getattr(e, f.name)
            for x in v if v.__class__ is tuple else (v,):
                if x.__class__ in _SUBST:
                    fv |= _free_names(x)
        object.__setattr__(e, "_fv", fv)
    for node in reversed(chain):
        if node.__class__ is SeqE:
            fv = _free_names(node.first) | fv
        elif node.__class__ is Lam:
            fv = fv - {p for p, _ in node.params}
        else:  # a `Let` or a loop binds its name in its body alone
            fv = _free_names(node.bound) | (fv - {node.var})
        object.__setattr__(node, "_fv", fv)
    return fv


def _subst_lam(e: Lam, mapping: dict[str, Expr]) -> Lam:
    inner = {k: v for k, v in mapping.items()
             if k not in {p for p, _ in e.params}}
    return Lam(e.params, e.latent, e.rest, subst_expr(e.body, inner))


def _subst_for(e: For, mapping: dict[str, Expr]) -> For:
    inner = {k: v for k, v in mapping.items() if k != e.var}
    return For(e.tvar, e.var, e.lo, subst_expr(e.bound, mapping),
               subst_expr(e.body, inner))


# expression class -> its substitution, given a non-empty mapping `m`
_SUBST = {
    IntLit: lambda e, m: e,
    BoolLit: lambda e, m: e,
    LocRef: lambda e, m: e,
    Var: lambda e, m: m.get(e.name, e),
    MkSize: lambda e, m: MkSize(subst_expr(e.arg, m)),
    FromSize: lambda e, m: FromSize(subst_expr(e.arg, m)),
    MkIndex: lambda e, m: MkIndex(subst_expr(e.arg, m)),
    FromIndex: lambda e, m: FromIndex(subst_expr(e.arg, m)),
    Lam: _subst_lam,
    App: lambda e, m: App(subst_expr(e.fn, m),
                          tuple(subst_expr(a, m) for a in e.args)),
    Let: _subst_spine,
    SeqE: _subst_spine,
    If: lambda e, m: If(subst_expr(e.cond, m), subst_expr(e.then, m),
                        subst_expr(e.els, m)),
    When: lambda e, m: When(subst_expr(e.lhs, m), e.op, subst_expr(e.rhs, m),
                            subst_expr(e.body, m)),
    For: _subst_for,
    NewRef: lambda e, m: NewRef(subst_expr(e.init, m)),
    Deref: lambda e, m: Deref(subst_expr(e.target, m)),
    Assign: lambda e, m: Assign(subst_expr(e.target, m),
                                subst_expr(e.value, m)),
    Recv: lambda e, m: Recv(
        e.chan, None if e.index is None else subst_expr(e.index, m)),
    Send: lambda e, m: Send(
        e.chan, None if e.index is None else subst_expr(e.index, m),
        subst_expr(e.payload, m)),
    BinOp: lambda e, m: BinOp(e.op, subst_expr(e.lhs, m),
                              subst_expr(e.rhs, m)),
}


# ---------------------------------------------------------------------------
# Small-step reduction
# ---------------------------------------------------------------------------

class Stepped:
    """A step: the new expression, its label, `key`, what it touches (the
    buffer of its label, or the `LocRef` it reads or writes), the `payload`
    a send pushes, and `change`, the heap change of an allocation or an
    assignment; `effect` gives any change to the heap as a function."""
    __slots__ = ("expr", "label", "change", "key", "payload")

    def __init__(self, expr, label=None, effect=None, key=None, payload=None):
        self.expr, self.label, self.change = expr, label, effect
        self.key, self.payload = key, payload

    @property
    def effect(self):
        return self.change or self.label and (
            lambda h: h.push(self.key, self.payload) if self.label.is_send
            else h.pop(self.key))


@record
class Blocked:
    reason: str
    key: Optional[BufferKey] = field(default=None, compare=False)  # waited on


@record
class Stuck:
    reason: str


# what a send, a false guard and a finished loop become
_UNIT = _constant(IntLit, value=0)


def _as_int(v: Expr) -> Optional[int]:
    if v.__class__ is MkSize or v.__class__ is MkIndex:
        v = v.arg
    return v.value if v.__class__ is IntLit else None


def _rel_holds(op: str, a: int, b: int) -> bool:
    if op == "|":
        return b % a == 0 if a != 0 else b == 0
    if op == "<=":
        return a <= b
    raise ValueError(f"unknown guard operator {op}")


def step_expr(e: Expr, heap: Heap, actor: str, venv: Env
              ) -> Union[Stepped, Blocked, Stuck, None]:
    """One reduction of `e`, or None when `e` is a value.  It only reads the
    heap, so schedulers probe without committing; `commit` makes the change."""
    try:
        step = _STEP[e.__class__]
    except KeyError:
        raise TypeError(f"cannot step {e!r}") from None
    return step(e, heap, actor, venv)


def _step_seq(e: SeqE, heap: Heap, actor: str, venv: Env):
    first = e.first
    out = _STEP[first.__class__](first, heap, actor, venv)
    if out is None:
        return Stepped(e.second)
    if out.__class__ is Stepped:
        out.expr = SeqE(out.expr, e.second)
    return out


def _step_let(e: Let, heap: Heap, actor: str, venv: Env):
    bound = e.bound
    out = _STEP[bound.__class__](bound, heap, actor, venv)
    if out is None:
        return Stepped(subst_expr(e.body, {e.var: bound}))
    if out.__class__ is Stepped:
        out.expr = Let(e.var, out.expr, e.body)
    return out


def _step_app(e: App, heap: Heap, actor: str, venv: Env):
    fn, args = e.fn, e.args
    out = _STEP[fn.__class__](fn, heap, actor, venv)
    if out is not None:
        if out.__class__ is Stepped:
            out.expr = App(out.expr, args)
        return out
    for i, a in enumerate(args):
        out = _STEP[a.__class__](a, heap, actor, venv)
        if out is not None:
            if out.__class__ is Stepped:
                out.expr = App(fn, args[:i] + (out.expr,) + args[i + 1:])
            return out
    if not isinstance(fn, Lam) or len(fn.params) != len(args):
        return Stuck("calling a non-procedure")
    mapping = {name: arg for (name, _), arg in zip(fn.params, args)}
    return Stepped(subst_expr(fn.body, mapping))


def _step_if(e: If, heap: Heap, actor: str, venv: Env):
    cond = e.cond
    out = _STEP[cond.__class__](cond, heap, actor, venv)
    if out is not None:
        if out.__class__ is Stepped:
            out.expr = If(out.expr, e.then, e.els)
        return out
    match cond:
        case BoolLit(True):
            return Stepped(e.then)
        case BoolLit(False):
            return Stepped(e.els)
        case _:
            return Stuck("condition did not evaluate to a Boolean")


def _step_when(e: When, heap: Heap, actor: str, venv: Env):
    lhs, rhs = e.lhs, e.rhs
    out = _STEP[lhs.__class__](lhs, heap, actor, venv)
    if out is not None:
        if out.__class__ is Stepped:
            out.expr = When(out.expr, e.op, rhs, e.body)
        return out
    out = _STEP[rhs.__class__](rhs, heap, actor, venv)
    if out is not None:
        if out.__class__ is Stepped:
            out.expr = When(lhs, e.op, out.expr, e.body)
        return out
    a, b = _as_int(lhs), _as_int(rhs)
    if a is None or b is None:
        return Stuck("guard operands are not numeric")
    return Stepped(e.body if _rel_holds(e.op, a, b) else _UNIT)


def _step_for(e: For, heap: Heap, actor: str, venv: Env):
    tvar, var, lo, bound, body = e.tvar, e.var, e.lo, e.bound, e.body
    out = _STEP[bound.__class__](bound, heap, actor, venv)
    if out is not None:
        if out.__class__ is Stepped:
            out.expr = For(tvar, var, lo, out.expr, body)
        return out
    n = _as_int(bound)
    if n is None:
        return Stuck("loop bound is not a size value")
    if lo > n:
        return Stepped(_UNIT)
    # an iteration whose body does not use the index is the body itself
    first = body
    if body._fv is None or var in body._fv:
        first = subst_expr(body, {var: MkIndex(IntLit(lo))})
    return Stepped(SeqE(first, For(tvar, var, lo + 1, bound, body)))


def _step_arg(e: Union[MkSize, MkIndex, FromSize, FromIndex], heap: Heap,
              actor: str, venv: Env):
    """`size`/`index` of a value is one; `fromSize`/`fromIndex` unwraps it."""
    arg = e.arg
    out = _STEP[arg.__class__](arg, heap, actor, venv)
    if out.__class__ is Stepped:
        out.expr = e.__class__(out.expr)
    elif out is None and e.__class__ in _UNWRAP:
        wrapper, reason = _UNWRAP[e.__class__]
        if arg.__class__ is wrapper and arg.arg.__class__ is IntLit:
            return Stepped(arg.arg)
        return Stuck(reason)
    return out


# `fromSize`/`fromIndex` -> the wrapper it unwraps, and why others are stuck
_UNWRAP = {FromSize: (MkSize, "fromSize of a non-size value"),
           FromIndex: (MkIndex, "fromIndex of a non-index value")}


def _step_new_ref(e: NewRef, heap: Heap, actor: str, venv: Env):
    init = e.init
    out = _STEP[init.__class__](init, heap, actor, venv)
    if out is not None:
        if out.__class__ is Stepped:
            out.expr = NewRef(out.expr)
        return out
    slot = heap.next_slot.get(actor, 0)
    ref = LocRef(actor, slot)

    def effect(h: Heap, init=init):
        h.alloc(actor, init)
    return Stepped(ref, effect=effect)


def _step_deref(e: Deref, heap: Heap, actor: str, venv: Env):
    target = e.target
    out = _STEP[target.__class__](target, heap, actor, venv)
    if out is not None:
        if out.__class__ is Stepped:
            out.expr = Deref(out.expr)
        return out
    if not isinstance(target, LocRef):
        return Stuck("dereferencing a non-reference")
    return Stepped(heap.locs[(target.actor, target.slot)], key=target)


def _step_assign(e: Assign, heap: Heap, actor: str, venv: Env):
    target, value = e.target, e.value
    out = _STEP[target.__class__](target, heap, actor, venv)
    if out is not None:
        if out.__class__ is Stepped:
            out.expr = Assign(out.expr, value)
        return out
    out = _STEP[value.__class__](value, heap, actor, venv)
    if out is not None:
        if out.__class__ is Stepped:
            out.expr = Assign(target, out.expr)
        return out
    if not isinstance(target, LocRef):
        return Stuck("assignment to a non-reference")

    def effect(h: Heap, target=target, value=value):
        h.locs[(target.actor, target.slot)] = value
    return Stepped(value, None, effect, target)


def _step_bin_op(e: BinOp, heap: Heap, actor: str, venv: Env):
    op, lhs, rhs = e.op, e.lhs, e.rhs
    out = _STEP[lhs.__class__](lhs, heap, actor, venv)
    if out is not None:
        if out.__class__ is Stepped:
            out.expr = BinOp(op, out.expr, rhs)
        return out
    out = _STEP[rhs.__class__](rhs, heap, actor, venv)
    if out is not None:
        if out.__class__ is Stepped:
            out.expr = BinOp(op, lhs, out.expr)
        return out
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


def _step_comm(e: Union[Send, Recv], heap: Heap, actor: str, venv: Env):
    """A send or receive: the index, then a send's payload, evaluate first."""
    index, is_send = e.index, e.__class__ is Send
    if index is not None:
        out = _STEP[index.__class__](index, heap, actor, venv)
        if out is not None:
            if out.__class__ is Stepped:
                out.expr = (Send(e.chan, out.expr, e.payload, e.loc) if is_send
                            else Recv(e.chan, out.expr, e.loc))
            return out
    if is_send:
        payload = e.payload
        out = _STEP[payload.__class__](payload, heap, actor, venv)
        if out is not None:
            if out.__class__ is Stepped:
                out.expr = Send(e.chan, index, out.expr)
            return out
    key, chan = heap.chans.get(e.chan, (None, None))
    if key is None:
        if chan is None:
            return Stuck(f"{e.chan} is not bound to a channel")
        idx = _as_int(index)
        if idx is None:
            return Stuck("array index is not an index value")
        key = (chan, idx)
        if key not in heap.bufs:
            return Stuck(f"index {idx} outside channel array {chan}")
    buf = heap.bufs[key]
    if is_send:
        if len(buf) >= heap.caps[chan]:
            return heap.blocked[key][0]
        return Stepped(_UNIT, heap.labels[key][0], None, key, e.payload)
    if not buf:
        return heap.blocked[key][1]
    return Stepped(buf[0], heap.labels[key][1], None, key)


# expression class -> its step; a value, and a size or an index of one,
# steps to None
_STEP = dict.fromkeys(_VALUE_CLASSES, lambda e, h, a, v: None)
_STEP.update({
    SeqE: _step_seq, Let: _step_let, App: _step_app, If: _step_if,
    When: _step_when, For: _step_for, MkSize: _step_arg, MkIndex: _step_arg,
    FromSize: _step_arg, FromIndex: _step_arg, NewRef: _step_new_ref,
    Deref: _step_deref, Assign: _step_assign, BinOp: _step_bin_op,
    Send: _step_comm, Recv: _step_comm,
})


# ---------------------------------------------------------------------------
# Running configurations
# ---------------------------------------------------------------------------

class TraceStep(namedtuple("TraceStep", "step actor label fill")):
    """Step `step` of a run: `actor` moved by `label`.  `fill` is the new
    length of the buffer a labelled step pushes or pops, and None for an
    internal step.  `run` builds one at no Python-level call."""
    __slots__ = ()


@record
class RunResult:
    """How a run ended, after how many steps, and in which configuration;
    it holds no trace (see `run`)."""
    status: str                      # "done" | "deadlock" | "error"
    steps: int
    config: Configuration
    blocked: dict = field(default_factory=dict)   # actor -> reason on deadlock
    comm_counts: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return self.status == "done"


def _actor_outcome(cfg: Configuration, i: int):
    actor = cfg.actors[i]
    e = actor.expr
    if e is None:
        return None
    return _STEP[e.__class__](e, cfg.heap, actor.name, cfg.venv)


def commit(cfg: Configuration, i: int, out: Stepped) -> None:
    """Apply actor i's polled step to `cfg` in place."""
    cfg.actors[i].expr = out.expr
    if out.change is not None:
        out.change(cfg.heap)
    elif out.label is not None:
        if out.label.is_send:
            cfg.heap.push(out.key, out.payload)
        else:
            cfg.heap.pop(out.key)


class Machine:
    """A configuration under the step relation, and what a step needs to
    know which actors it may have woken:

    - `outcomes`, each actor's last poll (`_actor_outcome`), and `enabled`,
      the actors whose poll stepped, in actor order;
    - `waits`, the key of each outcome (what it touched: a buffer, or a
      heap cell read or written), None for a stuck or finished actor; and
      `readers`, key -> the actors whose outcome touched it, its inverse,
      with an entry for each key touched so far.

    `step` commits in place and re-polls the readers of the step's key, the
    actor that moved among them, or that actor alone for a step without
    one: no other outcome can have changed.  Actors share only channels in
    well-typed programs, so a cell's readers are its owner alone."""

    __slots__ = ("cfg", "outcomes", "enabled", "waits", "readers")

    def __init__(self, cfg: Configuration):
        self.cfg = cfg
        n = len(cfg.actors)
        self.outcomes: list = [None] * n
        self.waits: list = [None] * n
        self.readers: dict = {}
        self.enabled: list[int] = []
        for j in range(n):
            self.poll(j)

    def poll(self, j: int) -> None:
        """Renew actor j's outcome, and `enabled`, `waits` and `readers`
        where it changed them."""
        was = self.outcomes[j].__class__ is Stepped
        self.outcomes[j] = out = _actor_outcome(self.cfg, j)
        if out.__class__ is Stepped:
            key = out.key
            if not was:
                insort(self.enabled, j)
        else:
            key = out.key if out.__class__ is Blocked else None
            if was:
                del self.enabled[bisect_left(self.enabled, j)]
        old = self.waits[j]
        if key is old or key == old:
            return
        if old is not None:
            self.readers[old].discard(j)
        self.waits[j] = key
        if key is not None:
            held = self.readers.get(key)
            if held is None:
                self.readers[key] = {j}
            else:
                held.add(j)

    def step(self, i: int, out: Stepped) -> None:
        """Commit actor i's polled step `out` and re-poll whom it may have
        woken."""
        commit(self.cfg, i, out)
        key = out.key
        for j in (i,) if key is None else tuple(self.readers[key]):
            self.poll(j)

    def copy(self) -> "Machine":
        new = object.__new__(self.__class__)
        new.cfg = self.cfg.copy()
        new.outcomes, new.enabled = self.outcomes.copy(), self.enabled.copy()
        new.waits = self.waits.copy()
        new.readers = {key: set(held) for key, held in self.readers.items()}
        return new


def run(cfg: Configuration, scheduler: str = "roundRobin", seed: int = 0,
        max_steps: int = 500_000, observer: Optional[Callable] = None
        ) -> RunResult:
    """Execute one schedule on a copy of `cfg`, stepping a `Machine`.
    Enabled actors stay in index order, so both schedulers choose exactly
    as if every actor were polled every step.  A `TraceStep` is built only
    for an `observer`, called as `observer(entry, cfg)` after each commit."""
    if scheduler not in ("roundRobin", "random"):
        raise ValueError(f"unknown scheduler {scheduler}")
    round_robin = scheduler == "roundRobin"
    machine = Machine(cfg.copy())
    cfg, outcomes, enabled = machine.cfg, machine.outcomes, machine.enabled
    actors, bufs = cfg.actors, cfg.heap.bufs
    live = sum(not a.done for a in actors)
    steps = 0
    counts: dict = {}  # id of a label `instantiate` made -> its steps
    getrandbits = random.Random(seed).getrandbits
    entry = tuple.__new__
    rr = 0
    status, blocked = "done", {}
    while live:
        if steps == max_steps:
            status, blocked = "error", {"*": f"exceeded {max_steps} steps"}
            break
        if not enabled:
            status, blocked = "deadlock", {
                a.name: out.reason for a, out in zip(actors, outcomes)
                if isinstance(out, (Blocked, Stuck))}
            break
        if round_robin:
            k = bisect_left(enabled, rr)
            i = enabled[k] if k < len(enabled) else enabled[0]
            rr = (i + 1) % len(actors)
        else:
            # the draws of `Random.randrange(n)`, without its checks
            n = len(enabled)
            r = getrandbits(k := n.bit_length())
            while r >= n:
                r = getrandbits(k)
            i = enabled[r]
        out = outcomes[i]
        label = out.label
        machine.step(i, out)
        if outcomes[i] is None:  # its re-poll found a value
            live -= 1
        if label is not None:
            counts[id(label)] = counts.get(id(label), 0) + 1
        if observer is not None:
            fill = None if label is None else len(bufs[out.key])
            observer(entry(TraceStep, (steps, actors[i].name, label, fill)),
                     cfg)
        steps += 1
    comm: Counter = Counter()
    for label in chain.from_iterable(cfg.heap.labels.values()):
        if n := counts.get(id(label)):
            comm[label.chan, "send" if label.is_send else "recv"] += n
    return RunResult(status, steps, cfg, blocked, comm)


# ---------------------------------------------------------------------------
# Exhaustive interleaving exploration
# ---------------------------------------------------------------------------

@record
class ExploreResult:
    any_complete: bool
    all_complete: bool
    states: int
    terminals: set               # signatures of completed configurations
    stuck: list                  # sample stuck configurations
    truncated: bool = False
    cycle: bool = False          # a state was met again on its own path

    @property
    def deterministic_outcome(self) -> bool:
        return len(self.terminals) <= 1


# stuck configurations `explore` keeps as samples
STUCK_LIMIT = 8


def _signature(cfg: Configuration, counts: tuple) -> tuple:
    """A terminal's outcome: heap cells, communication counts and the
    values the actors finished with."""
    return (tuple(sorted(cfg.heap.locs.items())), counts,
            tuple(a.expr for a in cfg.actors))


def explore(cfg: Configuration, max_states: int = 300_000) -> ExploreResult:
    """Search the interleavings of `cfg`, memoized on configuration plus
    per-channel communication counts, expanding a persistent set of the
    enabled steps at each state (see `exploration._persistent`).  The
    reduced search reaches every terminal and every stuck configuration the
    full one does, so `any_complete`, `all_complete` and `terminals` are
    exact; `states` counts the reduced states visited, at most
    `max_states`.  A state met again on the search's current path is a
    `cycle`, which a full search has too: the network can run forever, and
    it is not `all_complete`.

    Until the search first branches, a network with no application keeps
    no visited key and interns nothing (chain mode, see `exploration`), so
    a state costs about what a step of `run` costs; after that, or
    throughout on a network with an application, a state's key is its
    interned code (see `exploration._State`).  A state with one successor
    is committed into in place; only a state with several is copied, once
    for each successor but the last.  A configuration handed out as a
    stuck sample has no successor, so nothing changes it afterwards."""
    from .exploration import explore
    return explore(cfg, max_states)
