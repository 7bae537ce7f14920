"""Heap-based small-step execution of instantiated networks.

Channels live on a shared heap as bounded FIFO buffers in one map keyed by
`(channel, index)`: a plain channel is the buffer with index None, and a
channel array is a 1-indexed family of buffers, matching the 1-based
iteration ranges that produce their indices.  Capacities are per channel.
Actors take turns under a scheduler; a send on a full buffer or a receive on
an empty one is simply not enabled, and a configuration where no actor can
step while some are unfinished is a deadlock.

The step relation runs on a CK machine (Felleisen & Friedman, 1986), the
abstract machine that refocusing (Danvy & Nielsen, BRICS RS-04-26, 2004)
leads to: an actor holds its term as a `focus` in a continuation `k`, an
immutable chain of frames, each a context node with a hole.  A poll
(`_actor_outcome`) refocuses from the focus in a loop: moving into a
context or on to the next operand is not a step, and the actor keeps the
decomposition, so the next poll starts at the redex.  A reduction is one
step, and its `Stepped` carries the new focus and continuation, so a step
rebuilds no context node; `commit` installs them and pushes or pops a
communication's buffer.  `Actor.expr` is the term, plugged in a loop when
read, and `step_expr` decomposes a term, takes one transition and plugs.
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
    """An actor's name and its term, held as a `focus` in a continuation
    `k` (see `_actor_outcome`); `expr` is the term, plugged on each read.
    The frames of `k` are never changed, so a copy of an actor shares
    them."""
    name: str
    focus: Union[Expr, None]  # None encodes `stop`
    k: Optional[tuple] = None

    @property
    def expr(self) -> Union[Expr, None]:
        return None if self.focus is None else _plug(self.focus, self.k)

    @property
    def done(self) -> bool:
        return self.focus is None or is_value(self.expr)


@record
class Configuration:
    actors: list[Actor]
    heap: Heap
    venv: Env

    def done(self) -> bool:
        return all(a.done for a in self.actors)

    def copy(self) -> "Configuration":
        return Configuration(
            [Actor(a.name, a.focus, a.k) for a in self.actors],
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
# Small-step reduction: a CK machine
# ---------------------------------------------------------------------------

class Stepped:
    """A step: the new term, as a focus (`expr` at construction) in a
    continuation `k`, its label, `key`, what it touches (the buffer of its
    label, or the `LocRef` it reads or writes), the `payload` a send
    pushes, and `change`, the heap change of an allocation or an
    assignment.  `expr` is the new term plugged, and `effect` gives any
    change to the heap as a function."""
    __slots__ = ("focus", "label", "change", "key", "payload", "k")

    def __init__(self, expr, label=None, effect=None, key=None, payload=None,
                 k=None):
        self.focus, self.label, self.change = expr, label, effect
        self.key, self.payload, self.k = key, payload, k

    @property
    def expr(self):
        return _plug(self.focus, self.k)

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
    """One reduction of `e`, or None when `e` is a value: `e` decomposed,
    one transition taken, and its `expr` the result plugged.  It only reads
    the heap, so schedulers probe without committing; `commit` makes the
    change."""
    if e.__class__ not in _SUBST:
        raise TypeError(f"cannot step {e!r}")
    return _actor_outcome(Configuration([Actor(actor, e)], heap, venv), 0)


# A continuation is None or a frame `(kind, node, value, rest)`: the focus
# fills a hole of `node` at the kind's position, `value` is what the kind
# keeps beside the node, and `rest` is the enclosing continuation.
#   _SEQ   a `SeqE`'s first; `node` is its second, `value` the `SeqE` or None
#   _LET   a `Let`'s bound
#   _SEND  a `Send`'s payload; `value` is its evaluated index
#   _PAIR  a `BinOp`'s or a `When`'s lhs, or an `Assign`'s target (`value`
#          None); then its rhs or value (`value` the evaluated first)
#   _APP   the next operand of an `App`, its function first; `value` holds
#          those evaluated, in order
#   _ONE   the one operand of any other node: an `If`'s condition, a `For`'s
#          bound, a `Recv`'s or a `Send`'s index, a wrapper's argument, a
#          `ref`'s or a `!`'s operand.  A value there is put in place, and
#          the node is entered again.
_SEQ, _LET, _SEND, _PAIR, _APP, _ONE = range(6)
_UNBOUND = (None, None)
_COMM = object()  # the redex is a communication


def _plug(e: Expr, k, stop=None) -> Expr:
    """The term that focus `e` in continuation `k` stands for, its frames
    down to `stop` rebuilt in a loop; a node whose hole holds its own
    operand is reused."""
    while k is not stop:
        tag, node, v, k = k
        if tag is _SEQ:
            e = v if v is not None and e is v.first else SeqE(e, node)
        elif tag is _LET:
            e = node if e is node.bound else Let(node.var, e, node.body)
        elif tag is _SEND:
            e = node if e is node.payload and v is node.index \
                else Send(node.chan, v, e, node.loc)
        elif tag is _PAIR:
            cls = node.__class__
            a, b = (node.target, node.value) if cls is Assign \
                else (node.lhs, node.rhs)
            x, y = (e, b) if v is None else (v, e)
            if x is a and y is b:
                e = node
            elif cls is Assign:
                e = Assign(x, y)
            elif cls is BinOp:
                e = BinOp(node.op, x, y)
            else:
                e = When(x, node.op, y, node.body)
        elif tag is _APP:
            operands = v + (e,) + node.args[len(v):]
            e = App(operands[0], operands[1:])
        else:
            cls = node.__class__
            if cls is If:
                e = If(e, node.then, node.els)
            elif cls is For:
                e = For(node.tvar, node.var, node.lo, e, node.body)
            elif cls is Send:
                e = Send(node.chan, e, node.payload, node.loc)
            elif cls is Recv:
                e = Recv(node.chan, e, node.loc)
            else:  # a wrapper, `ref` or `!`
                e = cls(e)
    return e


def _actor_outcome(cfg: Configuration, i: int):
    """Actor i's poll: its focus refocused, in a loop, to the next redex,
    and the redex's reduction, not committed: None when the term is a
    value, else a `Stepped` (whose focus and `k` are the new term), a
    `Blocked` or a `Stuck`.  The actor keeps the decomposition, which
    plugs to the same term, so the next poll starts at the redex; moving
    into a context or on to the next operand is not a step."""
    actor = cfg.actors[i]
    e, k = actor.focus, actor.k
    if e is None:
        return None
    while True:
        cls = e.__class__
        if cls in _VALUE_CLASSES or (cls is MkSize or cls is MkIndex) \
                and is_value(e):
            if k is None:
                out = None
                break
            tag, node, v, rest = k
            if tag is _SEQ:
                out = Stepped(node, k=rest)
            elif tag is _LET:
                out = Stepped(subst_expr(node.body, {node.var: e}), k=rest)
            elif tag is _SEND:
                index, out = v, _COMM
            elif tag is _PAIR:
                cls = node.__class__
                if v is None:  # on to the second operand
                    k = (_PAIR, node, e, rest)
                    e = node.value if cls is Assign else node.rhs
                    continue
                if cls is Assign:
                    if v.__class__ is not LocRef:
                        out = Stuck("assignment to a non-reference")
                    else:
                        def effect(h: Heap, target=v, value=e):
                            h.locs[(target.actor, target.slot)] = value
                        out = Stepped(e, None, effect, v, k=rest)
                    break
                # `_as_int` of both operands, inline on this hot path
                a = v.arg if v.__class__ is MkSize or v.__class__ is MkIndex \
                    else v
                b = e.arg if e.__class__ is MkSize or e.__class__ is MkIndex \
                    else e
                if a.__class__ is not IntLit or b.__class__ is not IntLit:
                    out = Stuck("guard operands are not numeric"
                                if cls is When else
                                f"operator {node.op} on non-integers")
                    break
                a, b, op = a.value, b.value, node.op
                if cls is When:
                    out = Stepped(node.body if _rel_holds(op, a, b)
                                  else _UNIT, k=rest)
                elif op == "+":
                    out = Stepped(IntLit(a + b), k=rest)
                elif op == "-":
                    out = Stepped(IntLit(a - b), k=rest)
                elif op == "*":
                    out = Stepped(IntLit(a * b), k=rest)
                elif op == "/":
                    out = Stuck("division by zero") if b == 0 \
                        else Stepped(IntLit(a // b), k=rest)
                elif op in ("==", "<=", "<"):
                    out = Stepped(BoolLit(a == b if op == "==" else
                                          a <= b if op == "<=" else a < b),
                                  k=rest)
                else:
                    out = Stuck(f"unknown operator {op}")
            elif tag is _APP:
                v += (e,)
                if len(v) <= len(node.args):
                    k = (_APP, node, v, rest)
                    e = node.args[len(v) - 1]
                    continue
                fn, args = v[0], v[1:]
                if fn.__class__ is not Lam or len(fn.params) != len(args):
                    out = Stuck("calling a non-procedure")
                else:
                    out = Stepped(subst_expr(fn.body, {
                        name: a for (name, _), a in zip(fn.params, args)}),
                        k=rest)
            else:  # a `_ONE` frame: the operand goes in place
                e, k = _plug(e, k, rest), rest
                continue
            break
        if cls is SeqE:
            k = (_SEQ, e.second, e, k)
            e = e.first
        elif cls is Let:
            k = (_LET, e, None, k)
            e = e.bound
        elif cls is Send:
            index = e.index
            if index is None or is_value(index):
                k = (_SEND, e, index, k)
                e = e.payload
            else:
                k = (_ONE, e, None, k)
                e = index
        elif cls is Recv:
            index = e.index
            if index is None or is_value(index):
                node, rest, out = e, k, _COMM
                break
            k = (_ONE, e, None, k)
            e = index
        elif cls is For:
            bound = e.bound
            n = bound.arg if bound.__class__ is MkSize \
                or bound.__class__ is MkIndex else bound
            if n.__class__ is IntLit:
                n, lo, body = n.value, e.lo, e.body
                if lo > n:
                    out = Stepped(_UNIT, k=k)
                    break
                # an iteration whose body does not use the index is the
                # body itself; a body a substitution built gets its free
                # names kept here, once for all its iterations
                fv = body._fv
                if fv is None:
                    fv = _free_names(body)
                first = body if e.var not in fv else \
                    subst_expr(body, {e.var: MkIndex(IntLit(lo))})
                out = Stepped(first, k=(
                    _SEQ, For(e.tvar, e.var, lo + 1, bound, body), None, k))
                break
            if is_value(bound):
                out = Stuck("loop bound is not a size value")
                break
            k = (_ONE, e, None, k)
            e = bound
        elif cls is BinOp or cls is When:
            k = (_PAIR, e, None, k)
            e = e.lhs
        elif cls is Assign:
            k = (_PAIR, e, None, k)
            e = e.target
        elif cls is App:
            k = (_APP, e, (), k)
            e = e.fn
        elif cls is FromSize or cls is FromIndex:
            # `fromSize`/`fromIndex` unwraps a `size`/`index` of a literal
            arg = e.arg
            wrapper, reason = _UNWRAP[cls]
            if arg.__class__ is wrapper and arg.arg.__class__ is IntLit:
                out = Stepped(arg.arg, k=k)
                break
            if is_value(arg):
                out = Stuck(reason)
                break
            k = (_ONE, e, None, k)
            e = arg
        elif cls is If:
            cond = e.cond
            if cond.__class__ is BoolLit:
                out = Stepped(e.then if cond.value else e.els, k=k)
                break
            if is_value(cond):
                out = Stuck("condition did not evaluate to a Boolean")
                break
            k = (_ONE, e, None, k)
            e = cond
        elif cls is NewRef or cls is Deref:
            arg = e.init if cls is NewRef else e.target
            if not is_value(arg):
                k = (_ONE, e, None, k)
                e = arg
            elif cls is NewRef:
                def effect(h: Heap, init=arg, name=actor.name):
                    h.alloc(name, init)
                slot = cfg.heap.next_slot.get(actor.name, 0)
                out = Stepped(LocRef(actor.name, slot), effect=effect, k=k)
                break
            elif arg.__class__ is LocRef:
                out = Stepped(cfg.heap.locs[(arg.actor, arg.slot)], key=arg,
                              k=k)
                break
            else:
                out = Stuck("dereferencing a non-reference")
                break
        elif cls is MkSize or cls is MkIndex:  # not a value: its argument
            k = (_ONE, e, None, k)
            e = e.arg
        else:
            raise TypeError(f"cannot step {e!r}")
    actor.focus, actor.k = e, k
    if out is not _COMM:
        return out
    # a send's payload, or a receive, at its redex: `node` is the `Send` or
    # `Recv`, `index` its evaluated index, and `rest` what encloses it
    heap = cfg.heap
    key, chan = heap.chans.get(node.chan, _UNBOUND)
    if key is None:
        if chan is None:
            return Stuck(f"{node.chan} is not bound to a channel")
        idx = _as_int(index)
        if idx is None:
            return Stuck("array index is not an index value")
        key = (chan, idx)
        if key not in heap.bufs:
            return Stuck(f"index {idx} outside channel array {chan}")
    buf = heap.bufs[key]
    if node.__class__ is Send:
        if len(buf) >= heap.caps[chan]:
            return heap.blocked[key][0]
        return Stepped(_UNIT, heap.labels[key][0], None, key, e, rest)
    if not buf:
        return heap.blocked[key][1]
    return Stepped(buf[0], heap.labels[key][1], None, key, None, rest)


# `fromSize`/`fromIndex` -> the wrapper it unwraps, and why others are stuck
_UNWRAP = {FromSize: (MkSize, "fromSize of a non-size value"),
           FromIndex: (MkIndex, "fromIndex of a non-index value")}


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


def commit(cfg: Configuration, i: int, out: Stepped) -> None:
    """Apply actor i's polled step to `cfg` in place."""
    actor = cfg.actors[i]
    actor.focus, actor.k = out.focus, out.k
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
