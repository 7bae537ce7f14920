"""Heap-based small-step execution of instantiated networks.

Channels live on a shared heap as bounded FIFO buffers in one map keyed by
`(channel, index)`: a plain channel is the buffer with index None, and a
channel array is a 1-indexed family of buffers, matching the 1-based
iteration ranges that produce their indices.  Capacities are per channel.
Actors take turns under a scheduler; a send on a full buffer or a receive on
an empty one is simply not enabled, and a configuration where no actor can
step while some are unfinished is a deadlock.  A step is one lookup of the
expression's class in `_STEP`, which answers None for a value too (a size
or an index of a value included), and `is_value` is a class test.  Value
substitution, `subst_expr`, is the machine's too: `check` never runs it.

`run` mutates its own copy of the configuration and re-polls only woken
actors: the one that moved and those whose last outcome read the buffer the
step pushed or popped (a step that writes a heap cell wakes everyone), so
polls per step do not grow with the number of actors; each communication
still copies the trace's buffer-size snapshot.  Its observer is called as
`observer(entry, cfg)` after each commit.  `explore` copies a configuration
before committing into it, so copy-on-write lives only in exploration.
A heap whose `touched` is a set (the conformance observer's, kept by
`Heap.copy`) adds to it the key of each buffer `push` or `pop` changes, so
an observer can recount only those; `explore` never sets it.

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
from collections import Counter
from itertools import chain
from typing import Callable, Optional, Union

from .kinding import eval_size, is_inf
from .syntax import (
    ActorComp, ActorE, App, Assign, BinOp, BoolLit, BoolType, ChanArrayType,
    ChannelArrayKind, ChannelKind, ChanType, Deref, Diagnostic, Env, Expr, For,
    FromIndex, FromSize, If, IntLit, IntType, Lam, Let, LocRef, MkIndex,
    MkSize, Network, NewRef, Recv, Send, SeqE, SizeArithmeticError, SizeKind,
    SizeType, Stop, Var, When, _constant, field, proc_components, record,
    replace,
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
    next_slot: dict = field(default_factory=dict)   # actor -> counter
    # buffers pushed or popped since the owner last cleared it; None: untracked
    touched: Optional[set] = field(default=None, compare=False, repr=False)

    def copy(self) -> "Heap":
        return Heap(dict(self.locs), dict(self.bufs), self.caps,
                    dict(self.next_slot),
                    None if self.touched is None else set(self.touched))

    def push(self, key: BufferKey, value) -> None:
        buf = self.bufs[key]
        assert len(buf) < self.caps[key[0]], \
            f"buffer overflow on {buffer_name(key)}"
        self.bufs[key] = buf + (value,)
        if self.touched is not None:
            self.touched.add(key)

    def pop(self, key: BufferKey):
        buf = self.bufs[key]
        self.bufs[key] = buf[1:]
        if self.touched is not None:
            self.touched.add(key)
        return buf[0]

    def alloc(self, actor: str, value) -> LocRef:
        slot = self.next_slot.get(actor, 0)
        self.next_slot[actor] = slot + 1
        self.locs[(actor, slot)] = value
        return LocRef(actor, slot)

    def freeze(self) -> tuple:
        # every heap of one run has the same buffer keys in the same order
        return tuple(sorted(self.locs.items())), tuple(self.bufs.values())

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
    tenv: Env
    sizes: dict

    def done(self) -> bool:
        return all(a.done for a in self.actors)

    def copy(self) -> "Configuration":
        return Configuration([Actor(a.name, a.expr) for a in self.actors],
                             self.heap.copy(), self.venv, self.tenv, self.sizes)

    def state_key(self) -> tuple:
        return (tuple(a.expr for a in self.actors), self.heap.freeze())


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
    channels prefilled to capacity, actor comprehensions unrolled."""
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
            heap.bufs[(name, index)] = fill

    # instantiations must respect declared upper bounds
    for name, kind in net.tenv.items:
        if isinstance(kind, SizeKind):
            bound = eval_size(kind.bound, sizes)
            if not is_inf(bound) and sizes[name] > bound:
                raise InstantiationError(Diagnostic(
                    "Size Bound",
                    f"size {name}={sizes[name]} exceeds its declared bound "
                    f"{bound}"))

    # value-level size parameters become size constants
    params: dict[str, Expr] = {}
    for name, ty in net.venv.items:
        if isinstance(ty, SizeType):
            params[name] = MkSize(IntLit(_eval_quantity(
                ty.witness, sizes, "Ty Size", f"value of {name}")))

    actors: list[Actor] = []
    for i, part in enumerate(proc_components(net.body)):
        match part:
            case Stop():
                actors.append(Actor(f"a{i}", None))
            case ActorE(expr):
                actors.append(Actor(f"a{i}", subst_expr(expr, params)))
            case ActorComp(tvar, var, lo, hi, body):
                hi_expr = subst_expr(hi, params)
                match hi_expr:
                    case MkSize(IntLit(value=v)):
                        hi_n = v
                    case _:
                        raise InstantiationError(Diagnostic(
                            "Proc Comp", "actor-array bound did not evaluate"))
                body = subst_expr(body, params)
                for k in range(lo, hi_n + 1):
                    actors.append(Actor(
                        f"a{i}[{k}]",
                        subst_expr(body, {var: MkIndex(IntLit(k))})))
            case _:
                raise TypeError(f"unexpected process form {part!r}")
    return Configuration(actors, heap, net.venv, net.tenv, dict(sizes))


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
    in well-formed programs, so binder renaming is not needed here.
    """
    if not mapping:
        return e
    try:
        subst = _SUBST[e.__class__]
    except KeyError:
        raise TypeError(f"not an expression: {e!r}") from None
    return subst(e, mapping)


def _subst_spine(e: Union[SeqE, Let], mapping: dict[str, Expr]) -> Expr:
    """A right-nested chain of `SeqE`s and `Let`s, walked in a loop so that
    a long actor does not recurse once per statement."""
    heads = []
    while mapping and (e.__class__ is SeqE or e.__class__ is Let):
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

@record
class Stepped:
    expr: Expr
    label: Optional[Label] = None
    effect: Optional[Callable] = None  # applied to the heap when committed


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
    """One reduction of `e`, or None when `e` is a value.  Heap changes are
    returned as an effect thunk so schedulers can probe without committing."""
    try:
        step = _STEP[e.__class__]
    except KeyError:
        raise TypeError(f"cannot step {e!r}") from None
    return step(e, heap, actor, venv)


def _step_seq(e: SeqE, heap: Heap, actor: str, venv: Env):
    first, second = e.first, e.second
    if is_value(first):
        return Stepped(second)
    return _in_context(first, heap, actor, venv, lambda f: SeqE(f, second))


def _step_let(e: Let, heap: Heap, actor: str, venv: Env):
    var, bound, body = e.var, e.bound, e.body
    if is_value(bound):
        return Stepped(subst_expr(body, {var: bound}))
    return _in_context(bound, heap, actor, venv,
                       lambda b: Let(var, b, body))


def _step_app(e: App, heap: Heap, actor: str, venv: Env):
    fn, args = e.fn, e.args
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


def _step_if(e: If, heap: Heap, actor: str, venv: Env):
    cond, then, els = e.cond, e.then, e.els
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


def _step_when(e: When, heap: Heap, actor: str, venv: Env):
    lhs, op, rhs, body = e.lhs, e.op, e.rhs, e.body
    if not is_value(lhs):
        return _in_context(lhs, heap, actor, venv,
                           lambda l: When(l, op, rhs, body))
    if not is_value(rhs):
        return _in_context(rhs, heap, actor, venv,
                           lambda r: When(lhs, op, r, body))
    a, b = _as_int(lhs), _as_int(rhs)
    if a is None or b is None:
        return Stuck("guard operands are not numeric")
    return Stepped(body if _rel_holds(op, a, b) else _UNIT)


def _step_for(e: For, heap: Heap, actor: str, venv: Env):
    tvar, var, lo, bound, body = e.tvar, e.var, e.lo, e.bound, e.body
    if not is_value(bound):
        return _in_context(bound, heap, actor, venv,
                           lambda b: For(tvar, var, lo, b, body))
    n = _as_int(bound)
    if n is None:
        return Stuck("loop bound is not a size value")
    if lo > n:
        return Stepped(_UNIT)
    unrolled = SeqE(subst_expr(body, {var: MkIndex(IntLit(lo))}),
                    For(tvar, var, lo + 1, bound, body))
    return Stepped(unrolled)


def _step_from_size(e: FromSize, heap: Heap, actor: str, venv: Env):
    arg = e.arg
    if not is_value(arg):
        return _in_context(arg, heap, actor, venv, FromSize)
    if arg.__class__ is MkSize and arg.arg.__class__ is IntLit:
        return Stepped(arg.arg)
    return Stuck("fromSize of a non-size value")


def _step_from_index(e: FromIndex, heap: Heap, actor: str, venv: Env):
    arg = e.arg
    if not is_value(arg):
        return _in_context(arg, heap, actor, venv, FromIndex)
    if arg.__class__ is MkIndex and arg.arg.__class__ is IntLit:
        return Stepped(arg.arg)
    return Stuck("fromIndex of a non-index value")


def _step_new_ref(e: NewRef, heap: Heap, actor: str, venv: Env):
    init = e.init
    if not is_value(init):
        return _in_context(init, heap, actor, venv, NewRef)
    slot = heap.next_slot.get(actor, 0)
    ref = LocRef(actor, slot)

    def effect(h: Heap, init=init):
        h.alloc(actor, init)
    return Stepped(ref, effect=effect)


def _step_deref(e: Deref, heap: Heap, actor: str, venv: Env):
    target = e.target
    if not is_value(target):
        return _in_context(target, heap, actor, venv, Deref)
    if not isinstance(target, LocRef):
        return Stuck("dereferencing a non-reference")
    return Stepped(heap.locs[(target.actor, target.slot)])


def _step_assign(e: Assign, heap: Heap, actor: str, venv: Env):
    target, value = e.target, e.value
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


def _step_bin_op(e: BinOp, heap: Heap, actor: str, venv: Env):
    op, lhs, rhs = e.op, e.lhs, e.rhs
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


def _in_context(inner: Expr, heap: Heap, actor: str, venv: Env,
                rebuild: Callable[[Expr], Expr]):
    out = _STEP[inner.__class__](inner, heap, actor, venv)
    if out.__class__ is Stepped:
        out.expr = rebuild(out.expr)  # `out` is fresh and ours alone
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
        return Stepped(_UNIT, Label(ty.name, True, key[1]),
                       lambda h: h.push(key, e.payload))
    if not buf:
        return Blocked(f"buffer {buffer_name(key)} is empty", key)
    return Stepped(buf[0], Label(ty.name, False, key[1]),
                   lambda h: h.pop(key))


# expression class -> its step; a value, and a size or an index of one,
# steps to None
_STEP = dict.fromkeys(_VALUE_CLASSES, lambda e, h, a, v: None)
_STEP.update({
    SeqE: _step_seq, Let: _step_let, App: _step_app, If: _step_if,
    When: _step_when, For: _step_for, FromSize: _step_from_size,
    FromIndex: _step_from_index,
    MkSize: lambda e, h, a, v: _in_context(e.arg, h, a, v, MkSize),
    MkIndex: lambda e, h, a, v: _in_context(e.arg, h, a, v, MkIndex),
    NewRef: _step_new_ref, Deref: _step_deref, Assign: _step_assign,
    BinOp: _step_bin_op, Send: _step_comm, Recv: _step_comm,
})


# ---------------------------------------------------------------------------
# Running configurations
# ---------------------------------------------------------------------------

@record
class TraceStep:
    step: int
    actor: str
    label: Optional[Label]
    buffer_sizes: dict

    def to_json(self) -> dict:
        label = {"kind": "internal"}
        if self.label is not None:
            label = {"kind": "send" if self.label.is_send else "recv",
                     "channel": self.label.chan}
            if self.label.index is not None:
                label["index"] = self.label.index
        return {"step": self.step, "actor": self.actor, "label": label,
                "bufferSizes": self.buffer_sizes}


@record
class RunResult:
    status: str                      # "done" | "deadlock" | "error"
    trace: list[TraceStep]
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


def commit(cfg: Configuration, i: int, out: Stepped,
           drop_effect: bool = False) -> None:
    """Apply actor i's polled step to `cfg` in place."""
    cfg.actors[i].expr = out.expr
    if out.effect is not None and not drop_effect:
        out.effect(cfg.heap)


@record
class Fault:
    """Fault injection: skip the heap effect of the n-th send (1-based)."""
    drop_send: int


def run(cfg: Configuration, scheduler: str = "roundRobin", seed: int = 0,
        max_steps: int = 500_000, observer: Optional[Callable] = None,
        fault: Optional[Fault] = None) -> RunResult:
    """Execute one schedule on a copy of `cfg`, committing in place and
    re-polling only woken actors (see the module docstring).  Enabled actors
    stay in index order, so both schedulers choose exactly as if every actor
    were polled every step."""
    cfg = cfg.copy()
    actors, heap = cfg.actors, cfg.heap
    outcomes: list = [None] * len(actors)
    waits: list = [None] * len(actors)   # buffer key each outcome read
    readers: dict = {key: set() for key in heap.bufs}
    enabled: list[int] = []              # actors with a Stepped outcome

    def poll(j: int) -> None:
        if outcomes[j].__class__ is Stepped:
            del enabled[bisect_left(enabled, j)]
        if waits[j] is not None:
            readers[waits[j]].discard(j)
        outcomes[j] = out = _actor_outcome(cfg, j)
        key = None
        if out.__class__ is Stepped:
            insort(enabled, j)
            if out.label is not None:
                key = (out.label.chan, out.label.index)
        elif out.__class__ is Blocked:
            key = out.key
        waits[j] = key
        if key is not None:
            readers[key].add(j)

    for j in range(len(actors)):
        poll(j)
    live = sum(not a.done for a in actors)
    sizes = heap.buffer_sizes()  # snapshots are shared by trace entries
    trace: list[TraceStep] = []
    counts: Counter = Counter()
    getrandbits = random.Random(seed).getrandbits
    rr = 0
    sends_seen = 0
    while live:
        if len(trace) == max_steps:
            return RunResult("error", trace, cfg,
                             {"*": f"exceeded {max_steps} steps"}, counts)
        if not enabled:
            blocked = {a.name: out.reason for a, out in zip(actors, outcomes)
                       if isinstance(out, (Blocked, Stuck))}
            return RunResult("deadlock", trace, cfg, blocked, counts)
        if scheduler == "roundRobin":
            k = bisect_left(enabled, rr)
            i = enabled[k] if k < len(enabled) else enabled[0]
            rr = (i + 1) % len(actors)
        elif scheduler == "random":
            # the draws of `Random.randrange(n)`, without its checks
            n = len(enabled)
            r = getrandbits(k := n.bit_length())
            while r >= n:
                r = getrandbits(k)
            i = enabled[r]
        else:
            raise ValueError(f"unknown scheduler {scheduler}")
        out = outcomes[i]
        label = out.label
        drop = False
        if label is not None and label.is_send:
            sends_seen += 1
            drop = fault is not None and sends_seen == fault.drop_send
        commit(cfg, i, out, drop_effect=drop)
        if is_value(out.expr):
            live -= 1
        if label is None:
            wake = (i,) if out.effect is None else range(len(actors))
        else:
            counts[(label.chan, "send" if label.is_send else "recv")] += 1
            key = (label.chan, label.index)
            fill = len(heap.bufs[key])
            sizes = dict(sizes)
            if label.index is None:
                sizes[label.chan] = fill
            else:
                sizes[label.chan] = fills = list(sizes[label.chan])
                fills[label.index - 1] = fill
            wake = tuple(readers[key])  # actor i among them
        for j in wake:
            poll(j)
        entry = TraceStep(len(trace), actors[i].name, label, sizes)
        trace.append(entry)
        if observer is not None:
            observer(entry, cfg)
    return RunResult("done", trace, cfg, comm_counts=counts)


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


def _comm_sites(e: Expr, venv: Env) -> frozenset:
    """`(channel, is_send, index)` of every send and receive in `e`,
    procedure bodies included.  The index is None for a plain channel and
    for an index that is not yet a literal: such a site may use any buffer
    of its channel."""
    sites = set()
    stack = [e]
    while stack:
        match stack.pop():
            case Send() | Recv() as comm:
                ty = venv.lookup(comm.chan)
                if isinstance(ty, (ChanType, ChanArrayType)):
                    index = (_as_int(comm.index)
                             if isinstance(ty, ChanArrayType) else None)
                    sites.add((ty.name, isinstance(comm, Send), index))
                if comm.index is not None:
                    stack.append(comm.index)
                if isinstance(comm, Send):
                    stack.append(comm.payload)
            case (MkSize(a) | FromSize(a) | MkIndex(a) | FromIndex(a)
                  | NewRef(a) | Deref(a) | Lam(body=a)):
                stack.append(a)
            case (SeqE(a, b) | Let(_, a, b) | For(bound=a, body=b)
                  | Assign(a, b) | BinOp(_, a, b)):
                stack += (a, b)
            case If(a, b, c) | When(a, _, b, c):
                stack += (a, b, c)
            case App(fn, args):
                stack.append(fn)
                stack += args
    return frozenset(sites)


def _persistent(cfg: Configuration, outs: list, sites: Callable) -> list:
    """The enabled steps `explore` expands at `cfg`: one step that commutes
    with every step other actors can take before it, else all of `outs`.

    Such a step is an internal step that reads and writes no heap cell, or
    a send (receive) on a buffer that no other actor's remaining expression
    and no procedure stored in a buffer or a cell can send to (receive
    from).  With one writer and one reader per buffer, other actors can
    only make it more enabled, and a push and a pop of one FIFO commute, so
    the singleton is a persistent set and every deadlock and terminal is
    still reached (Godefroid, LNCS 1032, Thm 4.3).  `sites(e)` is
    `_comm_sites(e, cfg.venv)`, cached by the caller."""
    stored = None
    for i, out in outs:
        label = out.label
        if label is None:
            if not isinstance(_redex(cfg.actors[i].expr), (Deref, Assign)):
                return [(i, out)]
            continue
        clash = {(label.chan, label.is_send, label.index),
                 (label.chan, label.is_send, None)}
        if stored is None:
            values = chain(cfg.heap.locs.values(), *cfg.heap.bufs.values())
            stored = frozenset().union(
                *(sites(v) for v in values if isinstance(v, Lam)))
        if clash.isdisjoint(stored) and all(
                clash.isdisjoint(sites(a.expr))
                for j, a in enumerate(cfg.actors) if j != i and not a.done):
            return [(i, out)]
    return outs


def explore(cfg: Configuration, max_states: int = 300_000) -> ExploreResult:
    """Search the interleavings of `cfg`, memoized on configuration plus
    per-channel communication counts, expanding a persistent set of the
    enabled steps at each state (see `_persistent`).  The reduced search
    reaches every terminal and every stuck configuration the full one does,
    so `any_complete`, `all_complete` and `terminals` are exact; `states`
    counts the reduced states visited, at most `max_states`."""
    # id(e) -> (e, its sites); holding `e` keeps its id from being reused
    cache: dict = {}

    def sites(e: Expr) -> frozenset:
        hit = cache.get(id(e))
        if hit is not None:
            return hit[1]
        # a `Let`/`SeqE` chain adds its heads' sites to its tail's, in a
        # loop, so each state of a long actor costs only its new nodes
        chain = []
        while id(e) not in cache and (e.__class__ is SeqE
                                      or e.__class__ is Let):
            chain.append(e)
            e = e.second if e.__class__ is SeqE else e.body
        hit = cache.get(id(e)) or (e, _comm_sites(e, cfg.venv))
        cache[id(e)] = hit
        for node in reversed(chain):
            head = node.first if node.__class__ is SeqE else node.bound
            hit = cache[id(node)] = (node,
                                     hit[1] | _comm_sites(head, cfg.venv))
        return hit[1]

    visited: set = set()
    terminals: set = set()
    stuck: list = []
    any_complete = False
    all_complete = True
    truncated = False
    stack = [(cfg.copy(), Counter())]
    while stack:
        current, counts = stack.pop()
        key = (current.state_key(), tuple(sorted(counts.items())))
        if key in visited:
            continue
        if len(visited) == max_states:
            truncated = True
            break
        visited.add(key)
        outs = []
        for i in range(len(current.actors)):
            out = _actor_outcome(current, i)
            if isinstance(out, Stepped):
                outs.append((i, out))
        if not outs:
            if current.done():
                any_complete = True
                terminals.add(_signature(current, tuple(sorted(counts.items()))))
            else:
                all_complete = False
                if len(stuck) < STUCK_LIMIT:
                    stuck.append(current)
            continue
        for i, out in _persistent(current, outs, sites):
            nxt = current.copy()
            commit(nxt, i, out)
            nc = Counter(counts)
            if out.label is not None:
                nc[(out.label.chan,
                    "send" if out.label.is_send else "recv")] += 1
            stack.append((nxt, nc))
    return ExploreResult(any_complete, all_complete and not truncated,
                         len(visited), terminals, stuck, truncated)
