"""Abstract syntax for the dataflow kernel language.

Three layers share this module: type-level syntax (size expressions, kinds,
channel types, flowstates), value-level syntax (expressions, processes,
networks), and the environment that binds them: one `Env` class, used once
for kinds and once for value types, whose `extend` adds a frame that shares
its parent.  All nodes are immutable; source locations are carried on
value-level nodes but excluded from structural equality so that
parse/print round-trips compare clean.

A comprehension's guards, `Divides(d, x)` and `AtMost(x, b)`, take a size
operand `x`: a loop variable (`SVar`) in source and in synthesized
flowstates, and a number once reduction substitutes one, which makes the
guard decided.  Substitution and distribution rename colliding binders with
one function, `rename_binder`.

Record classes, here and in the other modules, are built by `record`, which
gives what `dataclasses.dataclass` gives them (same `__init__`, `__repr__`,
`__eq__`, `__hash__`, `__match_args__` and frozen errors) without importing
`dataclasses` or `inspect`, so the command line starts cheaply.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional, Union

Loc = tuple[int, int]  # (line, column), 1-based


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


_MISSING = object()


class field:
    """A record field's spec, as `dataclasses.field`."""
    __slots__ = ("name", "default", "default_factory", "compare", "repr")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING,
                 compare=True, repr=True):
        self.name = None
        self.default, self.default_factory = default, default_factory
        self.compare, self.repr = compare, repr


def _record_repr(self):
    args = ", ".join([f"{f.name}={getattr(self, f.name)!r}"
                      for f in self.__record_fields__ if f.repr])
    return f"{self.__class__.__qualname__}({args})"


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, /, *, frozen: bool = False):
    """`@record` or `@record(frozen=True)`: `dataclasses.dataclass` for the
    features used here.  `__init__`, `__eq__` and `__hash__` are generated
    from source in one `exec` per class, with the bodies `dataclasses`
    generates, so instances cost what dataclass instances cost."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    fields = []
    env: dict = {"_setattr": object.__setattr__, "_FACTORY": _MISSING}
    params, body = [], []
    for name in cls.__dict__.get("__annotations__", {}):
        f = cls.__dict__.get(name, _MISSING)
        f = f if isinstance(f, field) else field(default=f)
        f.name, value = name, name
        if f.default_factory is not _MISSING:
            env[f"_factory_{name}"] = f.default_factory
            params.append(f"{name}=_FACTORY")
            value = f"_factory_{name}() if {name} is _FACTORY else {name}"
            delattr(cls, name)
        elif f.default is not _MISSING:
            env[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
            setattr(cls, name, f.default)
        else:
            params.append(name)
        body.append(f"_setattr(self, {name!r}, {value})" if frozen
                    else f"self.{name} = {value}")
        fields.append(f)
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    compared = "".join(f"{{0}}.{f.name}," for f in fields if f.compare)
    namespace: dict = {}
    exec(f"def create({', '.join(env)}):\n"
         f" def __init__(self, {', '.join(params)}):\n"
         f"  {'; '.join(body) or 'pass'}\n"
         " def __eq__(self, other):\n"
         "  if other.__class__ is self.__class__:\n"
         f"   return ({compared.format('self')}) == "
         f"({compared.format('other')})\n"
         "  return NotImplemented\n"
         " def __hash__(self):\n"
         f"  return hash(({compared.format('self')}))\n"
         " return __init__, __eq__, __hash__\n", {}, namespace)
    methods = dict(zip(("__init__", "__eq__", "__hash__"),
                       namespace["create"](**env)))
    for name, fn in methods.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
    methods.update(__repr__=_record_repr,
                   __match_args__=tuple(f.name for f in fields))
    if frozen:
        methods.update(__setattr__=_frozen_setattr,
                       __delattr__=_frozen_delattr)
    else:
        methods["__hash__"] = None
    for name, value in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, value)
    cls.__record_fields__ = tuple(fields)
    return cls


def replace(obj, /, **changes):
    """A copy of record `obj` with the given fields changed."""
    for f in obj.__record_fields__:
        changes.setdefault(f.name, getattr(obj, f.name))
    return obj.__class__(**changes)


def _loc_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Size expressions (type-level numeric quantities)
# ---------------------------------------------------------------------------

@record(frozen=True)
class Num:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("size constants are nonnegative")


@record(frozen=True)
class Infinity:
    pass


@record(frozen=True)
class SVar:
    name: str


@record(frozen=True)
class Add:
    left: "SizeExpr"
    right: "SizeExpr"


@record(frozen=True)
class Sub:
    left: "SizeExpr"
    right: "SizeExpr"


@record(frozen=True)
class Mul:
    left: "SizeExpr"
    right: "SizeExpr"


@record(frozen=True)
class Div:
    left: "SizeExpr"
    right: "SizeExpr"


@record(frozen=True)
class SMin:
    left: "SizeExpr"
    right: "SizeExpr"


SizeExpr = Union[Num, Infinity, SVar, Add, Sub, Mul, Div, SMin]

INF = Infinity()
ONE = Num(1)
ZERO = Num(0)

# The binary operators of size and value expressions by precedence level,
# the parser's and the printer's one table: a higher level binds tighter.
# Comparisons do not chain; the other levels associate to the left.
PRECEDENCE = {"==": 1, "<=": 1, "<": 1, "+": 2, "-": 2, "*": 3, "/": 3}
COMPARE_LEVEL = 1
SIZE_OPERATORS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def free_size_vars(e: SizeExpr) -> set[str]:
    match e:
        case Num() | Infinity():
            return set()
        case SVar(name):
            return {name}
        case Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b) | SMin(a, b):
            return free_size_vars(a) | free_size_vars(b)
    raise TypeError(f"not a size expression: {e!r}")


def subst_size(e: SizeExpr, var: str, repl: SizeExpr) -> SizeExpr:
    match e:
        case Num() | Infinity():
            return e
        case SVar(name):
            return repl if name == var else e
        case Add(a, b):
            return Add(subst_size(a, var, repl), subst_size(b, var, repl))
        case Sub(a, b):
            return Sub(subst_size(a, var, repl), subst_size(b, var, repl))
        case Mul(a, b):
            return Mul(subst_size(a, var, repl), subst_size(b, var, repl))
        case Div(a, b):
            return Div(subst_size(a, var, repl), subst_size(b, var, repl))
        case SMin(a, b):
            return SMin(subst_size(a, var, repl), subst_size(b, var, repl))
    raise TypeError(f"not a size expression: {e!r}")


# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------

@record(frozen=True)
class TypeKind:
    pass


@record(frozen=True)
class SizeKind:
    bound: SizeExpr


@record(frozen=True)
class ChannelKind:
    delay: int  # 0 or 1
    limit: SizeExpr

    def __post_init__(self):
        if self.delay not in (0, 1):
            raise ValueError("channel delay flag is 0 or 1")


@record(frozen=True)
class ChannelArrayKind:
    delay: int
    limit: SizeExpr
    bound: SizeExpr  # number of channels in the array

    def __post_init__(self):
        if self.delay not in (0, 1):
            raise ValueError("channel delay flag is 0 or 1")


Kind = Union[TypeKind, SizeKind, ChannelKind, ChannelArrayKind]


# ---------------------------------------------------------------------------
# Simple types and channel value types
# ---------------------------------------------------------------------------

@record(frozen=True)
class BoolType:
    pass


@record(frozen=True)
class IntType:
    pass


@record(frozen=True)
class SizeType:
    witness: SizeExpr


@record(frozen=True)
class IndexType:
    witness: SizeExpr


@record(frozen=True)
class RefType:
    payload: "SimpleType"


@record(frozen=True)
class ProcType:
    params: tuple["SimpleType", ...]
    latent: "ActorFlow"   # communications performed by the body
    rest: "ActorFlow"     # annotation for the caller's continuation
    result: "SimpleType"


SimpleType = Union[BoolType, IntType, SizeType, IndexType, RefType, ProcType]

# Polarities: "+" receive, "-" send, "+-" both (duplex network instantiation).
POLARITIES = ("+", "-", "+-")


@record(frozen=True)
class ChanType:
    polarity: str
    name: str            # type-level channel name
    payload: SimpleType

    def __post_init__(self):
        if self.polarity not in POLARITIES:
            raise ValueError(f"bad polarity {self.polarity!r}")


@record(frozen=True)
class ChanArrayType:
    polarity: str
    name: str
    payload: SimpleType
    bound: SizeExpr

    def __post_init__(self):
        if self.polarity not in POLARITIES:
            raise ValueError(f"bad polarity {self.polarity!r}")


ValueType = Union[SimpleType, ChanType, ChanArrayType]


# ---------------------------------------------------------------------------
# Events, iterators, guards, flowstates
# ---------------------------------------------------------------------------

@record(frozen=True)
class Event:
    chan: str
    is_send: bool
    index: Optional[SizeExpr] = None  # None for plain channels

    def complement(self) -> "Event":
        return Event(self.chan, not self.is_send, self.index)


@record(frozen=True)
class Iterator:
    var: str
    lo: SizeExpr
    hi: SizeExpr


@record(frozen=True)
class Divides:
    divisor: SizeExpr
    operand: SizeExpr  # an SVar, or a Num once reduction substitutes one


@record(frozen=True)
class AtMost:
    operand: SizeExpr  # an SVar, or a Num once reduction substitutes one
    bound: SizeExpr


Guard = Union[Divides, AtMost]


@record(frozen=True)
class FEmpty:
    pass


@record(frozen=True)
class Comp:
    event: Event
    iterators: tuple[Iterator, ...] = ()
    guards: tuple[Guard, ...] = ()


@record(frozen=True)
class FSeq:
    left: "ActorFlow"
    right: "ActorFlow"


ActorFlow = Union[FEmpty, Comp, FSeq]

EMPTY_FLOW = FEmpty()


def seq_flow(*parts: ActorFlow) -> ActorFlow:
    """Sequence flows, dropping empty components."""
    items = [p for p in parts if not isinstance(p, FEmpty)]
    if not items:
        return EMPTY_FLOW
    out = items[0]
    for p in items[1:]:
        out = FSeq(out, p)
    return out


def flow_comps(fs: ActorFlow) -> list[Comp]:
    """Flatten an actor flowstate into its sequence of comprehensions."""
    comps = []
    stack = [fs]
    while stack:  # explicit stack: a long actor nests `FSeq` deeply
        match stack.pop():
            case FSeq(a, b):
                stack += (b, a)
            case Comp() as c:
                comps.append(c)
            case FEmpty():
                pass
            case other:
                raise TypeError(f"not an actor flowstate: {other!r}")
    return comps


@record(frozen=True)
class PEmpty:
    pass


@record(frozen=True)
class PActor:
    flow: ActorFlow


@record(frozen=True)
class PArray:
    var: str
    lo: SizeExpr
    hi: SizeExpr
    body: ActorFlow


@record(frozen=True)
class PPar:
    left: "ProcFlow"
    right: "ProcFlow"


ProcFlow = Union[PEmpty, PActor, PArray, PPar]


def par_flow(*parts: ProcFlow) -> ProcFlow:
    items = [p for p in parts if not isinstance(p, PEmpty)]
    if not items:
        return PEmpty()
    out = items[0]
    for p in items[1:]:
        out = PPar(out, p)
    return out


def proc_flow_components(fs: ProcFlow) -> list[ProcFlow]:
    """Flatten parallel structure left to right, dropping empty components."""
    out: list[ProcFlow] = []
    stack = [fs]
    while stack:
        match stack.pop():
            case PPar(a, b):
                stack += (b, a)
            case PEmpty() | PActor(FEmpty()):
                pass
            case PActor() | PArray() as part:
                out.append(part)
            case other:
                raise TypeError(f"not a process flowstate: {other!r}")
    return out


# --- flowstate variable handling -------------------------------------------

def flow_free_vars(fs: ActorFlow) -> set[str]:
    """Type variables occurring free in a flowstate (channels included)."""
    out: set[str] = set()
    for comp in flow_comps(fs):
        bound: set[str] = set()
        for it in comp.iterators:
            out |= free_size_vars(it.lo) - bound
            out |= free_size_vars(it.hi) - bound
            bound.add(it.var)
        out.add(comp.event.chan)
        if comp.event.index is not None:
            out |= free_size_vars(comp.event.index) - bound
        for g in comp.guards:
            match g:
                case Divides(a, b) | AtMost(a, b):
                    out |= (free_size_vars(a) | free_size_vars(b)) - bound
    return out


_fresh_counter = itertools.count()


def fresh_var(base: str, avoid: set[str]) -> str:
    if base not in avoid:
        return base
    while True:
        cand = f"{base}_{next(_fresh_counter)}"
        if cand not in avoid:
            return cand


def _subst_guard(g: Guard, var: str, repl: SizeExpr) -> Guard:
    match g:
        case Divides(a, b) | AtMost(a, b):
            return g.__class__(subst_size(a, var, repl), subst_size(b, var, repl))
    raise TypeError(f"not a guard: {g!r}")


def subst_comp(comp: Comp, var: str, repl: SizeExpr) -> Comp:
    """Capture-avoiding substitution into one comprehension."""
    binders = [it.var for it in comp.iterators]
    if var in binders:
        # bound occurrence: substitute only in bounds up to the shadowing binder
        new_iters = []
        shadowed = False
        for it in comp.iterators:
            if shadowed:
                new_iters.append(it)
            else:
                new_iters.append(Iterator(it.var, subst_size(it.lo, var, repl),
                                          subst_size(it.hi, var, repl)))
            if it.var == var:
                shadowed = True
        return Comp(comp.event, tuple(new_iters), comp.guards)
    avoid = free_size_vars(repl) | {var}
    for name in binders:
        if name in avoid:
            comp = rename_binder(comp, name, avoid)
    event = comp.event
    new_iters = tuple(Iterator(it.var, subst_size(it.lo, var, repl),
                               subst_size(it.hi, var, repl))
                      for it in comp.iterators)
    new_event = Event(event.chan, event.is_send,
                      None if event.index is None else subst_size(event.index, var, repl))
    new_guards = tuple(_subst_guard(g, var, repl) for g in comp.guards)
    return Comp(new_event, new_iters, new_guards)


def rename_binder(comp: Comp, old: str, avoid: set[str]) -> Comp:
    """Rename the binder `old` of a comprehension, if it has one, to a name
    outside `avoid`, the comprehension's binders and its free names."""
    binders = [it.var for it in comp.iterators]
    if old not in binders:
        return comp
    new = fresh_var(old, avoid | set(binders) | flow_free_vars(comp))
    pos = binders.index(old)
    it = comp.iterators[pos]
    # what follows the binder is its scope
    scope = subst_comp(Comp(comp.event, comp.iterators[pos + 1:], comp.guards),
                       old, SVar(new))
    return Comp(scope.event,
                comp.iterators[:pos] + (Iterator(new, it.lo, it.hi),)
                + scope.iterators, scope.guards)


def map_comps(fs: ActorFlow, fn) -> ActorFlow:
    """`fs` with each comprehension `c` replaced by `fn(c)`, left to right,
    keeping the shape of its `FSeq` tree.  An explicit stack, since a long
    actor nests `FSeq` deeply."""
    stack, done = [fs], []
    while stack:
        node = stack.pop()
        if isinstance(node, FSeq):
            stack += (None, node.right, node.left)
        elif node is None:  # both halves of an FSeq are done
            done[-2:] = [FSeq(*done[-2:])]
        elif isinstance(node, (Comp, FEmpty)):
            done.append(fn(node) if isinstance(node, Comp) else node)
        else:
            raise TypeError(f"not an actor flowstate: {node!r}")
    return done[0]


def subst_flow(fs: ActorFlow, var: str, repl: SizeExpr) -> ActorFlow:
    return map_comps(fs, lambda c: subst_comp(c, var, repl))


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------

@record(frozen=True)
class Env:
    """Names bound to kinds (type level) or to value types (value level).
    `items` holds this frame's bindings in declaration order; `extend` adds
    a one-binding frame that shares its parent instead of copying it."""
    items: tuple = ()
    parent: Optional["Env"] = None

    @functools.cached_property
    def _index(self) -> dict:
        return dict(self.items)  # later bindings shadow earlier ones

    def lookup(self, name: str):
        env = self
        while env is not None:
            found = env._index.get(name)
            if found is not None:
                return found
            env = env.parent
        return None

    def extend(self, name: str, value) -> "Env":
        return Env(((name, value),), self)

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None


# ---------------------------------------------------------------------------
# Expressions, processes, networks
# ---------------------------------------------------------------------------

@record(frozen=True)
class IntLit:
    value: int
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class BoolLit:
    value: bool
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class Var:
    name: str
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class MkSize:
    arg: "Expr"
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class FromSize:
    arg: "Expr"
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class MkIndex:
    arg: "Expr"
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class FromIndex:
    arg: "Expr"
    loc: Optional[Loc] = _loc_field()


# the expressions written `keyword(argument)`
KEYWORD_FORMS = {MkSize: "size", MkIndex: "index", FromSize: "fromSize",
                 FromIndex: "fromIndex"}


@record(frozen=True)
class Lam:
    params: tuple[tuple[str, SimpleType], ...]
    latent: ActorFlow
    rest: ActorFlow
    body: "Expr"
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class App:
    fn: "Expr"
    args: tuple["Expr", ...]
    loc: Optional[Loc] = _loc_field()


def _link(e) -> Optional[tuple]:
    """A `SeqE` or `Let` as (its other compared fields, its continuation);
    None for any other node.  `==` and `hash` walk such chains in a loop,
    so that a long actor does not recurse once per statement."""
    if e.__class__ is SeqE:
        return (e.first,), e.second
    if e.__class__ is Let:
        return (e.var, e.bound), e.body
    return None


def _spine_eq(a, b):
    if b.__class__ is not a.__class__:
        return NotImplemented
    while a is not b:
        la, lb = _link(a), _link(b)
        if la is None or lb is None or a.__class__ is not b.__class__:
            return la is None and lb is None and a == b
        if la[0] != lb[0]:
            return False
        a, b = la[1], lb[1]
    return True


def _spine_hash(e) -> int:
    """The generated hash, taken from the chain's tail up (each node's hash
    finds its continuation's) and kept on the node, so hashing a state of
    a long actor costs only its new nodes."""
    h = e.__dict__.get("_hash")
    if h is None:
        chain = []
        while _link(e) and "_hash" not in e.__dict__:
            chain.append(e)
            e = _link(e)[1]
        for node in reversed(chain):
            fields, rest = _link(node)
            h = node.__dict__["_hash"] = hash(fields + (rest,))
    return h


@record(frozen=True)
class Let:
    var: str
    bound: "Expr"
    body: "Expr"
    loc: Optional[Loc] = _loc_field()

    __eq__, __hash__ = _spine_eq, _spine_hash


@record(frozen=True)
class SeqE:
    first: "Expr"
    second: "Expr"
    loc: Optional[Loc] = _loc_field()

    __eq__, __hash__ = _spine_eq, _spine_hash


@record(frozen=True)
class If:
    cond: "Expr"
    then: "Expr"
    els: "Expr"
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class When:
    lhs: "Expr"
    op: str  # "|" or "<="
    rhs: "Expr"
    body: "Expr"
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class For:
    tvar: str        # type-level witness for the loop index
    var: str         # value-level loop index
    lo: int          # literal lower bound
    bound: "Expr"    # size-typed upper bound
    body: "Expr"
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class NewRef:
    init: "Expr"
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class Deref:
    target: "Expr"
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class Assign:
    target: "Expr"
    value: "Expr"
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class Recv:
    chan: str
    index: Optional["Expr"] = None
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class Send:
    chan: str
    index: Optional["Expr"]
    payload: "Expr"
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class BinOp:
    op: str  # + - * / == <= <
    lhs: "Expr"
    rhs: "Expr"
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class LocRef:
    """Heap location; appears only during evaluation, never in source."""
    actor: str
    slot: int
    loc: Optional[Loc] = _loc_field()


Expr = Union[IntLit, BoolLit, Var, MkSize, FromSize, MkIndex, FromIndex, Lam,
             App, Let, SeqE, If, When, For, NewRef, Deref, Assign, Recv, Send,
             BinOp, LocRef]


@record(frozen=True)
class Stop:
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class ActorE:
    expr: Expr
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class ActorComp:
    tvar: str
    var: str
    lo: int          # literal lower bound
    hi: Expr         # size-typed value (literal or declared name)
    body: Expr
    loc: Optional[Loc] = _loc_field()


@record(frozen=True)
class Par:
    left: "Proc"
    right: "Proc"
    loc: Optional[Loc] = _loc_field()


Proc = Union[Stop, ActorE, ActorComp, Par]


@record(frozen=True)
class Network:
    tenv: Env
    venv: Env
    flow: ProcFlow
    body: Proc


def proc_components(p: Proc) -> list[Proc]:
    """Flatten parallel composition left to right."""
    out: list[Proc] = []
    stack = [p]
    while stack:
        match stack.pop():
            case Par(a, b):
                stack += (b, a)
            case q:
                out.append(q)
    return out


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
# Diagnostics
# ---------------------------------------------------------------------------

@record(frozen=True)
class Diagnostic:
    rule: str
    message: str
    loc: Optional[Loc] = None

    def __str__(self):
        where = f" at {self.loc[0]}:{self.loc[1]}" if self.loc else ""
        return f"[{self.rule}]{where} {self.message}"


class SizeArithmeticError(Exception):
    """Raised for ill-defined size arithmetic, e.g. division by zero."""
