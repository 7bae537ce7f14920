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

It also prints what diagnostics show (sizes, types, events, guards and
flowstates), so `check` never loads `printer`.  Value substitution belongs
to the step machine, in `runtime`.

Sequence and parallel composition are associative, so `FSeq` (`;`), `PPar`
and `Par` (`||`) are n-ary: each holds a flat tuple `parts`, and every walk
over them is a loop.  Their left-nested `left`/`right` view is read only
outside the package, by perfbench's `count_comps` and the tests' oracles.

Record classes, here and in the other modules, are built by `record`, which
gives what `dataclasses.dataclass` gives them (same `__init__`, `__repr__`,
`__eq__`, `__hash__`, `__match_args__` and frozen errors) without importing
`dataclasses` or `inspect`, and compiles a class's methods only when one of
them is first called, so the command line starts cheaply.
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
    from source with the bodies `dataclasses` generates, so instances cost
    what dataclass instances cost.  A process uses few of its record
    classes, so until one of them is first called the class holds stubs;
    that call compiles all three in one `exec` (`_build`), installs them
    and delegates.  A frozen field's default lives on the class until a
    different object is passed, so only such an object is stored on the
    instance; nothing in `src/` reads fields from `__dict__`.  A frozen
    record's hash is kept on the node as `_hash` (None, on the class,
    until first taken), so hashing a node whose fields were hashed before
    costs only that node: interning an expression hashes its fresh nodes.
    `_fv`, the free names `runtime` keeps on an expression, is None on the
    class in the same way."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    fields = []
    for name in cls.__dict__.get("__annotations__", {}):
        f = cls.__dict__.get(name, _MISSING)
        f = f if isinstance(f, field) else field(default=f)
        f.name = name
        if f.default_factory is not _MISSING:
            delattr(cls, name)
        elif f.default is not _MISSING:
            setattr(cls, name, f.default)
        fields.append(f)
    cls.__record_fields__ = tuple(fields)
    methods = {"__repr__": _record_repr,
               "__match_args__": tuple(f.name for f in fields)}
    if frozen:
        methods.update(__setattr__=_frozen_setattr,
                       __delattr__=_frozen_delattr, _hash=None, _fv=None)
    else:
        methods["__hash__"] = None
    generated = [name for name in ("__init__", "__eq__", "__hash__")
                 if name not in cls.__dict__ and name not in methods]
    if generated:
        _PENDING[cls] = (frozen, generated)
        methods.update((name, _stub(cls, name)) for name in generated)
    for name, value in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, value)
    return cls


# record classes whose generated methods are still stubs: cls -> (frozen,
# the names of the methods to generate)
_PENDING: dict = {}


def _stub(cls, name: str):
    """A stand-in for `cls`'s generated method `name`, under the file name
    of the generated code, so profiles keep one row per class."""
    def stub(self, *args, **kwargs):
        _build(cls)
        return getattr(cls, name)(self, *args, **kwargs)
    stub.__code__ = stub.__code__.replace(co_filename=_file_name(cls),
                                          co_name=name)
    stub.__name__, stub.__qualname__ = name, f"{cls.__qualname__}.{name}"
    return stub


def _file_name(cls) -> str:
    return f"<record {cls.__module__}.{cls.__qualname__}>"


def _build(cls) -> None:
    """Compile `cls`'s generated methods, in place of its stubs."""
    spec = _PENDING.pop(cls, None)
    if spec is None:
        return  # built already
    frozen, generated = spec
    env: dict = {"_setattr": object.__setattr__, "_FACTORY": _MISSING}
    params, body = [], []
    for f in cls.__record_fields__:
        name = value = f.name
        if f.default_factory is not _MISSING:
            env[f"_factory_{name}"] = f.default_factory
            params.append(f"{name}=_FACTORY")
            value = f"_factory_{name}() if {name} is _FACTORY else {name}"
        elif f.default is not _MISSING:
            env[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        store = (f"_setattr(self, {name!r}, {value})" if frozen
                 else f"self.{name} = {value}")
        if frozen and f.default is not _MISSING:  # the class holds the default
            store = f"if {name} is not _default_{name}: {store}"
        body.append(store)
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    compared = "".join(f"{{0}}.{f.name}," for f in cls.__record_fields__
                       if f.compare)
    namespace: dict = {}
    init = "\n  ".join(body) or "pass"
    src = (f"def create({', '.join(env)}):\n"
           f" def __init__(self, {', '.join(params)}):\n"
           f"  {init}\n"
           " def __eq__(self, other):\n"
           "  if other.__class__ is self.__class__:\n"
           f"   return ({compared.format('self')}) == "
           f"({compared.format('other')})\n"
           "  return NotImplemented\n"
           " def __hash__(self):\n"
           "  h = self._hash\n"
           "  if h is None:\n"
           f"   h = hash(({compared.format('self')}))\n"
           "   _setattr(self, '_hash', h)\n"
           "  return h\n"
           " return __init__, __eq__, __hash__\n")
    exec(compile(src, _file_name(cls), "exec"), {}, namespace)
    methods = dict(zip(("__init__", "__eq__", "__hash__"),
                       namespace["create"](**env)))
    for name in generated:
        fn = methods[name]
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)


def _constant(cls, **fields):
    """`cls(**fields)` for a module constant, made without `__init__`, so
    that importing the package builds no record's methods."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


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

INF = _constant(Infinity)
ONE = _constant(Num, value=1)
ZERO = _constant(Num, value=0)

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


class _Flat:
    """A frozen associative node: `parts`, two or more members, none of the
    node's own class, whose parts the constructor splices in, so that
    `FSeq(FSeq(a, b), c) == FSeq(a, FSeq(b, c))`.  `==` and `hash` come from
    `parts`.  As a left-nested binary tree, `right` is the last part and
    `left` the node of the others, a tuple slice per step."""
    __match_args__ = ("left", "right")
    __setattr__, __delattr__ = _frozen_setattr, _frozen_delattr

    def __init__(self, *parts):
        cls = self.__class__
        if any(p.__class__ is cls for p in parts):
            parts = tuple(q for p in parts
                          for q in (p.parts if p.__class__ is cls else (p,)))
        if len(parts) < 2:
            raise TypeError(f"{cls.__name__} takes two or more parts")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def parts_of(cls, node) -> tuple:
        """The parts of `node` if it is of this class, else `(node,)`."""
        return node.parts if node.__class__ is cls else (node,)

    @property
    def left(self):
        rest = self.parts[:-1]
        if len(rest) == 1:
            return rest[0]
        node = object.__new__(self.__class__)
        object.__setattr__(node, "parts", rest)
        return node

    @property
    def right(self):
        return self.parts[-1]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"{self.__class__.__name__}{self.parts!r}"


class FSeq(_Flat):
    """Actor flowstates in sequence (`;`)."""


ActorFlow = Union[FEmpty, Comp, FSeq]

EMPTY_FLOW = _constant(FEmpty)


def seq_flow(*parts: ActorFlow) -> ActorFlow:
    """Sequence flows, dropping empty components."""
    items = [p for p in parts if not isinstance(p, FEmpty)]
    if len(items) > 1:
        return FSeq(*items)
    return items[0] if items else EMPTY_FLOW


def flow_comps(fs: ActorFlow) -> list[Comp]:
    """The comprehensions of an actor flowstate, in sequence."""
    return [c for c in FSeq.parts_of(fs) if isinstance(c, Comp)]


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


class PPar(_Flat):
    """Process flowstates in parallel (`||`)."""


ProcFlow = Union[PEmpty, PActor, PArray, PPar]


def par_flow(*parts: ProcFlow) -> ProcFlow:
    items = [p for p in parts if not isinstance(p, PEmpty)]
    if len(items) > 1:
        return PPar(*items)
    return items[0] if items else PEmpty()


def proc_flow_components(fs: ProcFlow) -> list[ProcFlow]:
    """The parallel parts of `fs`, left to right, without empty ones."""
    return [p for p in PPar.parts_of(fs) if not isinstance(p, PEmpty)
            and not (isinstance(p, PActor) and isinstance(p.flow, FEmpty))]


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
    """`fs` with each comprehension `c` replaced by `fn(c)`."""
    parts = [fn(c) if isinstance(c, Comp) else c for c in FSeq.parts_of(fs)]
    return FSeq(*parts) if len(parts) > 1 else parts[0]


def subst_flow(fs: ActorFlow, var: str, repl: SizeExpr) -> ActorFlow:
    return map_comps(fs, lambda c: subst_comp(c, var, repl))


# --- printing the forms diagnostics show -----------------------------------

def _wrap(s: str, prec: int, level: int) -> str:
    """`s`, of precedence `level`, where the context binds at `prec`."""
    return f"({s})" if prec > level else s


def _infix(op: str, lhs, rhs, prec: int, show) -> str:
    """`lhs op rhs`, each operand shown by `show(operand, its context)`."""
    level = PRECEDENCE[op]
    left = show(lhs, level + (level == COMPARE_LEVEL))
    return _wrap(f"{left} {op} {show(rhs, level + 1)}", prec, level)


def print_size(e: SizeExpr, prec: int = 0) -> str:
    match e:
        case Num(n):
            return str(n)
        case Infinity():
            return "inf"
        case SVar(name):
            return name
        case Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b):
            return _infix(SIZE_OPERATORS[e.__class__], a, b, prec, print_size)
        case SMin(a, b):
            return f"min({print_size(a)}, {print_size(b)})"
    raise TypeError(f"not a size expression: {e!r}")


def print_type(t) -> str:
    match t:
        case BoolType():
            return "Boolean"
        case IntType():
            return "Integer"
        case SizeType(w):
            return f"Size({print_size(w)})"
        case IndexType(w):
            return f"Index({print_size(w)})"
        case RefType(p):
            return f"Ref({print_type(p)})"
        case ProcType(params, latent, rest, result):
            ps = ", ".join(print_type(p) for p in params)
            return (f"({ps}) -> [{print_flow(latent)} => {print_flow(rest)}] "
                    f"{print_type(result)}")
        case ChanType(pol, name, payload):
            return f"Chan({pol}, {name}, {print_type(payload)})"
        case ChanArrayType(pol, name, payload, bound):
            return (f"ChanArray({pol}, {name}, {print_type(payload)}, "
                    f"{print_size(bound)})")
    raise TypeError(f"not a type: {t!r}")


def print_event(ev: Event) -> str:
    idx = f"[{print_size(ev.index)}]" if ev.index is not None else ""
    return f"{ev.chan}{idx}{'!' if ev.is_send else '?'}"


def print_guard(g: Guard) -> str:
    match g:
        case Divides(divisor, operand):
            return f"{print_size(divisor)} | {print_size(operand)}"
        case AtMost(operand, bound):
            return f"{print_size(operand)} <= {print_size(bound)}"
    raise TypeError(f"not a guard: {g!r}")


def print_comp(c: Comp) -> str:
    items = [f"{it.var} in {print_size(it.lo)}..{print_size(it.hi)}"
             for it in c.iterators]
    items += [print_guard(g) for g in c.guards]
    if not items:
        return print_event(c.event)
    return f"{print_event(c.event)}<{', '.join(items)}>"


def print_flow(fs: ActorFlow) -> str:
    return " ; ".join("eps" if isinstance(f, FEmpty) else print_comp(f)
                      for f in FSeq.parts_of(fs))


def print_proc_flow(fs: ProcFlow) -> str:
    return " || ".join(_print_proc_flow_part(f) for f in PPar.parts_of(fs))


def _print_proc_flow_part(f) -> str:
    match f:
        case PEmpty():
            return "eps"
        case PActor(flow):
            return print_flow(flow)
        case PArray(var, lo, hi, body):
            return (f"[ {print_flow(body)} | {var} in "
                    f"{print_size(lo)}..{print_size(hi)} ]")
    raise TypeError(f"not a process flowstate: {f!r}")


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
    h = e._hash
    if h is None:
        chain = []
        while _link(e) and e._hash is None:
            chain.append(e)
            e = _link(e)[1]
        for node in reversed(chain):
            fields, rest = _link(node)
            h = hash(fields + (rest,))
            object.__setattr__(node, "_hash", h)
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


class Par(_Flat):
    """Processes in parallel (`||`)."""


Proc = Union[Stop, ActorE, ActorComp, Par]


@record(frozen=True)
class Network:
    tenv: Env
    venv: Env
    flow: ProcFlow
    body: Proc


def proc_components(p: Proc) -> list[Proc]:
    """The parallel parts of `p`, left to right."""
    return list(Par.parts_of(p))


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
