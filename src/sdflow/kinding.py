"""Kind formation, size-expression evaluation, normalization and ordering.

Size expressions denote nonnegative token counts.  Subtraction clamps at
zero and division is floor division.  Size parameters are instantiated to
positive integers at network launch, so the normalizer may assume every
variable is at least 1; every rewrite it performs is checked to preserve
evaluation pointwise under that assumption.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Union

from .syntax import (
    Add, BoolType, ChanArrayType, ChannelArrayKind, ChannelKind, ChanType,
    Diagnostic, Div, Env, IndexType, Infinity, IntType, Kind, Mul, Num,
    ProcType, RefType, SMin, SVar, SizeArithmeticError, SizeExpr, SizeKind,
    SizeType, Sub, TypeKind, ValueType, INF, ONE, ZERO, print_type,
)

Quantity = Union[int, Infinity]


def is_inf(q: Quantity) -> bool:
    return isinstance(q, Infinity)


def q_add(a: Quantity, b: Quantity) -> Quantity:
    if is_inf(a) or is_inf(b):
        return INF
    return a + b


def q_sub(a: Quantity, b: Quantity) -> Quantity:
    if is_inf(a):
        return INF
    if is_inf(b):
        return 0
    return max(0, a - b)


def q_mul(a: Quantity, b: Quantity) -> Quantity:
    if a == 0 or b == 0:
        return 0
    if is_inf(a) or is_inf(b):
        return INF
    return a * b


def q_div(a: Quantity, b: Quantity) -> Quantity:
    if not is_inf(b) and b == 0:
        raise SizeArithmeticError("division by zero")
    if is_inf(a):
        return INF
    if is_inf(b):
        return 0
    return a // b


def q_min(a: Quantity, b: Quantity) -> Quantity:
    if is_inf(a):
        return b
    if is_inf(b):
        return a
    return min(a, b)


def eval_size(e: SizeExpr, valuation: dict[str, int]) -> Quantity:
    match e:
        case Num(n):
            return n
        case Infinity():
            return INF
        case SVar(name):
            if name not in valuation:
                raise SizeArithmeticError(f"unbound size parameter {name}")
            return valuation[name]
        case Add(a, b):
            return q_add(eval_size(a, valuation), eval_size(b, valuation))
        case Sub(a, b):
            return q_sub(eval_size(a, valuation), eval_size(b, valuation))
        case Mul(a, b):
            return q_mul(eval_size(a, valuation), eval_size(b, valuation))
        case Div(a, b):
            return q_div(eval_size(a, valuation), eval_size(b, valuation))
        case SMin(a, b):
            return q_min(eval_size(a, valuation), eval_size(b, valuation))
    raise TypeError(f"not a size expression: {e!r}")


# ---------------------------------------------------------------------------
# Normalization
#
# Clamp-free fragments are normalized through a linear-combination form:
# a map from monomials (multisets of atoms) to integer coefficients plus a
# constant.  Atoms are variables and opaque subterms (division, min, and any
# subtraction that might clamp).  A subtraction is folded into the linear
# form only when the difference is provably nonnegative for all valuations
# with variables >= 1, which is exactly when folding cannot change the
# clamped result.
# ---------------------------------------------------------------------------

# monomial: tuple of (atom_key, power) sorted by atom_key
LinForm = tuple[int, "Counter[tuple]"]


def _atom_key(e: SizeExpr):
    match e:
        case SVar(name):
            return ("v", name)
        case Div(a, b):
            return ("d", _atom_key_any(a), _atom_key_any(b))
        case SMin(a, b):
            return ("m", _atom_key_any(a), _atom_key_any(b))
        case Sub(a, b):
            return ("s", _atom_key_any(a), _atom_key_any(b))
    raise TypeError(f"not an atom: {e!r}")


def _atom_key_any(e: SizeExpr):
    match e:
        case Num(n):
            return ("n", n)
        case Infinity():
            return ("inf",)
        case Add(a, b):
            return ("+", _atom_key_any(a), _atom_key_any(b))
        case Mul(a, b):
            return ("*", _atom_key_any(a), _atom_key_any(b))
        case _:
            return _atom_key(e)


def size_lower_bound(e: SizeExpr) -> Quantity:
    """A sound lower bound over valuations with every variable >= 1."""
    match e:
        case Num(n):
            return n
        case Infinity():
            return INF
        case SVar():
            return 1
        case Add(a, b):
            return q_add(size_lower_bound(a), size_lower_bound(b))
        case Mul(a, b):
            return q_mul(size_lower_bound(a), size_lower_bound(b))
        case SMin(a, b):
            return q_min(size_lower_bound(a), size_lower_bound(b))
        case Sub(a, b):
            ub = _upper_bound(b)
            return q_sub(size_lower_bound(a), ub)
        case Div(a, b):
            ub = _upper_bound(b)
            if is_inf(ub):
                return 0
            return q_div(size_lower_bound(a), ub) if ub != 0 else 0
    raise TypeError(f"not a size expression: {e!r}")


def _upper_bound(e: SizeExpr) -> Quantity:
    match e:
        case Num(n):
            return n
        case _:
            return INF


class _NotLinear(Exception):
    pass


def _to_linform(e: SizeExpr) -> LinForm:
    match e:
        case Num(n):
            return (n, Counter())
        case Infinity():
            raise _NotLinear
        case SVar() | Div() | SMin():
            return (0, Counter({((_atom_key(e), 1),): 1}))
        case Add(a, b):
            ca, ta = _to_linform(a)
            cb, tb = _to_linform(b)
            return (ca + cb, ta + tb)
        case Sub(a, b):
            ca, ta = _to_linform(a)
            cb, tb = _to_linform(b)
            diff = Counter(ta)
            diff.subtract(tb)
            diff = +Counter({k: v for k, v in diff.items() if v > 0}) \
                if all(v >= 0 for v in diff.values()) else None
            if diff is None:
                raise _NotLinear
            const = ca - cb
            # provably clamp-free: minimum value of the difference is >= 0
            lo = const
            for mono, coef in diff.items():
                lo += coef * _mono_lower_bound(mono)
            if lo < 0:
                raise _NotLinear
            return (const, diff)
        case Mul(a, b):
            ca, ta = _to_linform(a)
            cb, tb = _to_linform(b)
            out: Counter = Counter()
            for mono_a, coef_a in ta.items():
                for mono_b, coef_b in tb.items():
                    out[_mono_mul(mono_a, mono_b)] += coef_a * coef_b
            for mono_a, coef_a in ta.items():
                if cb:
                    out[mono_a] += coef_a * cb
            for mono_b, coef_b in tb.items():
                if ca:
                    out[mono_b] += ca * coef_b
            return (ca * cb, out)
    raise TypeError(f"not a size expression: {e!r}")


def _mono_mul(a: tuple, b: tuple) -> tuple:
    merged: dict = {}
    for key, power in a + b:
        merged[key] = merged.get(key, 0) + power
    return tuple(sorted(merged.items()))


def _mono_lower_bound(mono: tuple) -> int:
    lo = 1
    for key, power in mono:
        alo = 1 if key[0] == "v" else 0  # opaque atoms may evaluate to 0
        lo *= alo ** power
    return lo


def _render_mono(mono: tuple, atoms: dict) -> SizeExpr:
    factors: list[SizeExpr] = []
    for key, power in mono:
        factors.extend([atoms[key]] * power)
    out = factors[0]
    for f in factors[1:]:
        out = Mul(out, f)
    return out


def _render_linform(const: int, terms: Counter, atoms: dict) -> SizeExpr:
    assert const >= 0 and all(c >= 0 for c in terms.values())
    parts: list[SizeExpr] = []
    for mono in sorted(terms):
        coef = terms[mono]
        if coef == 0:
            continue
        base = _render_mono(mono, atoms)
        parts.append(Mul(Num(coef), base) if coef > 1 else base)
    if const > 0 or not parts:
        parts.append(Num(const))
    out = parts[0]
    for p in parts[1:]:
        out = Add(out, p)
    return out


def _collect_atoms(e: SizeExpr, into: dict) -> None:
    match e:
        case Num() | Infinity():
            return
        case SVar() | Div() | SMin() | Sub():
            try:
                into[_atom_key(e)] = e
            except TypeError:
                pass
            match e:
                case Div(a, b) | SMin(a, b) | Sub(a, b):
                    _collect_atoms(a, into)
                    _collect_atoms(b, into)
                case _:
                    pass
        case Add(a, b) | Mul(a, b):
            _collect_atoms(a, into)
            _collect_atoms(b, into)


def normalize_size(e: SizeExpr) -> SizeExpr:
    """Canonical form: constants folded, identities removed, commutative
    operands deterministically ordered.  Idempotent, and evaluation-
    preserving for valuations with every parameter >= 1."""
    match e:
        case Num() | Infinity() | SVar():
            return e
        case Add(a, b):
            na, nb = normalize_size(a), normalize_size(b)
            if isinstance(na, Num) and isinstance(nb, Num):
                return Num(na.value + nb.value)
            if isinstance(na, Infinity) or isinstance(nb, Infinity):
                return INF
            if ZERO in (na, nb):
                return nb if na == ZERO else na
            return _norm_additive(Add(na, nb))
        case Sub(a, b):
            na, nb = normalize_size(a), normalize_size(b)
            if isinstance(nb, Infinity):
                return ZERO if not isinstance(na, Infinity) else INF
            if isinstance(na, Infinity):
                return INF
            if na == nb:
                return ZERO
            if nb == ZERO:
                return na
            if isinstance(na, Num) and isinstance(nb, Num):
                return Num(max(0, na.value - nb.value))
            return _norm_additive(Sub(na, nb))
        case Mul(a, b):
            na, nb = normalize_size(a), normalize_size(b)
            if isinstance(na, Num) and isinstance(nb, Num):
                return Num(na.value * nb.value)
            if na == ZERO or nb == ZERO:
                return ZERO
            if isinstance(na, Infinity) or isinstance(nb, Infinity):
                other = nb if isinstance(na, Infinity) else na
                lb = size_lower_bound(other) if not isinstance(other, Infinity) else INF
                if is_inf(lb) or lb >= 1:
                    return INF
                return Mul(na, nb)  # factor may evaluate to zero
            if na == ONE:
                return nb
            if nb == ONE:
                return na
            return _norm_additive(Mul(na, nb))
        case Div(a, b):
            na, nb = normalize_size(a), normalize_size(b)
            if nb == ZERO:
                raise SizeArithmeticError("division by zero in size expression")
            if isinstance(na, Num) and isinstance(nb, Num):
                return Num(na.value // nb.value)
            if isinstance(nb, Infinity):
                return ZERO if not isinstance(na, Infinity) else INF
            if isinstance(na, Infinity):
                return INF
            if nb == ONE:
                return na
            if na == ZERO and size_lower_bound(nb) != 0:
                return ZERO
            return Div(na, nb)
        case SMin(a, b):
            na, nb = normalize_size(a), normalize_size(b)
            if na == nb:
                return na
            if isinstance(na, Infinity):
                return nb
            if isinstance(nb, Infinity):
                return na
            if isinstance(na, Num) and isinstance(nb, Num):
                return Num(min(na.value, nb.value))
            lo, hi = sorted((na, nb), key=_atom_key_any)
            return SMin(lo, hi)
    raise TypeError(f"not a size expression: {e!r}")


def _norm_additive(e: SizeExpr) -> SizeExpr:
    """Normalize an Add/Sub/Mul node whose children are already normal.

    The linear form is the exact polynomial value of the expression (every
    folded subtraction was proved clamp-free), so when negative parts remain
    they can soundly be rendered as one top-level clamped subtraction: the
    polynomial equals the expression's value, which is nonnegative.
    """
    try:
        const, terms = _to_linform(e)
    except _NotLinear:
        return e  # keep structure; children are normal already
    atoms: dict = {}
    _collect_atoms(e, atoms)
    pos_terms = Counter({m: c for m, c in terms.items() if c > 0})
    neg_terms = Counter({m: -c for m, c in terms.items() if c < 0})
    if const >= 0 and not neg_terms:
        if not pos_terms:
            return Num(const)
        return _render_linform(const, pos_terms, atoms)
    pos = _render_linform(max(const, 0), pos_terms, atoms)
    neg = _render_linform(max(-const, 0), neg_terms, atoms)
    return Sub(pos, neg)


def sizes_equal(a: SizeExpr, b: SizeExpr) -> bool:
    return normalize_size(a) == normalize_size(b)


# ---------------------------------------------------------------------------
# Size ordering (three-valued)
# ---------------------------------------------------------------------------

def size_leq(env: Env, a: SizeExpr, b: SizeExpr) -> Optional[bool]:
    """Sound decision for a <= b under every instantiation respecting the
    declared bounds in env.  Returns None when undecided."""
    try:
        na, nb = normalize_size(a), normalize_size(b)
    except SizeArithmeticError:
        return None
    return _leq(env, na, nb, depth=0)


def _lb_at_least(e: SizeExpr, n: int) -> bool:
    lb = size_lower_bound(e)
    return True if is_inf(lb) else lb >= n


def _leq(env: Env, a: SizeExpr, b: SizeExpr, depth: int) -> Optional[bool]:
    if depth > 32:
        return None
    if isinstance(b, Infinity):
        return True
    if a == b:
        return True
    if isinstance(a, Num) and isinstance(b, Num):
        return a.value <= b.value
    if a == ZERO:
        return True
    if isinstance(a, Infinity):
        return False if isinstance(b, Num) else None
    # variable bound lookup, closed under transitivity
    if isinstance(a, SVar):
        kind = env.lookup(a.name)
        if isinstance(kind, SizeKind):
            bound = normalize_size(kind.bound)
            if bound != a and _leq(env, bound, b, depth + 1) is True:
                return True
    # structural monotonicity
    match a:
        case SMin(x, y):
            if _leq(env, x, b, depth + 1) is True or _leq(env, y, b, depth + 1) is True:
                return True
        case Div(x, y):
            if size_lower_bound(y) != 0 and _leq(env, x, b, depth + 1) is True:
                return True
        case Sub(x, _):
            if _leq(env, x, b, depth + 1) is True:
                return True
    match b:
        case SMin(x, y):
            if _leq(env, a, x, depth + 1) is True and _leq(env, a, y, depth + 1) is True:
                return True
        case Add(x, y):
            if _leq(env, a, x, depth + 1) is True or _leq(env, a, y, depth + 1) is True:
                return True
        case Mul(x, y):
            if _lb_at_least(y, 1) and _leq(env, a, x, depth + 1) is True:
                return True
            if _lb_at_least(x, 1) and _leq(env, a, y, depth + 1) is True:
                return True
        case _:
            pass
    return None


# ---------------------------------------------------------------------------
# Kind and environment formation
# ---------------------------------------------------------------------------

_SIZE_NODES = (Num, Infinity, SVar, Add, Sub, Mul, Div, SMin)


def is_size_expr(ty) -> bool:
    return isinstance(ty, _SIZE_NODES)


def kind_of(env: Env, ty) -> Union[Kind, Diagnostic]:
    """Kind of a size expression, simple type, or channel value type."""
    if is_size_expr(ty):
        return _kind_of_size(env, ty)
    match ty:
        case BoolType() | IntType():
            return TypeKind()
        case SizeType(w) | IndexType(w):
            k = kind_of(env, w)
            if not isinstance(k, SizeKind):
                return k if isinstance(k, Diagnostic) else Diagnostic(
                    "Ty Size", "witness of a size/index type must be a size quantity")
            return TypeKind()
        case RefType(p):
            k = kind_of(env, p)
            if isinstance(k, Diagnostic):
                return k
            if not isinstance(k, TypeKind):
                return Diagnostic("Ty Var", "reference payload must be an ordinary type")
            return TypeKind()
        case ProcType(params, _, _, result):
            for p in params + (result,):
                k = kind_of(env, p)
                if isinstance(k, Diagnostic):
                    return k
                if not isinstance(k, TypeKind):
                    return Diagnostic("Ty Var", "procedure types range over ordinary types")
            return TypeKind()
        case ChanType(_, name, payload) | ChanArrayType(_, name, payload, _):
            array = ty.__class__ is ChanArrayType
            rule = "Ty Chan Array" if array else "Ty Chan"
            what = "array" if array else "name"
            k = env.lookup(name)
            if k is None:
                return Diagnostic(rule, f"unknown channel {what} {name}")
            if not isinstance(k, ChannelArrayKind if array else ChannelKind):
                return Diagnostic(rule, f"{name} is not a channel {what}")
            pk = kind_of(env, payload)
            if isinstance(pk, Diagnostic):
                return pk
            if not isinstance(pk, TypeKind):
                return Diagnostic(rule, "channel payload must be an ordinary type")
            if array and not sizes_equal(k.bound, ty.bound):
                return Diagnostic(
                    rule, f"declared bound of {name} disagrees with its kind")
            if isinstance(payload, (RefType, ProcType)):
                return Diagnostic("Ty Chan Share",
                                  f"{name} carries {print_type(payload)}: a "
                                  "payload holds no reference or procedure, "
                                  "as actors share only channels")
            return TypeKind()
    return Diagnostic("Ty Var", f"unrecognized type {ty!r}")


def _kind_of_size(env: Env, ty: SizeExpr) -> Union[Kind, Diagnostic]:
    match ty:
        case Num(n):
            return SizeKind(Num(n))
        case Infinity():
            return SizeKind(INF)
        case SVar(name):
            k = env.lookup(name)
            if k is None:
                return Diagnostic("Ty Var", f"unknown size parameter {name}")
            return k
        case Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b) | SMin(a, b):
            for side in (a, b):
                k = kind_of(env, side)
                if isinstance(k, Diagnostic):
                    return k
                if not isinstance(k, SizeKind):
                    return Diagnostic(
                        "Ty Var", "arithmetic requires size-kinded operands")
            try:
                return SizeKind(normalize_size(ty))
            except SizeArithmeticError as exc:
                return Diagnostic("Ty Size", str(exc))
    raise TypeError(f"not a size expression: {ty!r}")


def check_kind(env: Env, kind: Kind) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    def expect_size(e: SizeExpr, rule: str):
        k = kind_of(env, e)
        if isinstance(k, Diagnostic):
            diags.append(Diagnostic(rule, k.message))
        elif not isinstance(k, SizeKind):
            diags.append(Diagnostic(rule, "expected a size quantity"))

    match kind:
        case TypeKind():
            pass
        case SizeKind(bound):
            expect_size(bound, "Kind Size")
        case ChannelKind(_, limit):
            expect_size(limit, "Kind Chan")
        case ChannelArrayKind(_, limit, bound):
            expect_size(limit, "Kind Chan Array")
            expect_size(bound, "Kind Chan Array")
    return diags


class _Prefix(dict):
    """The declarations checked so far, looked up like an `Env`: a later
    binding of a name replaces an earlier one."""
    lookup = dict.get


def check_type_env(env: Env) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    prefix = _Prefix()
    for name, kind in env.items:
        if name in prefix:
            diags.append(Diagnostic("TyEnv Extend", f"duplicate binding {name}"))
        diags.extend(check_kind(prefix, kind))
        prefix[name] = kind
    return diags


def check_value_env(tenv: Env, venv: Env) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    seen: set[str] = set()
    first: dict[str, tuple[str, ValueType]] = {}  # channel -> (binding, payload)
    for name, ty in venv.items:
        if name in seen:
            diags.append(Diagnostic("ValEnv Extend Name", f"duplicate binding {name}"))
        seen.add(name)
        k = kind_of(tenv, ty)
        if isinstance(k, Diagnostic):
            diags.append(k)
        elif not isinstance(k, TypeKind):
            diags.append(Diagnostic(
                "ValEnv Extend Var", f"binding {name} must have an ordinary type"))
        elif isinstance(ty, (ChanType, ChanArrayType)):
            other, payload = first.setdefault(ty.name, (name, ty.payload))
            if not types_equal(payload, ty.payload):
                diags.append(Diagnostic(
                    "ValEnv Chan Payload",
                    f"{name} carries {print_type(ty.payload)} on {ty.name}, "
                    f"but {other} carries {print_type(payload)}"))
    return diags


def types_equal(a: ValueType, b: ValueType) -> bool:
    """Structural type equality with size witnesses compared up to
    normalization; size precision is required, so no subtyping here."""
    match (a, b):
        case (BoolType(), BoolType()) | (IntType(), IntType()):
            return True
        case (SizeType(x), SizeType(y)) | (IndexType(x), IndexType(y)):
            return sizes_equal(x, y)
        case (RefType(x), RefType(y)):
            return types_equal(x, y)
        case (ProcType(pa, _, _, ra), ProcType(pb, _, _, rb)):
            return (len(pa) == len(pb)
                    and all(types_equal(x, y) for x, y in zip(pa, pb))
                    and types_equal(ra, rb))
        case (ChanType(pa, na, ta), ChanType(pb, nb, tb)):
            return pa == pb and na == nb and types_equal(ta, tb)
        case (ChanArrayType(pa, na, ta, ba), ChanArrayType(pb, nb, tb, bb)):
            return pa == pb and na == nb and types_equal(ta, tb) and sizes_equal(ba, bb)
        case _:
            return False
