"""Canonical concrete syntax.  The printer is the formatter of record:
whatever it emits, the parser maps back to a structurally identical tree.
"""

from __future__ import annotations

from .syntax import (
    ActorComp, ActorE, Add, App, Assign, AtMost, BinOp, BoolLit, BoolType,
    ChanArrayType, ChannelArrayKind, ChannelKind, ChanType, Comp, Deref, Div,
    Divides, Event, Expr, FEmpty, For, FromIndex, FromSize, FSeq, Guard, If,
    IndexType, Infinity, IntLit, IntType, Lam, Let, LocRef, MkIndex, MkSize,
    Mul, Network, NewRef, Num, PActor, PArray, PEmpty, PPar,
    Proc, ProcFlow, ProcType, Recv, RefType, Send, SeqE, SizeExpr, SizeKind,
    SizeType, SMin, Stop, Sub, SVar, Var, When, ActorFlow, COMPARE_LEVEL,
    KEYWORD_FORMS, PRECEDENCE, SIZE_OPERATORS, proc_components,
)


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
    match fs:
        case FEmpty():
            return "eps"
        case Comp():
            return print_comp(fs)
        case FSeq(a, b):
            return f"{print_flow(a)} ; {print_flow(b)}"
    raise TypeError(f"not an actor flowstate: {fs!r}")


def print_proc_flow(fs: ProcFlow) -> str:
    parts = []
    stack = [fs]
    while stack:  # explicit stack: networks may be wider than the recursion limit
        match stack.pop():
            case PPar(a, b):
                stack += (b, a)
            case PEmpty():
                parts.append("eps")
            case PActor(flow):
                parts.append(print_flow(flow))
            case PArray(var, lo, hi, body):
                parts.append(f"[ {print_flow(body)} | {var} in "
                             f"{print_size(lo)}..{print_size(hi)} ]")
            case other:
                raise TypeError(f"not a process flowstate: {other!r}")
    return " || ".join(parts)


# --- expressions -------------------------------------------------------------
# precedence: 0 expr (when/for/if/fn/assign), 1-3 the binary operators of
# `PRECEDENCE`, 4 unary (!, ref, send, recv), 5 atoms

def print_expr(e: Expr, prec: int = 0, indent: int = 0) -> str:
    match e:
        case IntLit(v):
            return str(v)
        case BoolLit(v):
            return "true" if v else "false"
        case Var(name):
            return name
        case LocRef(actor, slot):
            return f"<loc {actor}.{slot}>"
        case MkSize(a) | MkIndex(a) | FromSize(a) | FromIndex(a):
            return f"{KEYWORD_FORMS[e.__class__]}({print_expr(a)})"
        case Recv(chan, index):
            idx = f"[{print_expr(index)}]" if index is not None else ""
            return _wrap(f"recv {chan}{idx}", prec, 4)
        case Send(chan, index, payload):
            idx = f"[{print_expr(index)}]" if index is not None else ""
            return _wrap(f"send {chan}{idx} {print_expr(payload, 5, indent)}",
                         prec, 4)
        case NewRef(a):
            return _wrap(f"ref {print_expr(a, 5, indent)}", prec, 4)
        case Deref(a):
            return _wrap(f"!{print_expr(a, 5, indent)}", prec, 4)
        case BinOp(op, l, r):
            return _infix(op, l, r, prec, lambda x, p: print_expr(x, p, indent))
        case App(fn, args):
            inner = ", ".join(print_expr(a, 0, indent) for a in args)
            return f"{print_expr(fn, 5, indent)}({inner})"
        case Assign(t, v):
            return _wrap(f"{print_expr(t, 1, indent)} := "
                         f"{print_expr(v, 0, indent)}", prec, 0)
        case If(c, t, f):
            return _wrap(f"if {print_expr(c, 1, indent)} then "
                         f"{print_expr(t, 1, indent)} "
                         f"else {print_expr(f, 1, indent)}", prec, 0)
        case When(l, op, r, body):
            return _wrap(f"when ({_guard_operand(l)} {op} {_guard_operand(r)}) "
                         f"{print_expr(body, 1, indent)}", prec, 0)
        case For(tvar, var, lo, bound, body):
            return _wrap(f"for ({tvar}, {var} in {lo}.."
                         f"{print_expr(bound, 1, indent)}) "
                         f"{print_block(body, indent)}", prec, 0)
        case Lam(params, latent, rest, body):
            ps = ", ".join(f"{n} : {print_type(t)}" for n, t in params)
            return _wrap(f"fn ({ps}) [{print_flow(latent)} => "
                         f"{print_flow(rest)}] {print_expr(body, 1, indent)}",
                         prec, 0)
        case Let() | SeqE():
            return print_block(e, indent)
    raise TypeError(f"not an expression: {e!r}")


def _guard_operand(e: Expr) -> str:
    # size literals in guard position print bare; the parser re-wraps them
    match e:
        case MkSize(IntLit(n)):
            return str(n)
        case _:
            return print_expr(e, 2)


def print_block(e: Expr, indent: int = 0) -> str:
    if not isinstance(e, (Let, SeqE)):
        return f"{{ {print_expr(e, 0, indent)} }}"
    pad = "  " * (indent + 1)
    lines = []
    while isinstance(e, (Let, SeqE)):  # a long actor is a long chain
        if isinstance(e, Let):
            lines.append(f"{pad}let {e.var} = {print_expr(e.bound, 0, indent + 1)}")
            e = e.body
        else:
            lines.append(pad + print_expr(e.first, 0, indent + 1))
            e = e.second
    lines.append(pad + print_expr(e, 0, indent + 1))
    close = "  " * indent
    return "{\n" + ";\n".join(lines) + f"\n{close}}}"


def print_proc(p: Proc, indent: int = 0) -> str:
    pad = "  " * indent
    parts = []
    for q in proc_components(p):
        match q:
            case Stop():
                parts.append(f"{pad}stop")
            case ActorE(expr):
                parts.append(f"{pad}actor {print_block(expr, indent)}")
            case ActorComp(tvar, var, lo, hi, body):
                parts.append(f"{pad}actors ({tvar}, {var} in {lo}.."
                             f"{print_expr(hi)}) {print_block(body, indent)}")
            case _:
                raise TypeError(f"not a process: {q!r}")
    return f"\n{pad}||\n".join(parts)


def print_program(net: Network) -> str:
    out = []
    for name, kind in net.tenv.items:
        match kind:
            case SizeKind(bound):
                out.append(f"size {name} : Size({print_size(bound)});")
            case ChannelKind(delay, limit):
                out.append(f"chan {name} : Channel({delay}, {print_size(limit)});")
            case ChannelArrayKind(delay, limit, bound):
                out.append(f"chanarray {name} : ChannelArray({delay}, "
                           f"{print_size(limit)}, {print_size(bound)});")
            case _:
                raise TypeError(f"unexpected kind binding {name}: {kind!r}")
    for name, ty in net.venv.items:
        out.append(f"val {name} : {print_type(ty)};")
    out.append(f"flow {print_proc_flow(net.flow)};")
    out.append("")
    out.append("network {")
    out.append(print_proc(net.body, 1))
    out.append("}")
    return "\n".join(out) + "\n"
