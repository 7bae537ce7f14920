"""Canonical concrete syntax.  The printer is the formatter of record:
whatever it emits, the parser maps back to a structurally identical tree.
It adds no parentheses or braces the parser does not need, so a printed
program nests no deeper than the parser counts its tree (see
`parser.MAX_NESTING`).

It prints expressions, processes and programs.  What diagnostics show too
(sizes, types, events, guards and flowstates) `syntax` prints; it is
re-exported here.
"""

from __future__ import annotations

from .syntax import (
    ActorComp, ActorE, App, Assign, BinOp, BoolLit, ChannelArrayKind,
    ChannelKind, Deref, Expr, For, FromIndex, FromSize, If, IntLit, Lam, Let,
    LocRef, MkIndex, MkSize, Network, NewRef, Proc, Recv, Send, SeqE, SizeKind,
    Stop, Var, When, KEYWORD_FORMS, proc_components, _infix, _wrap, print_comp, print_event, print_flow, print_guard,
    print_proc_flow, print_size, print_type,
)


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
            return _wrap(f"send {chan}{idx} {print_expr(payload, 4, indent)}",
                         prec, 4)
        case NewRef(a):
            return _wrap(f"ref {print_expr(a, 4, indent)}", prec, 4)
        case Deref(a):
            return _wrap(f"!{print_expr(a, 4, indent)}", prec, 4)
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
                         f"{print_expr(t, 0, indent)} "
                         f"else {print_expr(f, 0, indent)}", prec, 0)
        case When(l, op, r, body):
            return _wrap(f"when ({_guard_operand(l)} {op} {_guard_operand(r)}) "
                         f"{print_expr(body, 0, indent)}", prec, 0)
        case For(tvar, var, lo, bound, body):
            return _wrap(f"for ({tvar}, {var} in {lo}.."
                         f"{print_expr(bound, 0, indent)}) "
                         f"{print_expr(body, 0, indent)}", prec, 0)
        case Lam(params, latent, rest, body):
            ps = ", ".join(f"{n} : {print_type(t)}" for n, t in params)
            return _wrap(f"fn ({ps}) [{print_flow(latent)} => "
                         f"{print_flow(rest)}] {print_expr(body, 0, indent)}",
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
