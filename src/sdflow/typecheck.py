"""Expression, process and network typing with flowstate synthesis.

The checker synthesizes the flowstate of each expression bottom-up; the
continuation flowstate threaded through the declarative rules is universally
quantified plumbing and is never materialized.  Diagnostics carry the name
of the responsible rule.
"""

from __future__ import annotations

from typing import Optional

from . import netcheck
from .flowstate import (
    check_flowstate, distribute_guard, distribute_iterator,
    flowstates_equivalent, proc_flows_equivalent, FlowstateError,
    proc_rate_summary,
)
from .kinding import (
    check_type_env, check_value_env, kind_of, size_leq, types_equal,
)
from .syntax import (
    ActorComp, ActorE, App, Assign, AtMost, BinOp, BoolLit, BoolType,
    ChanArrayType, ChanType, Comp, Deref, Diagnostic, Divides, Env, Event,
    Expr, FEmpty, For, FromIndex, FromSize, If, IndexType, IntLit, IntType,
    Iterator, Lam, Let, LocRef, MkIndex, MkSize, Network, NewRef, Num, PActor,
    Par, PArray, PEmpty, Proc, ProcFlow, ProcType, Recv, RefType, Send, SeqE,
    SizeArithmeticError, SizeKind, SizeType, Stop, SVar, TypeKind, Var, When,
    ActorFlow, EMPTY_FLOW, field, par_flow,
    proc_flow_components, record, seq_flow,
)

ARITH_OPS = {"+", "-", "*", "/"}


@record
class TypingResult:
    type: Optional[object]
    flow: ActorFlow
    diagnostics: list[Diagnostic] = field(default_factory=list)


class Checker:
    def __init__(self):
        self.diags: list[Diagnostic] = []

    def error(self, rule: str, message: str, loc=None) -> None:
        self.diags.append(Diagnostic(rule, message, loc))

    # --- expressions --------------------------------------------------------

    def infer(self, tenv: Env, venv: Env, e: Expr):
        """Returns (type or None, flowstate)."""
        match e:
            case IntLit():
                return IntType(), EMPTY_FLOW
            case BoolLit():
                return BoolType(), EMPTY_FLOW
            case Var(name):
                ty = venv.lookup(name)
                if ty is None:
                    self.error("Val Var", f"unknown name {name}", e.loc)
                    return None, EMPTY_FLOW
                return ty, EMPTY_FLOW
            case MkSize(arg):
                if not isinstance(arg, IntLit):
                    self.error("Val Size", "size constants take integer literals",
                               e.loc)
                    return None, EMPTY_FLOW
                return SizeType(Num(arg.value)), EMPTY_FLOW
            case MkIndex(arg):
                if not isinstance(arg, IntLit):
                    self.error("Val Index", "index constants take integer literals",
                               e.loc)
                    return None, EMPTY_FLOW
                return IndexType(Num(arg.value)), EMPTY_FLOW
            case FromSize(arg):
                t, f = self.infer(tenv, venv, arg)
                if t is not None and not isinstance(t, SizeType):
                    self.error("Val Int", "fromSize expects a size value", e.loc)
                return IntType(), f
            case FromIndex(arg):
                t, f = self.infer(tenv, venv, arg)
                if t is not None and not isinstance(t, IndexType):
                    self.error("Val FromIndex", "fromIndex expects a loop index",
                               e.loc)
                return IntType(), f
            case Lam():
                return self._infer_lam(tenv, venv, e)
            case App(fn, args):
                ft, ff = self.infer(tenv, venv, fn)
                flows = [ff]
                arg_types = []
                for a in args:
                    at, af = self.infer(tenv, venv, a)
                    arg_types.append(at)
                    flows.append(af)
                if ft is None:
                    return None, seq_flow(*flows)
                if not isinstance(ft, ProcType):
                    self.error("Val App", "calling a non-procedure", e.loc)
                    return None, seq_flow(*flows)
                if len(ft.params) != len(args):
                    self.error("Val App",
                               f"expected {len(ft.params)} arguments, got {len(args)}",
                               e.loc)
                else:
                    for want, got in zip(ft.params, arg_types):
                        if got is not None and not types_equal(want, got):
                            self.error("Val App", "argument type mismatch", e.loc)
                flows.append(ft.latent)
                return ft.result, seq_flow(*flows)
            case Let() | SeqE():
                return self._infer_spine(tenv, venv, e)
            case If(cond, then, els):
                ct, cf = self.infer(tenv, venv, cond)
                if ct is not None and not isinstance(ct, BoolType):
                    self.error("Val Cond", "condition must be Boolean", e.loc)
                tt, tf = self.infer(tenv, venv, then)
                ft, ff = self.infer(tenv, venv, els)
                if tt is not None and ft is not None and not types_equal(tt, ft):
                    self.error("Val Cond", "branches disagree on type", e.loc)
                if flowstates_equivalent(tenv, tf, ff) is not True:
                    self.error("Val Cond",
                               "branches must perform equivalent communication",
                               e.loc)
                return tt, seq_flow(cf, tf)
            case When():
                return self._infer_when(tenv, venv, e)
            case For():
                return self._infer_for(tenv, venv, e)
            case NewRef(init):
                t, f = self.infer(tenv, venv, init)
                return (RefType(t) if t is not None else None), f
            case Deref(target):
                t, f = self.infer(tenv, venv, target)
                if t is None:
                    return None, f
                if not isinstance(t, RefType):
                    self.error("Val Deref", "dereferencing a non-reference", e.loc)
                    return None, f
                return t.payload, f
            case Assign(target, value):
                t1, f1 = self.infer(tenv, venv, target)
                t2, f2 = self.infer(tenv, venv, value)
                if t1 is not None and not isinstance(t1, RefType):
                    self.error("Val Assign", "assignment target must be a reference",
                               e.loc)
                    return None, seq_flow(f1, f2)
                if (isinstance(t1, RefType) and t2 is not None
                        and not types_equal(t1.payload, t2)):
                    self.error("Val Assign", "assigned value has the wrong type",
                               e.loc)
                return t2, seq_flow(f1, f2)
            case Recv() | Send():
                return self._infer_comm(tenv, venv, e)
            case BinOp(op, lhs, rhs):
                lt, lf = self.infer(tenv, venv, lhs)
                rt, rf = self.infer(tenv, venv, rhs)
                for side in (lt, rt):
                    if side is not None and not isinstance(side, IntType):
                        self.error("Val Op", f"operator {op} expects integers",
                                   e.loc)
                        break
                result = IntType() if op in ARITH_OPS else BoolType()
                return result, seq_flow(lf, rf)
            case LocRef():
                self.error("Val Var", "heap locations cannot appear in source",
                           e.loc)
                return None, EMPTY_FLOW
        raise TypeError(f"not an expression: {e!r}")

    def _infer_spine(self, tenv: Env, venv: Env, e: Let | SeqE):
        """A right-nested chain of `Let`s and `SeqE`s, walked in a loop so
        that a long actor does not recurse once per statement."""
        flows = []
        while isinstance(e, (Let, SeqE)):
            if isinstance(e, Let):
                bt, bf = self.infer(tenv, venv, e.bound)
                venv = venv.extend(e.var, bt if bt is not None else IntType())
                flows.append(bf)
                e = e.body
            else:
                flows.append(self.infer(tenv, venv, e.first)[1])
                e = e.second
        t, f = self.infer(tenv, venv, e)
        return t, seq_flow(*flows, f)

    def _infer_lam(self, tenv: Env, venv: Env, e: Lam):
        for _, ty in e.params:
            k = kind_of(tenv, ty)
            if isinstance(k, Diagnostic):
                self.diags.append(k)
            elif not isinstance(k, TypeKind):
                self.error("Val Abs", "parameter types must be ordinary types",
                           e.loc)
        self.diags.extend(check_flowstate(tenv, e.latent))
        self.diags.extend(check_flowstate(tenv, e.rest))
        venv2 = venv
        for name, ty in e.params:
            venv2 = venv2.extend(name, ty)
        bt, bf = self.infer(tenv, venv2, e.body)
        if flowstates_equivalent(tenv, bf, e.latent) is not True:
            self.error("Val Abs",
                       "body communication differs from the latent annotation",
                       e.loc)
        if bt is None:
            return None, EMPTY_FLOW
        return ProcType(tuple(t for _, t in e.params), e.latent, e.rest, bt), \
            EMPTY_FLOW

    def _infer_when(self, tenv: Env, venv: Env, e: When):
        lt, lf = self.infer(tenv, venv, e.lhs)
        rt, rf = self.infer(tenv, venv, e.rhs)
        guard = None
        if e.op == "|":
            if not (isinstance(lt, SizeType) and isinstance(rt, IndexType)):
                self.error("wfguard",
                           "divisibility guards compare a size against a loop index",
                           e.loc)
            elif not isinstance(rt.witness, SVar):
                self.error("wfguard", "guarded index must be a loop variable",
                           e.loc)
            else:
                guard = Divides(lt.witness, rt.witness)
        elif e.op == "<=":
            if not (isinstance(lt, IndexType) and isinstance(rt, SizeType)):
                self.error("wfguard",
                           "bound guards compare a loop index against a size",
                           e.loc)
            elif not isinstance(lt.witness, SVar):
                self.error("wfguard", "guarded index must be a loop variable",
                           e.loc)
            else:
                guard = AtMost(lt.witness, rt.witness)
        else:
            self.error("wfguard", f"unsupported guard operator {e.op}", e.loc)
        bt, bf = self.infer(tenv, venv, e.body)
        if bt is not None and not isinstance(bt, IntType):
            self.error("Val When", "guarded body must produce an integer", e.loc)
        if guard is None:
            return IntType(), seq_flow(lf, rf, bf)
        return IntType(), seq_flow(lf, rf, distribute_guard(bf, guard))

    def _infer_for(self, tenv: Env, venv: Env, e: For):
        bt, bf0 = self.infer(tenv, venv, e.bound)
        witness = None
        if isinstance(bt, IndexType):
            self.error("Val For", "a loop index cannot bound another loop", e.loc)
        elif bt is not None and not isinstance(bt, SizeType):
            self.error("Val For", "loop bound must be a size value", e.loc)
        elif isinstance(bt, SizeType):
            witness = bt.witness
        if e.tvar in tenv:
            self.error("Val For",
                       f"loop witness {e.tvar} shadows a type variable", e.loc)
            return IntType(), bf0
        if witness is None:
            return IntType(), bf0
        tenv2 = tenv.extend(e.tvar, SizeKind(witness))
        venv2 = venv.extend(e.var, IndexType(SVar(e.tvar)))
        _, body_flow = self.infer(tenv2, venv2, e.body)
        loop_flow = distribute_iterator(body_flow,
                                        Iterator(e.tvar, Num(e.lo), witness))
        return IntType(), seq_flow(bf0, loop_flow)

    def _infer_comm(self, tenv: Env, venv: Env, e: Recv | Send):
        """A send or receive on a plain channel or on a channel-array element:
        the index is inferred before a send's payload, and a plain channel's
        index is reported but not inferred."""
        is_send = isinstance(e, Send)
        rule = "Val Send" if is_send else "Val Receive"
        ty = venv.lookup(e.chan)
        if not isinstance(ty, (ChanType, ChanArrayType)):
            self.error(rule, f"unknown channel {e.chan}" if ty is None
                       else f"{e.chan} is not a channel", e.loc)
            return None, EMPTY_FLOW
        is_array = isinstance(ty, ChanArrayType)
        if is_array:
            rule = "Val Send Array" if is_send else "Val Recv Array"
            if e.index is None:
                self.error(rule,
                           f"{e.chan} is a channel array and needs an index",
                           e.loc)
                return ty.payload, EMPTY_FLOW
        elif e.index is not None:
            self.error(rule, f"{e.chan} is not a channel array", e.loc)
        if ty.polarity not in ("+-", "-" if is_send else "+"):
            act = "send on receive" if is_send else "receive on send"
            what = "channel array" if is_array else "channel"
            self.error(rule, f"{act}-only {what} {e.chan}", e.loc)
        witness, idx_flow = None, EMPTY_FLOW
        if is_array:
            it, idx_flow = self.infer(tenv, venv, e.index)
            if not isinstance(it, IndexType):
                self.error(rule, "array index must be a loop index", e.loc)
            else:
                witness = it.witness
                if size_leq(tenv, witness, ty.bound) is not True:
                    self.error(rule, f"index may exceed the bound of {e.chan}",
                               e.loc)
        pf = EMPTY_FLOW
        if is_send:
            pt, pf = self.infer(tenv, venv, e.payload)
            if pt is not None and not types_equal(pt, ty.payload):
                self.error(rule, f"payload type mismatch on {e.chan}", e.loc)
        if is_array and witness is None:
            return ty.payload, seq_flow(idx_flow, pf)
        return ty.payload, seq_flow(idx_flow, pf,
                                    Comp(Event(ty.name, is_send, witness)))

    # --- processes -----------------------------------------------------------

    def check_proc(self, tenv: Env, venv: Env, p: Proc) -> ProcFlow:
        match p:
            case Stop():
                return PEmpty()
            case ActorE(expr):
                _, flow = self.infer(tenv, venv, expr)
                return PActor(flow)
            case ActorComp(tvar, var, lo, hi, body):
                ht, hf = self.infer(tenv, venv, hi)
                if not isinstance(hf, FEmpty):
                    self.error("Proc Comp", "actor-array bound must be a value",
                               p.loc)
                if not isinstance(ht, SizeType):
                    self.error("Proc Comp",
                               "actor-array bound must be a size value", p.loc)
                    return PEmpty()
                if tvar in tenv:
                    self.error("Proc Comp",
                               f"index witness {tvar} shadows a type variable",
                               p.loc)
                    return PEmpty()
                tenv2 = tenv.extend(tvar, SizeKind(ht.witness))
                venv2 = venv.extend(var, IndexType(SVar(tvar)))
                _, flow = self.infer(tenv2, venv2, body)
                return PArray(tvar, Num(lo), ht.witness, flow)
            case Par():
                return par_flow(*(self.check_proc(tenv, venv, q)
                                  for q in p.parts))
        raise TypeError(f"not a process: {p!r}")


@record
class NetworkCheckResult:
    diagnostics: list[Diagnostic]
    flow: Optional[ProcFlow] = None          # synthesized flowstate
    schedule: Optional[list] = None          # witness order from the progress check

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def infer_expr(tenv: Env, venv: Env, e: Expr) -> TypingResult:
    checker = Checker()
    ty, flow = checker.infer(tenv, venv, e)
    return TypingResult(ty, flow, checker.diags)


def check_proc(tenv: Env, venv: Env, p: Proc):
    checker = Checker()
    flow = checker.check_proc(tenv, venv, p)
    return flow, checker.diags


def check_network(net: Network) -> NetworkCheckResult:
    diags = check_type_env(net.tenv)
    diags.extend(check_value_env(net.tenv, net.venv))
    if diags:
        return NetworkCheckResult(diags)

    checker = Checker()
    synthesized = checker.check_proc(net.tenv, net.venv, net.body)
    diags.extend(checker.diags)
    diags.extend(_check_declared_flow(net.tenv, net.flow))
    if diags:
        return NetworkCheckResult(diags, synthesized)

    # ensure rate summaries exist (guards foldable, no guarded array events)
    try:
        proc_rate_summary(net.tenv, synthesized)
    except FlowstateError as exc:
        diags.append(exc.diag)
        return NetworkCheckResult(diags, synthesized)
    except SizeArithmeticError as exc:
        diags.append(Diagnostic("Ty Size", str(exc)))
        return NetworkCheckResult(diags, synthesized)

    verdict = proc_flows_equivalent(net.tenv, net.flow, synthesized)
    if verdict is not True:
        reason = ("declared flowstate differs from the actors' behavior"
                  if verdict is False else
                  "declared flowstate could not be proved equivalent")
        diags.append(Diagnostic("Val Eq", f"flowstate mismatch: {reason}"))
        return NetworkCheckResult(diags, synthesized)

    diags.extend(netcheck.check_determinism(net.tenv, synthesized))
    if diags:
        return NetworkCheckResult(diags, synthesized)

    schedule = netcheck.check_progress(net.tenv, synthesized)
    if isinstance(schedule, list) and schedule and isinstance(schedule[0], Diagnostic):
        diags.extend(schedule)
        return NetworkCheckResult(diags, synthesized)
    return NetworkCheckResult(diags, synthesized, schedule)


def _check_declared_flow(tenv: Env, flow: ProcFlow) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for part in proc_flow_components(flow):
        match part:
            case PActor(f):
                diags.extend(check_flowstate(tenv, f))
            case PArray(var, lo, hi, body):
                for bound in (lo, hi):
                    k = kind_of(tenv, bound)
                    if isinstance(k, Diagnostic):
                        diags.append(k)
                    elif not isinstance(k, SizeKind):
                        diags.append(Diagnostic(
                            "FS Comp", "actor-array bounds must be sizes"))
                if var in tenv:
                    diags.append(Diagnostic(
                        "FS Comp",
                        f"actor-array variable {var} shadows a declaration"))
                else:
                    diags.extend(check_flowstate(tenv.extend(var, SizeKind(hi)),
                                                 body))
    return diags
