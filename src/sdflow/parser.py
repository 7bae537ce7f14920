"""Recursive-descent parser for `.sdf` programs.

Binary operators, of size and of value expressions alike, are parsed by one
precedence-climbing routine (Pratt, POPL 1973) that reads `syntax.PRECEDENCE`,
the table the printer also reads.  A run of opening parentheses is parsed in
a loop: the innermost group first, then each enclosing group resumes its
expression with the finished group as first operand, so nesting depth costs
no stack.

Parsing is total: syntax errors are reported as diagnostics with line and
column, never as exceptions escaping `parse_program`.

Nesting is a language limit, `MAX_NESTING` levels, which the parser counts
as it goes.  A construct inside another is one level deeper: an expression
(a block's statement, a body, an operand in parentheses, an argument, an
index, the operand of `!`, `ref` or `send`), a size expression, a type, a
flowstate in parentheses, a process in parentheses.  So is an operator or
an application whose left operand is itself an operator or an application,
as in `a + b + c`, `f(x)(y)` or `((a + b) + c)`, since that operand is a
tree one level deeper; such a level lasts until the construct holding the
operator closes.  A run of `(` around one construct counts once, and
statements in sequence nest nothing.  The construct that would open level
`MAX_NESTING + 1` is reported as nested too deeply, at its first token.  The
limit keeps every later pass, which recurses on the tree, within Python's
default recursion limit.
"""

from __future__ import annotations

import gc
import re
from typing import Optional, Union

from .syntax import (
    ActorComp, ActorE, App, Assign, AtMost, BinOp, BoolLit, BoolType,
    ChanArrayType, ChannelArrayKind, ChannelKind, ChanType, Comp, Deref,
    Diagnostic, Divides, Env, Event, Expr, FEmpty, For, FSeq, If, IndexType,
    IntLit, IntType, Iterator, Lam, Let, MkSize, Network, NewRef, Num, PActor,
    Par, PArray, PEmpty, PPar, Proc, ProcFlow, ProcType, Recv, RefType, Send,
    SeqE, SizeExpr, SizeKind, SizeType, SMin, Stop, SVar, Var, When,
    ActorFlow, COMPARE_LEVEL, INF, KEYWORD_FORMS, Loc, PRECEDENCE,
    SIZE_OPERATORS,
)

# The deepest nesting a program may have (see the module docstring); C11
# promises 63 levels of parentheses in an expression.
MAX_NESTING = 64

KEYWORDS = {
    "size", "chan", "chanarray", "val", "flow", "network", "actor", "actors",
    "stop", "for", "when", "if", "then", "else", "let", "ref", "true",
    "false", "recv", "send", "min", "inf", "do", "fn", "eps", "index",
    "fromSize", "fromIndex", "Integer", "Boolean", "Size", "Index", "Channel",
    "ChannelArray", "Chan", "ChanArray", "Ref",
}

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\|\||==|<=|:=|\.\.|->|=>|\+-|[()\[\]{}<>,;:!?|+\-*/=])
""", re.VERBOSE)


class Token:
    """One lexeme: its kind ("num" | "ident" | "kw" | "op" | "eof"), its
    text and its (line, column)."""
    __slots__ = ("kind", "text", "loc")

    def __init__(self, kind: str, text: str, loc: Loc):
        self.kind, self.text, self.loc = kind, text, loc

    def __repr__(self):
        return f"Token(kind={self.kind!r}, text={self.text!r}, loc={self.loc!r})"


class ParseError(Exception):
    def __init__(self, message: str, loc: Loc):
        super().__init__(message)
        self.message = message
        self.loc = loc


def tokenize(source: str) -> list[Token]:
    """One `finditer` pass over `source`.  Only whitespace holds newlines,
    so the line and the offset where it starts change only there; a
    token's column is its offset past that start, plus 1."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN_RE.finditer(source):
        start = m.start()
        if start != pos:
            break  # a character no token matches
        kind = m.lastgroup
        pos = m.end()
        if kind == "ws":
            newlines = source.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", start, pos) + 1
        elif kind != "comment":
            text = m.group()
            if kind == "ident" and text in KEYWORDS:
                kind = "kw"
            append(Token(kind, text, (line, start - line_start + 1)))
    if pos < len(source):
        raise ParseError(f"unexpected character {source[pos]!r}",
                         (line, pos - line_start + 1))
    tokens.append(Token("eof", "", (line, pos - line_start + 1)))
    return tokens


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # nesting levels open; see MAX_NESTING

    # --- token plumbing ---------------------------------------------------

    # `pos` never passes the final "eof" token, so only a look-ahead clamps
    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if self.at(kind, text):
            return self.next()
        tok = self.peek()
        want = text or kind
        got = tok.text or "end of input"
        raise ParseError(f"expected {want!r}, found {got!r}", tok.loc)

    def ident(self, what: str = "identifier") -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.loc)
        self.next()
        return tok.text

    def enter(self) -> int:
        """Open one nesting level for the construct at the current token;
        returns the depth to restore when it is closed."""
        depth = self.depth
        if depth == MAX_NESTING:
            raise ParseError("nested too deeply", self.tokens[self.pos].loc)
        self.depth = depth + 1
        return depth

    def enclosed(self, parse):
        self.expect("op", "(")
        inner = parse()
        self.expect("op", ")")
        return inner

    # --- operators and groups -------------------------------------------------

    def binary(self, operand, node, floor: int, first=None):
        """Precedence climbing: the operators of `PRECEDENCE` at level `floor`
        or above between operands read by `operand` (the first one is `first`
        when given), each built by `node(operator token, lhs, rhs)`."""
        lhs = operand() if first is None else first
        while True:
            tok = self.peek()
            level = PRECEDENCE.get(tok.text, 0) if tok.kind == "op" else 0
            if level < floor:
                return lhs
            if lhs.__class__ in _LEFT_NESTED:
                self.enter()  # closed by the enclosing construct
            self.next()
            depth = self.depth
            rhs = self.binary(operand, node, level + 1)
            self.depth = depth
            lhs = node(tok, lhs, rhs)
            if level == COMPARE_LEVEL:
                floor = level + 1

    def group(self, inner, resume):
        """A run of `(`: `inner()` parses the innermost group, and each
        enclosing group is `resume(its first token, the group it encloses)`.
        The run is one nesting level, which `inner` opens and the resumed
        groups share."""
        opens = []
        while self.at("op", "("):
            opens.append(self.next())
        e = inner()
        self.expect("op", ")")
        depth = self.enter()  # `inner` reached this level, so it fits
        for tok in reversed(opens[1:]):
            e = resume(tok, e)
            self.expect("op", ")")
        self.depth = depth
        return e

    # --- size expressions ---------------------------------------------------

    def size_expr(self, first: Optional[SizeExpr] = None) -> SizeExpr:
        depth = self.enter()
        e = self.binary(self.size_factor, _size_node, 2, first)
        self.depth = depth
        return e

    def size_factor(self) -> SizeExpr:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Num(int(tok.text))
        if self.accept("kw", "inf"):
            return INF
        if self.accept("kw", "min"):
            self.expect("op", "(")
            a = self.size_expr()
            self.expect("op", ",")
            b = self.size_expr()
            self.expect("op", ")")
            return SMin(a, b)
        if tok.kind == "ident":
            self.next()
            return SVar(tok.text)
        if self.at("op", "("):
            return self.group(
                self.size_expr,
                lambda _, g: self.binary(self.size_factor, _size_node, 2, g))
        raise ParseError(f"expected size expression, found {tok.text!r}", tok.loc)

    # --- types ----------------------------------------------------------------

    def type_expr(self):
        depth = self.enter()
        ty = self._type_form()
        self.depth = depth
        return ty

    def _type_form(self):
        tok = self.peek()
        if self.accept("kw", "Integer"):
            return IntType()
        if self.accept("kw", "Boolean"):
            return BoolType()
        if tok.kind == "kw" and tok.text in _TYPE_FORMS:
            self.next()
            node, parse = _TYPE_FORMS[tok.text]
            return node(self.enclosed(lambda: parse(self)))
        if self.accept("op", "("):
            params = []
            if not self.at("op", ")"):
                params.append(self.type_expr())
                while self.accept("op", ","):
                    params.append(self.type_expr())
            self.expect("op", ")")
            self.expect("op", "->")
            self.expect("op", "[")
            latent = self.actor_flow()
            self.expect("op", "=>")
            rest = self.actor_flow()
            self.expect("op", "]")
            result = self.type_expr()
            return ProcType(tuple(params), latent, rest, result)
        raise ParseError(f"expected type, found {tok.text!r}", tok.loc)

    def value_type(self):
        if self.accept("kw", "Chan"):
            self.expect("op", "(")
            pol = self.polarity()
            self.expect("op", ",")
            name = self.ident("channel name")
            self.expect("op", ",")
            payload = self.type_expr()
            self.expect("op", ")")
            return ChanType(pol, name, payload)
        if self.accept("kw", "ChanArray"):
            self.expect("op", "(")
            pol = self.polarity()
            self.expect("op", ",")
            name = self.ident("channel array name")
            self.expect("op", ",")
            payload = self.type_expr()
            self.expect("op", ",")
            bound = self.size_expr()
            self.expect("op", ")")
            return ChanArrayType(pol, name, payload, bound)
        return self.type_expr()

    def polarity(self) -> str:
        for p in ("+-", "+", "-"):
            if self.accept("op", p):
                return p
        tok = self.peek()
        raise ParseError(f"expected polarity, found {tok.text!r}", tok.loc)

    # --- flowstates -------------------------------------------------------------

    def proc_flow(self) -> ProcFlow:
        parts = [self.proc_flow_term()]
        while self.accept("op", "||"):
            parts.append(self.proc_flow_term())
        return PPar(*parts) if len(parts) > 1 else parts[0]

    def proc_flow_term(self) -> ProcFlow:
        if self.accept("kw", "eps"):
            return PEmpty()
        if self.accept("op", "["):
            body = self.actor_flow()
            self.expect("op", "|")
            var = self.ident("iteration variable")
            self.keyword_in()
            lo = self.size_expr()
            self.expect("op", "..")
            hi = self.size_expr()
            self.expect("op", "]")
            return PArray(var, lo, hi, body)
        return PActor(self.actor_flow())

    def keyword_in(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "in":
            self.next()
            return
        raise ParseError(f"expected 'in', found {tok.text!r}", tok.loc)

    def actor_flow(self) -> ActorFlow:
        # a ';' both sequences flow atoms and terminates flow declarations;
        # only consume it when a flow atom follows
        depth = self.enter()
        parts = [self.flow_atom()]
        while self.at("op", ";") and self._starts_flow_atom(self.peek(1)):
            self.next()
            parts.append(self.flow_atom())
        self.depth = depth
        return FSeq(*parts) if len(parts) > 1 else parts[0]

    @staticmethod
    def _starts_flow_atom(tok: Token) -> bool:
        return (tok.kind == "ident"
                or (tok.kind == "kw" and tok.text == "eps")
                or (tok.kind == "op" and tok.text == "("))

    def flow_atom(self) -> ActorFlow:
        if self.accept("kw", "eps"):
            return FEmpty()
        if self.accept("op", "("):
            inner = self.actor_flow()
            self.expect("op", ")")
            return inner
        chan = self.ident("channel name")
        index = None
        if self.accept("op", "["):
            index = self.size_expr()
            self.expect("op", "]")
        if self.accept("op", "!"):
            is_send = True
        elif self.accept("op", "?"):
            is_send = False
        else:
            tok = self.peek()
            raise ParseError(f"expected '!' or '?', found {tok.text!r}", tok.loc)
        iterators: list[Iterator] = []
        guards = []
        if self.accept("op", "<"):
            while True:
                iterators, guards = self.comp_item(iterators, guards)
                if not self.accept("op", ","):
                    break
            self.expect("op", ">")
        return Comp(Event(chan, is_send, index), tuple(iterators), tuple(guards))

    def comp_item(self, iterators, guards):
        left = self.size_expr()
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "in":
            if not isinstance(left, SVar):
                raise ParseError("iteration variable must be a name", tok.loc)
            self.next()
            lo = self.size_expr()
            self.expect("op", "..")
            hi = self.size_expr()
            iterators = iterators + [Iterator(left.name, lo, hi)]
            return iterators, guards
        if self.accept("op", "|"):
            var = self.ident("guarded variable")
            guards = guards + [Divides(left, SVar(var))]
            return iterators, guards
        if self.accept("op", "<="):
            if not isinstance(left, SVar):
                raise ParseError("bounded variable must be a name", tok.loc)
            bound = self.size_expr()
            guards = guards + [AtMost(left, bound)]
            return iterators, guards
        raise ParseError(
            f"expected 'in', '|' or '<=' in comprehension, found {tok.text!r}",
            tok.loc)

    # --- expressions --------------------------------------------------------------

    def expr(self) -> Expr:
        depth = self.enter()
        tok = self.peek()
        if tok.kind == "kw" and tok.text in _LEADING_KEYWORDS:
            e = _LEADING_KEYWORDS[tok.text](self)
        else:
            e = self.operators(tok)
        self.depth = depth
        return e

    def operators(self, start: Token, first: Optional[Expr] = None) -> Expr:
        """Binary operators and an optional `:=`, in an expression whose
        first token is `start`."""
        lhs = self.binary(self.unary, _value_node, 1, first)
        if self.accept("op", ":="):
            rhs = self.expr()
            return Assign(lhs, rhs, loc=start.loc)
        return lhs

    def when_expr(self) -> Expr:
        tok = self.expect("kw", "when")
        self.expect("op", "(")
        lhs = self.binary(self.unary, _value_node, 2)
        if self.accept("op", "|"):
            op = "|"
        elif self.accept("op", "<="):
            op = "<="
        else:
            bad = self.peek()
            raise ParseError(f"expected '|' or '<=', found {bad.text!r}", bad.loc)
        rhs = self.binary(self.unary, _value_node, 2)
        self.expect("op", ")")
        self.accept("kw", "do")
        body = self.expr()
        # bare integer literals in guard position denote size constants
        lhs = self._guard_operand(lhs)
        rhs = self._guard_operand(rhs)
        return When(lhs, op, rhs, body, loc=tok.loc)

    @staticmethod
    def _guard_operand(e: Expr) -> Expr:
        if isinstance(e, IntLit):
            return MkSize(e, loc=e.loc)
        return e

    def for_expr(self) -> Expr:
        tok = self.expect("kw", "for")
        self.expect("op", "(")
        tvar = self.ident("loop witness")
        self.expect("op", ",")
        var = self.ident("loop variable")
        self.keyword_in()
        lo = int(self.expect("num").text)
        self.expect("op", "..")
        bound = self.expr()
        self.expect("op", ")")
        body = self.expr()
        return For(tvar, var, lo, bound, body, loc=tok.loc)

    def if_expr(self) -> Expr:
        tok = self.expect("kw", "if")
        cond = self.binary(self.unary, _value_node, 1)
        self.expect("kw", "then")
        then = self.expr()
        self.expect("kw", "else")
        els = self.expr()
        return If(cond, then, els, loc=tok.loc)

    def fn_expr(self) -> Expr:
        tok = self.expect("kw", "fn")
        self.expect("op", "(")
        params = []
        if not self.at("op", ")"):
            while True:
                name = self.ident("parameter name")
                self.expect("op", ":")
                ty = self.type_expr()
                params.append((name, ty))
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        self.expect("op", "[")
        latent = self.actor_flow()
        self.expect("op", "=>")
        rest = self.actor_flow()
        self.expect("op", "]")
        body = self.expr()
        return Lam(tuple(params), latent, rest, body, loc=tok.loc)

    def unary(self) -> Expr:
        tok = self.peek()
        if self.accept("op", "!"):
            return Deref(self.prefixed(), loc=tok.loc)
        if self.accept("kw", "ref"):
            return NewRef(self.prefixed(), loc=tok.loc)
        if self.accept("kw", "recv"):
            chan = self.ident("channel name")
            index = None
            if self.accept("op", "["):
                index = self.expr()
                self.expect("op", "]")
            return Recv(chan, index, loc=tok.loc)
        if self.accept("kw", "send"):
            chan = self.ident("channel name")
            index = None
            if self.accept("op", "["):
                index = self.expr()
                self.expect("op", "]")
            payload = self.prefixed()
            return Send(chan, index, payload, loc=tok.loc)
        return self.postfix()

    def prefixed(self) -> Expr:
        """The operand of `!`, `ref` or `send`, one level deeper."""
        depth = self.enter()
        e = self.unary()
        self.depth = depth
        return e

    def postfix(self, e: Optional[Expr] = None) -> Expr:
        e = self.atom() if e is None else e
        while self.at("op", "("):
            if e.__class__ in _LEFT_NESTED:
                self.enter()  # closed by the enclosing construct
            tok = self.next()
            args = []
            if not self.at("op", ")"):
                args.append(self.expr())
                while self.accept("op", ","):
                    args.append(self.expr())
            self.expect("op", ")")
            e = App(e, tuple(args), loc=tok.loc)
        return e

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return IntLit(int(tok.text), loc=tok.loc)
        if self.accept("kw", "true"):
            return BoolLit(True, loc=tok.loc)
        if self.accept("kw", "false"):
            return BoolLit(False, loc=tok.loc)
        if tok.kind == "kw" and tok.text in _EXPR_FORMS:
            self.next()
            return _EXPR_FORMS[tok.text](self.enclosed(self.expr), loc=tok.loc)
        if tok.kind == "ident":
            self.next()
            return Var(tok.text, loc=tok.loc)
        if self.at("op", "("):
            return self.group(
                self.expr, lambda start, g: self.operators(start, self.postfix(g)))
        if self.at("op", "{"):
            return self.block()
        raise ParseError(f"expected expression, found {tok.text!r}", tok.loc)

    def block(self) -> Expr:
        open_tok = self.expect("op", "{")
        stmts: list[tuple[Optional[str], Expr]] = []  # (bound name, expr)
        while not self.at("op", "}"):
            name = None
            if self.accept("kw", "let"):
                name = self.ident("binding name")
                self.expect("op", "=")
            elif (self.peek().kind == "kw"
                  and self.peek().text in ("Integer", "Boolean")
                  and self.peek(1).kind == "ident"
                  and self.peek(2).kind == "op" and self.peek(2).text == "="):
                self.next()
                name = self.ident()
                self.expect("op", "=")
            stmts.append((name, self.expr()))
            if not self.accept("op", ";"):
                break
        self.expect("op", "}")
        if not stmts or stmts[-1][0] is not None:
            stmts.append((None, IntLit(0, loc=open_tok.loc)))
        out = stmts.pop()[1]
        for name, e in reversed(stmts):
            out = (SeqE(e, out, loc=open_tok.loc) if name is None
                   else Let(name, e, out, loc=open_tok.loc))
        return out

    # --- processes and programs -----------------------------------------------------

    def proc(self) -> Proc:
        depth = self.enter()
        parts = [self.proc_term()]
        while self.accept("op", "||"):
            parts.append(self.proc_term())
        self.depth = depth
        return Par(*parts) if len(parts) > 1 else parts[0]

    def proc_term(self) -> Proc:
        tok = self.peek()
        if self.accept("kw", "stop"):
            return Stop(loc=tok.loc)
        if self.accept("kw", "actor"):
            return ActorE(self.block(), loc=tok.loc)
        if self.accept("kw", "actors"):
            self.expect("op", "(")
            tvar = self.ident("index witness")
            self.expect("op", ",")
            var = self.ident("index variable")
            self.keyword_in()
            lo = int(self.expect("num").text)
            self.expect("op", "..")
            hi = self.comp_bound_value()
            self.expect("op", ")")
            body = self.block()
            return ActorComp(tvar, var, lo, hi, body, loc=tok.loc)
        if self.accept("op", "("):
            inner = self.proc()
            self.expect("op", ")")
            return inner
        raise ParseError(f"expected an actor, found {tok.text!r}", tok.loc)

    def comp_bound_value(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return MkSize(IntLit(int(tok.text), loc=tok.loc), loc=tok.loc)
        if self.accept("kw", "size"):
            n = self.enclosed(lambda: self.expect("num"))
            return MkSize(IntLit(int(n.text), loc=n.loc), loc=tok.loc)
        if tok.kind == "ident":
            self.next()
            return Var(tok.text, loc=tok.loc)
        raise ParseError(f"expected a size value, found {tok.text!r}", tok.loc)

    def program(self) -> Network:
        tenv_items: list = []
        venv_items: list = []
        flow: ProcFlow = PEmpty()
        seen: set[str] = set()

        def declare(name: str, loc: Loc):
            if name in seen:
                raise ParseError(f"duplicate declaration of {name}", loc)
            seen.add(name)

        while True:
            tok = self.peek()
            if self.accept("kw", "size"):
                name = self.ident("size parameter")
                declare(name, tok.loc)
                self.expect("op", ":")
                self.expect("kw", "Size")
                bound = self.enclosed(self.size_expr)
                self.expect("op", ";")
                tenv_items.append((name, SizeKind(bound)))
            elif self.accept("kw", "chan"):
                name = self.ident("channel name")
                declare(name, tok.loc)
                self.expect("op", ":")
                self.expect("kw", "Channel")
                self.expect("op", "(")
                delay = self._delay_flag()
                self.expect("op", ",")
                limit = self.size_expr()
                self.expect("op", ")")
                self.expect("op", ";")
                tenv_items.append((name, ChannelKind(delay, limit)))
            elif self.accept("kw", "chanarray"):
                name = self.ident("channel array name")
                declare(name, tok.loc)
                self.expect("op", ":")
                self.expect("kw", "ChannelArray")
                self.expect("op", "(")
                delay = self._delay_flag()
                self.expect("op", ",")
                limit = self.size_expr()
                self.expect("op", ",")
                bound = self.size_expr()
                self.expect("op", ")")
                self.expect("op", ";")
                tenv_items.append((name, ChannelArrayKind(delay, limit, bound)))
            elif self.accept("kw", "val"):
                name = self.ident("value name")
                declare(name, tok.loc)
                self.expect("op", ":")
                ty = self.value_type()
                self.expect("op", ";")
                venv_items.append((name, ty))
            elif self.accept("kw", "flow"):
                flow = self.proc_flow()
                self.expect("op", ";")
            else:
                break
        self.expect("kw", "network")
        self.expect("op", "{")
        body = self.proc()
        self.expect("op", "}")
        self.expect("eof")
        return Network(Env(tuple(tenv_items)), Env(tuple(venv_items)),
                       flow, body)

    def _delay_flag(self) -> int:
        tok = self.expect("num")
        if tok.text not in ("0", "1"):
            raise ParseError("delay flag must be 0 or 1", tok.loc)
        return int(tok.text)


_SIZE_NODES = {op: node for node, op in SIZE_OPERATORS.items()}
# nodes an operator or an application builds on its left operand
_LEFT_NESTED = frozenset(_SIZE_NODES.values()) | {BinOp, App}


def _size_node(tok: Token, lhs: SizeExpr, rhs: SizeExpr) -> SizeExpr:
    return _SIZE_NODES[tok.text](lhs, rhs)


def _value_node(tok: Token, lhs: Expr, rhs: Expr) -> Expr:
    return BinOp(tok.text, lhs, rhs, loc=tok.loc)


# expressions that start with a keyword, and the method that parses each
_LEADING_KEYWORDS = {"when": Parser.when_expr, "for": Parser.for_expr,
                     "if": Parser.if_expr, "fn": Parser.fn_expr}
_EXPR_FORMS = {keyword: node for node, keyword in KEYWORD_FORMS.items()}
# type forms `keyword(argument)`: the type built and the argument's parser
_TYPE_FORMS = {"Size": (SizeType, Parser.size_expr),
               "Index": (IndexType, Parser.size_expr),
               "Ref": (RefType, Parser.type_expr)}


def parse_program(source: str) -> Union[Network, list[Diagnostic]]:
    """The network `source` declares, or its syntax error.  The tokens and
    the tree are acyclic, so the cyclic collector, which would walk them
    again and again as they pile up, is paused while they are built and
    then left as it was found."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return Parser(tokenize(source)).program()
    except ParseError as exc:
        return [Diagnostic("Parse", exc.message, exc.loc)]
    finally:
        if enabled:
            gc.enable()


def parse_program_or_raise(source: str) -> Network:
    result = parse_program(source)
    if isinstance(result, list):
        raise ValueError("; ".join(str(d) for d in result))
    return result
