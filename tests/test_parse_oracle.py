"""The parser against the operator ladders it replaced.

`Parser` below is the parser that `sdflow.parser` replaced with one
precedence-climbing routine over `syntax.PRECEDENCE` and a loop over runs of
opening parentheses.  It has one function per precedence level, for sizes
(`size_expr`, `size_term`) and for values (`compare`, `additive`,
`multiplicative`), and recurses once per parenthesis.  On every corpus
program, on generated programs, and on every single-token deletion,
duplication and adjacent swap of some of them, both parsers must give the
same network, source locations included, or the same diagnostic.  They may
differ only where the old parser overflows the recursion limit.
"""

from __future__ import annotations

import random
from typing import Optional

import pytest
from conftest import ProgramGen, corpus_files, load

from sdflow.parser import ParseError, Token, parse_program, tokenize
from sdflow.syntax import (
    ActorComp, ActorE, Add, App, Assign, AtMost, BinOp, BoolLit, BoolType,
    ChanArrayType, ChannelArrayKind, ChannelKind, ChanType, Comp, Deref,
    Diagnostic, Div, Divides, Env, Event, Expr, FEmpty, For, FromIndex,
    FromSize, FSeq, If, IndexType, IntLit, IntType, Iterator, Lam, Let,
    MkIndex, MkSize, Mul, Network, NewRef, Num, PActor, Par, PArray, PEmpty,
    PPar, Proc, ProcFlow, ProcType, Recv, RefType, Send, SeqE, SizeExpr,
    SizeKind, SizeType, SMin, Stop, Sub, SVar, Var, When, ActorFlow, INF, Loc,
)


# --- the replaced implementation --------------------------------------------

class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # --- token plumbing ---------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
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

    # --- size expressions ---------------------------------------------------

    def size_expr(self) -> SizeExpr:
        e = self.size_term()
        while self.at("op", "+") or self.at("op", "-"):
            op = self.next().text
            rhs = self.size_term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def size_term(self) -> SizeExpr:
        e = self.size_factor()
        while self.at("op", "*") or self.at("op", "/"):
            op = self.next().text
            rhs = self.size_factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
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
        if self.accept("op", "("):
            e = self.size_expr()
            self.expect("op", ")")
            return e
        raise ParseError(f"expected size expression, found {tok.text!r}", tok.loc)

    # --- types ----------------------------------------------------------------

    def type_expr(self):
        tok = self.peek()
        if self.accept("kw", "Integer"):
            return IntType()
        if self.accept("kw", "Boolean"):
            return BoolType()
        if self.accept("kw", "Size"):
            self.expect("op", "(")
            w = self.size_expr()
            self.expect("op", ")")
            return SizeType(w)
        if self.accept("kw", "Index"):
            self.expect("op", "(")
            w = self.size_expr()
            self.expect("op", ")")
            return IndexType(w)
        if self.accept("kw", "Ref"):
            self.expect("op", "(")
            p = self.type_expr()
            self.expect("op", ")")
            return RefType(p)
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
        out = parts[0]
        for p in parts[1:]:
            out = PPar(out, p)
        return out

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
        parts = [self.flow_atom()]
        while self.at("op", ";") and self._starts_flow_atom(self.peek(1)):
            self.next()
            parts.append(self.flow_atom())
        out = parts[0]
        for p in parts[1:]:
            out = FSeq(out, p)
        return out

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
        tok = self.peek()
        if self.at("kw", "when"):
            return self.when_expr()
        if self.at("kw", "for"):
            return self.for_expr()
        if self.at("kw", "if"):
            return self.if_expr()
        if self.at("kw", "fn"):
            return self.fn_expr()
        lhs = self.compare()
        if self.accept("op", ":="):
            rhs = self.expr()
            return Assign(lhs, rhs, loc=tok.loc)
        return lhs

    def when_expr(self) -> Expr:
        tok = self.expect("kw", "when")
        self.expect("op", "(")
        lhs = self.additive()
        if self.accept("op", "|"):
            op = "|"
        elif self.accept("op", "<="):
            op = "<="
        else:
            bad = self.peek()
            raise ParseError(f"expected '|' or '<=', found {bad.text!r}", bad.loc)
        rhs = self.additive()
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
        cond = self.compare()
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

    def compare(self) -> Expr:
        lhs = self.additive()
        for op in ("==", "<=", "<"):
            if self.at("op", op):
                tok = self.next()
                rhs = self.additive()
                return BinOp(op, lhs, rhs, loc=tok.loc)
        return lhs

    def additive(self) -> Expr:
        e = self.multiplicative()
        while self.at("op", "+") or self.at("op", "-"):
            tok = self.next()
            rhs = self.multiplicative()
            e = BinOp(tok.text, e, rhs, loc=tok.loc)
        return e

    def multiplicative(self) -> Expr:
        e = self.unary()
        while self.at("op", "*") or self.at("op", "/"):
            tok = self.next()
            rhs = self.unary()
            e = BinOp(tok.text, e, rhs, loc=tok.loc)
        return e

    def unary(self) -> Expr:
        tok = self.peek()
        if self.accept("op", "!"):
            return Deref(self.unary(), loc=tok.loc)
        if self.accept("kw", "ref"):
            return NewRef(self.unary(), loc=tok.loc)
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
            payload = self.unary()
            return Send(chan, index, payload, loc=tok.loc)
        return self.postfix()

    def postfix(self) -> Expr:
        e = self.atom()
        while self.at("op", "("):
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
        if self.accept("kw", "size"):
            self.expect("op", "(")
            e = self.expr()
            self.expect("op", ")")
            return MkSize(e, loc=tok.loc)
        if self.accept("kw", "index"):
            self.expect("op", "(")
            e = self.expr()
            self.expect("op", ")")
            return MkIndex(e, loc=tok.loc)
        if self.accept("kw", "fromSize"):
            self.expect("op", "(")
            e = self.expr()
            self.expect("op", ")")
            return FromSize(e, loc=tok.loc)
        if self.accept("kw", "fromIndex"):
            self.expect("op", "(")
            e = self.expr()
            self.expect("op", ")")
            return FromIndex(e, loc=tok.loc)
        if tok.kind == "ident":
            self.next()
            return Var(tok.text, loc=tok.loc)
        if self.accept("op", "("):
            e = self.expr()
            self.expect("op", ")")
            return e
        if self.at("op", "{"):
            return self.block()
        raise ParseError(f"expected expression, found {tok.text!r}", tok.loc)

    def block(self) -> Expr:
        open_tok = self.expect("op", "{")
        stmts: list[tuple] = []
        while not self.at("op", "}"):
            if self.accept("kw", "let"):
                name = self.ident("binding name")
                self.expect("op", "=")
                stmts.append(("let", name, self.expr()))
            elif (self.peek().kind == "kw"
                  and self.peek().text in ("Integer", "Boolean")
                  and self.peek(1).kind == "ident"
                  and self.peek(2).kind == "op" and self.peek(2).text == "="):
                self.next()
                name = self.ident()
                self.expect("op", "=")
                stmts.append(("let", name, self.expr()))
            else:
                stmts.append(("expr", self.expr()))
            if not self.accept("op", ";"):
                break
        self.expect("op", "}")
        if not stmts:
            return IntLit(0, loc=open_tok.loc)
        if stmts[-1][0] == "let":
            stmts.append(("expr", IntLit(0, loc=open_tok.loc)))
        out: Expr = stmts[-1][1]
        for s in reversed(stmts[:-1]):
            if s[0] == "let":
                out = Let(s[1], s[2], out, loc=open_tok.loc)
            else:
                out = SeqE(s[1], out, loc=open_tok.loc)
        return out

    # --- processes and programs -----------------------------------------------------

    def proc(self) -> Proc:
        parts = [self.proc_term()]
        while self.accept("op", "||"):
            parts.append(self.proc_term())
        out = parts[0]
        for p in parts[1:]:
            out = Par(out, p)
        return out

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
            self.expect("op", "(")
            n = self.expect("num")
            self.expect("op", ")")
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
                self.expect("op", "(")
                bound = self.size_expr()
                self.expect("op", ")")
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


# --- the comparison -----------------------------------------------------------

def oracle_parse(source: str):
    try:
        return Parser(tokenize(source)).program()
    except ParseError as exc:
        return [Diagnostic("Parse", exc.message, exc.loc)]


def shape(x):
    """`x` as nested tuples of every field, source locations included
    (record equality leaves them out)."""
    fields = getattr(x, "__record_fields__", None)
    if fields is not None:
        return (type(x).__name__,) + tuple(shape(getattr(x, f.name))
                                           for f in fields)
    if isinstance(x, (tuple, list)):
        return tuple(shape(y) for y in x)
    return x


def assert_same_parse(source: str) -> None:
    got = parse_program(source)
    try:
        want = oracle_parse(source)
    except RecursionError:
        return
    assert shape(got) == shape(want), source


def token_spans(source: str) -> list[tuple[int, int]]:
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    spans = []
    for tok in tokenize(source)[:-1]:
        begin = starts[tok.loc[0] - 1] + tok.loc[1] - 1
        spans.append((begin, begin + len(tok.text)))
    return spans


def mutants(source: str):
    """Every single-token deletion, duplication and adjacent swap."""
    spans = token_spans(source)
    for i, (b, e) in enumerate(spans):
        yield source[:b] + source[e:]
        yield source[:e] + " " + source[b:e] + source[e:]
        if i + 1 < len(spans):
            b2, e2 = spans[i + 1]
            yield (source[:b] + source[b2:e2] + source[e:b2] + source[b:e]
                   + source[e2:])


# groups around every kind of operand, postfix call, operator and `:=`
GROUPS = """size s : Size(((inf)));
chan c : Channel(0, ((s + 1) * 2) / ((s) - (1)));
val w : Chan(-, c, Integer);
flow c!<t in 1..((s)), ((2)) | t, t <= (s + 1) * s> ; (c!<u in (1)..s - 2 - 1>);

network {
  actor {
    let r = ref ((1));
    ((r)) := ((!r + 2) * 3 - (4 / (5 * 6))) < ((1));
    ((!r) := 2 := 3);
    (((r) := 1) := 2);
    1 < (2 == 3);
    (((fn (x : Integer) [eps => eps] x))(1) + 2)(3);
    send w ((1 + 2) * (3) / ((4) - 5)) == 6;
    when ((2) + 1 | (x) * 2) ((1));
    if ((1) == (2)) then ((3)) else (4 <= ((5)))
  }
}
"""


def test_token_spans_cover_each_token():
    source = load("good", "lambda_stage.sdf")
    texts = [source[b:e] for b, e in token_spans(source)]
    assert texts == [tok.text for tok in tokenize(source)[:-1]]


@pytest.mark.parametrize("path", corpus_files("good") + corpus_files("negative")
                         + corpus_files("rejected"), ids=lambda p: p.name)
def test_corpus_parses_as_before(path):
    assert_same_parse(path.read_text())


def test_groups_parse_as_before():
    assert not isinstance(oracle_parse(GROUPS), list)
    assert_same_parse(GROUPS)


def test_generated_programs_parse_as_before():
    rng = random.Random(7)
    for _ in range(200):
        assert_same_parse(ProgramGen(random.Random(rng.randrange(1 << 30))).source())


@pytest.mark.parametrize("name", ["downsampler.sdf", "guard_and_bound.sdf",
                                  "lambda_stage.sdf", "GROUPS", "generated"])
def test_token_mutants_parse_as_before(name):
    if name == "GROUPS":
        source = GROUPS
    elif name == "generated":
        source = ProgramGen(random.Random(11)).source()
    else:
        source = load("good", name)
    for mutant in mutants(source):
        assert_same_parse(mutant)


def test_only_the_old_parser_overflows_on_deep_parentheses():
    source = ("chan c : Channel(0, 2);\nval cw : Chan(-, c, Integer);\n"
              "flow c!;\nnetwork { actor { send cw " + "(" * 300 + "1"
              + ")" * 300 + " } }\n")
    with pytest.raises(RecursionError):
        oracle_parse(source)
    shallow = source.replace("(" * 300, "(").replace(")" * 300, ")")
    assert parse_program(source) == oracle_parse(shallow)
