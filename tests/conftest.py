import random
from contextlib import contextmanager
from pathlib import Path

import pytest

from sdflow.syntax import (
    Add, AtMost, BoolLit, BoolType, Comp, Div, Divides, Event, FSeq, IntLit,
    IntType, Iterator, MkIndex, MkSize, Mul, Num, SMin, Sub, SVar, SizeKind,
    Env, Var, INF,
)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def corpus_files(kind: str):
    return sorted((CORPUS / kind).glob("*.sdf"))


def load(kind: str, name: str) -> str:
    return (CORPUS / kind / name).read_text()


def size_params(net):
    return [n for n, k in net.tenv.items if isinstance(k, SizeKind)]


def sizes_for(net, v: int):
    return {p: v for p in size_params(net)}


def state_key(cfg) -> tuple:
    """A configuration as a hashable value: the actors' expressions, the
    heap cells and the buffers' contents (every heap of one network has the
    same buffer keys in the same order)."""
    heap = cfg.heap
    return (tuple(a.expr for a in cfg.actors),
            (tuple(sorted(heap.locs.items())), tuple(heap.bufs.values())))


def two_writers_beside_pipeline(stages: int) -> str:
    """Two writers and a reader on channel m, then, after them in actor
    order, an independent pipeline of `stages` actors carrying s items per
    link: the writers' sends clash, and no pipeline actor owns m."""
    decls = ["size s : Size(inf);", "val sz : Size(s);",
             "chan m : Channel(0, 2);", "val mw1 : Chan(-, m, Integer);",
             "val mw2 : Chan(-, m, Integer);", "val mr : Chan(+, m, Integer);"]
    for k in range(1, stages):
        decls += [f"chan c{k} : Channel(0, 2);",
                  f"val w{k} : Chan(-, c{k}, Integer);",
                  f"val r{k} : Chan(+, c{k}, Integer);"]
    actors = ["actor { send mw1 1 }", "actor { send mw2 2 }",
              "actor { let a = recv mr; let b = recv mr; a * 10 + b }",
              "actor { for (t, x in 1..sz) send w1 fromIndex(x) }"]
    actors += [f"actor {{ for (t, x in 1..sz) {{ let v = recv r{k}; "
               f"send w{k + 1} v }} }}" for k in range(1, stages - 1)]
    actors.append(f"actor {{ for (t, x in 1..sz) recv r{stages - 1} }}")
    return ("\n".join(decls) + "\nflow eps;\nnetwork { "
            + " || ".join(actors) + " }\n")


def traced_run(cfg, **kwargs):
    """`runtime.run(cfg, **kwargs)` and the trace entries it hands its
    observer, in order: `run` builds them for an observer only."""
    from sdflow.runtime import run
    entries = []
    result = run(cfg, observer=lambda entry, _: entries.append(entry),
                 **kwargs)
    return result, entries


@contextmanager
def dropped_push(n: int):
    """Within the block `runtime.Heap.push` skips its n-th call (1-based;
    none for n None).  Only a send's effect pushes, so inside one `run` this
    drops the n-th send's item while the sender still moves on."""
    from sdflow.runtime import Heap
    push, calls = Heap.push, 0

    def skipping(heap, key, value):
        nonlocal calls
        calls += 1
        if calls != n:
            push(heap, key, value)
    Heap.push = skipping
    try:
        yield
    finally:
        Heap.push = push


# --- small builders ---------------------------------------------------------

def sv(name):
    return SVar(name)


def n_(v):
    return Num(v)


def it(var, lo, hi):
    def conv(x):
        return Num(x) if isinstance(x, int) else SVar(x) if isinstance(x, str) else x
    return Iterator(var, conv(lo), conv(hi))


def ev(spec: str, index=None):
    chan = spec[:-1]
    is_send = spec.endswith("!")
    if index is not None and not isinstance(index, (Num, SVar)):
        index = Num(index) if isinstance(index, int) else SVar(index)
    return Event(chan, is_send, index)


def comp(event, *items):
    iters = tuple(i for i in items if isinstance(i, Iterator))
    guards = tuple(g for g in items if not isinstance(g, Iterator))
    return Comp(event, iters, guards)


def seq(*flows):
    out = flows[0]
    for f in flows[1:]:
        out = FSeq(out, f)
    return out


def tenv(**kinds):
    return Env(tuple(kinds.items()))


# --- size expression generator ----------------------------------------------

SIZE_VARS = ("s", "m", "k")


def gen_size_expr(rng: random.Random, depth: int = 3):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.45:
            return Num(rng.randint(0, 12))
        if roll < 0.9:
            return SVar(rng.choice(SIZE_VARS))
        return INF
    op = rng.choice((Add, Sub, Mul, Div, SMin))
    a = gen_size_expr(rng, depth - 1)
    b = gen_size_expr(rng, depth - 1)
    if op is Div and b == Num(0):
        b = Num(rng.randint(1, 4))
    return op(a, b)


# --- program generator (syntactic, for round-trip testing) -------------------

NAMES = [f"v{i}" for i in range(40)]


class ProgramGen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.fresh = iter(NAMES)

    def name(self):
        return next(self.fresh)

    def source(self) -> str:
        from sdflow.printer import print_program
        return print_program(self.network())

    def network(self):
        from sdflow.syntax import (
            ActorComp, ActorE, ChanArrayType, ChannelArrayKind, ChannelKind,
            ChanType, Network, PActor, Par, PArray, PEmpty, PPar, SizeType,
            Stop,
        )
        rng = self.rng
        tenv_items = []
        venv_items = []
        self.size_vals = []
        self.chans = []        # (value name, payload kind)
        self.arrays = []
        sname = self.name()
        tenv_items.append((sname, SizeKind(INF)))
        self.sizes = [sname]
        for _ in range(rng.randint(1, 2)):
            cname = self.name()
            tenv_items.append((cname, ChannelKind(rng.randint(0, 1), Num(rng.randint(1, 4)))))
            w, r = self.name(), self.name()
            venv_items.append((w, ChanType("-", cname, IntType())))
            venv_items.append((r, ChanType("+", cname, IntType())))
            self.chans.extend([w, r])
        if rng.random() < 0.5:
            aname = self.name()
            tenv_items.append((aname, ChannelArrayKind(0, Num(2), SVar(sname))))
            aw = self.name()
            venv_items.append((aw, ChanArrayType("-", aname, IntType(), SVar(sname))))
            self.arrays.append(aw)
        szv = self.name()
        venv_items.append((szv, SizeType(SVar(sname))))
        self.size_vals.append(szv)

        actors = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.1:
                actors.append(Stop())
            elif roll < 0.25:
                actors.append(ActorComp(self.name(), self.name(),
                                        rng.randint(1, 2), Var(szv),
                                        self.expr(2)))
            else:
                actors.append(ActorE(self.expr(3)))
        body = actors[0]
        for a in actors[1:]:
            body = Par(body, a)
        flow = self.proc_flow()
        return Network(Env(tuple(tenv_items)), Env(tuple(venv_items)),
                       flow, body)

    def proc_flow(self):
        from sdflow.syntax import PActor, PArray, PEmpty, PPar
        rng = self.rng
        parts = []
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.3:
                parts.append(PArray("w", Num(1), SVar(self.sizes[0]),
                                    comp(ev("q!"), it("u", 1, 3))))
            else:
                parts.append(PActor(self.actor_flow()))
        out = PEmpty()
        for p in parts:
            out = PPar(out, p) if not isinstance(out, PEmpty) else p
        return out

    def actor_flow(self):
        rng = self.rng
        comps = []
        for _ in range(rng.randint(1, 3)):
            items = []
            if rng.random() < 0.7:
                items.append(it("t", 1, rng.choice((4, self.sizes[0]))))
            if rng.random() < 0.4:
                items.append(Divides(Num(rng.randint(1, 4)), SVar("t")))
            if rng.random() < 0.2:
                items.append(AtMost(SVar("t"), Num(rng.randint(1, 8))))
            kind = rng.choice(("c!", "c?", "d!", "d?"))
            comps.append(comp(ev(kind), *items))
        return seq(*comps)

    def expr(self, depth: int):
        from sdflow.syntax import (
            App, Assign, BinOp, Deref, For, FromIndex, FromSize, If, Lam, Let,
            NewRef, Recv, SeqE, Send, When, EMPTY_FLOW,
        )
        rng = self.rng
        if depth == 0:
            roll = rng.random()
            if roll < 0.4:
                return IntLit(rng.randint(0, 9))
            if roll < 0.5:
                return BoolLit(rng.random() < 0.5)
            if roll < 0.7 and self.chans:
                return Recv(rng.choice(self.chans))
            return MkSize(IntLit(rng.randint(0, 5)))
        roll = rng.randrange(12)
        if roll == 0:
            return Let(self.name(), self.expr(depth - 1), self.expr(depth - 1))
        if roll == 1:
            return SeqE(self.expr(depth - 1), self.expr(depth - 1))
        if roll == 2:
            return If(self.expr(depth - 1), self.expr(depth - 1),
                      self.expr(depth - 1))
        if roll == 3:
            # guard operands are size/index-shaped; a bare integer literal
            # in guard position always denotes a size constant
            rhs = MkIndex(IntLit(rng.randint(1, 9)))
            return When(MkSize(IntLit(rng.randint(1, 4))), "|",
                        rhs, self.expr(depth - 1))
        if roll == 4:
            return For(self.name(), self.name(), rng.randint(1, 2),
                       Var(rng.choice(self.size_vals)), self.expr(depth - 1))
        if roll == 5 and self.chans:
            return Send(rng.choice(self.chans), None, self.expr(depth - 1))
        if roll == 6 and self.arrays:
            return Send(rng.choice(self.arrays), MkIndex(IntLit(1)),
                        self.expr(depth - 1))
        if roll == 7:
            return BinOp(rng.choice(("+", "-", "*", "/", "==", "<=", "<")),
                         self.expr(depth - 1), self.expr(depth - 1))
        if roll == 8:
            return Assign(NewRef(self.expr(depth - 1)), self.expr(depth - 1))
        if roll == 9:
            return Deref(NewRef(self.expr(depth - 1)))
        if roll == 10:
            p = self.name()
            lam = Lam(((p, IntType()),), EMPTY_FLOW, EMPTY_FLOW,
                      self.expr(depth - 1))
            return App(lam, (self.expr(depth - 1),))
        if roll == 11:
            inner = rng.choice((FromSize, FromIndex))
            return inner(self.expr(depth - 1))
        return IntLit(rng.randint(0, 9))


@pytest.fixture
def rng():
    return random.Random(1234)
