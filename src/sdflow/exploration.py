"""The machinery of `runtime.explore`: a state of the search, what the
states share, and the persistent-set choice.

`explore` imports this module when first called, so a process that only
runs networks does not compile it.  A state is a `runtime.Machine`, which
polls, commits and wakes as it does for `run`; it calls `commit` and
`_actor_outcome` as `runtime` globals, so whatever replaces them there,
such as perfbench's tracer, sees every call.  The key of a polled step,
what it touches, decides both whom the step wakes and whether it is
expanded on its own.  A communication is expanded on its own when no
other actor can use its buffer's side: while no procedure has been on
the heap, the search asks its owner index, each site's actors in the
initial configuration; after that, each state's index of live actors.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from .runtime import Configuration, Heap, Machine, Stepped, _as_int, is_value
from .syntax import (
    App, Assign, BinOp, ChanArrayType, ChanType, Deref, Env, Expr, For,
    FromIndex, FromSize, If, Lam, Let, MkIndex, MkSize, NewRef, Recv, Send,
    SeqE, When,
)


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


def _persistent(state: _State, search: _Search) -> list:
    """The enabled steps `explore` expands at `state`: one step that
    commutes with every step other actors can take before it, else every
    enabled step, in actor order.

    Such a step is one without a key, an internal step that touches no
    heap cell, or a send (receive) on a buffer that no other actor's
    remaining expression and no procedure stored in a buffer or a cell can
    send to (receive from).  With one writer and one reader per buffer,
    other actors can only make it more enabled, and a push and a pop of
    one FIFO commute, so the singleton is a persistent set and every
    deadlock and terminal is still reached (Godefroid, LNCS 1032, Thm 4.3).

    The clash test first asks the search's static owner index, the actors
    whose initial expression holds each site.  While no procedure has been
    on the heap (`_Search.lams`), an actor's sites only shrink, or gain an
    index for a site that had none, so a step whose two clash sites no
    other actor owned passes the exact test below, which is then skipped.
    That test is two lookups in the state's index of live actors by site,
    not a scan of the other actors."""
    outcomes, holders, owners = state.outcomes, state.holders, search.owners
    for i in state.enabled:
        out = outcomes[i]
        if out.key is None:
            return [(i, out)]
        label = out.label
        if label is None:  # it reads or writes a heap cell
            continue
        clash = {(label.chan, label.is_send, label.index),
                 (label.chan, label.is_send, None)}
        if not search.lams and all(owners.get(site, _NO_SITES) <= {i}
                                   for site in clash):
            return [(i, out)]
        if state.stale:
            search.reindex(state)
        if all(holders.get(site, _NO_SITES) <= {i} for site in clash) \
                and all(clash.isdisjoint(s) for s in state.stored):
            return [(i, out)]
    return [(i, outcomes[i]) for i in state.enabled]


_NO_SITES = frozenset()
# entries of a state's code per interned block (see `_State`): a step
# renews one to three blocks, and the visited key holds a code per block
_BLOCK = 32


def _cells(heap: Heap) -> tuple:
    return tuple(sorted(heap.locs.items()))


class _State(Machine):
    """A configuration on `explore`'s stack: a `Machine`, whose outcomes,
    `enabled` and wake rule are `run`'s, and what the search keeps beside
    it so that a step of the search costs a small multiple of `run`'s:

    - `code`, the state as small integers: each actor's expression, each
      buffer's contents and the cells, interned (`_Search.intern`), then
      each (channel, "send" | "recv") count.  `blocks` interns each run of
      `_BLOCK` entries; their tuple is the visited key, so a step renews
      only the entries it changed and their blocks;
    - `holders`, communication site -> the live actors whose expression
      has it (`_comm_sites`), and `stored`, the sites of each procedure on
      the heap: the clash index of `_persistent`.  `indexed` is each
      actor's sites as `holders` has them, and `stale` the actors that
      moved since; `_Search.reindex` takes their sites when a clash test
      needs them."""

    __slots__ = ("code", "blocks", "holders", "indexed", "stale", "stored")

    def copy(self) -> "_State":
        new = super().copy()
        new.code, new.blocks = self.code.copy(), self.blocks.copy()
        new.stored = self.stored.copy()
        new.holders = {site: set(held) for site, held in self.holders.items()}
        new.indexed, new.stale = self.indexed.copy(), self.stale.copy()
        return new


# class -> (head, tail) of a node whose sites are its head's and its tail's
_LINKS = {SeqE: lambda e: (e.first, e.second), Let: lambda e: (e.bound, e.body),
          For: lambda e: (e.bound, e.body)}


class _Search:
    """What the states of one `explore` share: the sites of each expression
    seen, the interned values and blocks, where each buffer, count and the
    cells sit in a state's code, `owners`, site -> the actors whose initial
    expression holds it, and `lams`, whether a procedure has been on the
    heap in any state so far."""

    def __init__(self, cfg: Configuration):
        self.venv = cfg.venv
        self.seen: dict = {}      # id(e) -> (e, its sites); e keeps its id
        self.interned: dict = {}  # value or block of a code -> its code
        n = len(cfg.actors)
        self.buffer_at = {key: n + k for k, key in enumerate(cfg.heap.bufs)}
        counts = [(chan, way) for chan in cfg.heap.caps
                  for way in ("send", "recv")]
        base = n + len(self.buffer_at)
        self.count_at = {count: base + k for k, count in enumerate(counts)}
        self.cells_at = base + len(counts)
        self.lams = False  # has a procedure been on the heap?

    def intern(self, value) -> int:
        """`value`'s code: equal values, and only they, share one.  Its
        hash is taken once here, when an actor or a buffer changes."""
        return self.interned.setdefault(value, len(self.interned))

    def sites(self, e: Expr) -> frozenset:
        """`_comm_sites(e)`, kept for each expression seen."""
        seen = self.seen
        hit = seen.get(id(e))
        if hit is not None:
            return hit[1]
        # a `Let`/`SeqE` chain adds its heads' sites to its tail's, and a
        # loop its bound's to its body's, so each state of a long actor,
        # and each iteration of a loop, costs only its new nodes
        links = []
        while id(e) not in seen and e.__class__ in _LINKS:
            links.append(e)
            e = _LINKS[e.__class__](e)[1]
        hit = seen.get(id(e)) or (e, _comm_sites(e, self.venv))
        seen[id(e)] = hit
        for node in reversed(links):
            head = _LINKS[node.__class__](node)[0]
            hit = seen[id(node)] = (node, hit[1] | self.sites(head))
        return hit[1]

    def stored(self, heap: Heap) -> Counter:
        """The sites of each procedure held in a buffer or a cell."""
        values = chain(heap.locs.values(), *heap.bufs.values())
        stored = Counter(self.sites(v) for v in values if isinstance(v, Lam))
        self.lams = self.lams or bool(stored)
        return stored

    def first(self, cfg: Configuration) -> _State:
        state, heap = _State(cfg), cfg.heap
        state.code = code = ([self.intern(a.expr) for a in cfg.actors]
                             + [self.intern(buf) for buf in heap.bufs.values()]
                             + [0] * len(self.count_at)
                             + [self.intern(_cells(heap))])
        state.blocks = [self.intern(tuple(code[at:at + _BLOCK]))
                        for at in range(0, len(code), _BLOCK)]
        state.holders, state.stale = {}, set()
        state.indexed = [_NO_SITES if a.done else self.sites(a.expr)
                         for a in cfg.actors]
        for i, sites in enumerate(state.indexed):
            for site in sites:
                state.holders.setdefault(site, set()).add(i)
        self.owners = {site: frozenset(held)
                       for site, held in state.holders.items()}
        state.stored = self.stored(heap)
        return state

    def counts(self, state: _State) -> tuple:
        """The state's nonzero counts, sorted, as `_signature` takes them."""
        code = state.code
        return tuple(sorted((count, code[at])
                            for count, at in self.count_at.items() if code[at]))

    def advance(self, state: _State, i: int, out: Stepped) -> None:
        """Step `state` by actor i's polled step and renew the code entries
        it changed."""
        heap, label = state.cfg.heap, out.label
        if label is not None and not label.is_send:
            self._store(state, heap.bufs[out.key][0], -1)
        state.step(i, out)
        code = state.code
        code[i] = self.intern(out.expr)
        changed = [i]
        state.stale.add(i)
        if label is not None:
            buf = heap.bufs[out.key]
            at = self.buffer_at[out.key]
            code[at] = self.intern(buf)
            count = self.count_at[label.chan,
                                  "send" if label.is_send else "recv"]
            code[count] += 1
            changed += (at, count)
            if label.is_send:
                self._store(state, buf[-1], 1)
        elif out.effect is not None:
            code[self.cells_at] = self.intern(_cells(heap))
            changed.append(self.cells_at)
            state.stored = self.stored(heap)
        for block in {at // _BLOCK for at in changed}:
            start = block * _BLOCK
            state.blocks[block] = self.intern(tuple(code[start:start
                                                         + _BLOCK]))

    def reindex(self, state: _State) -> None:
        """Bring `state.holders` up to date with the actors that moved since
        it was last used: their sites are taken only when a clash test
        needs them."""
        holders = state.holders
        for i in state.stale:
            e = state.cfg.actors[i].expr
            before = state.indexed[i]
            after = state.indexed[i] = _NO_SITES if is_value(e) \
                else self.sites(e)
            if before is after:
                continue
            for site in before - after:
                holders[site].discard(i)
                if not holders[site]:
                    del holders[site]
            for site in after - before:
                holders.setdefault(site, set()).add(i)
        state.stale.clear()

    def _store(self, state: _State, value, change: int) -> None:
        """Count a procedure into (1) or out of (-1) the heap's."""
        if isinstance(value, Lam):
            self.lams = True
            sites = self.sites(value)
            state.stored[sites] += change
            if not state.stored[sites]:
                del state.stored[sites]
