"""The machinery of `runtime.explore`: its loop, a state of the search,
what the states share, and the persistent-set choice.

`explore` imports this module when first called, so a process that only
runs networks does not compile it.  A state is a `runtime.Machine`, which
polls, commits and wakes as it does for `run`; it calls `commit` and
`_actor_outcome` as `runtime` globals, so whatever replaces them there,
such as perfbench's tracer, sees every call.  The key of a polled step,
what it touches, decides both whom the step wakes and whether it is
expanded on its own.  A communication is expanded on its own when no
other actor can use its buffer's side.  While no procedure has been on
the heap, an actor's sites only shrink, so that is decided once per label
at the search's set-up: `_Search.first` records, for each label, the
actors whose initial expression holds one of its two clash sites, and a
step passes when they are at most its own actor.  After that, the search
asks each state's index of live actors.

A search is acyclic when no actor's initial expression holds an
application (`App`).  Then no state can recur on a path: a communication
raises a count of the visited key, which no step lowers, and an actor's
remaining work only shrinks, since `for` loops are bounded and every other
internal step consumes its redex and builds none outside a procedure body,
which only a beta-reduction enters; no step builds an application.  So
until an acyclic search first branches, its visited set could never hit,
and it keeps no key: a state in this chain mode holds only its
communication counts, and nothing is interned.  `explore` walks such a
chain in its inner loop, so a state there costs one `Machine.step` and the
persistent choice: the count a label raises sits at a code slot found once
per label, and only a procedure sent or received reaches `_Search._store`.
At the first state with two or more successors the search interns that
state in full (`_Search.rekey`) and keys every later state.  This is
state-space caching (Godefroid, Holzmann & Pirottin, CAV 1992) and
VeriSoft's stateless search (Godefroid, POPL 1997) on the one prefix where
storing nothing loses nothing.
"""

from __future__ import annotations

from itertools import chain, count, product
from operator import attrgetter, itemgetter

from .runtime import (
    STUCK_LIMIT, Configuration, ExploreResult, Heap, Machine, _UNBOUND,
    _as_int, _signature, is_value,
)
from .syntax import (
    App, Assign, BinOp, Deref, Expr, For, FromIndex, FromSize, If, Lam, Let,
    MkIndex, MkSize, NewRef, Recv, Send, SeqE, When,
)


def explore(cfg: Configuration, max_states: int) -> ExploreResult:
    """`runtime.explore`: a depth-first search of the reduced state space.

    A stack entry is a state and the step that leads from it to the state
    to visit, so a state is copied for each successor but the last, which
    is committed into in place; and the inner loop follows a state's one
    persistent successor without touching the stack."""
    search = _Search(cfg)
    state = search.first(cfg.copy())
    keyed = not search.acyclic
    if keyed:
        search.rekey(state)
    visited: dict = {}  # key -> its depth on the path it was met on
    path: list = []     # the keys on the current path, by depth
    terminals: set = set()
    stuck: list = []
    truncated = cycle = False
    states = 0
    stack = [(state, 0, None)]
    while stack:
        state, depth, i = stack.pop()
        outcomes, enabled = state.outcomes, state.enabled
        bufs, stale = state.cfg.heap.bufs, state.stale
        code, slot = state.code, search.slot
        while True:
            if i is not None:  # take actor i's polled step
                out = outcomes[i]
                label = out.label
                if label is None:
                    state.step(i, out)
                    if out.change is not None:
                        state.stored = search.stored(state.cfg.heap)
                else:
                    code[slot[id(label)]] += 1
                    moved = out.payload if label.is_send else bufs[out.key][0]
                    state.step(i, out)
                    if moved.__class__ is Lam:
                        search._store(state, moved, 1 if label.is_send else -1)
                stale.add(i)
                if keyed:
                    search.renew(state, i, out)
            if keyed:
                key = tuple(state.blocks)
                del path[depth:]
                met = visited.get(key)
                if met is not None:
                    cycle = cycle or (met < depth and path[met] == key)
                    break
            if states == max_states:
                truncated = True
                stack.clear()
                break
            states += 1
            if keyed:
                visited[key] = depth
                path.append(key)
            if not enabled:
                if not any(outcomes):  # every actor's poll found a value
                    terminals.add(_signature(state.cfg, search.counts(state)))
                elif len(stuck) < STUCK_LIMIT:
                    stuck.append(state.cfg)
                break
            i = _persistent(state, search)
            if i is None:
                i = enabled[-1]
                if len(enabled) > 1:
                    if not keyed:
                        # the search branches: key this state and every
                        # later one
                        search.rekey(state)
                        keyed, depth, key = True, 0, tuple(state.blocks)
                        visited[key] = depth
                        path.append(key)
                    # the copies are taken before the last successor
                    # commits in place
                    stack += [(state.copy(), depth + 1, j)
                              for j in enabled[:-1]]
            depth += 1
    return ExploreResult(bool(terminals),
                         not (stuck or truncated or cycle),
                         states, terminals, stuck, truncated, cycle)


# class -> its subexpressions, of a node `_comm_sites` looks into; `Send`,
# `Recv` and `App` are walked on their own, and a value has none
_KIDS = {
    MkSize: attrgetter("arg"), FromSize: attrgetter("arg"),
    MkIndex: attrgetter("arg"), FromIndex: attrgetter("arg"),
    NewRef: attrgetter("init"), Deref: attrgetter("target"),
    Lam: attrgetter("body"), SeqE: attrgetter("first", "second"),
    Let: attrgetter("bound", "body"), For: attrgetter("bound", "body"),
    Assign: attrgetter("target", "value"), BinOp: attrgetter("lhs", "rhs"),
    If: attrgetter("cond", "then", "els"), When: attrgetter("lhs", "rhs",
                                                           "body"),
}


def _comm_sites(e: Expr, chans: dict) -> frozenset:
    """`(channel, is_send, index)` of every send and receive in `e`,
    procedure bodies included, and the class `App` when `e` holds an
    application.  `chans` is the heap's (`Heap.chans`).  The index is None
    for a plain channel and for an index that is not yet a literal: such a
    site may use any buffer of its channel."""
    sites = set()
    stack = [e]
    while stack:
        e = stack.pop()
        cls = e.__class__
        if cls is Send or cls is Recv:
            key, chan = chans.get(e.chan, _UNBOUND)
            if chan is not None:
                sites.add((chan, cls is Send,
                           None if key is not None else _as_int(e.index)))
            if e.index is not None:
                stack.append(e.index)
            if cls is Send:
                stack.append(e.payload)
        elif cls is App:
            sites.add(App)
            stack.append(e.fn)
            stack += e.args
        elif cls in _KIDS:
            # a getter of one name gives the node, of several a tuple
            kids = _KIDS[cls](e)
            if kids.__class__ is tuple:
                stack += kids
            else:
                stack.append(kids)
    return frozenset(sites)


def _persistent(state: _State, search: _Search):
    """The actor whose enabled step `explore` expands alone at `state`: one
    whose step commutes with every step other actors can take before it,
    the first in actor order; None when there is none, and every enabled
    step is expanded.

    Such a step is one without a key, an internal step that touches no
    heap cell, or a send (receive) on a buffer that no other actor's
    remaining expression and no procedure stored in a buffer or a cell can
    send to (receive from).  With one writer and one reader per buffer,
    other actors can only make it more enabled, and a push and a pop of
    one FIFO commute, so the singleton is a persistent set and every
    deadlock and terminal is still reached (Godefroid, LNCS 1032, Thm 4.3).

    The clash test first asks `search.owned`, the actors whose initial
    expression holds one of the label's two clash sites.  While no
    procedure has been on the heap (`_Search.lams`), an actor's sites only
    shrink, or gain an index for a site that had none, so a step whose
    label no other actor owned passes the exact test below, which is then
    skipped.  That test is two lookups in the state's index of live actors
    by site, not a scan of the other actors."""
    outcomes = state.outcomes
    for i in state.enabled:
        out = outcomes[i]
        if out.key is None:
            return i
        label = out.label
        if label is None:  # it reads or writes a heap cell
            continue
        if not search.lams and search.owned[id(label)] <= {i}:
            return i
        if state.stale:
            search.reindex(state)
        holders = state.holders
        clash = {(label.chan, label.is_send, label.index),
                 (label.chan, label.is_send, None)}
        if all(holders.get(site, _NO_SITES) <= {i} for site in clash) \
                and all(clash.isdisjoint(s) for s in state.stored):
            return i
    return None


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

    - `code`, the state as small integers: each actor's term (plugged
      from its focus and continuation), each buffer's contents and the
      cells, interned (`_Search.intern`), then
      each (channel, "send" | "recv") count.  `blocks` interns each run of
      `_BLOCK` entries; their tuple is the visited key, so a step renews
      only the entries it changed and their blocks.  In chain mode (see
      the module docstring) `blocks` is None and only the counts are kept;
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
_LINKS = {SeqE: attrgetter("first", "second"), Let: attrgetter("bound", "body"),
          For: attrgetter("bound", "body")}


class _Search:
    """What the states of one `explore` share: the sites of each expression
    seen, the interned values and blocks, where each buffer, count and the
    cells sit in a state's code, `slot`, the id of each label -> where the
    count it raises sits, `owned`, the id of each label -> the actors whose
    initial expression holds one of its clash sites, `acyclic`, whether no
    actor's initial expression holds an application, and `lams`, whether a
    procedure has been on the heap in any state so far."""

    def __init__(self, cfg: Configuration):
        heap = cfg.heap
        self.chans = heap.chans
        self.seen: dict = {}      # id(e) -> (e, its sites); e keeps its id
        self.interned: dict = {}  # value or block of a code -> its code
        n = len(cfg.actors)
        self.buffer_at = dict(zip(heap.bufs, count(n)))
        self.counts_from = base = n + len(self.buffer_at)
        self.count_at = dict(zip(product(heap.caps, ("send", "recv")),
                                 count(base)))
        self.cells_at = base + len(self.count_at)
        self.slot: dict = {}
        for (chan, _), (send, recv) in heap.labels.items():
            self.slot[id(send)] = self.count_at[chan, "send"]
            self.slot[id(recv)] = self.count_at[chan, "recv"]
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
        hit = seen.get(id(e)) or (e, _comm_sites(e, self.chans))
        seen[id(e)] = hit
        for node in reversed(links):
            head = _LINKS[node.__class__](node)[0]
            hit = seen[id(node)] = (node, hit[1] | self.sites(head))
        return hit[1]

    def stored(self, heap: Heap) -> dict:
        """The sites of each procedure held in a buffer or a cell, and how
        many procedures have them."""
        stored: dict = {}
        for v in chain(heap.locs.values(), *heap.bufs.values()):
            if v.__class__ is Lam:
                sites = self.sites(v)
                stored[sites] = stored.get(sites, 0) + 1
        self.lams = self.lams or bool(stored)
        return stored

    def first(self, cfg: Configuration) -> _State:
        """The search's initial state, in chain mode, and the facts its
        initial expressions decide: `owned` and `acyclic`."""
        state = _State(cfg)
        state.code, state.blocks = [0] * (self.cells_at + 1), None
        state.stale = set()
        state.indexed, holders = [], {}
        for i, (actor, out) in enumerate(zip(cfg.actors, state.outcomes)):
            # only a finished actor polls None
            sites = _NO_SITES if out is None else \
                _comm_sites(actor.expr, self.chans)
            state.indexed.append(sites)
            for site in sites:
                holders.setdefault(site, set()).add(i)
        state.holders = holders
        self.acyclic = App not in holders
        self.owned: dict = {}
        for (chan, index), labels in cfg.heap.labels.items():
            for label in labels:
                is_send = label.is_send
                self.owned[id(label)] = frozenset(
                    holders.get((chan, is_send, index), _NO_SITES)).union(
                    holders.get((chan, is_send, None), _NO_SITES))
        state.stored = self.stored(cfg.heap)
        return state

    def rekey(self, state: _State) -> None:
        """Intern `state`'s code in full: the search keys it, and every
        state after it."""
        intern, heap = self.intern, state.cfg.heap
        code = state.code
        code[:self.counts_from] = (
            [intern(a.expr) for a in state.cfg.actors]
            + [intern(buf) for buf in heap.bufs.values()])
        code[self.cells_at] = intern(_cells(heap))
        state.blocks = [intern(tuple(code[at:at + _BLOCK]))
                        for at in range(0, len(code), _BLOCK)]

    def counts(self, state: _State) -> tuple:
        """The state's nonzero counts, sorted, as `_signature` takes them."""
        counts = zip(self.count_at, state.code[self.counts_from:])
        return tuple(sorted(filter(itemgetter(1), counts)))

    def renew(self, state: _State, i: int, out) -> None:
        """Intern again the code entries actor i's step `out` changed,
        once it is taken, and their blocks."""
        heap, label, code = state.cfg.heap, out.label, state.code
        interned = self.interned  # `intern`, without a call per entry
        code[i] = interned.setdefault(out.expr, len(interned))
        changed = {i // _BLOCK}
        if label is not None:
            at = self.buffer_at[out.key]
            code[at] = interned.setdefault(heap.bufs[out.key], len(interned))
            changed.add(at // _BLOCK)
            changed.add(self.slot[id(label)] // _BLOCK)
        elif out.change is not None:
            code[self.cells_at] = interned.setdefault(_cells(heap),
                                                      len(interned))
            changed.add(self.cells_at // _BLOCK)
        for block in changed:
            start = block * _BLOCK
            state.blocks[block] = interned.setdefault(
                tuple(code[start:start + _BLOCK]), len(interned))

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

    def _store(self, state: _State, value: Lam, change: int) -> None:
        """Count a procedure into (1) or out of (-1) the heap's."""
        self.lams = True
        sites, stored = self.sites(value), state.stored
        stored[sites] = stored.get(sites, 0) + change
        if not stored[sites]:
            del stored[sites]
