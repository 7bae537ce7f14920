"""The per-label owner facts of `exploration._persistent` against the
set-based clash test they replaced.

`_Search.first` records, for each label, the actors whose initial
expression holds one of the label's two clash sites, and `_persistent`
asks that fact while no procedure has been on the heap.  `set_based` below
is the test it replaced, kept here as the reference: at each enabled
communication it builds the label's two sites and asks the owner index,
site -> the actors whose initial expression holds it, site by site; then
each state's index of live actors.  At every state `explore` visits, on
every corpus program at sizes 1-4, on the hand-written networks of the
oracle, on `RACE` and on the networks that put a procedure on the heap or
run in a cycle, both must choose the same steps.
"""

import pytest
from test_explore import DIFFERENTIAL, RACE, _cases, _explored

from sdflow import exploration

_NO_SITES = frozenset()


def set_based(state, search, owners: dict) -> list:
    """The actors whose steps `explore` expanded at `state` before the
    owner facts were kept per label: one actor, or every enabled one."""
    outcomes, holders = state.outcomes, state.holders
    for i in state.enabled:
        out = outcomes[i]
        if out.key is None:
            return [i]
        label = out.label
        if label is None:  # it reads or writes a heap cell
            continue
        clash = {(label.chan, label.is_send, label.index),
                 (label.chan, label.is_send, None)}
        if not search.lams and all(owners.get(site, _NO_SITES) <= {i}
                                   for site in clash):
            return [i]
        if state.stale:
            search.reindex(state)
        if all(holders.get(site, _NO_SITES) <= {i} for site in clash) \
                and all(clash.isdisjoint(s) for s in state.stored):
            return [i]
    return list(state.enabled)


def compare_choices(monkeypatch) -> list:
    """Make every later `explore` check `_persistent` against `set_based`
    at each state it chooses at; the list counts those states."""
    owners, chosen = {}, []
    first, persistent = exploration._Search.first, exploration._persistent

    def recorded(search, cfg):
        # the owner index is the first state's index of live actors
        state = first(search, cfg)
        owners[search] = {site: frozenset(held)
                          for site, held in state.holders.items()}
        return state

    def checked(state, search):
        want = set_based(state, search, owners[search])
        got = persistent(state, search)
        assert (list(state.enabled) if got is None else [got]) == want
        chosen.append(got)
        return got

    monkeypatch.setattr(exploration._Search, "first", recorded)
    monkeypatch.setattr(exploration, "_persistent", checked)
    return chosen


@pytest.mark.parametrize(
    "source, sizes", [d[1:] for d in DIFFERENTIAL] + [(RACE, {})],
    ids=[d[0] for d in DIFFERENTIAL] + ["race"])
def test_owner_facts_choose_as_the_set_based_clash_test(source, sizes,
                                                         monkeypatch):
    net, cases = _cases(source, sizes)
    unchecked = [_explored(net, s) for s in cases]
    chosen = compare_choices(monkeypatch)
    assert [_explored(net, s) for s in cases] == unchecked
    # a search with more than one state chose at its first
    assert chosen or all(found[0] == 1 for found in unchecked)
