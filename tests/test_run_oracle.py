"""`runtime.run` against the step machine it replaced.

`polling_run` polls every actor on every step, commits into a fresh copy
of the configuration and snapshots every buffer's fill after each step.
The wake-on-buffer machine in `sdflow.runtime` must give the same status,
step count, blocked reasons (in order), communication counts, final
configuration and observer calls on every network, scheduler, seed and
dropped send, and the fills `sdflow run --format json` rebuilds from its
entries must equal the snapshots at every step.  `polling_run` drops a
send's item by counting sends itself; `run` loses it to `dropped_push`.
"""

import json
import random
from collections import Counter
from functools import partial

import pytest
from conftest import corpus_files, dropped_push, sizes_for, state_key
from hypothesis import given, settings, strategies as st
from test_runtime import (
    RACY_REF, REF_OVER_CHANNEL, STUCK_BESIDE_BLOCKED, TWO_WRITERS,
)

from sdflow import conformance
from sdflow.parser import parse_program_or_raise
from sdflow.runtime import (
    Actor, Blocked, InstantiationError, RunResult, Stepped, Stuck,
    TraceStep, instantiate, run, step_expr,
)
from sdflow.simulate import trace_json


# --- the replaced implementation --------------------------------------------

def polling_run(cfg, scheduler="roundRobin", seed=0, max_steps=500_000,
                observer=None, drop_send=None, snapshots=None):
    """`run` as it was: every actor polled on every step.  The item of the
    `drop_send`-th send (1-based), if given, is not pushed.  `snapshots`, if
    given, gets `cfg.heap.buffer_sizes()` after every step."""
    cfg = cfg.copy()
    steps = 0
    counts = Counter()
    rng = random.Random(seed)
    rr = 0
    sends_seen = 0
    while not cfg.done():
        if steps == max_steps:
            return RunResult("error", steps, cfg,
                             {"*": f"exceeded {max_steps} steps"}, counts)
        candidates = []
        blocked = {}
        for i, actor in enumerate(cfg.actors):
            out = None if actor.done else \
                step_expr(actor.expr, cfg.heap, actor.name, cfg.venv)
            if isinstance(out, Stepped):
                candidates.append((i, out))
            elif isinstance(out, (Blocked, Stuck)):
                blocked[actor.name] = out.reason
        if not candidates:
            return RunResult("deadlock", steps, cfg, blocked, counts)
        if scheduler == "roundRobin":
            chosen = next((c for c in candidates if c[0] >= rr),
                          candidates[0])
            rr = (chosen[0] + 1) % len(cfg.actors)
        elif scheduler == "random":
            chosen = candidates[rng.randrange(len(candidates))]
        else:
            raise ValueError(f"unknown scheduler {scheduler}")
        i, out = chosen
        drop = False
        if out.label is not None and out.label.is_send:
            sends_seen += 1
            drop = sends_seen == drop_send
        before = cfg
        cfg = cfg.copy()
        cfg.actors[i] = Actor(before.actors[i].name, out.expr)
        if out.effect is not None and not drop:
            out.effect(cfg.heap)
        fill = None
        if out.label is not None:
            key = (out.label.chan, "send" if out.label.is_send else "recv")
            counts[key] += 1
            fill = len(cfg.heap.bufs[out.label.chan, out.label.index])
        if snapshots is not None:
            snapshots.append(cfg.heap.buffer_sizes())
        if observer is not None:
            observer(TraceStep(steps, before.actors[i].name, out.label, fill),
                     cfg)
        steps += 1
    return RunResult("done", steps, cfg, comm_counts=counts)


# --- comparison -------------------------------------------------------------

def _label_json(label):
    if label is None:
        return {"kind": "internal"}
    out = {"kind": "send" if label.is_send else "recv", "channel": label.chan}
    if label.index is not None:
        out["index"] = label.index
    return out


def _outcome(runner, net, sizes, **kwargs):
    """What a run gives and what its observer sees.  `trace` is each step's
    JSON entry: for `run` rebuilt from its entries by the code `sdflow run
    --format json` writes with, and for `polling_run` made from its entries
    and its own snapshots of every buffer's fill."""
    cfg = instantiate(net, sizes)
    entries, seen, snapshots = [], [], []

    def observer(entry, after):
        entries.append(entry)
        seen.append((entry.step, entry.actor, entry.label, entry.fill,
                     state_key(after)))
    if runner is polling_run:
        kwargs = dict(kwargs, snapshots=snapshots)
    result = runner(cfg, observer=observer, **kwargs)
    if runner is polling_run:
        trace = [{"step": e.step, "actor": e.actor,
                  "label": _label_json(e.label), "bufferSizes": fills}
                 for e, fills in zip(entries, snapshots, strict=True)]
    else:
        trace = [json.loads(line)
                 for line in trace_json(cfg.heap.buffer_sizes(), entries)]
    return {"status": result.status,
            "steps": (result.steps, len(entries)),
            "trace": trace,
            "blocked": list(result.blocked.items()),
            "counts": sorted(result.comm_counts.items()),
            "actors": [(a.name, a.expr) for a in result.config.actors],
            "heap": (result.config.heap.locs, result.config.heap.bufs,
                     result.config.heap.next_slot),
            "observed": seen}


def assert_same_run(net, sizes, drop=None, **kwargs):
    with dropped_push(drop):
        got = _outcome(run, net, sizes, **kwargs)
    assert got == _outcome(polling_run, net, sizes, drop_send=drop, **kwargs)


SCHEDULES = ([{"scheduler": "roundRobin"}]
             + [{"scheduler": "random", "seed": s} for s in range(6)]
             + [{"drop": n} for n in (1, 2, 3)])

HAND_WRITTEN = {"two_writers": (TWO_WRITERS, {}),
                "racy_ref": (RACY_REF, {}),
                "ref_over_channel": (REF_OVER_CHANNEL, {}),
                "stuck_beside_blocked": (STUCK_BESIDE_BLOCKED,
                                         {"s": 2, "k": 3})}

CORPUS_NETS = [(f"{kind}/{p.name}", parse_program_or_raise(p.read_text()))
               for kind in ("good", "rejected") for p in corpus_files(kind)]


@pytest.mark.parametrize("name, net", CORPUS_NETS,
                         ids=[name for name, _ in CORPUS_NETS])
def test_run_matches_polling_run_on_corpus(name, net):
    for v in (1, 2, 3, 5):
        sizes = sizes_for(net, v)
        try:
            instantiate(net, sizes)
        except InstantiationError:
            continue
        for kwargs in SCHEDULES:
            assert_same_run(net, sizes, **kwargs)


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_run_matches_polling_run_on_hand_written_networks(name):
    source, sizes = HAND_WRITTEN[name]
    net = parse_program_or_raise(source)
    for kwargs in SCHEDULES + [{"max_steps": k} for k in (0, 1, 5, 19, 20)]:
        assert_same_run(net, sizes, **kwargs)


def test_preservation_report_matches_polling_run(monkeypatch):
    def report(net, kwargs, drop):
        with dropped_push(drop):
            return conformance.check_preservation(net, sizes_for(net, 3),
                                                  **kwargs).to_json()
    for kwargs, drop in (({"scheduler": "random", "seed": 4}, None),
                         ({}, 2)):
        got = [report(net, kwargs, drop) for _, net in CORPUS_NETS]
        monkeypatch.setattr(conformance, "run",
                            partial(polling_run, drop_send=drop))
        assert got == [report(net, kwargs, None) for _, net in CORPUS_NETS]
        monkeypatch.undo()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CORPUS_NETS), st.integers(1, 6),
       st.sampled_from(["roundRobin", "random"]), st.integers(0, 2**31),
       st.one_of(st.none(), st.integers(1, 6)),
       st.one_of(st.just(500_000), st.integers(0, 60)))
def test_run_matches_polling_run_on_random_sizes_and_seeds(
        named, v, scheduler, seed, drop, max_steps):
    _, net = named
    sizes = sizes_for(net, v)
    try:
        instantiate(net, sizes)
    except InstantiationError:
        return
    assert_same_run(net, sizes, scheduler=scheduler, seed=seed,
                    max_steps=max_steps, drop=drop)
