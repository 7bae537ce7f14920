"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time (run with `pytest tests/test_acceptance.py -s` to see them).
"""

import random
import time
from collections import Counter

from conftest import (
    ProgramGen, comp, corpus_files, dropped_push, ev, gen_size_expr, it, load,
    seq, sizes_for, tenv, traced_run,
)

from sdflow.conformance import check_preservation, check_progress_theorem
from sdflow.flowstate import RangeIndex, fold_guards_comp, rate_summary
from sdflow.kinding import eval_size, normalize_size
from sdflow.parser import parse_program, parse_program_or_raise
from sdflow.printer import print_program
from sdflow.runtime import explore, instantiate, run
from sdflow.syntax import (
    ActorE, AtMost, ChannelKind, Div, Divides, Network, Num, SVar,
    SizeArithmeticError, SizeKind, Env, proc_components,
)
from sdflow.typecheck import check_network, infer_expr

PASS = "PASS criterion {n}: {what} ({dt:.2f}s < {limit}s)"


def _stamp(n, what, t0, limit):
    dt = time.time() - t0
    assert dt < limit, f"criterion {n} exceeded its {limit}s budget ({dt:.1f}s)"
    print(PASS.format(n=n, what=what, dt=dt, limit=limit))


def _good_nets():
    out = []
    for f in corpus_files("good"):
        net = parse_program_or_raise(f.read_text())
        out.append((f.name, net))
    return out


def test_criterion_1_golden_flowstate():
    t0 = time.time()
    net = parse_program_or_raise(load("good", "downsampler.sdf"))
    actor = proc_components(net.body)[1]
    assert isinstance(actor, ActorE)
    result = infer_expr(net.tenv, net.venv, actor.expr)
    assert not result.diagnostics
    summary = rate_summary(net.tenv, result.flow)
    assert summary == {("i", "recv"): SVar("s"),
                       ("o", "send"): Div(SVar("s"), Num(2))}

    net2 = parse_program_or_raise(load("good", "downsampler_array.sdf"))
    actor2 = proc_components(net2.body)[1]
    result2 = infer_expr(net2.tenv, net2.venv, actor2.expr)
    assert not result2.diagnostics
    summary2 = rate_summary(net2.tenv, result2.flow)
    assert summary2 == {("i", "recv", RangeIndex(Num(1), SVar("s"))): Num(1),
                        ("o", "send"): Div(SVar("s"), Num(2))}
    _stamp(1, "downsampler rates are exactly {i?: s, o!: s/2}", t0, 1)


def test_criterion_2_guard_folding_oracle():
    t0 = time.time()
    mismatches = 0
    for d in range(1, 9):
        for n in range(1, 65):
            c = comp(ev("c!"), it("t", 1, n), Divides(Num(d), SVar("t")))
            folded = fold_guards_comp(c)
            got = eval_size(folded.iterators[0].hi, {})
            want = sum(1 for t in range(1, n + 1) if t % d == 0)
            mismatches += got != want
    for b in range(0, 65):
        for n in range(1, 65):
            c = comp(ev("c!"), it("t", 1, n), AtMost(SVar("t"), Num(b)))
            folded = fold_guards_comp(c)
            got = eval_size(folded.iterators[0].hi, {})
            want = sum(1 for t in range(1, n + 1) if t <= b)
            mismatches += got != want
    assert mismatches == 0
    _stamp(2, "guard folding equals brute-force counts (0 mismatches)", t0, 5)


def test_criterion_3_type_preservation_at_desk_scale():
    t0 = time.time()
    nets = _good_nets()
    assert len(nets) >= 20
    schedulers = [("roundRobin", 0)] + [("random", seed) for seed in range(1, 6)]
    for name, net in nets:
        for v in (1, 2, 4, 8):
            sizes = sizes_for(net, v)
            for sched, seed in schedulers:
                rep = check_preservation(net, sizes, sched, seed, name=name)
                assert rep.ok, (name, v, sched, seed,
                                [x.to_json() for x in rep.violations])
    # a faulted runtime (dropping one send) is caught at the exact step
    net = dict(nets)["downsampler.sdf"]
    _, clean = traced_run(instantiate(net, {"s": 8}))
    send_steps = [t.step for t in clean if t.label and t.label.is_send]
    with dropped_push(3):
        rep = check_preservation(net, {"s": 8})
    assert not rep.ok
    assert rep.violations[0].clause == "clause-1"
    assert rep.violations[0].step == send_steps[2]
    _stamp(3, f"preservation clean on {len(nets)} networks x 4 sizes x 6 "
              f"schedulers; fault caught at step {send_steps[2]}", t0, 60)


def test_criterion_4_progress_at_desk_scale():
    t0 = time.time()
    for name, net in _good_nets():
        assert check_network(net).ok, name
        for v in (1, 2, 4, 8):
            ex = explore(instantiate(net, sizes_for(net, v)))
            assert not ex.truncated, (name, v)
            assert ex.any_complete and ex.all_complete, (name, v)
    for f in corpus_files("rejected"):
        net = parse_program_or_raise(f.read_text())
        res = check_network(net)
        assert not res.ok, f.name
        for v in (1, 2, 4):
            ex = explore(instantiate(net, sizes_for(net, v)))
            assert not ex.any_complete, (f.name, v)

    # flipping the delay flag turns rejection into acceptance and
    # deadlock into completion
    net = parse_program_or_raise(load("rejected", "undelayed_cycle.sdf"))
    flipped_items = tuple(
        (n, ChannelKind(1, k.limit))
        if n == "d" and isinstance(k, ChannelKind) else (n, k)
        for n, k in net.tenv.items)
    flipped = Network(Env(flipped_items), net.venv, net.flow, net.body)
    assert check_network(flipped).ok
    ex = explore(instantiate(flipped, {"n": 4}))
    assert ex.any_complete and ex.all_complete
    _stamp(4, "accepted networks complete exhaustively; rejected ones "
              "deadlock; a delay flip converts", t0, 120)


def test_criterion_4_seven_stage_pipeline_explores_within_budget():
    # the full search truncated here at 300 001 states
    from test_netcheck import pipeline_source
    t0 = time.time()
    net = parse_program_or_raise(pipeline_source(7))
    rep = check_progress_theorem(net, {"s": 3})
    assert rep.ok and not rep.truncated, rep.to_json()
    _stamp(4, f"7-stage pipeline at s=3 completes in {rep.states} states",
           t0, 10)


def test_criterion_5_determinism():
    t0 = time.time()
    for name, net in _good_nets():
        for v in (1, 2, 4):
            ex = explore(instantiate(net, sizes_for(net, v)))
            assert ex.all_complete, (name, v)
            assert len(ex.terminals) == 1, (name, v, len(ex.terminals))
    _stamp(5, "all interleavings agree on final cells and channel counts",
           t0, 60)


def test_criterion_6_safety_invariants():
    t0 = time.time()
    # buffer capacity is asserted on every push; run the corpus to exercise it
    for name, net in _good_nets():
        result = run(instantiate(net, sizes_for(net, 4)))
        assert result.status == "done", name
        heap = result.config.heap
        for (chan, _), buf in heap.bufs.items():
            assert len(buf) <= heap.caps[chan]
    rejected = 0
    for f in corpus_files("negative"):
        out = parse_program(f.read_text())
        if isinstance(out, list):
            assert out[0].rule, f.name  # named parse rule
            rejected += 1
            continue
        res = check_network(out)
        assert not res.ok, f.name
        assert all(d.rule for d in res.diagnostics), f.name
        rejected += 1
    assert rejected >= 10
    _stamp(6, f"capacities respected; {rejected} ill-formed programs "
              f"rejected with named rules", t0, 5)


def test_criterion_7_roundtrip_and_normalization():
    t0 = time.time()
    rng = random.Random(2029)
    for _ in range(50):
        net = ProgramGen(random.Random(rng.randrange(1 << 30))).network()
        text = print_program(net)
        reparsed = parse_program(text)
        assert not isinstance(reparsed, list), text
        assert reparsed == net
    checked = 0
    while checked < 200:
        e = gen_size_expr(rng)
        try:
            ne = normalize_size(e)
        except SizeArithmeticError:
            continue
        assert normalize_size(ne) == ne
        for _ in range(100):
            valuation = {v: rng.randint(1, 100) for v in ("s", "m", "k")}
            try:
                before = eval_size(e, valuation)
            except SizeArithmeticError:
                continue
            assert eval_size(ne, valuation) == before, (e, ne, valuation)
        checked += 1
    _stamp(7, "50 program round-trips; 200 normalizations x 100 valuations",
           t0, 10)
