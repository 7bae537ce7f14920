import sys
from collections import Counter

import pytest

from conftest import comp, corpus_files, ev, it, load, seq, sizes_for, tenv
from test_runtime import array_config

from sdflow import conformance
from sdflow.conformance import (
    check_preservation, check_progress_theorem, comp_occurrence_count,
    heap_flow_counts, heap_flowstate, step_flowstate, step_flowstate_internal,
)
from sdflow.parser import parse_program_or_raise
from sdflow.printer import print_guard, print_proc_flow
from sdflow.runtime import Fault, Label, instantiate, run, step_expr
from sdflow.syntax import (
    BoolLit, ChannelKind, Comp, Divides, IntLit, Iterator, MkIndex, Num, SVar,
    PActor, Recv, Send, SizeKind, Env, INF, flow_comps, subst_comp,
)
from sdflow.typecheck import check_network

ENV = tenv(c=ChannelKind(0, Num(4)), d=ChannelKind(1, Num(2)))


def _net(name, kind="good"):
    return parse_program_or_raise(load(kind, name))


# --- heap typing ----------------------------------------------------------------

def test_empty_undelayed_buffer_types_empty():
    net = _net("pipeline2.sdf")
    cfg = instantiate(net, {"n": 2})
    assert heap_flow_counts(net.tenv, cfg.heap) == Counter()


def test_buffered_items_record_pending_sends():
    net = _net("pipeline2.sdf")
    cfg = instantiate(net, {"n": 2})
    cfg.heap.bufs[("c", None)] = (IntLit(7), IntLit(9))
    assert heap_flow_counts(net.tenv, cfg.heap) == Counter({("c", True): 2})


def test_delay_channel_prefill_types_empty_then_tracks_reads():
    net = _net("delayed_pipeline.sdf")
    cfg = instantiate(net, {})
    assert heap_flow_counts(net.tenv, cfg.heap) == Counter()
    cfg.heap.pop(("c", None))
    assert heap_flow_counts(net.tenv, cfg.heap) == Counter({("c", False): 1})


def test_heap_flowstate_reports_ill_typed_contents():
    net = _net("pipeline2.sdf")
    cfg = instantiate(net, {"n": 2})
    cfg.heap.bufs[("c", None)] = (BoolLit(True),)
    _, diags = heap_flowstate(net.tenv, net.venv, cfg.heap)
    assert diags and "wrong type" in diags[0].message


def test_delayed_array_counts_freed_slots_per_element():
    net, cfg = array_config()
    assert heap_flow_counts(net.tenv, cfg.heap) == Counter()
    for e in (Recv("dr", MkIndex(IntLit(2))), Send("aw", MkIndex(IntLit(3)),
                                                   IntLit(1))):
        step_expr(e, cfg.heap, "a0", cfg.venv).effect(cfg.heap)
    assert heap_flow_counts(net.tenv, cfg.heap) == Counter(
        {("d", False, 2): 1, ("a", True, 3): 1})


def test_each_ill_typed_array_value_gets_a_diagnostic():
    net, cfg = array_config()
    out = step_expr(Send("aw", MkIndex(IntLit(2)), BoolLit(True)),
                    cfg.heap, "a0", cfg.venv)
    out.effect(cfg.heap)
    out.effect(cfg.heap)
    flow, diags = heap_flowstate(net.tenv, net.venv, cfg.heap)
    assert [(d.rule, d.message) for d in diags] == 2 * [
        ("Heap", "buffer a[2] holds a value of the wrong type")]
    assert print_proc_flow(flow) == "a[2]!<t in 1..2>"


# --- flowstate reduction -----------------------------------------------------------

def test_unroll_then_consume_head():
    c = comp(ev("c!"), it("t", 1, 2))
    out = step_flowstate(ENV, PActor(c), Label("c", True))
    assert out == PActor(comp(ev("c!"), it("t", 2, 2)))


def test_numeric_guard_discharges_silently():
    c = comp(ev("c!"), Divides(Num(2), Num(4)))
    assert step_flowstate_internal(PActor(c).flow) == [comp(ev("c!"))]


def test_false_guard_collapses_to_empty():
    c = comp(ev("c!"), Divides(Num(2), Num(3)))
    assert step_flowstate_internal(PActor(c).flow) == []


def test_reduced_head_carries_its_guard_with_a_numeric_operand():
    # the head of c!<t in 1..4, 2 | t> at t = k is c!<2 | k>
    c = comp(ev("c!"), it("t", 1, 4), Divides(Num(2), SVar("t")))
    head = Comp(c.event, (), c.guards)
    at_3 = subst_comp(head, "t", Num(3))
    assert at_3.guards == (Divides(Num(2), Num(3)),)
    assert print_guard(at_3.guards[0]) == "2 | 3"
    assert step_flowstate_internal(at_3) == []
    assert step_flowstate_internal(subst_comp(head, "t", Num(4))) == \
        [comp(ev("c!"))]


def _left(fs) -> int:
    return sum(comp_occurrence_count(c) for c in flow_comps(fs.flow))


def test_guarded_comprehension_consumes_only_matching_iterations():
    # events fire at t = 2 and t = 4 only
    c = comp(ev("c!"), it("t", 1, 4), Divides(Num(2), SVar("t")))
    assert comp_occurrence_count(c) == 2
    after = step_flowstate(ENV, PActor(c), Label("c", True))
    assert after is not None
    assert _left(after) == 1


def test_consume_respects_sequence_commutativity():
    flows = seq(comp(ev("c?"), it("t", 1, 2)), comp(ev("d!"), it("t", 1, 2)))
    out = step_flowstate(ENV, PActor(flows), Label("d", True))
    assert out is not None
    assert _left(out) == 3


def test_consume_array_label_matches_element():
    flows = PActor(comp(ev("a?", "t"), it("t", 1, 3)))
    out = step_flowstate(ENV, flows, Label("a", False, 1))
    assert out is not None
    assert step_flowstate(ENV, flows, Label("a", False, 2)) is None  # order fixed


def test_step_flowstate_over_process():
    fs = PActor(comp(ev("c!"), it("t", 1, 2)))
    out = step_flowstate(ENV, fs, Label("c", True))
    assert out is not None
    assert step_flowstate(ENV, fs, Label("c", False)) is None


# --- preservation ------------------------------------------------------------------

def test_downsampler_preservation_clean():
    net = _net("downsampler.sdf")
    rep = check_preservation(net, {"s": 8})
    assert rep.ok, [v.to_json() for v in rep.violations]
    assert rep.steps > 0


def test_preservation_across_schedulers():
    net = _net("delayed_cycle.sdf")
    for sched, seed in (("roundRobin", 0), ("random", 3), ("random", 9)):
        rep = check_preservation(net, {"n": 4}, sched, seed)
        assert rep.ok, (sched, seed, [v.to_json() for v in rep.violations])


def test_delay_channel_first_read_is_producer_clause():
    # on a delayed channel the very first runtime step is the reader's, and
    # it verifies clause 1 with a producer receive
    net = _net("delayed_pipeline.sdf")
    rep = check_preservation(net, {})
    assert rep.ok


def test_faulted_runtime_caught_at_exact_step():
    net = _net("downsampler.sdf")
    clean = run(instantiate(net, {"s": 8}))
    sends = [t.step for t in clean.trace if t.label and t.label.is_send]
    target = 3  # drop the third send overall
    rep = check_preservation(net, {"s": 8}, fault=Fault(drop_send=target))
    assert not rep.ok
    first = rep.violations[0]
    assert first.clause == "clause-1"
    assert first.step == sends[target - 1]


def test_preservation_totality_over_corpus():
    for f in corpus_files("good"):
        net = parse_program_or_raise(f.read_text())
        rep = check_preservation(net, sizes_for(net, 2), name=f.name)
        assert rep.ok, (f.name, [v.to_json() for v in rep.violations])


# --- progress theorem ----------------------------------------------------------------

def test_progress_theorem_accepted_network():
    net = _net("downsampler.sdf")
    rep = check_progress_theorem(net, {"s": 4})
    assert rep.ok and rep.states > 0


def test_progress_theorem_finds_stuck_states_when_rejected():
    net = _net("undelayed_cycle.sdf", kind="rejected")
    rep = check_progress_theorem(net, {"n": 2})
    assert not rep.ok and rep.stuck


def test_trivial_stop_network_immediately_done():
    net = parse_program_or_raise("flow eps;\nnetwork { stop }")
    rep = check_progress_theorem(net, {})
    assert rep.ok
    pres = check_preservation(net, {})
    assert pres.ok and pres.steps == 0


CAPACITY_CYCLE = """
chan c0 : Channel(0, 1);
chan c1 : Channel(1, 3);
val w0 : Chan(-, c0, Integer);
val r0 : Chan(+, c0, Integer);
val w1 : Chan(-, c1, Integer);
val r1 : Chan(+, c1, Integer);
flow c0!<t in 1..2> ; c1?<u in 1..3> || c1!<t in 1..3> ; c0?<u in 1..2>;
network {
  actor {
    for (t, x in 1..size(2)) send w0 1;
    for (u, y in 1..size(3)) recv r1
  }
  ||
  actor {
    for (t, x in 1..size(3)) send w1 1;
    for (u, y in 1..size(2)) recv r0
  }
}
"""


def test_capacity_blind_acceptance_is_caught_dynamically():
    # The schedulability relation does not model buffer capacity, so a
    # network whose burst exceeds a buffer limit inside an ordering cycle is
    # statically accepted (the paper-style examples always declare capacity
    # >= rate).  The theorem checkers exist for exactly this boundary: both
    # report the instance.
    from sdflow.typecheck import check_network
    net = parse_program_or_raise(CAPACITY_CYCLE)
    assert check_network(net).ok
    prog = check_progress_theorem(net, {})
    assert not prog.ok and prog.stuck
    pres = check_preservation(net, {})
    assert any(v.clause == "run" for v in pres.violations)


def test_stuck_states_say_what_each_actor_waits_for():
    net = parse_program_or_raise(CAPACITY_CYCLE)
    prog = check_progress_theorem(net, {})
    assert [s["actors"] for s in prog.stuck] == [
        {"a0": "buffer c0 is full", "a1": "buffer c1 is full"}]
    undelayed = _net("undelayed_cycle.sdf", kind="rejected")
    for s in check_progress_theorem(undelayed, {"n": 2}).stuck:
        assert all(r == "done" or r.startswith("buffer ")
                   for r in s["actors"].values()), s


# --- cost and depth ------------------------------------------------------------------

def long_source(k: int, looped: bool) -> str:
    """An actor of k sends on c, in one line followed by a loop of sends on
    e, or all inside one loop; the loops run `s` times."""
    sends = "; ".join(["send cw 1"] * k)
    if looped:
        body, total, tail = f"for (t, x in 1..ss) {{ {sends} }}", f"s*{k}", ""
    else:
        body, total = f"{sends}; for (t, x in 1..ss) send ew 1", str(k)
        tail = ("chan e : Channel(0, 2);\nval ew : Chan(-, e, Integer);\n"
                "val er : Chan(+, e, Integer);\n")
    return (f"size s : Size(inf);\nchan c : Channel(0, 2);\n{tail}"
            f"val ss : Size(s);\nval kk : Size({total});\n"
            "val cw : Chan(-, c, Integer);\nval cr : Chan(+, c, Integer);\n"
            f"flow c!<t in 1..{total}>{'' if looped else ' ; e!<t in 1..s>'}"
            f" || c?<t in 1..{total}>{'' if looped else ' || e?<t in 1..s>'};\n"
            f"network {{ actor {{ {body} }}\n"
            "  || actor { for (t, x in 1..kk) recv cr }"
            f"{'' if looped else ' || actor { for (t, x in 1..ss) recv er }'}"
            " }\n")


@pytest.mark.parametrize("looped", [False, True])
def test_long_actor_flows_conform_under_the_default_recursion_limit(looped):
    # the actor's flowstate is a 5000-part FSeq: grounded by
    # `subst_flow` here, distributed over the loop by the checker
    assert sys.getrecursionlimit() <= 1000
    net = parse_program_or_raise(long_source(5000, looped))
    assert check_network(net).ok
    rep = check_preservation(net, {"s": 3})
    assert rep.ok, rep.violations[:3]


COST_CELLS = {
    "pipeline3": (lambda n: _net("pipeline3.sdf"), lambda n: {"n": n}, 64),
    "worker_array_pipeline": (lambda s: _net("worker_array_pipeline.sdf"),
                              lambda s: {"s": s}, 8),
    "long_actor": (lambda k: parse_program_or_raise(
        long_source(k, looped=False)), lambda k: {"s": 1}, 500),
}


@pytest.mark.parametrize("cell", sorted(COST_CELLS))
def test_observer_work_grows_with_communications_only(cell, monkeypatch):
    # buffers recounted and pieces visited, at two axis values 4x apart
    calls = Counter()
    for name in ("_buffer_count", "_consume"):
        def counted(*args, name=name, original=getattr(conformance, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(conformance, name, counted)
    network, sizes, small = COST_CELLS[cell]
    totals = []
    for axis in (small, 4 * small):
        calls.clear()
        assert check_preservation(network(axis), sizes(axis)).ok
        totals.append(dict(calls))
    for name in ("_buffer_count", "_consume"):
        assert totals[1][name] <= 4.2 * totals[0][name], totals
