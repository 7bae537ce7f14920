from collections import Counter

from conftest import comp, corpus_files, ev, it, load, sizes_for, tenv
from test_runtime import array_config

from sdflow.conformance import (
    _silent_normalize, check_preservation, check_progress_theorem,
    comp_occurrence_count, consume_actor_flow, heap_flow_counts,
    heap_flowstate, step_flowstate, step_flowstate_internal, try_consume_comp,
)
from sdflow.parser import parse_program_or_raise
from sdflow.printer import print_guard, print_proc_flow
from sdflow.runtime import Fault, Label, instantiate, run, step_expr
from sdflow.syntax import (
    BoolLit, ChannelKind, Comp, Divides, IntLit, Iterator, MkIndex, Num, SVar,
    PActor, Recv, Send, SizeKind, Env, INF, subst_comp,
)

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
    out = try_consume_comp(c, Label("c", True))
    assert out == [comp(ev("c!"), it("t", 2, 2))]


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
    assert _silent_normalize(at_3) is None
    assert _silent_normalize(subst_comp(head, "t", Num(4))) == comp(ev("c!"))


def test_guarded_comprehension_consumes_only_matching_iterations():
    # events fire at t = 2 and t = 4 only
    c = comp(ev("c!"), it("t", 1, 4), Divides(Num(2), SVar("t")))
    assert comp_occurrence_count(c) == 2
    after = try_consume_comp(c, Label("c", True))
    assert after is not None
    left = sum(comp_occurrence_count(x) for x in after)
    assert left == 1


def test_consume_respects_sequence_commutativity():
    flows = [comp(ev("c?"), it("t", 1, 2)), comp(ev("d!"), it("t", 1, 2))]
    out = consume_actor_flow(flows, Label("d", True))
    assert out is not None
    assert sum(comp_occurrence_count(c) for c in out) == 3


def test_consume_array_label_matches_element():
    flows = [comp(ev("a?", "t"), it("t", 1, 3))]
    out = consume_actor_flow(flows, Label("a", False, 1))
    assert out is not None
    assert consume_actor_flow(flows, Label("a", False, 2)) is None  # order fixed


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
