import sys
from collections import Counter

import pytest

from conftest import (
    comp, corpus_files, dropped_push, ev, it, load, seq, sizes_for,
    traced_run,
)
from test_conform_oracle import unroll
from test_runtime import array_config

from sdflow import conformance
from sdflow.conformance import (
    _consume_actor, _piece_comp, _piece_count, _silent_pieces,
    check_preservation, check_progress_theorem, heap_flow_counts,
)
from sdflow.conformance import _element_pieces
from sdflow.kinding import eval_size
from sdflow.parser import parse_program_or_raise
from sdflow.printer import print_guard
from sdflow.printer import print_comp, print_flow
from sdflow.runtime import Label, instantiate, step_expr
from sdflow.syntax import (
    Comp, Divides, IntLit, MkIndex, Num, SVar, Recv, Send, subst_comp,
)
from sdflow.syntax import (
    ActorComp, Add, AtMost, Event, proc_components, subst_flow,
)
from sdflow.typecheck import check_network
from sdflow.typecheck import Checker


def _net(name, kind="good"):
    return parse_program_or_raise(load(kind, name))


# --- heap flowstate counts ---------------------------------------------------------

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


def test_instantiation_starts_with_an_empty_heap_flowstate():
    # undelayed buffers start empty and delayed ones full, so the "initial
    # heap flowstate" violation of check_preservation cannot fire
    for f in corpus_files("good"):
        net = parse_program_or_raise(f.read_text())
        for size in (1, 2, 3):
            cfg = instantiate(net, sizes_for(net, size))
            assert heap_flow_counts(net.tenv, cfg.heap) == Counter(), \
                (f.name, size)


def test_delayed_array_counts_freed_slots_per_element():
    net, cfg = array_config()
    assert heap_flow_counts(net.tenv, cfg.heap) == Counter()
    for e in (Recv("dr", MkIndex(IntLit(2))), Send("aw", MkIndex(IntLit(3)),
                                                   IntLit(1))):
        step_expr(e, cfg.heap, "a0", cfg.venv).effect(cfg.heap)
    assert heap_flow_counts(net.tenv, cfg.heap) == Counter(
        {("d", False, 2): 1, ("a", True, 3): 1})


def test_repeated_array_sends_count_per_element():
    net, cfg = array_config()
    out = step_expr(Send("aw", MkIndex(IntLit(2)), IntLit(1)),
                    cfg.heap, "a0", cfg.venv)
    out.effect(cfg.heap)
    out.effect(cfg.heap)
    assert heap_flow_counts(net.tenv, cfg.heap) == Counter(
        {("a", True, 2): 2})


# --- flowstate reduction -----------------------------------------------------------

def _silent(flow) -> list[Comp]:
    return [_piece_comp(p) for p in _silent_pieces(flow)]


def _reduce(flow, label):
    """The observer's pieces after `flow` emits `label`, or None."""
    pieces = _silent_pieces(flow)
    return pieces if _consume_actor(pieces, label) else None


def test_unroll_then_consume_head():
    c = comp(ev("c!"), it("t", 1, 2))
    out = _reduce(c, Label("c", True))
    assert [_piece_comp(p) for p in out] == [comp(ev("c!"), it("t", 2, 2))]


def test_numeric_guard_discharges_silently():
    c = comp(ev("c!"), Divides(Num(2), Num(4)))
    assert _silent(c) == [comp(ev("c!"))]


def test_false_guard_collapses_to_empty():
    c = comp(ev("c!"), Divides(Num(2), Num(3)))
    assert _silent(c) == []


def test_reduced_head_carries_its_guard_with_a_numeric_operand():
    # the head of c!<t in 1..4, 2 | t> at t = k is c!<2 | k>
    c = comp(ev("c!"), it("t", 1, 4), Divides(Num(2), SVar("t")))
    head = Comp(c.event, (), c.guards)
    at_3 = subst_comp(head, "t", Num(3))
    assert at_3.guards == (Divides(Num(2), Num(3)),)
    assert print_guard(at_3.guards[0]) == "2 | 3"
    assert _silent(at_3) == []
    assert _silent(subst_comp(head, "t", Num(4))) == [comp(ev("c!"))]


def _left(pieces) -> int:
    return sum(map(_piece_count, pieces))


def test_guarded_comprehension_consumes_only_matching_iterations():
    # events fire at t = 2 and t = 4 only
    c = comp(ev("c!"), it("t", 1, 4), Divides(Num(2), SVar("t")))
    assert _left(_silent_pieces(c)) == 2
    after = _reduce(c, Label("c", True))
    assert after is not None
    assert _left(after) == 1


def test_consume_respects_sequence_commutativity():
    flows = seq(comp(ev("c?"), it("t", 1, 2)), comp(ev("d!"), it("t", 1, 2)))
    out = _reduce(flows, Label("d", True))
    assert out is not None
    assert _left(out) == 3


def test_consume_array_label_matches_element():
    flow = comp(ev("a?", "t"), it("t", 1, 3))
    assert _reduce(flow, Label("a", False, 1)) is not None
    assert _reduce(flow, Label("a", False, 2)) is None  # order fixed


def test_consume_refuses_the_other_direction():
    flow = comp(ev("c!"), it("t", 1, 2))
    assert _reduce(flow, Label("c", True)) is not None
    assert _reduce(flow, Label("c", False)) is None


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
    _, clean = traced_run(instantiate(net, {"s": 8}))
    sends = [t.step for t in clean if t.label and t.label.is_send]
    target = 3  # drop the third send overall
    with dropped_push(target):
        rep = check_preservation(net, {"s": 8})
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


# a guard on the outer iterator sits before one on the inner iterator: a
# reducer that decides guards only off the end of the list cannot skip the
# outer values that fail `2 | t`
OUTER_GUARD_FIRST = """
size p : Size(inf);
chan c : Channel(0, 2);
val pp : Size(p);
val two : Size(2);
val cw : Chan(-, c, Integer);
val cr : Chan(+, c, Integer);
flow c!<u in 1..3, t in 1..p, 2 | t, u <= 2>
  || c?<u in 1..3, t in 1..p, 2 | t, u <= 2>;
network {
  actor {
    for (t, x in 1..pp) {
      for (u, y in 1..size(3)) when (y <= two) when (size(2) | x) send cw 1
    }
  }
  ||
  actor {
    for (t, x in 1..pp) {
      for (u, y in 1..size(3)) when (y <= two) when (size(2) | x) recv cr
    }
  }
}
"""


def test_outer_guard_before_inner_guard_conforms():
    net = parse_program_or_raise(OUTER_GUARD_FIRST)
    assert check_network(net).ok
    for p in range(1, 9):
        rep = check_preservation(net, {"p": p})
        assert rep.ok, (p, rep.violations[:3])


def test_outer_guard_before_inner_guard_conforms_from_the_cli(
        tmp_path, capsys):
    from sdflow.cli import main
    path = tmp_path / "outer_guard_first.sdf"
    path.write_text(OUTER_GUARD_FIRST)
    assert main(["conform", str(path), "--size", "p=4"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "preservation: 0 violations over 122 steps",
        "progress: 123 states, complete"]


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


# --- inferred flows kept on the network ------------------------------------------

def _counted_checker(monkeypatch) -> Counter:
    """Count each later `Checker.infer` and `Checker.check_proc` call."""
    calls = Counter()
    for name in ("infer", "check_proc"):
        def counted(self, *args, name=name, original=getattr(Checker, name)):
            calls[name] += 1
            return original(self, *args)
        monkeypatch.setattr(Checker, name, counted)
    return calls


@pytest.mark.parametrize("name, sizes", [("pipeline3.sdf", "n"),
                                         ("worker_array_pipeline.sdf", "s")])
def test_a_second_preservation_check_infers_no_flow(name, sizes,
                                                    monkeypatch):
    # the flows the checker infers are kept on the network, ungrounded, so
    # checking it again, at any sizes, types none of its actors
    calls = _counted_checker(monkeypatch)
    net = _net(name)
    assert check_preservation(net, {sizes: 4}).ok
    assert calls["infer"] > 0
    calls.clear()
    again = check_preservation(net, {sizes: 8})
    assert calls == Counter()
    assert again == check_preservation(_net(name), {sizes: 8})


ILL_TYPED = """
chan c : Channel(0, 1);
val cw : Chan(-, c, Integer);
val cr : Chan(+, c, Integer);
flow eps;
network { actor { send cw true } || actor { recv cr } }
"""


def test_flows_that_fail_to_infer_are_not_kept(monkeypatch):
    # the second call types the actors again, as the first did
    calls = _counted_checker(monkeypatch)
    net = parse_program_or_raise(ILL_TYPED)
    made = []
    for _ in range(2):
        calls.clear()
        with pytest.raises(ValueError, match="^network does not typecheck: "
                                             r"\[Val Send\]"):
            conformance.actor_flows(net, {})
        made.append(calls["infer"])
    assert made[0] > 0 and made[1] == made[0]


# --- actor arrays planned once ---------------------------------------------------

def pieces_one_element_at_a_time(body, var: str, lo: int, hi: int) -> list:
    """Each element's pieces as `actor_flows` built them before an array
    was planned once: `body` grounded at that element alone, and each of
    its comprehensions planned afresh."""
    return [_silent_pieces(subst_flow(body, var, Num(k)))
            for k in range(lo, hi + 1)]


def array_bodies(net, sizes: dict) -> list:
    """`(body, var, lo, hi)` of each actor array of `net`, its flowstate
    grounded at `sizes` as `actor_flows` grounds it."""
    checker, out = Checker(), []
    for part in proc_components(net.body):
        if isinstance(part, ActorComp):
            synth = checker.check_proc(net.tenv, net.venv, part)
            body = synth.body
            for name, value in sizes.items():
                body = subst_flow(body, name, Num(value))
            out.append((body, synth.var, part.lo, eval_size(synth.hi, sizes)))
    assert not checker.diags
    return out


def _shown(pieces) -> list:
    return [(print_comp(_piece_comp(p)), _piece_count(p)) for p in pieces]


def assert_elements_alike(body, var: str, lo: int, hi: int) -> None:
    """Each element's once-planned pieces against grounding it alone: the
    same comprehension text and count, piece by piece, at the start and
    after each label the element emits, in order, until none is left."""
    once = _element_pieces(body, var, lo, hi)
    alone = pieces_one_element_at_a_time(body, var, lo, hi)
    assert len(once) == len(alone) == max(0, hi - lo + 1)
    for new, old in zip(once, alone):
        assert _shown(new) == _shown(old)
        for label in [lab for p in old for lab in unroll(_piece_comp(p))]:
            assert _consume_actor(old, label), label
            assert _consume_actor(new, label), label
            assert _shown(new) == _shown(old)
        assert new == old == []


ARRAY_PROGRAMS = [f.name for f in corpus_files("good")
                  if "actors (" in f.read_text()]

# an actor array whose events are guarded by its element index: a guard on
# the index alone, and guards on it beside loops of the element's own
GUARDED_ELEMENTS = """
size s : Size(inf);
chanarray a : ChannelArray(0, 2, s);
chan c : Channel(0, 4);
val sz : Size(s);
val aw : ChanArray(-, a, Integer, s);
val cw : Chan(-, c, Integer);
flow eps;
network {
  actors (t, x in 1..sz) {
    when (2 | x) send aw[x] 1;
    for (u, y in 1..sz) when (x <= 2) send cw fromIndex(y);
    when (3 | x) { for (u, y in 1..sz) when (2 | y) send cw 1 }
  }
}
"""


@pytest.mark.parametrize("size", [1, 3, 8])
@pytest.mark.parametrize("name", ARRAY_PROGRAMS)
def test_array_elements_planned_once_reduce_as_each_grounded_alone(name,
                                                                   size):
    net = _net(name)
    bodies = array_bodies(net, sizes_for(net, size))
    assert bodies
    for body, var, lo, hi in bodies:
        assert_elements_alike(body, var, lo, hi)


@pytest.mark.parametrize("size", [1, 2, 3, 6])
def test_elements_guarded_by_their_index_reduce_as_each_grounded_alone(size):
    net = parse_program_or_raise(GUARDED_ELEMENTS)
    [(body, var, lo, hi)] = array_bodies(net, {"s": size})
    assert var == "t" and "2 | t" in print_flow(body)
    assert_elements_alike(body, var, lo, hi)


# hand-built element flowstates over the element index t: guards on t of
# both kinds, a divisor 0, an index computed from t, guards decided on
# numbers, an empty loop, and a loop binding t again, which hides the
# element index from the event and the guards
HAND_BUILT_ELEMENTS = {
    "guards": seq(comp(ev("c!"), Divides(Num(2), SVar("t"))),
                  comp(ev("d?"), it("u", 1, 3), AtMost(SVar("t"), Num(2)),
                       Divides(Num(3), SVar("t")))),
    "zero_divisor": comp(ev("c!"), it("u", 1, 2), Divides(Num(0), SVar("t"))),
    "index": comp(Event("a", True, Add(SVar("t"), SVar("u"))),
                  it("u", 1, 2), Divides(Num(2), SVar("u"))),
    "decided": seq(comp(ev("c!"), Divides(Num(2), Num(3))),
                   comp(ev("c?"), AtMost(Num(1), Num(2)))),
    "empty": comp(ev("c!"), it("u", 3, 2)),
    "shadowed": comp(ev("a!", "t"), it("u", 1, 2), it("t", 2, 4),
                     Divides(Num(2), SVar("t")), AtMost(SVar("u"), Num(1))),
}


@pytest.mark.parametrize("lo, hi", [(1, 6), (0, 4), (3, 2)])
@pytest.mark.parametrize("case", sorted(HAND_BUILT_ELEMENTS))
def test_hand_built_elements_reduce_as_each_grounded_alone(case, lo, hi):
    assert_elements_alike(HAND_BUILT_ELEMENTS[case], "t", lo, hi)
