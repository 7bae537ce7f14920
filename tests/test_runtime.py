import sys

import pytest

from conftest import dropped_push, load, sizes_for, traced_run

from sdflow import runtime, syntax
from sdflow.flowstate import proc_rate_summary
from sdflow.kinding import eval_size
from sdflow.parser import parse_program_or_raise
from sdflow.runtime import (
    Blocked, Configuration, InstantiationError, Stepped, Stuck, explore,
    instantiate, run, step_expr,
)
from sdflow.syntax import (
    ActorE, Diagnostic, For, FromSize, IntLit, Lam, Let, MkIndex, MkSize,
    NewRef, Recv, Send, Var, proc_components,
)
from sdflow.typecheck import check_network, check_proc


def _net(name, kind="good"):
    return parse_program_or_raise(load(kind, name))


# --- instantiation -----------------------------------------------------------

def test_instantiate_downsampler_buffers():
    net = _net("downsampler.sdf")
    cfg = instantiate(net, {"s": 8})
    assert cfg.heap.bufs == {("i", None): (), ("o", None): ()}
    assert cfg.heap.caps == {"i": 4, "o": 4}
    assert len(cfg.actors) == 3


def test_instantiate_prefills_delay_channel():
    net = _net("delayed_pipeline.sdf")
    cfg = instantiate(net, {})
    assert cfg.heap.bufs[("c", None)] == (IntLit(0), IntLit(0))


def test_instantiate_unrolls_actor_comprehension():
    net = _net("fanin_array.sdf")
    cfg = instantiate(net, {"s": 3})
    names = [a.name for a in cfg.actors]
    assert names == ["a0[1]", "a0[2]", "a0[3]", "a1"]
    assert set(cfg.heap.bufs) == {("a", 1), ("a", 2), ("a", 3)}


def test_instantiate_requires_all_sizes():
    net = _net("downsampler.sdf")
    with pytest.raises(InstantiationError):
        instantiate(net, {})


def test_instantiate_rejects_unknown_sizes():
    net = _net("downsampler.sdf")
    with pytest.raises(InstantiationError) as info:
        instantiate(net, {"s": 2, "typo": 4})
    assert info.value.diag == Diagnostic("Kind Size",
                                         "unknown size parameter typo")


def test_instantiate_rejects_nonpositive_sizes():
    net = _net("downsampler.sdf")
    with pytest.raises(InstantiationError):
        instantiate(net, {"s": 0})


# --- single steps ------------------------------------------------------------

def _solo_config(name="pipeline2.sdf", v=4):
    net = _net(name)
    return net, instantiate(net, sizes_for(net, v))


def test_send_appends_and_labels():
    net, cfg = _solo_config()
    out = step_expr(Send("cw", None, IntLit(7)), cfg.heap, "a0")
    assert isinstance(out, Stepped)
    assert out.expr == IntLit(0)
    assert out.label is not None and out.label.chan == "c" and out.label.is_send
    out.effect(cfg.heap)
    assert cfg.heap.bufs[("c", None)] == (IntLit(7),)


def test_recv_pops_fifo_head():
    from sdflow.syntax import Recv
    net, cfg = _solo_config()
    cfg.heap.bufs[("c", None)] = (IntLit(7), IntLit(9))
    out = step_expr(Recv("cr"), cfg.heap, "a1")
    assert isinstance(out, Stepped)
    assert out.expr == IntLit(7)
    assert not out.label.is_send
    out.effect(cfg.heap)
    assert cfg.heap.bufs[("c", None)] == (IntLit(9),)


def test_send_blocks_on_full_buffer():
    net, cfg = _solo_config()
    cfg.heap.bufs[("c", None)] = (IntLit(1), IntLit(2))  # capacity 2
    out = step_expr(Send("cw", None, IntLit(3)), cfg.heap, "a0")
    assert isinstance(out, Blocked)


def test_from_size_projects():
    net, cfg = _solo_config()
    out = step_expr(FromSize(MkSize(IntLit(8))), cfg.heap, "a0")
    assert isinstance(out, Stepped) and out.expr == IntLit(8)


def test_buffer_push_asserts_capacity():
    net, cfg = _solo_config()
    cfg.heap.bufs[("c", None)] = (IntLit(1), IntLit(2))
    with pytest.raises(AssertionError):
        cfg.heap.push(("c", None), IntLit(3))


# --- whole runs ------------------------------------------------------------------

def test_downsampler_trace_counts():
    net = _net("downsampler.sdf")
    result = run(instantiate(net, {"s": 8}))
    assert result.status == "done"
    assert result.comm_counts[("i", "recv")] == 8
    assert result.comm_counts[("o", "send")] == 4


def test_trace_counts_match_rate_summary():
    from sdflow.flowstate import RangeIndex
    for name in ("downsampler.sdf", "upsampler.sdf", "nested_loops.sdf",
                 "guard_and_bound.sdf", "worker_array_pipeline.sdf"):
        net = _net(name)
        sizes = sizes_for(net, 4)
        flow, _ = check_proc(net.tenv, net.venv, net.body)
        summary = proc_rate_summary(net.tenv, flow)
        # aggregate per (channel, direction); array ranges expand elementwise
        want: dict = {}
        for key, mult in summary.items():
            n = eval_size(mult, sizes)
            if len(key) == 3 and isinstance(key[2], RangeIndex):
                lo = eval_size(key[2].lo, sizes)
                hi = eval_size(key[2].hi, sizes)
                n *= max(0, hi - lo + 1)
            k2 = (key[0], key[1])
            want[k2] = want.get(k2, 0) + n
        result = run(instantiate(net, sizes))
        assert result.status == "done", name
        assert dict(result.comm_counts) == want, name


def test_undelayed_cycle_deadlocks_everywhere():
    net = _net("undelayed_cycle.sdf", kind="rejected")
    result = run(instantiate(net, {"n": 4}))
    assert result.status == "deadlock"
    ex = explore(instantiate(net, {"n": 4}))
    assert not ex.any_complete


def test_delayed_cycle_completes():
    net = _net("delayed_cycle.sdf")
    ex = explore(instantiate(net, {"n": 4}))
    assert ex.any_complete and ex.all_complete


def test_deterministic_outcome_across_interleavings():
    net = _net("accumulator.sdf")
    ex = explore(instantiate(net, {"n": 4}))
    assert ex.all_complete
    assert len(ex.terminals) == 1  # same final cells and counts on every path


def test_run_that_finishes_on_its_last_allowed_step_is_done():
    cfg = instantiate(_net("pipeline2.sdf"), {"n": 2})
    steps = run(cfg).steps
    assert steps == 16
    assert run(cfg, max_steps=steps).status == "done"
    short = run(cfg, max_steps=steps - 1)
    assert short.status == "error"
    assert short.blocked == {"*": f"exceeded {steps - 1} steps"}


def test_round_robin_trace_reproducible():
    net = _net("downsampler.sdf")
    _, t1 = traced_run(instantiate(net, {"s": 4}))
    _, t2 = traced_run(instantiate(net, {"s": 4}))
    assert t1 == t2


def test_random_seeded_trace_reproducible():
    net = _net("downsampler.sdf")
    _, t1 = traced_run(instantiate(net, {"s": 4}), scheduler="random", seed=11)
    _, t2 = traced_run(instantiate(net, {"s": 4}), scheduler="random", seed=11)
    assert t1 == t2


def test_fault_drops_heap_effect_only():
    net = _net("pipeline2.sdf")
    with dropped_push(1):
        result = run(instantiate(net, {"n": 2}))
    # the dropped send leaves the consumer starving
    assert result.status == "deadlock"


def test_accumulator_sums_stream():
    net = _net("accumulator.sdf")
    result = run(instantiate(net, {"n": 4}))
    assert result.status == "done"
    final = [a.expr for a in result.config.actors]
    assert final[2] == IntLit(1 + 2 + 3 + 4)


# --- channel arrays and plain channels on one heap ------------------------------

ARRAY_NET = """
chan c : Channel(0, 1);
chanarray a : ChannelArray(0, 2, 3);
chanarray d : ChannelArray(1, 2, 2);
chanarray e : ChannelArray(0, 1, 0);
val w : Chan(-, c, Integer);
val r : Chan(+, c, Integer);
val aw : ChanArray(-, a, Integer, 3);
val ar : ChanArray(+, a, Integer, 3);
val dr : ChanArray(+, d, Integer, 2);
flow eps;
network { stop }
"""


def array_config():
    net = parse_program_or_raise(ARRAY_NET)
    return net, instantiate(net, {})


def _step(cfg, e):
    return step_expr(e, cfg.heap, "a0")


def test_array_element_blocks_when_full_and_when_empty():
    _, cfg = array_config()
    assert _step(cfg, Recv("ar", MkIndex(IntLit(2)))) == \
        Blocked("buffer a[2] is empty")
    for v in (5, 6):
        out = _step(cfg, Send("aw", MkIndex(IntLit(2)), IntLit(v)))
        assert isinstance(out, Stepped) and str(out.label) == "a[2]!"
        out.effect(cfg.heap)
    assert _step(cfg, Send("aw", MkIndex(IntLit(2)), IntLit(7))) == \
        Blocked("buffer a[2] is full")
    out = _step(cfg, Recv("ar", MkIndex(IntLit(2))))
    assert isinstance(out, Stepped) and str(out.label) == "a[2]?"
    assert out.expr == IntLit(5)
    assert cfg.heap.buffer_sizes() == {"c": 0, "a": [0, 2, 0], "d": [2, 2],
                                       "e": []}


def test_plain_channel_blocks_when_full_and_when_empty():
    _, cfg = array_config()
    assert _step(cfg, Recv("r")) == Blocked("buffer c is empty")
    out = _step(cfg, Send("w", None, IntLit(1)))
    assert str(out.label) == "c!"
    out.effect(cfg.heap)
    assert _step(cfg, Send("w", None, IntLit(2))) == Blocked("buffer c is full")
    with pytest.raises(AssertionError, match=r"buffer overflow on c$"):
        out.effect(cfg.heap)


def test_a_communication_is_committed_from_its_label_with_no_closure():
    # a polled send or receive carries its payload and its buffer, which
    # `commit` pushes or pops; `effect` makes the same change, built when
    # read, and a step with no label keeps its heap change as a function
    _, cfg = array_config()
    sent = _step(cfg, Send("aw", MkIndex(IntLit(2)), IntLit(5)))
    assert (sent.change, sent.key, sent.payload) == (None, ("a", 2), IntLit(5))
    copy = cfg.heap.copy()
    sent.effect(copy)
    runtime.commit(Configuration([runtime.Actor("a0", None)], cfg.heap), 0,
                   sent)
    assert cfg.heap == copy and cfg.heap.bufs["a", 2] == (IntLit(5),)
    received = _step(cfg, Recv("ar", MkIndex(IntLit(2))))
    assert (received.change, received.expr) == (None, IntLit(5))
    received.effect(copy)
    assert copy.bufs["a", 2] == ()
    internal = _step(cfg, Let("y", IntLit(1), Var("y")))
    assert internal.effect is internal.change is None
    allocated = _step(cfg, NewRef(IntLit(3)))
    assert allocated.effect is allocated.change is not None


def test_trace_entries_are_values():
    net = _net("pipeline3.sdf")
    _, entries = traced_run(instantiate(net, {"n": 2}))
    first = entries[0]
    assert isinstance(first, runtime.TraceStep)
    assert first == runtime.TraceStep(0, first.actor, first.label, first.fill)
    assert first != runtime.TraceStep(1, first.actor, first.label, first.fill)
    assert (first.step, first.actor, first.label, first.fill) == \
        (0, "a0", None, None)
    assert repr(first) == "TraceStep(step=0, actor='a0', label=None, fill=None)"


def test_array_index_outside_bound_is_stuck():
    _, cfg = array_config()
    want = Stuck("index 4 outside channel array a")
    assert _step(cfg, Send("aw", MkIndex(IntLit(4)), IntLit(1))) == want
    assert _step(cfg, Recv("ar", MkIndex(IntLit(4)))) == want


def test_array_element_push_asserts_capacity():
    _, cfg = array_config()
    out = _step(cfg, Send("aw", MkIndex(IntLit(3)), IntLit(1)))
    out.effect(cfg.heap)
    out.effect(cfg.heap)
    with pytest.raises(AssertionError, match=r"buffer overflow on a\[3\]"):
        out.effect(cfg.heap)


@pytest.mark.parametrize("decl, rule, message", [
    ("chan z : Channel(0, 0);", "Kind Chan", "channel z has zero capacity"),
    ("chanarray z : ChannelArray(0, 0, 2);", "Kind Chan Array",
     "channel array z has zero capacity"),
    ("chanarray z : ChannelArray(0, inf, 0);", "Kind Chan Array",
     "capacity of z is unbounded and cannot be instantiated"),
    ("chanarray z : ChannelArray(0, 0, inf);", "Kind Chan Array",
     "bound of z is unbounded and cannot be instantiated"),
    ("val v : Size(inf);", "Ty Size",
     "value of v is unbounded and cannot be instantiated"),
])
def test_channel_instantiation_errors(decl, rule, message):
    net = parse_program_or_raise(f"{decl}\nflow eps;\nnetwork {{ stop }}")
    with pytest.raises(InstantiationError) as info:
        instantiate(net, {})
    assert (info.value.diag.rule, info.value.diag.message) == (rule, message)


@pytest.mark.parametrize("decl, rule, message", [
    ("chan z : Channel(0, k);", "Kind Chan",
     "capacity of z: unbound size parameter k"),
    ("chanarray z : ChannelArray(0, 1, k);", "Kind Chan Array",
     "bound of z: unbound size parameter k"),
])
def test_unbound_size_in_a_channel_kind_is_an_instantiation_error(
        decl, rule, message):
    net = parse_program_or_raise(f"{decl}\nflow eps;\nnetwork {{ stop }}")
    with pytest.raises(InstantiationError) as info:
        instantiate(net, {})
    assert (info.value.diag.rule, info.value.diag.message) == (rule, message)


def test_negative_program_with_unbound_capacity_fails_to_instantiate():
    net = parse_program_or_raise(load("negative",
                                      "n11_unbound_size_in_kind.sdf"))
    with pytest.raises(InstantiationError) as info:
        instantiate(net, {})
    assert str(info.value.diag) == \
        "[Kind Chan] capacity of c: unbound size parameter missing"


# --- runs through rarely taken paths ----------------------------------------

TWO_WRITERS = """
chan c : Channel(0, 2);
val cw1 : Chan(-, c, Integer);
val cw2 : Chan(-, c, Integer);
val cr : Chan(+, c, Integer);
flow c!<t in 1..2> || c!<t in 1..2> || c?<t in 1..4>;
network {
  actor { send cw1 1; send cw1 2 }
  ||
  actor { send cw2 3; send cw2 4 }
  ||
  actor { let a = recv cr; let b = recv cr; let c = recv cr; let d = recv cr;
          a * 1000 + b * 100 + c * 10 + d }
}
"""

REF_OVER_CHANNEL = """
chan c : Channel(0, 1);
chan d : Channel(0, 1);
val cw : Chan(-, c, Ref(Integer));
val cr : Chan(+, c, Ref(Integer));
val dw : Chan(-, d, Integer);
val dr : Chan(+, d, Integer);
flow c! ; d? || c? ; d!;
network {
  actor { let r = ref 5; send cw r; recv dr; !r }
  ||
  actor { let q = recv cr; q := !q + 37; send dw 0 }
}
"""

# the receiver assigns the sender's cell while the sender may be reading it
RACY_REF = """
chan c : Channel(0, 1);
val cw : Chan(-, c, Ref(Integer));
val cr : Chan(+, c, Ref(Integer));
flow c! || c?;
network {
  actor { let r = ref 5; send cw r; !r + !r }
  ||
  actor { let q = recv cr; q := 37 }
}
"""

STUCK_BESIDE_BLOCKED = """
size s : Size(inf);
size k : Size(inf);
chanarray a : ChannelArray(0, 2, s);
chan b : Channel(0, 1);
val kk : Size(k);
val aw : ChanArray(-, a, Integer, s);
val ar : ChanArray(+, a, Integer, s);
val br : Chan(+, b, Integer);
flow eps;
network {
  actor { for (t, x in 1..kk) send aw[x] 1 }
  ||
  actor { recv ar[index(1)]; recv ar[index(2)] }
  ||
  actor { recv br }
}
"""


def test_two_writers_on_one_channel_interleave():
    net = parse_program_or_raise(TWO_WRITERS)
    assert not check_network(net).ok
    result = run(instantiate(net, {}))
    assert result.status == "done"
    assert result.config.actors[2].expr == IntLit(1324)
    assert dict(result.comm_counts) == {("c", "send"): 4, ("c", "recv"): 4}
    assert result.steps == 20


def test_ref_sent_over_channel_is_assigned_by_receiver():
    # the checker rejects the shared cell (`Ty Chan Share`); the runtime
    # still runs the network
    net = parse_program_or_raise(REF_OVER_CHANNEL)
    assert not check_network(net).ok
    for scheduler, seed in (("roundRobin", 0), ("random", 3)):
        result = run(instantiate(net, {}), scheduler=scheduler, seed=seed)
        assert result.status == "done"
        assert result.config.actors[0].expr == IntLit(42)
        assert result.config.heap.locs == {("a0", 0): IntLit(42)}


def test_assignment_is_seen_by_an_actor_about_to_dereference():
    net = parse_program_or_raise(RACY_REF)
    result = run(instantiate(net, {}))
    assert result.config.actors[0].expr == IntLit(5 + 37)
    finals = {run(instantiate(net, {}), scheduler="random", seed=seed)
              .config.actors[0].expr.value for seed in range(12)}
    assert finals == {5 + 5, 5 + 37, 37 + 37}


PROC_OVER_CHANNEL = """
chan f : Channel(0, 1);
val fw : Chan(-, f, () -> [eps => eps] Integer);
val fr : Chan(+, f, () -> [eps => eps] Integer);
flow f! || f?;
network {
  actor { send fw (fn () [eps => eps] 1) }
  ||
  actor { let p = recv fr; p() }
}
"""

REF_OVER_ARRAY = """
size s : Size(inf);
chanarray a : ChannelArray(0, 1, s);
val aw : ChanArray(-, a, Ref(Integer), s);
flow eps;
network { stop }
"""


@pytest.mark.parametrize("source, binding, chan, payload", [
    (RACY_REF, "cw", "c", "Ref(Integer)"),
    (REF_OVER_CHANNEL, "cw", "c", "Ref(Integer)"),
    (PROC_OVER_CHANNEL, "fw", "f", "() -> [eps => eps] Integer"),
    (REF_OVER_ARRAY, "aw", "a", "Ref(Integer)"),
], ids=["racy_ref", "ref_over_channel", "procedure", "array"])
def test_a_payload_that_would_share_a_cell_or_a_procedure_is_rejected(
        source, binding, chan, payload):
    # one line per channel, naming the first binding that declares it
    result = check_network(parse_program_or_raise(source))
    assert not result.ok
    assert [str(d) for d in result.diagnostics] == [
        f"[Ty Chan Share] val {binding}: {chan} carries {payload}: a payload "
        "holds no reference or procedure, as actors share only channels"]


def test_exploration_tells_terminals_apart_by_actor_results():
    # the heap and the communication counts agree on all three outcomes
    result = explore(instantiate(parse_program_or_raise(RACY_REF), {}))
    assert result.all_complete
    assert len(result.terminals) == 3
    assert not result.deterministic_outcome


def test_stuck_actor_is_reported_beside_blocked_one():
    net = parse_program_or_raise(STUCK_BESIDE_BLOCKED)
    result = run(instantiate(net, {"s": 2, "k": 3}))
    assert result.status == "deadlock"
    assert result.blocked == {"a0": "index 3 outside channel array a",
                              "a2": "buffer b is empty"}
    assert result.config.actors[1].done
    assert result.config.heap.buffer_sizes() == {"a": [0, 0], "b": 0}


def test_max_steps_exhaustion_is_an_error():
    net = _net("pipeline2.sdf")
    result = run(instantiate(net, {"n": 4}), max_steps=5)
    assert result.status == "error"
    assert result.blocked == {"*": "exceeded 5 steps"}
    assert result.steps == 5


# a network that deadlocks before its first step, and one that is done
# before it
BLOCKED_AT_ONCE = """
chan c : Channel(0, 1);
val cr : Chan(+, c, Integer);
flow eps;
network { actor { recv cr } }
"""
DONE_AT_ONCE = "flow eps;\nnetwork { actor { 0 } }\n"


@pytest.mark.parametrize("source, status", [(BLOCKED_AT_ONCE, "deadlock"),
                                            (DONE_AT_ONCE, "done")],
                         ids=["deadlock", "done"])
def test_an_unknown_scheduler_is_rejected_before_the_first_step(source,
                                                                 status):
    # it was only rejected where it had to choose a step, so a run that
    # ended at once reported `status` for it
    cfg = instantiate(parse_program_or_raise(source), {})
    result = run(cfg)
    assert (result.status, result.steps) == (status, 0)
    with pytest.raises(ValueError, match="^unknown scheduler bogus$"):
        run(cfg, scheduler="bogus")


def test_a_run_builds_no_blocked_outcome(monkeypatch):
    # a send on a full buffer and a receive on an empty one hand out the
    # two `Blocked` outcomes `instantiate` made for that buffer
    cfg = instantiate(_net("pipeline3.sdf"), {"n": 64})
    built, blocked = 0, set()

    def polled(cfg, i, inner=runtime._actor_outcome):
        out = inner(cfg, i)
        if isinstance(out, Blocked):
            blocked.add(id(out))
        return out

    syntax._build(Blocked)  # its generated `__init__` replaces a stub
    init = Blocked.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(runtime, "_actor_outcome", polled)
    monkeypatch.setattr(Blocked, "__init__", counted)
    assert run(cfg).status == "done"
    assert built == 0
    shared = {id(out) for pair in cfg.heap.blocked.values() for out in pair}
    assert blocked and blocked <= shared
    assert [out.reason for out in cfg.heap.blocked["c", None]] == [
        "buffer c is full", "buffer c is empty"]


def test_run_polls_only_woken_actors(monkeypatch):
    # the pipeline perfbench's run-scale workload grows in actor count; a
    # poll is one `_actor_outcome` call
    from test_netcheck import pipeline_source
    polls = 0

    def counting(cfg, i, inner=runtime._actor_outcome):
        nonlocal polls
        polls += 1
        return inner(cfg, i)

    monkeypatch.setattr(runtime, "_actor_outcome", counting)
    per_step = {}
    for n in (16, 64):
        polls = 0
        result = run(instantiate(parse_program_or_raise(pipeline_source(n)),
                                 {"s": 4}))
        assert result.status == "done"
        per_step[n] = polls / result.steps
    assert all(0 < p <= 2 for p in per_step.values()), per_step


def test_cell_writes_poll_only_the_cells_owner(monkeypatch):
    # accumulator writes its cell on every item; 64 idle actors beside it
    # were all re-polled after each write (7.93 polls per step)
    polls = 0

    def counting(cfg, i, inner=runtime._actor_outcome):
        nonlocal polls
        polls += 1
        return inner(cfg, i)

    monkeypatch.setattr(runtime, "_actor_outcome", counting)
    source = load("good", "accumulator.sdf")
    end = source.rindex("}")
    net = parse_program_or_raise(source[:end] + "|| stop " * 64
                                 + source[end:])
    result = run(instantiate(net, {"n": 32}))
    assert result.status == "done" and len(result.config.actors) == 67
    assert polls / result.steps <= 2, polls / result.steps


def test_long_straight_line_actor_instantiates_and_runs():
    # instantiation substitutes `kk` down a 5000-link SeqE spine
    k = 5000
    sends = "; ".join(f"send cw {i}" for i in range(1, k + 1))
    net = parse_program_or_raise(
        "chan c : Channel(0, 2);\n"
        f"val kk : Size({k});\n"
        "val cw : Chan(-, c, Integer);\n"
        "val cr : Chan(+, c, Integer);\n"
        f"flow c!<t in 1..{k}> || c?<t in 1..{k}>;\n"
        f"network {{ actor {{ {sends} }}\n"
        "  || actor { for (t, x in 1..kk) recv cr } }\n")
    result = run(instantiate(net, {}))
    assert result.status == "done"
    assert result.comm_counts == {("c", "send"): k, ("c", "recv"): k}


# --- substitution shares what it does not reach ------------------------------

# one actor per way a loop index can be bound again or sit out of the
# iteration's reach; loop bodies hold no name a step substitutes, so each
# keeps the free names `instantiate` took
BINDERS = """
size k : Size(inf);
chan c : Channel(0, 64);
val kk : Size(k);
val cw : Chan(-, c, Integer);
flow eps;
network {
  actor { for (t, x in 1..kk) for (u, x in 1..size(2)) send cw fromIndex(x) }
  ||
  actor { for (t, x in 1..kk) { let x = 100; send cw x } }
  ||
  actor { for (t, x in 1..kk) { let x = fromIndex(x) + 100; send cw x } }
  ||
  actor {
    for (t, x in 1..kk) {
      let f = fn (x : Integer) [eps => eps] x + 1;
      send cw (f(7))
    }
  }
  ||
  actor {
    for (t, x in 1..size(3)) {
      send cw (1000 * fromIndex(x));
      for (u, x in 1..size(2)) send cw (10 * fromIndex(x))
    }
  }
  ||
  actor { for (t, x in 1..kk) for (u, y in 1..x) send cw 5 }
  ||
  actor {
    for (t, x in 1..kk) {
      let f = fn () [eps => eps] fromIndex(x);
      send cw (f())
    }
  }
}
"""


def _free(e, name: str) -> bool:
    """Whether `name` occurs free in `e`, by a plain recursive walk."""
    if isinstance(e, Var):
        return e.name == name
    if isinstance(e, (Let, For)):
        return _free(e.bound, name) or (e.var != name and _free(e.body, name))
    if isinstance(e, Lam):
        return name not in {p for p, _ in e.params} and _free(e.body, name)
    fields = [getattr(e, f.name) for f in e.__record_fields__]
    return any(_free(x, name) for v in fields
               for x in (v if isinstance(v, tuple) else (v,))
               if x.__class__ in runtime._SUBST)


def test_an_iteration_is_the_loop_body_exactly_when_the_index_is_not_free(
        monkeypatch):
    # a poll keeps its redex as the actor's focus: a loop with iterations
    # left steps to its first iteration, the new focus
    iterations = []

    def polled(cfg, i, inner=runtime._actor_outcome):
        out = inner(cfg, i)
        e = cfg.actors[i].focus
        if isinstance(out, Stepped) and isinstance(e, For) \
                and runtime._as_int(e.bound) >= e.lo:
            iterations.append((out.focus is e.body, _free(e.body, e.var)))
        return out

    monkeypatch.setattr(runtime, "_actor_outcome", polled)
    result = run(instantiate(parse_program_or_raise(BINDERS), {"k": 3}))
    assert result.status == "done"
    sent = [1, 2] * 3 + [100] * 3 + [101, 102, 103] + [8] * 3 + [1000, 2000, 3000] \
        + [10, 20] * 3 + [5] * 6 + [1, 2, 3]
    assert sorted(v.value for v in result.config.heap.bufs["c", None]) == \
        sorted(sent)
    assert {shared for shared, _ in iterations} == {True, False}
    assert all(shared is not free for shared, free in iterations), iterations


def test_free_names_of_a_long_loop_body_are_kept_without_recursion():
    # a 5000-statement `Let`/`SeqE` spine whose first statement alone holds
    # the index, so an iteration rebuilds that statement alone
    lets = "; ".join(f"let y{i} = y{i - 1} + 1" for i in range(2, 4999))
    net = parse_program_or_raise(
        "chan c : Channel(0, 4);\n"
        "val cw : Chan(-, c, Integer);\n"
        "flow eps;\n"
        "network { actor { for (t, x in 1..size(2)) {\n"
        f"  send cw fromIndex(x); let y1 = 1; {lets}; send cw y4998 }} }} }}\n")
    loop = proc_components(net.body)[0].expr
    assert isinstance(loop, For)
    assert sys.getrecursionlimit() <= 1000
    assert runtime._free_names(loop) == frozenset()
    assert loop.body._fv == {"x"} and loop.body.second._fv == frozenset()
    result = run(instantiate(net, {}))
    assert result.status == "done"
    assert result.config.heap.bufs["c", None] == tuple(
        map(IntLit, (1, 4998, 2, 4998)))
