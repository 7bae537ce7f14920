import pytest

from conftest import load, sizes_for

from sdflow import runtime
from sdflow.flowstate import proc_rate_summary
from sdflow.kinding import eval_size
from sdflow.parser import parse_program_or_raise
from sdflow.runtime import (
    Blocked, Configuration, Fault, InstantiationError, Stepped, Stuck, explore,
    instantiate, run, step_expr,
)
from sdflow.syntax import (
    ActorE, Diagnostic, FromSize, IntLit, MkIndex, MkSize, Recv, Send, Var,
    proc_components,
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
    out = step_expr(Send("cw", None, IntLit(7)), cfg.heap, "a0", cfg.venv)
    assert isinstance(out, Stepped)
    assert out.expr == IntLit(0)
    assert out.label is not None and out.label.chan == "c" and out.label.is_send
    out.effect(cfg.heap)
    assert cfg.heap.bufs[("c", None)] == (IntLit(7),)


def test_recv_pops_fifo_head():
    from sdflow.syntax import Recv
    net, cfg = _solo_config()
    cfg.heap.bufs[("c", None)] = (IntLit(7), IntLit(9))
    out = step_expr(Recv("cr"), cfg.heap, "a1", cfg.venv)
    assert isinstance(out, Stepped)
    assert out.expr == IntLit(7)
    assert not out.label.is_send
    out.effect(cfg.heap)
    assert cfg.heap.bufs[("c", None)] == (IntLit(9),)


def test_send_blocks_on_full_buffer():
    net, cfg = _solo_config()
    cfg.heap.bufs[("c", None)] = (IntLit(1), IntLit(2))  # capacity 2
    out = step_expr(Send("cw", None, IntLit(3)), cfg.heap, "a0", cfg.venv)
    assert isinstance(out, Blocked)


def test_from_size_projects():
    net, cfg = _solo_config()
    out = step_expr(FromSize(MkSize(IntLit(8))), cfg.heap, "a0", cfg.venv)
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
    steps = len(run(cfg).trace)
    assert steps == 16
    assert run(cfg, max_steps=steps).status == "done"
    short = run(cfg, max_steps=steps - 1)
    assert short.status == "error"
    assert short.blocked == {"*": f"exceeded {steps - 1} steps"}


def test_round_robin_trace_reproducible():
    net = _net("downsampler.sdf")
    r1 = run(instantiate(net, {"s": 4}))
    r2 = run(instantiate(net, {"s": 4}))
    assert [t.to_json() for t in r1.trace] == [t.to_json() for t in r2.trace]


def test_random_seeded_trace_reproducible():
    net = _net("downsampler.sdf")
    r1 = run(instantiate(net, {"s": 4}), scheduler="random", seed=11)
    r2 = run(instantiate(net, {"s": 4}), scheduler="random", seed=11)
    assert [t.to_json() for t in r1.trace] == [t.to_json() for t in r2.trace]


def test_fault_drops_heap_effect_only():
    net = _net("pipeline2.sdf")
    result = run(instantiate(net, {"n": 2}), fault=Fault(drop_send=1))
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
    return step_expr(e, cfg.heap, "a0", cfg.venv)


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
    assert len(result.trace) == 20


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


@pytest.mark.parametrize("source, chan, payload", [
    (RACY_REF, "c", "Ref(Integer)"),
    (REF_OVER_CHANNEL, "c", "Ref(Integer)"),
    (PROC_OVER_CHANNEL, "f", "() -> [eps => eps] Integer"),
    (REF_OVER_ARRAY, "a", "Ref(Integer)"),
], ids=["racy_ref", "ref_over_channel", "procedure", "array"])
def test_a_payload_that_would_share_a_cell_or_a_procedure_is_rejected(
        source, chan, payload):
    result = check_network(parse_program_or_raise(source))
    assert not result.ok
    assert {str(d) for d in result.diagnostics} == {
        f"[Ty Chan Share] {chan} carries {payload}: a payload holds no "
        "reference or procedure, as actors share only channels"}


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
    assert len(result.trace) == 5


def test_run_polls_only_woken_actors(monkeypatch):
    # the pipeline perfbench's run-scale workload grows in actor count
    from test_netcheck import pipeline_source
    polls = depth = 0

    def counting(*args):
        nonlocal polls, depth
        polls += depth == 0  # step_expr recurses through its module global
        depth += 1
        try:
            return step_expr(*args)
        finally:
            depth -= 1

    monkeypatch.setattr(runtime, "step_expr", counting)
    per_step = {}
    for n in (16, 64):
        polls = 0
        result = run(instantiate(parse_program_or_raise(pipeline_source(n)),
                                 {"s": 4}))
        assert result.status == "done"
        per_step[n] = polls / len(result.trace)
    assert max(per_step.values()) <= 2, per_step


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
