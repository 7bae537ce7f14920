import sys

import pytest

from conftest import comp, ev, it, load, seq

from sdflow.flowstate import flowstates_equivalent, rate_summary
from sdflow.parser import parse_program_or_raise
from sdflow.printer import print_flow, print_program
from sdflow.syntax import (
    ActorE, Divides, IntType, Num, PActor, PArray, PEmpty, SVar,
    flow_free_vars, proc_components,
)
from sdflow.typecheck import check_network, check_proc, infer_expr


def _downsampler():
    return parse_program_or_raise(load("good", "downsampler.sdf"))


def _actor_expr(net, i):
    part = proc_components(net.body)[i]
    assert isinstance(part, ActorE)
    return part.expr


def test_downsampler_actor_flow_matches_golden():
    net = _downsampler()
    result = infer_expr(net.tenv, net.venv, _actor_expr(net, 1))
    assert not result.diagnostics
    assert result.type == IntType()
    want = seq(comp(ev("i?"), it("t", 1, "s")),
               comp(ev("o!"), it("t", 1, "s"), Divides(Num(2), SVar("t"))))
    assert flowstates_equivalent(net.tenv, result.flow, want) is True


def test_downsampler_array_variant_flow():
    from sdflow.flowstate import RangeIndex
    net = parse_program_or_raise(load("good", "downsampler_array.sdf"))
    result = infer_expr(net.tenv, net.venv, _actor_expr(net, 1))
    assert not result.diagnostics
    summary = rate_summary(net.tenv, result.flow)
    assert summary == {
        ("i", "recv", RangeIndex(Num(1), SVar("s"))): Num(1),
        ("o", "send"): __div_s_2(),
    }


def __div_s_2():
    from sdflow.syntax import Div
    return Div(SVar("s"), Num(2))


def test_synthesis_is_deterministic():
    net = _downsampler()
    a = infer_expr(net.tenv, net.venv, _actor_expr(net, 1)).flow
    b = infer_expr(net.tenv, net.venv, _actor_expr(net, 1)).flow
    assert a == b


def test_flowstate_variables_all_bound():
    # loop witnesses are captured by the distributed iterators; only
    # declared type variables remain free
    net = _downsampler()
    flow = infer_expr(net.tenv, net.venv, _actor_expr(net, 1)).flow
    assert flow_free_vars(flow) <= {n for n, _ in net.tenv.items}


def test_send_on_receive_polarity_rejected():
    net = parse_program_or_raise(load("negative", "n01_send_on_recv_polarity.sdf"))
    res = check_network(net)
    assert any(d.rule == "Val Send" for d in res.diagnostics)


def test_index_typed_loop_bound_rejected():
    net = parse_program_or_raise(load("negative", "n04_index_as_loop_bound.sdf"))
    res = check_network(net)
    assert any(d.rule == "Val For" for d in res.diagnostics)


def test_branch_flow_mismatch_rejected():
    net = parse_program_or_raise(load("negative", "n05_branch_flow_mismatch.sdf"))
    res = check_network(net)
    assert any(d.rule == "Val Cond" for d in res.diagnostics)


def test_guard_shape_rejected():
    net = parse_program_or_raise(load("negative", "n06_bad_guard_shape.sdf"))
    res = check_network(net)
    assert any(d.rule == "wfguard" for d in res.diagnostics)


def test_annotation_coherence_enforced():
    src = """
size n : Size(inf);
chan c : Channel(0, 2);
val nn : Size(n);
val cw : Chan(-, c, Integer);
flow eps;
network {
  actor {
    let f = fn (v : Integer) [eps => eps] send cw v;
    f(1)
  }
}
"""
    net = parse_program_or_raise(src)
    res = check_network(net)
    assert any(d.rule == "Val Abs" for d in res.diagnostics)


def test_stop_has_empty_flow():
    net = parse_program_or_raise(load("good", "stop_actor.sdf"))
    flow, diags = check_proc(net.tenv, net.venv, net.body)
    assert not diags
    from sdflow.syntax import proc_flow_components
    comps = proc_flow_components(flow)
    assert len(comps) == 2  # the stop component contributes nothing


def test_two_actor_pipeline_par_flow():
    net = parse_program_or_raise(load("good", "pipeline2.sdf"))
    flow, diags = check_proc(net.tenv, net.venv, net.body)
    assert not diags
    from sdflow.syntax import PPar
    assert isinstance(flow, PPar)


def test_actor_comprehension_flow_unrolls_consistently():
    net = parse_program_or_raise(load("good", "fanin_array.sdf"))
    flow, diags = check_proc(net.tenv, net.venv, net.body)
    assert not diags
    from sdflow.syntax import (ChannelArrayKind, SizeKind, Env,
                               proc_flow_components, subst_flow, subst_size)
    arr = next(p for p in proc_flow_components(flow) if isinstance(p, PArray))
    # unroll at bound 3: instantiate the size parameter in the environment
    # as well, then re-check each element against the formation rules
    items = []
    for name, kind in net.tenv.items:
        if isinstance(kind, SizeKind):
            items.append((name, SizeKind(Num(3))))
        elif isinstance(kind, ChannelArrayKind):
            items.append((name, ChannelArrayKind(
                kind.delay, kind.limit, subst_size(kind.bound, "s", Num(3)))))
        else:
            items.append((name, kind))
    env3 = Env(tuple(items))
    from sdflow.flowstate import check_flowstate
    for k in (1, 2, 3):
        element = subst_flow(subst_flow(arr.body, arr.var, Num(k)),
                             "s", Num(3))
        assert check_flowstate(env3, element) == []


def test_check_network_copies_bindings_linearly(monkeypatch):
    # every binding an environment stores, at construction or in its
    # lookup index, is counted; a copying `extend` makes this quadratic
    from functools import cached_property
    from sdflow.syntax import Env
    from test_netcheck import pipeline_source
    stored = 0
    init, index = Env.__init__, Env._index.func

    def counting_init(self, items=(), parent=None):
        nonlocal stored
        stored += len(items)
        init(self, items, parent)

    def counting_index(self):
        nonlocal stored
        built = index(self)
        stored += len(built)
        return built

    prop = cached_property(counting_index)
    prop.__set_name__(Env, "_index")
    monkeypatch.setattr(Env, "__init__", counting_init)
    monkeypatch.setattr(Env, "_index", prop)
    counts = {}
    for n in (500, 2000):
        net = parse_program_or_raise(pipeline_source(n))
        stored = 0
        assert check_network(net).ok
        counts[n] = stored
    assert counts[2000] / counts[500] <= 5, counts


def test_network_flow_mismatch_names_rule():
    net = parse_program_or_raise(load("negative", "n09_flow_mismatch.sdf"))
    res = check_network(net)
    assert any(d.rule == "Val Eq" and "mismatch" in d.message
               for d in res.diagnostics)


def test_full_corpus_accepts():
    from conftest import corpus_files
    for f in corpus_files("good"):
        net = parse_program_or_raise(f.read_text())
        res = check_network(net)
        assert res.ok, (f.name, [str(d) for d in res.diagnostics])


def test_assignment_types_as_assigned_value():
    src = """
size n : Size(inf);
flow eps;
network {
  actor {
    let r = ref 3;
    let y = (r := 4);
    y + 1
  }
}
"""
    net = parse_program_or_raise(src)
    assert check_network(net).ok


COMM_DECLS = """size s : Size(inf);
chan c : Channel(0, 1);
chanarray a : ChannelArray(0, 1, 2);
val w : Chan(-, c, Integer);
val r : Chan(+, c, Integer);
val aw : ChanArray(-, a, Integer, 2);
val ar : ChanArray(+, a, Integer, 2);
val n : Integer;
val sz : Size(s);
flow eps;
"""

LOOP = "for (t, x in 1..size(2)) "
SEND, RECV = "Val Send", "Val Receive"
SEND_A, RECV_A = "Val Send Array", "Val Recv Array"
INDEX = "array index must be a loop index"


@pytest.mark.parametrize("body, diags, flow", [
    ("send w 1", [], "c!"),
    ("recv r", [], "c?"),
    (LOOP + "send aw[x] 1", [], "a[t]!<t in 1..2>"),
    (LOOP + "recv ar[x]", [], "a[t]?<t in 1..2>"),
    ("send q 1", [(SEND, "unknown channel q")], "eps"),
    ("recv q", [(RECV, "unknown channel q")], "eps"),
    ("send n 1", [(SEND, "n is not a channel")], "eps"),
    ("recv n", [(RECV, "n is not a channel")], "eps"),
    (LOOP + "send w[x] 1", [(SEND, "w is not a channel array")], "c!<t in 1..2>"),
    (LOOP + "recv r[x]", [(RECV, "r is not a channel array")], "c?<t in 1..2>"),
    # the index of a plain channel is not inferred
    ("send w[q] 1", [(SEND, "w is not a channel array")], "c!"),
    ("recv r[q]", [(RECV, "r is not a channel array")], "c?"),
    # an array access without an index stops before the payload
    ("send aw q", [(SEND_A, "aw is a channel array and needs an index")], "eps"),
    ("recv ar", [(RECV_A, "ar is a channel array and needs an index")], "eps"),
    ("send r 1", [(SEND, "send on receive-only channel r")], "c!"),
    ("recv w", [(RECV, "receive on send-only channel w")], "c?"),
    (LOOP + "send ar[x] 1", [(SEND_A, "send on receive-only channel array ar")],
     "a[t]!<t in 1..2>"),
    (LOOP + "recv aw[x]", [(RECV_A, "receive on send-only channel array aw")],
     "a[t]?<t in 1..2>"),
    ("send aw[1] 1", [(SEND_A, INDEX)], "eps"),
    ("recv ar[1]", [(RECV_A, INDEX)], "eps"),
    ("for (t, x in 1..sz) send aw[x] 1",
     [(SEND_A, "index may exceed the bound of aw")], "a[t]!<t in 1..s>"),
    ("for (t, x in 1..sz) recv ar[x]",
     [(RECV_A, "index may exceed the bound of ar")], "a[t]?<t in 1..s>"),
    ("send w true", [(SEND, "payload type mismatch on w")], "c!"),
    (LOOP + "send aw[x] true", [(SEND_A, "payload type mismatch on aw")],
     "a[t]!<t in 1..2>"),
    # rule order: index, polarity, then payload; the index before the payload
    ("send r[q] true", [(SEND, "r is not a channel array"),
                        (SEND, "send on receive-only channel r"),
                        (SEND, "payload type mismatch on r")], "c!"),
    ("send ar[q] p", [(SEND_A, "send on receive-only channel array ar"),
                      ("Val Var", "unknown name q"), (SEND_A, INDEX),
                      ("Val Var", "unknown name p")], "eps"),
    ("recv ar[q]", [("Val Var", "unknown name q"), (RECV_A, INDEX)], "eps"),
])
def test_send_and_receive_rules(body, diags, flow):
    net = parse_program_or_raise(COMM_DECLS + f"network {{ actor {{ {body} }} }}")
    res = infer_expr(net.tenv, net.venv, _actor_expr(net, 0))
    assert [(d.rule, d.message) for d in res.diagnostics] == diags
    assert print_flow(res.flow) == flow


def test_channel_bindings_must_agree_on_payload():
    # the reader would otherwise receive the prefilled `false` as an integer
    # and get stuck on `v + 1`
    net = parse_program_or_raise("""
chan c : Channel(1, 1);
val w : Chan(-, c, Boolean);
val r : Chan(+, c, Integer);
flow c! || c?;
network {
  actor { let v = recv r; v + 1 }
  ||
  actor { send w true }
}
""")
    res = check_network(net)
    assert [(d.rule, d.message) for d in res.diagnostics] == [
        ("ValEnv Chan Payload", "r carries Integer on c, but w carries Boolean")]
    arrays = COMM_DECLS.replace("val ar : ChanArray(+, a, Integer, 2);",
                                "val ar : ChanArray(+, a, Boolean, 2);")
    res = check_network(parse_program_or_raise(arrays + "network { stop }"))
    assert [d.rule for d in res.diagnostics] == ["ValEnv Chan Payload"]
    assert "ar" in res.diagnostics[0].message and "aw" in res.diagnostics[0].message


def test_long_actor_checks_and_prints_under_the_default_recursion_limit():
    # the actor body is one 5000-link Let/SeqE chain; its flowstate is one
    # FSeq of 4900 comprehensions
    assert sys.getrecursionlimit() <= 1000
    stmts = ["let v = 0" if i % 50 == 0 else "send cw v" for i in range(5000)]
    sends = stmts.count("send cw v")
    net = parse_program_or_raise(
        "chan c : Channel(0, 2);\n"
        f"val kk : Size({sends});\n"
        "val cw : Chan(-, c, Integer);\n"
        "val cr : Chan(+, c, Integer);\n"
        f"flow c!<t in 1..{sends}> || c?<t in 1..{sends}>;\n"
        f"network {{ actor {{ {'; '.join(stmts)} }}\n"
        "  || actor { for (t, x in 1..kk) recv cr } }\n")
    result = check_network(net)
    assert result.ok, result.diagnostics
    printed = print_program(net)
    assert printed.count("send cw v;\n") == sends - 1
    reparsed = parse_program_or_raise(printed)
    assert print_program(reparsed) == printed
    assert reparsed.body == net.body  # `SeqE`/`Let` equality loops
