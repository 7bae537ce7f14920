import sys

import pytest
from conftest import comp, ev, it, load, seq, tenv, traced_run

from sdflow import netcheck
from sdflow.netcheck import (
    CONSUMER, PRODUCER, check_determinism, check_progress, classify_event,
    inchans, outchans, schedule_to_json,
)
from sdflow.parser import parse_program_or_raise
from sdflow.syntax import (
    ChannelArrayKind, ChannelKind, Divides, Event, Num, PActor, PArray, PPar,
    SizeKind, SVar, INF, par_flow,
)
from sdflow.typecheck import check_network

ENV = tenv(
    s=SizeKind(INF),
    c=ChannelKind(0, Num(2)),
    d=ChannelKind(1, Num(2)),
    i=ChannelArrayKind(0, Num(2), SVar("s")),
    j=ChannelArrayKind(1, Num(2), SVar("s")),
)


# --- classification and complement ------------------------------------------

def test_classify_send_no_delay_is_producer():
    assert classify_event(ENV, Event("c", True)) == PRODUCER


def test_classify_recv_with_delay_is_producer():
    assert classify_event(ENV, Event("d", False)) == PRODUCER


def test_classify_send_with_delay_is_consumer():
    assert classify_event(ENV, Event("d", True)) == CONSUMER


def test_classify_array_events_follow_their_flag():
    assert classify_event(ENV, Event("i", True, Num(1))) == PRODUCER
    assert classify_event(ENV, Event("j", True, Num(1))) == CONSUMER


def test_complement_swaps_direction():
    assert Event("c", True).complement() == Event("c", False)
    assert Event("i", False, SVar("t")).complement() == \
        Event("i", True, SVar("t"))


def test_complement_is_involution():
    for evn in (Event("c", True), Event("d", False), Event("i", True, Num(3))):
        assert evn.complement().complement() == evn
        a = classify_event(ENV, evn)
        b = classify_event(ENV, evn.complement())
        assert {a, b} == {PRODUCER, CONSUMER}


# --- channel use sets -----------------------------------------------------------

def test_inchans_plain():
    fs = PActor(seq(comp(ev("c?"), it("t", 1, "s")),
                    comp(ev("d!"), it("t", 1, "s"))))
    assert inchans(fs) == {("chan", "c")}
    assert outchans(fs) == {("chan", "d")}


def test_inchans_unrolls_numeric_array_range():
    fs = PActor(comp(ev("i?", "t0"), it("t0", 1, 3)))
    assert inchans(fs) == {("elem", "i", 1), ("elem", "i", 2), ("elem", "i", 3)}


def test_inchans_symbolic_array_range():
    fs = PActor(comp(ev("i?", "t0"), it("t0", 1, "s")))
    assert inchans(fs) == {("range", "i", Num(1), SVar("s"))}


# --- determinism ------------------------------------------------------------------

def test_determinism_single_pair_ok():
    fs = PPar(PActor(comp(ev("c!"))), PActor(comp(ev("c?"))))
    assert check_determinism(ENV, fs) == []


def test_determinism_two_senders_rejected():
    fs = PPar(PActor(comp(ev("c!"))),
              PPar(PActor(comp(ev("c!"))), PActor(comp(ev("c?")))))
    diags = check_determinism(ENV, fs)
    assert diags and diags[0].rule == "FS Det Par"


def test_determinism_symbolic_range_vs_element_conservative():
    a = PActor(comp(ev("i?", "t0"), it("t0", 1, "s")))
    b = PActor(comp(ev("i?", 2)))
    diags = check_determinism(ENV, PPar(a, b))
    assert diags and diags[0].rule == "FS Det Par"


def test_determinism_orders_several_symbolic_ranges_without_crashing():
    env = tenv(s=SizeKind(INF), m=SizeKind(SVar("s")),
               i=ChannelArrayKind(0, Num(2), SVar("s")))
    a = PActor(seq(comp(ev("i?", "t"), it("t", 1, "m")),
                   comp(ev("i?", "t"), it("t", 1, "s"))))
    b = PActor(comp(ev("i?", "t"), it("t", 1, "s")))
    assert [d.message for d in check_determinism(env, PPar(a, b))] == [
        "reads on i[1..m] and i[1..s] are not confined to a single actor",
        "reads on i[1..s] and i[1..s] are not confined to a single actor"]


def test_determinism_array_elements_disjoint():
    a = PActor(comp(ev("i!", 1)))
    b = PActor(comp(ev("i!", 2)))
    assert check_determinism(ENV, PPar(a, b)) == []


def test_determinism_actor_array_fixed_index_rejected():
    arr = PArray("t", Num(1), SVar("s"), comp(ev("i?", 2)))
    diags = check_determinism(ENV, arr)
    assert diags and diags[0].rule == "FS Det Par"


def test_determinism_actor_array_plain_channel_rejected():
    arr = PArray("t", Num(1), SVar("s"), comp(ev("c!")))
    diags = check_determinism(ENV, arr)
    assert diags and "every element" in diags[0].message


def test_determinism_takes_a_guarded_array_use_over_its_whole_range():
    env = tenv(a=ChannelArrayKind(0, Num(2), Num(4)))
    writer = PActor(comp(ev("a!", "t"), it("t", 1, 4),
                         Divides(Num(2), SVar("t"))))
    reader = PActor(comp(ev("a?", "t"), it("t", 1, 4)))
    assert check_determinism(env, par_flow(writer, reader)) == []
    other = PActor(comp(ev("a!", "t"), it("t", 3, 4)))
    assert [d.message for d in check_determinism(
        env, par_flow(writer, reader, other))] == [
        f"writes on a[{k}] and a[{k}] are not confined to a single actor"
        for k in (3, 4)]


# --- progress ----------------------------------------------------------------------

def test_progress_two_step_pipeline():
    fs = PPar(PActor(comp(ev("c!"), it("t", 1, "s"))),
              PActor(comp(ev("c?"), it("t", 1, "s"))))
    schedule = check_progress(ENV, fs)
    kinds = [(s.actor, s.action) for s in schedule]
    assert kinds == [("a0", "produce"), ("a1", "consume")]


def test_progress_producer_first_stratification():
    fs = PPar(PActor(seq(comp(ev("c!"), it("t", 1, "s")),
                         comp(ev("d?"), it("t", 1, "s")))),
              PActor(seq(comp(ev("c?"), it("t", 1, "s")),
                         comp(ev("d!"), it("t", 1, "s")))))
    env = tenv(s=SizeKind(INF), c=ChannelKind(0, Num(2)),
               d=ChannelKind(0, Num(2)))
    schedule = check_progress(env, fs)
    assert [s.action for s in schedule] == \
        ["produce", "consume", "produce", "consume"]


def test_progress_rejects_read_before_write_cycle():
    env = tenv(s=SizeKind(INF), c=ChannelKind(0, Num(2)),
               d=ChannelKind(0, Num(2)))
    fs = PPar(PActor(seq(comp(ev("d?"), it("t", 1, "s")),
                         comp(ev("c!"), it("t", 1, "s")))),
              PActor(seq(comp(ev("c?"), it("t", 1, "s")),
                         comp(ev("d!"), it("t", 1, "s")))))
    out = check_progress(env, fs)
    assert out and hasattr(out[0], "rule")
    assert "cycle" in out[0].message


def test_progress_accepts_cycle_with_delay():
    # same network, d declared with a delay: the read becomes a producer
    fs = PPar(PActor(seq(comp(ev("d?"), it("t", 1, "s")),
                         comp(ev("c!"), it("t", 1, "s")))),
              PActor(seq(comp(ev("c?"), it("t", 1, "s")),
                         comp(ev("d!"), it("t", 1, "s")))))
    schedule = check_progress(ENV, fs)  # ENV has d delayed
    assert not (schedule and hasattr(schedule[0], "rule"))


def test_progress_actor_cannot_satisfy_itself():
    env = tenv(s=SizeKind(INF), c=ChannelKind(0, Num(4)))
    fs = PActor(seq(comp(ev("c!"), it("t", 1, "s")),
                    comp(ev("c?"), it("t", 1, "s"))))
    out = check_progress(env, fs)
    assert out and hasattr(out[0], "rule")


def test_progress_partial_consumption_splits_counts():
    env = tenv(c=ChannelKind(0, Num(4)))
    fs = PPar(PActor(comp(ev("c!"), it("t", 1, 4))),
              PActor(seq(comp(ev("c?"), it("t", 1, 2)),
                         comp(ev("c?"), it("u", 1, 2)))))
    schedule = check_progress(env, fs)
    assert not (schedule and hasattr(schedule[0], "rule"))
    assert len(schedule) == 3


def test_progress_counts_numeric_array_comprehensions_of_any_size():
    # one producer of 2n tokens per element feeds two consumers of n each
    env = tenv(a=ChannelArrayKind(0, Num(1), Num(2)))
    for n in (2000, 20000):
        recv = PActor(comp(ev("a?", "t"), it("u", 1, n), it("t", 1, 2)))
        fs = par_flow(PActor(comp(ev("a!", "t"), it("u", 1, 2 * n),
                                  it("t", 1, 2))), recv, recv)
        out = check_progress(env, fs)
        assert [s.action for s in out] == ["produce", "consume", "consume"]
    # a range from 0 has hi + 1 values: against 1..3 one token per element
    # is left over, against 1..4 none is; the same on a plain channel
    env = tenv(a=ChannelArrayKind(0, Num(1), Num(2)), c=ChannelKind(0, Num(4)))
    for index, elems in (("t", (it("t", 1, 2),)), (None, ())):
        for hi, accepted in ((3, False), (4, True)):
            fs = PPar(PActor(comp(ev("a!" if index else "c!", index),
                                  it("u", 0, 3), *elems)),
                      PActor(comp(ev("a?" if index else "c?", index),
                                  it("u", 1, hi), *elems)))
            out = check_progress(env, fs)
            assert out and (not hasattr(out[0], "rule")) == accepted


def test_progress_schedule_serializes():
    fs = PPar(PActor(comp(ev("c!"), it("t", 1, "s"))),
              PActor(comp(ev("c?"), it("t", 1, "s"))))
    steps = schedule_to_json(check_progress(ENV, fs))
    assert steps[0] == {"actor": "a0", "action": "produce",
                        "event": "c!<t in 1..s>", "multiplicity": "s"}


def test_rejected_corpus_names_cycles():
    net = parse_program_or_raise(load("rejected", "undelayed_cycle.sdf"))
    res = check_network(net)
    assert any(d.rule == "FS Prog Cons" and "cycle" in d.message
               for d in res.diagnostics)


UNCONSUMED = """
chan c : Channel(0, 4);
val w : Chan(-, c, Integer);
val r : Chan(+, c, Integer);
flow c!<t in 1..2> || c?<u in 1..1>;
network {
  actor { for (t, x in 1..size(2)) send w 1 }
  ||
  actor { for (u, y in 1..size(1)) recv r }
}
"""


def test_unconsumed_production_is_rejected():
    # the run would end with one item left in c
    res = check_network(parse_program_or_raise(UNCONSUMED))
    assert [str(d) for d in res.diagnostics] == \
        ["[FS Prog Cons] production is never consumed: 1 on c"]


def test_unconsumed_symbolic_array_production_names_the_comprehension():
    fs = PPar(PActor(seq(comp(ev("i!", "t"), it("t", 1, "s")),
                         comp(ev("i!", "t"), it("t", 1, "s")))),
              PActor(comp(ev("i?", "t"), it("t", 1, "s"))))
    out = check_progress(ENV, fs)
    assert [d.message for d in out] == \
        ["production is never consumed: 1 on i[1..s]"]



TWICE_DRAINED = """
size s : Size(inf);
chanarray a : ChannelArray(0, 2, {w});
val n : Size({w});
val dist : ChanArray(-, a, Integer, {w});
val coll : ChanArray(+, a, Integer, {w});
flow a[t]!<t in 1..{w}, u in 1..2> || a[t]?<t in 1..{w}> ; a[t]?<t in 1..{w}>;
network {{
  actor {{ for (t, x in 1..n) for (u, y in 1..size(2)) send dist[x] fromIndex(y) }}
  ||
  actor {{ for (t, x in 1..n) recv coll[x]; for (t, x in 1..n) recv coll[x] }}
}}
"""


@pytest.mark.parametrize("width", ["s", "2"])
def test_twice_drained_array_is_accepted_at_any_width(width):
    # the distributor sends each element twice, the collector drains the
    # whole array twice: balanced per element whatever the loop shapes
    from sdflow.runtime import explore, instantiate
    net = parse_program_or_raise(TWICE_DRAINED.format(w=width))
    res = check_network(net)
    assert res.ok, [str(d) for d in res.diagnostics]
    for k in (1, 2, 3):
        ex = explore(instantiate(net, {"s": k}))
        assert ex.all_complete and len(ex.terminals) == 1


def test_symbolic_array_counts_ignore_iterator_order():
    fs = PPar(PActor(comp(ev("i!", "t"), it("u", 1, 2), it("t", 1, "s"))),
              PActor(comp(ev("i?", "t"), it("t", 1, "s"), it("u", 1, 2))))
    assert [s.action for s in check_progress(ENV, fs)] == \
        ["produce", "consume"]

# --- scaling -----------------------------------------------------------------------

def pipeline_source(n: int) -> str:
    """n actors chained by n-1 channels, each link carrying s items."""
    decls = ["size s : Size(inf);", "val sz : Size(s);"]
    for k in range(1, n):
        decls += [f"chan c{k} : Channel(0, 2);",
                  f"val w{k} : Chan(-, c{k}, Integer);",
                  f"val r{k} : Chan(+, c{k}, Integer);"]
    flows = ["c1!<t in 1..s>"]
    flows += [f"c{k}?<t in 1..s> ; c{k + 1}!<t in 1..s>" for k in range(1, n - 1)]
    flows.append(f"c{n - 1}?<t in 1..s>")
    actors = ["actor { for (t, x in 1..sz) send w1 fromIndex(x) }"]
    actors += [f"actor {{ for (t, x in 1..sz) {{ let v = recv r{k}; "
               f"send w{k + 1} v }} }}" for k in range(1, n - 1)]
    actors.append(f"actor {{ for (t, x in 1..sz) recv r{n - 1} }}")
    return ("\n".join(decls) + "\nflow " + " || ".join(flows) + ";\n"
            + "network { " + " || ".join(actors) + " }\n")


def test_pipeline_600_is_accepted():
    assert sys.getrecursionlimit() <= 1000
    res = check_network(parse_program_or_raise(pipeline_source(600)))
    assert res.ok, res.diagnostics
    assert len(res.schedule) == 2 * 599


def test_2000_actor_network_checks_without_recursion_error():
    assert sys.getrecursionlimit() <= 1000
    res = check_network(parse_program_or_raise(pipeline_source(2000)))
    assert res.ok, res.diagnostics


def test_determinism_computes_each_components_uses_once(monkeypatch):
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return comp_uses(*args)

    comp_uses = netcheck._comp_uses
    monkeypatch.setattr(netcheck, "_comp_uses", counting)
    per_size = {}
    for n in (100, 400):
        env = tenv(s=SizeKind(INF),
                   **{f"c{k}": ChannelKind(0, Num(2)) for k in range(n + 1)})
        fs = par_flow(*(PActor(seq(comp(ev(f"c{k}?"), it("t", 1, "s")),
                                   comp(ev(f"c{k + 1}!"), it("t", 1, "s"))))
                        for k in range(n)))
        calls = 0
        assert check_determinism(env, fs) == []
        per_size[n] = calls
    assert per_size[400] <= 5 * per_size[100], per_size


def test_inchans_match_runtime_channel_usage():
    # channels named by the use sets are exactly those touched at runtime
    from sdflow.runtime import instantiate
    from sdflow.typecheck import check_proc
    net = parse_program_or_raise(load("good", "downsampler.sdf"))
    flow, _ = check_proc(net.tenv, net.venv, net.body)
    static_reads = {u[1] for u in inchans(flow)}
    static_writes = {u[1] for u in outchans(flow)}
    _, trace = traced_run(instantiate(net, {"s": 4}))
    seen_reads = {t.label.chan for t in trace
                  if t.label and not t.label.is_send}
    seen_writes = {t.label.chan for t in trace
                   if t.label and t.label.is_send}
    assert seen_reads == static_reads
    assert seen_writes == static_writes


def test_progress_accepts_literal_width_actor_array():
    # each unrolled worker produces one element of `b`; the collector's
    # comprehension is discharged by all of them together
    import re
    from sdflow.runtime import explore, instantiate
    source = re.sub(r"\bs\b", "2",
                    load("good", "worker_array_pipeline.sdf")
                    .replace("size s : Size(inf);\n", ""))
    net = parse_program_or_raise(source)
    result = check_network(net)
    assert result.ok, [str(d) for d in result.diagnostics]
    ex = explore(instantiate(net, {}))
    assert ex.all_complete and len(ex.terminals) == 1


def test_progress_consumer_cannot_use_elements_it_produced_itself():
    env = tenv(a=ChannelArrayKind(0, Num(2), Num(2)))
    fs = PActor(seq(comp(ev("a!", 1)), comp(ev("a?", 1), it("t", 1, 1))))
    out = check_progress(env, fs)
    assert [d.rule for d in out] == ["FS Prog Cons"]
