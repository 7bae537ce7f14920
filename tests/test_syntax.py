import random

import pytest
from conftest import ProgramGen, comp, ev, it, seq

from sdflow.conformance import comp_occurrence_count
from sdflow.parser import parse_program, parse_program_or_raise
from sdflow.printer import print_proc, print_program
from sdflow.syntax import (
    Comp, Divides, Event, Iterator, Num, Stop, SVar,
    flow_free_vars, rename_binder, subst_comp, subst_flow,
)


def test_subst_replaces_array_index():
    c = comp(ev("c!", "t"))
    out = subst_flow(c, "t", Num(3))
    assert out == comp(ev("c!", 3))


def test_subst_into_iterator_bounds():
    c = comp(ev("a!"), it("t0", 1, "t"))
    out = subst_flow(c, "t", Num(4))
    assert out == comp(ev("a!"), it("t0", 1, 4))


def test_subst_respects_shadowing():
    # t is bound by the comprehension itself: occurrences under the binder stay
    c = comp(ev("c!", "t"), it("t", 1, 8))
    before = flow_free_vars(c)
    out = subst_comp(c, "t", Num(3))
    assert out == c
    assert flow_free_vars(out) == before


def test_subst_removes_free_variable():
    c = comp(ev("c!"), it("u", 1, "t"))
    assert "t" in flow_free_vars(c)
    out = subst_flow(c, "t", Num(2))
    assert "t" not in flow_free_vars(out)


def test_subst_avoids_capture():
    # replacing u by t must not let the comprehension binder t capture it
    c = comp(ev("c!", "t"), it("t", 1, SVar("u")))
    out = subst_comp(c, "u", SVar("t"))
    assert isinstance(out, Comp)
    binder = out.iterators[0].var
    assert binder != "t"
    assert out.iterators[0].hi == SVar("t")
    assert out.event.index == SVar(binder)
    # so the result emits t events
    assert comp_occurrence_count(subst_comp(out, "t", Num(5))) == 5


def test_rename_binder_renames_its_scope_to_a_fresh_name():
    c = comp(ev("a!", "t"), it("t", 1, "s"), it("u", 1, "t"),
             Divides(Num(2), SVar("t")))
    out = rename_binder(c, "t", {"v"})
    new = out.iterators[0].var
    assert new not in {"t", "u", "s", "a", "v"}
    assert out == comp(ev("a!", new), it(new, 1, "s"), it("u", 1, new),
                       Divides(Num(2), SVar(new)))
    assert rename_binder(c, "w", {"v"}) == c


def test_print_stop():
    assert print_proc(Stop()).strip() == "stop"


def test_downsampler_prints_intro_guard():
    from conftest import load
    net = parse_program_or_raise(load("good", "downsampler.sdf"))
    assert "when (2 | x)" in print_program(net)


def test_downsampler_parses_to_loop_with_guarded_send():
    from conftest import load
    from sdflow.syntax import ActorE, For, Let, Recv, Send, When, proc_components
    net = parse_program_or_raise(load("good", "downsampler.sdf"))
    actor = proc_components(net.body)[1]
    assert isinstance(actor, ActorE) and isinstance(actor.expr, For)
    body = actor.expr.body
    assert isinstance(body, Let) and isinstance(body.bound, Recv)
    assert isinstance(body.body, When) and isinstance(body.body.body, Send)


def test_parse_is_total_on_garbage():
    out = parse_program("network { actor { send } }")
    assert isinstance(out, list) and out[0].rule == "Parse"
    assert out[0].loc is not None


@pytest.mark.parametrize("before, nest, after", [
    ("network { actor { ", "!", "x } }"),
    ("network { actor { ", "{", "0" + "}" * 2000 + " } }"),
    ("network { ", "(", "actor { 0 }" + ")" * 2000 + " }"),
    ("chan c : Channel(0, 1);\nflow ", "(", "c!" + ")" * 2000
     + ";\nnetwork { stop }"),
], ids=["derefs", "blocks", "process groups", "flow groups"])
def test_parse_reports_deep_nesting_as_a_diagnostic(before, nest, after):
    head = before + nest * 2000
    out = parse_program(head + after)
    assert isinstance(out, list), out
    assert out[0].rule == "Parse" and out[0].message == "nested too deeply"
    line, col = out[0].loc
    last_line = head.splitlines()[-1]
    assert line == head.count("\n") + 1
    assert len(last_line) - 2000 < col <= len(last_line)


def test_parse_reports_duplicate_declaration():
    out = parse_program("size n : Size(inf);\nsize n : Size(inf);\n"
                        "flow eps;\nnetwork { stop }")
    assert isinstance(out, list)
    assert "duplicate" in out[0].message


def test_roundtrip_generated_networks():
    rng = random.Random(99)
    for i in range(50):
        net = ProgramGen(random.Random(rng.randrange(1 << 30))).network()
        text = print_program(net)
        reparsed = parse_program(text)
        assert not isinstance(reparsed, list), (text, reparsed)
        assert reparsed == net, text


def test_roundtrip_corpus():
    from conftest import corpus_files
    for f in corpus_files("good"):
        net = parse_program_or_raise(f.read_text())
        assert parse_program_or_raise(print_program(net)) == net, f.name


def test_grouping_is_invisible_to_equality_and_round_trip():
    # the printer writes no grouping, so none may show in the tree
    nets = [parse_program_or_raise(
                "chan c : Channel(0, 3);\nval w : Chan(-, c, Integer);\n"
                f"flow {flow};\nnetwork {{ {body} }}\n")
            for flow in ("c! ; (c! ; c!)", "(c! ; c!) ; c!", "c! ; c! ; c!")
            for body in ("actor { 0 } || (stop || stop)",
                         "(actor { 0 } || stop) || stop",
                         "actor { 0 } || stop || stop")]
    for net in nets:
        assert net == nets[0] and hash(net.flow) == hash(nets[0].flow)
        assert hash(net.body) == hash(nets[0].body)
        assert parse_program_or_raise(print_program(net)) == net


def test_flat_nodes_splice_their_own_class_and_are_frozen():
    from sdflow.syntax import FrozenInstanceError, FSeq, Par, PPar
    a, b = comp(ev("c!")), comp(ev("c?"))
    for cls in (FSeq, PPar, Par):
        node = cls(a, cls(b, a))
        assert node.parts == (a, b, a) and node == cls(cls(a, b), a)
        assert hash(node) == hash(cls(a, b, a)) and node != FSeq(b, a, a)
        assert (node.left, node.right) == (cls(a, b), a)
        with pytest.raises(FrozenInstanceError):
            node.parts = (a, b)
        with pytest.raises(FrozenInstanceError):
            del node.parts
        with pytest.raises(TypeError):
            cls(a)


def _flat_nodes(root):
    """Every `FSeq`, `PPar` and `Par` reachable from `root` through record
    fields, tuples and parts."""
    from sdflow.syntax import FSeq, Par, PPar
    stack, out = [root], []
    while stack:
        node = stack.pop()
        if isinstance(node, (FSeq, PPar, Par)):
            out.append(node)
            stack += node.parts
        elif isinstance(node, tuple):
            stack += node
        elif hasattr(node, "__record_fields__"):
            stack += [getattr(node, f.name) for f in node.__record_fields__]
    return out


def test_sequence_and_parallel_nodes_are_flat():
    from conftest import CORPUS
    from perfbench import gen
    from sdflow.syntax import PActor, PPar, map_comps, par_flow, seq_flow
    from sdflow.typecheck import check_network
    sources = [f.read_text() for f in sorted(CORPUS.glob("*/*.sdf"))]
    corpus = len(sources)
    sources += [gen.pipeline(2000).source, gen.long_actor(2000).source]
    seen = 0
    for i, source in enumerate(sources):
        net = parse_program(source)
        if isinstance(net, list):
            continue
        flows = [f for f in (net.flow, check_network(net).flow)
                 if f is not None]
        roots = [net, *flows, par_flow(*flows, *flows)]
        for actor in (a for f in flows for a in PPar.parts_of(f)):
            if isinstance(actor, PActor):
                roots += [seq_flow(actor.flow, actor.flow),
                          map_comps(actor.flow, lambda c: c)]
        for node in _flat_nodes(tuple(roots)):
            seen += 1
            assert len(node.parts) >= 2
            assert all(p.__class__ is not node.__class__ for p in node.parts)
            if i >= corpus:
                continue
            # the binary view is the left-nested tree of the parts
            view, rights = node, []
            while view.__class__ is node.__class__:
                rights.append(view.right)
                view = view.left
            assert [view] + rights[::-1] == list(node.parts)
    assert seen > 100


def test_printers_walk_wide_networks_without_recursion():
    from sdflow.printer import print_proc_flow
    from sdflow.syntax import Event, PActor, par_flow
    width = 3000
    text = ("chan c : Channel(0, 1);\nflow "
            + " || ".join(["eps"] * width) + ";\nnetwork {\n"
            + "\n||\n".join(["  actor { 0 }"] * width) + "\n}\n")
    net = parse_program_or_raise(text)
    printed = print_program(net)
    assert printed.count("actor { 0 }") == width
    assert print_program(parse_program_or_raise(printed)) == printed
    flow = par_flow(*(PActor(comp(Event(f"c{i}", True))) for i in range(2000)))
    assert print_proc_flow(flow) == " || ".join(f"c{i}!" for i in range(2000))
    net = parse_program_or_raise("chan c : Channel(0, 1);\n"
                                 "val w : Chan(-, c, Integer);\n"
                                 "flow eps || c!;\nnetwork { stop }")
    assert print_proc_flow(net.flow) == "eps || c!"


def _recursive_print_flow(fs) -> str:
    """`printer.print_flow` as it was while `FSeq` was a binary node, a
    recursion over `left` and `right`."""
    from sdflow.printer import print_comp
    from sdflow.syntax import FEmpty, FSeq
    match fs:
        case FEmpty():
            return "eps"
        case Comp():
            return print_comp(fs)
        case FSeq(a, b):
            return f"{_recursive_print_flow(a)} ; {_recursive_print_flow(b)}"
    raise TypeError(f"not an actor flowstate: {fs!r}")


def test_print_flow_text_is_unchanged_on_every_corpus_flowstate():
    from conftest import CORPUS
    from sdflow.printer import print_flow
    from sdflow.syntax import PActor, PArray, PPar
    from sdflow.typecheck import check_network
    flows = 0
    for f in sorted(CORPUS.glob("*/*.sdf")):
        net = parse_program(f.read_text())
        if isinstance(net, list):
            continue
        stack = [net.flow, check_network(net).flow]
        while stack:
            match stack.pop():
                case PPar(a, b):
                    stack += (a, b)
                case PActor(flow) | PArray(body=flow):
                    assert print_flow(flow) == _recursive_print_flow(flow)
                    flows += 1
    assert flows > 60


def test_print_flow_walks_a_long_actor_without_recursion():
    from perfbench import gen
    from sdflow.printer import print_proc_flow
    from sdflow.typecheck import check_network
    net = parse_program_or_raise(gen.long_actor(2000).source)
    sends = " ; ".join(["c!"] * 2000)
    assert print_proc_flow(check_network(net).flow) == \
        f"{sends} || c?<t in 1..2000>"
    assert print_proc_flow(net.flow) == "c!<t in 1..2000> || c?<t in 1..2000>"


def test_wide_networks_compare_and_hash_without_recursion():
    from perfbench import gen
    from sdflow.typecheck import check_network
    net = parse_program_or_raise(gen.pipeline(2000).source)
    again = parse_program_or_raise(print_program(net))
    assert again == net and not again != net
    assert again.body == net.body and again.flow == net.flow
    assert hash(again.body) == hash(net.body)
    assert hash(again.flow) == hash(net.flow)
    flow, flow_again = check_network(net).flow, check_network(again).flow
    assert flow == flow_again
    assert hash(flow) == hash(flow_again)
    other = parse_program_or_raise(gen.pipeline(2000).source.replace(
        "recv r1999", "recv r1998"))
    assert other.body != net.body and not other.body == net.body


def test_env_lookup_index_shadows_like_a_reversed_scan():
    from sdflow.syntax import IntType, BoolType, SizeKind, Env
    venv = Env((("x", IntType()), ("y", IntType()))).extend("x", BoolType())
    assert venv.lookup("x") == BoolType() and venv.lookup("y") == IntType()
    assert venv.lookup("z") is None and "y" in venv and "z" not in venv
    tenv = Env((("s", SizeKind(Num(1))), ("s", SizeKind(Num(2)))))
    assert tenv.lookup("s") == SizeKind(Num(2))
    # a two-frame chain: the newest frame wins, the root shows through
    chain = tenv.extend("t", SizeKind(Num(3))).extend("s", SizeKind(Num(4)))
    assert chain.items == (("s", SizeKind(Num(4))),)
    assert chain.parent.parent is tenv
    assert chain.lookup("s") == SizeKind(Num(4))
    assert chain.lookup("t") == SizeKind(Num(3))
    assert tenv.lookup("s") == SizeKind(Num(2)) and "t" not in tenv
    assert "t" in chain and "u" not in chain
    # the cached index is not part of equality or hashing
    fresh = Env(tenv.items)
    assert fresh == tenv and hash(fresh) == hash(tenv)
