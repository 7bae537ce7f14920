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
    """`printer.print_flow` as it was before it walked `FSeq` chains with an
    explicit stack."""
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


class _Hashed:
    """Hashes as `h`, so a tuple of these hashes as the tuple of the
    objects they stand for."""
    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def _generated_hash(e) -> int:
    """The hash a generated `__hash__` gives a `Par` or `PPar` tree,
    `hash((left, right))` all the way down, without recursion."""
    from sdflow.syntax import Par, PPar
    hashes, stack = {}, [e]
    while stack:
        node = stack.pop()
        if node.__class__ not in (Par, PPar) or id(node) in hashes:
            continue
        kids = [k for k in (node.left, node.right)
                if k.__class__ in (Par, PPar) and id(k) not in hashes]
        if kids:
            stack += [node] + kids
            continue
        hashes[id(node)] = hash(tuple(
            _Hashed(hashes[id(k)]) if id(k) in hashes else k
            for k in (node.left, node.right)))
    return hashes[id(e)]


def test_wide_networks_compare_and_hash_without_recursion():
    from perfbench import gen
    from sdflow.typecheck import check_network
    net = parse_program_or_raise(gen.pipeline(2000).source)
    again = parse_program_or_raise(print_program(net))
    assert again == net and not again != net
    assert again.body == net.body and again.flow == net.flow
    assert hash(again.body) == hash(net.body) == _generated_hash(net.body)
    assert hash(again.flow) == hash(net.flow) == _generated_hash(net.flow)
    flow, flow_again = check_network(net).flow, check_network(again).flow
    assert flow == flow_again
    assert hash(flow) == hash(flow_again) == _generated_hash(flow)
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
