"""Nesting depth is a language limit, `parser.MAX_NESTING` levels.

Each shape below nests one construct as deep as the limit allows; how the
parser counts its levels is written next to it.  At the limit a program must
pass `check`, print, `run` and `conform` under Python's default recursion
limit, since every pass after the parser recurses on the tree.  One level
deeper, the parser reports `[Parse] nested too deeply` at the construct that
crosses the limit.
"""

import sys

import pytest

from sdflow.cli import main
from sdflow.parser import MAX_NESTING as M, parse_program
from sdflow.printer import print_program


def program(sender="send cw 7", cap="2", flow="c!", network=None):
    """One sender and one receiver on a channel `c`."""
    actors = network or "actor { SENDER } || actor { recv cr }"
    return (f"chan c : Channel(0, {cap});\n"
            "val cw : Chan(-, c, Integer);\n"
            "val cr : Chan(+, c, Integer);\n"
            "val one : Size(1);\n"
            f"flow {flow} || c?;\n"
            "network { " + actors.replace("SENDER", sender) + " }\n")


def fors(k):
    loops = "".join(f"for (t{i}, x{i} in 1..one) " for i in range(k))
    return program(sender=loops + "send cw 7")


def fns(k):
    outer = "fn (a : Integer) [eps => eps] " * (k - 1)
    return program(sender=f"let f = {outer}fn (a : Integer) [c! => eps] "
                          "send cw a; f" + "(1)" * k)


# name -> (the program at nesting k, the k at the limit, where a program
# one level deeper crosses it).  In an actor, the process is level 1 and
# a statement level 2.
SHAPES = {
    # each group's expression is one level: 2 + k
    "parens": (lambda k: program(sender="send cw " + "1 + (" * k + "7"
                                 + ")" * k),
               M - 2, lambda src: src.rindex("7")),
    # every operator after the first holds an operator: 2 + (k - 1)
    "chain": (lambda k: program(sender="send cw " + " + ".join(["1"] * (k + 1))),
              M - 1, lambda src: src.rindex("+")),
    # a run of `(` is one level, and each group that resumes with an
    # operator on the group it encloses one more: 4 + (k - 1)
    "left groups": (lambda k: program(sender="send cw " + "(" * k + "7"
                                      + " + 1)" * k),
                    M - 3, lambda src: src.rindex("+")),
    "left size groups": (lambda k: program(cap="(" * k + "7" + " + 1)" * k),
                         M - 1, lambda src: src.index(";") - 5),
    # `send`'s payload 3, the group 4, each `!` and `ref` operand one
    "refs": (lambda k: program(sender="send cw (" + "!" * k + "ref " * k + "7)"),
             (M - 4) // 2, lambda src: src.rindex("ref")),
    # each block's statements one level deeper, then the payload: 3 + k
    "blocks": (lambda k: program(sender="{ let v = 1; " * k + "send cw 7"
                                 + " }" * k),
               M - 3, lambda src: src.rindex("7")),
    # each branch one level deeper, then the payload: 3 + k
    "ifs": (lambda k: program(sender="if true then " * k + "send cw 7"
                              + " else send cw 1" * k),
            M - 3, lambda src: src.index("7")),
    "whens": (lambda k: program(sender="for (t, x in 1..one) "
                                + "when (1 | x) " * (k - 1) + "send cw 7"),
              M - 3, lambda src: src.index("7")),
    "fors": (fors, M - 3, lambda src: src.index("send cw 7") + 8),
    "fns": (fns, M - 3, lambda src: src.index("send cw a") + 8),
    # a parameter's type 3, each `Ref(` one more
    "types": (lambda k: program(sender="let f = fn (a : " + "Ref(" * k
                                + "Integer" + ")" * k + ") [eps => eps] 0; "
                                "send cw 7"),
              M - 3, lambda src: src.rindex("Ref(") + 4),
    # a size expression 1, each group one more
    "capacity": (lambda k: program(cap="1 + (" * k + "7" + ")" * k),
                 M - 1, lambda src: src.index("7")),
    "flow groups": (lambda k: program(flow="(" * k + "c!" + ")" * k),
                    M - 1, lambda src: src.index("c!")),
    "process groups": (lambda k: program(
        network="(" * k + "actor { SENDER } || actor { recv cr }" + ")" * k),
        M - 3, lambda src: src.index("7")),
}


def _loc(source: str, offset: int) -> tuple[int, int]:
    line = source.count("\n", 0, offset) + 1
    return line, offset - (source.rfind("\n", 0, offset) + 1) + 1


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_the_limit_is_64_levels():
    assert M == 64


@pytest.mark.parametrize("name", SHAPES)
def test_a_program_at_the_limit_checks_prints_runs_and_conforms(
        name, tmp_path, capsys, default_recursion_limit):
    build, k, _ = SHAPES[name]
    source = build(k)
    net = parse_program(source)
    assert not isinstance(net, list), net
    printed = print_program(net)
    assert parse_program(printed) == net
    path = tmp_path / "limit.sdf"
    path.write_text(source)
    for command in ("check", "run", "conform"):
        assert main([command, str(path)]) == 0, (command, capsys.readouterr())
    out = capsys.readouterr()
    assert out.out.splitlines()[0] == "ok" and out.err == ""


@pytest.mark.parametrize("name", SHAPES)
def test_one_level_past_the_limit_is_reported_where_it_crosses(
        name, default_recursion_limit):
    build, k, crossing = SHAPES[name]
    source = build(k + 1)
    out = parse_program(source)
    assert isinstance(out, list), name
    assert [(d.rule, d.message) for d in out] == [("Parse", "nested too deeply")]
    assert out[0].loc == _loc(source, crossing(source))


def test_a_run_of_parentheses_is_one_level(default_recursion_limit):
    source = program(sender="send cw " + "(" * 5000 + "7" + ")" * 5000)
    net = parse_program(source)
    assert net == parse_program(program())


def test_nesting_is_reported_through_the_cli(tmp_path, capsys):
    build, k, crossing = SHAPES["parens"]
    source = build(k + 1)
    path = tmp_path / "deep.sdf"
    path.write_text(source)
    with pytest.raises(SystemExit) as exc:
        main(["check", str(path)])
    assert exc.value.code == 1
    line, col = _loc(source, crossing(source))
    assert capsys.readouterr().err.strip() == \
        f"[Parse] at {line}:{col} nested too deeply"
