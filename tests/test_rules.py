"""Every rule that `src/sdflow` names has a pinned diagnostic.

`emitted_rules` finds each rule literal in `src/sdflow` with `ast`: a
string given as the rule of a `Diagnostic`, or of a function with a `rule`
parameter, or assigned to a variable named `rule`.  Each must have a case
that pins the exact stderr of `sdflow check` on a program that breaks it
(with the sizes given, for `Size Bound`, which only given sizes can break;
`sdflow run` reports it too), here or in `test_cli`'s `VALUE_RULES` and
`FLOW_RULES`.  A rule that no command reaches has no place in `src/`.  The
programs live here, not in corpus/, whose files perfbench's check-cli
workload counts.
"""

import ast
import re

import pytest
from conftest import ROOT
from test_cli import FLOW_RULES, VALUE_RULES

from sdflow.cli import main

ARRAY = ("chanarray a : ChannelArray(0, 1, 2);\n"
         "val aw : ChanArray(-, a, Integer, 2);\n"
         "val ar : ChanArray(+, a, Integer, 2);")
WRITER = "chan c : Channel(0, 2);\nval cw : Chan(-, c, Integer);"

# (declarations, network flowstate, network body, stderr of `check`)
CHECK_RULES = [
    ("", "eps", "", "[Parse] at 5:1 expected an actor, found '}'"),
    ("size s : Size(zz);", "eps", "actor { 0 }",
     "[Kind Size] unknown size parameter zz"),
    ("chan c : Channel(0, zz);", "eps", "actor { 0 }",
     "[Kind Chan] unknown size parameter zz"),
    ("chanarray a : ChannelArray(0, 1, zz);", "eps", "actor { 0 }",
     "[Kind Chan Array] unknown size parameter zz"),
    ("chan c : Channel(0, 1);\nval cw : Chan(-, c, Ref(Integer));", "eps",
     "actor { 0 }",
     "[Ty Chan Share] val cw: c carries Ref(Integer): a payload holds no "
     "reference or procedure, as actors share only channels"),
    ("chan c : Channel(0, 1);\nval x : Size(c);", "eps", "actor { 0 }",
     "[Ty Size] witness of a size/index type must be a size quantity"),
    ("val x : Size(zz);", "eps", "actor { 0 }",
     "[Ty Var] unknown size parameter zz"),
    ("chan c : Channel(0, 1);\nval cw : Chan(-, c, Integer);\n"
     "val cr : Chan(+, c, Boolean);", "eps", "actor { 0 }",
     "[ValEnv Chan Payload] cr carries Boolean on c, but cw carries Integer"),
    ("", "eps", "actor { x }", "[Val Var] at 4:11 unknown name x"),
    ("chan c : Channel(0, 1);", "eps",
     "actor { let f = fn () [c! => eps] 0; 0 }",
     "[Val Abs] at 4:19 body communication differs from the latent "
     "annotation"),
    ("", "eps", "actor { 1 := 2 }",
     "[Val Assign] at 4:11 assignment target must be a reference"),
    ("", "eps", "actor { if 1 then 2 else 3 }",
     "[Val Cond] at 4:11 condition must be Boolean"),
    ("", "eps", "actor { for (t, x in 1..1) 0 }",
     "[Val For] at 4:11 loop bound must be a size value"),
    ("", "eps", "actor { send zz 1 }",
     "[Val Send] at 4:11 unknown channel zz"),
    ("", "eps", "actor { recv zz }",
     "[Val Receive] at 4:11 unknown channel zz"),
    (ARRAY, "eps", "actor { send aw 1 }",
     "[Val Send Array] at 6:11 aw is a channel array and needs an index"),
    (ARRAY, "eps", "actor { recv ar }",
     "[Val Recv Array] at 6:11 ar is a channel array and needs an index"),
    (WRITER, "eps", "actor { send cw 1 }",
     "[Val Eq] flowstate mismatch: declared flowstate differs from the "
     "actors' behavior"),
    ("", "eps", "actor { for (t, x in 1..size(2)) when (x | x) 0 }",
     "[wfguard] at 4:36 divisibility guards compare a size against a loop "
     "index"),
    ("val n : Integer;", "eps", "actors (t, x in 1..n) { 0 }",
     "[Proc Comp] at 4:3 actor-array bound must be a size value"),
    ("chan c : Channel(0, 1);", "[ eps | t in 1..c ]", "actor { 0 }",
     "[FS Comp] actor-array bounds must be sizes"),
    ("", "d!", "actor { 0 }", "[FS Send] unbound channel d"),
    ("", "a[1]!", "actor { 0 }", "[FS Array Send] unbound channel a"),
    (WRITER, "c! || c!", "actor { send cw 1 } || actor { send cw 2 }",
     "[FS Det Par] writes on c and c are not confined to a single actor"),
    (WRITER, "c!", "actor { send cw 1 }",
     "[FS Prog Cons] production is never consumed: 1 on c"),
]

# (declarations, network body, sizes, stderr of `check` and of `run`)
SIZE_RULES = [
    ("size s : Size(2);", "actor { 0 }", ("--size", "s=3"),
     "[Size Bound] size s=3 exceeds its declared bound 2"),
]


def _rule(diagnostic: str) -> str:
    return re.match(r"\[([^]]+)\]", diagnostic)[1]


def _literals(node) -> list:
    """The strings `node` may evaluate to: a literal, or either branch of a
    conditional expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        return _literals(node.body) + _literals(node.orelse)
    return []


def emitted_rules() -> set:
    """Every rule literal in `src/sdflow`."""
    rules = set()
    for path in sorted((ROOT / "src" / "sdflow").glob("*.py")):
        tree = ast.parse(path.read_text())
        # callee -> the position of its `rule` among a call's arguments
        at = {"Diagnostic": 0}
        for f in ast.walk(tree):
            if isinstance(f, ast.FunctionDef):
                names = [a.arg for a in f.args.args]
                if "rule" in names:
                    at[f.name] = names.index("rule") - (names[:1] == ["self"])
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "attr",
                                 getattr(node.func, "id", None))
                if callee in at and len(node.args) > at[callee]:
                    rules.update(_literals(node.args[at[callee]]))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "rule":
                        rules.update(_literals(node.value))
                    elif isinstance(target, ast.Tuple) \
                            and isinstance(node.value, ast.Tuple):
                        for name, value in zip(target.elts, node.value.elts):
                            if getattr(name, "id", None) == "rule":
                                rules.update(_literals(value))
    return rules


def test_every_rule_in_src_has_a_pinned_diagnostic():
    pinned = [_rule(case[-1]) for case in
              CHECK_RULES + SIZE_RULES + VALUE_RULES + FLOW_RULES]
    assert len(pinned) == len(set(pinned)), "a rule is pinned twice"
    assert set(pinned) == emitted_rules()


def _network(decls: str, flow: str, body: str) -> str:
    return f"{decls}\nflow {flow};\nnetwork {{\n  {body}\n}}\n"


def _exit_and_output(argv: list, capsys) -> tuple:
    with pytest.raises(SystemExit) as exited:
        main(argv)
    return exited.value.code, capsys.readouterr()


@pytest.mark.parametrize("decls, flow, body, stderr", CHECK_RULES,
                         ids=[_rule(case[-1]) for case in CHECK_RULES])
def test_check_names_the_rule(decls, flow, body, stderr, tmp_path, capsys):
    path = tmp_path / "network.sdf"
    path.write_text(_network(decls, flow, body))
    assert _exit_and_output(["check", str(path)], capsys) == \
        (1, ("", stderr + "\n"))


@pytest.mark.parametrize("decls, body, args, stderr", SIZE_RULES,
                         ids=[_rule(case[-1]) for case in SIZE_RULES])
def test_check_names_the_rule_of_a_given_size(decls, body, args, stderr,
                                              tmp_path, capsys):
    path = tmp_path / "network.sdf"
    path.write_text(_network(decls, "eps", body))
    assert _exit_and_output(["check", str(path), *args], capsys) == \
        (1, ("", stderr + "\n"))


@pytest.mark.parametrize("decls, body, args, stderr", SIZE_RULES,
                         ids=[_rule(case[-1]) for case in SIZE_RULES])
def test_run_names_the_rule(decls, body, args, stderr, tmp_path, capsys):
    path = tmp_path / "network.sdf"
    path.write_text(_network(decls, "eps", body))
    assert _exit_and_output(["run", str(path), *args], capsys) == \
        (1, ("", stderr + "\n"))
