"""What a `check` process pays for at start-up.

Record classes get their generated methods on first call, so a fresh
interpreter's `import sdflow.cli` compiles none of them (a start-up cell in
`test_scaling.py`), and a class whose methods are still stubs behaves as
its dataclass twin.  The parser pauses
the cyclic collector while it builds the tree and leaves it as it found it;
the tree is acyclic, so parsing leaves nothing for the collector.  The
process entry freezes what the imports built; `main`, which tests call in
process, does not.
"""

import ast
import gc
import json
import os
import subprocess
import sys

import pytest
from conftest import CORPUS, ROOT

from sdflow.cli import main
from sdflow.parser import MAX_NESTING, parse_program


def fresh(script: str) -> dict:
    """Run `script` in a fresh interpreter that sees `src` and `tests`; it
    prints one JSON value."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, cwd=ROOT, env=env, check=True)
    return json.loads(out.stdout)


def test_unbuilt_records_agree_with_their_dataclass_twins():
    # each class is compared before anything else has called its methods
    result = fresh(
        "import json\n"
        "from sdflow import syntax\n"
        "import test_records\n"
        "pending, failed = [], []\n"
        "for cls in test_records.RECORDS:\n"
        "    pending.append(cls in syntax._PENDING)\n"
        "    try:\n"
        "        test_records.test_record_matches_dataclass_twin(cls)\n"
        "    except Exception as exc:\n"
        "        failed.append(f'{cls.__name__}: {exc!r}')\n"
        "print(json.dumps({'pending': pending, 'failed': failed,"
        " 'left': len(syntax._PENDING)}))\n")
    assert result["failed"] == []
    assert len(result["pending"]) >= 75 and all(result["pending"])
    assert result["left"] == 0


def test_a_stub_keeps_its_class_file_name_and_builds_on_any_first_call():
    # module constants are made without `__init__`, so `==` or `hash` can
    # be the first call
    result = fresh(
        "import json\n"
        "from sdflow import syntax\n"
        "from sdflow.syntax import INF, ONE, ZERO, Infinity, Num\n"
        "names = lambda cls: [getattr(cls, m).__code__.co_filename"
        " for m in ('__init__', '__eq__', '__hash__')]\n"
        "before = names(Num)\n"
        "out = {'pending': [Num in syntax._PENDING,"
        " Infinity in syntax._PENDING],"
        " 'hash': hash(ONE) == hash((1,)), 'ne': ONE != ZERO,"
        " 'eq': INF == INF and hash(INF) == hash(()),"
        " 'built': [Num in syntax._PENDING, Infinity in syntax._PENDING],"
        " 'names': [before, names(Num)]}\n"
        "out['new'] = Num(1) == ONE and Num(1) is not ONE\n"
        "print(json.dumps(out))\n")
    assert result["pending"] == [True, True]
    assert result["hash"] and result["ne"] and result["eq"] and result["new"]
    assert result["built"] == [False, False]
    before, after = result["names"]
    assert before == after == ["<record sdflow.syntax.Num>"] * 3


# --- the cyclic collector ---------------------------------------------------

DEEP = ("chan c : Channel(0, 2);\nval cw : Chan(-, c, Integer);\n"
        "flow c!;\nnetwork { actor { send cw "
        + "1 + (" * MAX_NESTING + "1" + ")" * MAX_NESTING + " } }\n")


@pytest.mark.parametrize("source, outcome", [
    ((CORPUS / "good" / "downsampler.sdf").read_text(), "network"),
    ("network { actor { 1 + } }", "expected expression, found '}'"),
    ("network { actor { ? } }", "expected expression, found '?'"),
    ("network { @ }", "unexpected character '@'"),
    (DEEP, "nested too deeply"),
], ids=["parsed", "syntax error", "bad token", "bad character", "nesting"])
@pytest.mark.parametrize("enabled", [True, False])
def test_parse_leaves_the_collector_as_it_found_it(source, outcome, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        result = parse_program(source)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    if outcome == "network":
        assert not isinstance(result, list)
    else:
        assert [d.message for d in result] == [outcome]


def _programs() -> list[str]:
    """The corpus and the generated programs perfbench's check-cli runs."""
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench import gen
    finally:
        sys.path.remove(str(ROOT))
    # read, not imported: the module imports perfbench's own modules
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    generated = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and node.targets[0].id == "CHECK_FAMILIES")
    return ([f.read_text() for f in sorted(CORPUS.glob("*/*.sdf"))]
            + [gen.FAMILIES[family](n).source
               for family, sizes in generated.items() for n in sizes])


def test_parsing_leaves_no_cyclic_garbage():
    programs = _programs()
    assert len(programs) == 64
    gc.collect()
    for source in programs:
        parse_program(source)
        assert gc.collect() == 0


def test_main_in_process_freezes_nothing(capsys):
    frozen = gc.get_freeze_count()
    assert main(["check", str(CORPUS / "good" / "downsampler.sdf")]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert gc.get_freeze_count() == frozen


def test_the_entry_point_freezes_the_start_up_objects():
    result = fresh(
        "import gc, io, json, sys, contextlib\n"
        "from sdflow.cli import entry\n"
        "sys.argv = ['sdflow', 'check', 'corpus/good/downsampler.sdf']\n"
        "before = gc.get_freeze_count()\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = entry()\n"
        "print(json.dumps([before, gc.get_freeze_count() > 1000, code,"
        " out.getvalue()]))\n")
    assert result == [0, True, 0, "ok\n"]
