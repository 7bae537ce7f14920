"""The record helper in `sdflow.syntax` against `dataclasses`.

Every record class of the package gets a twin built by
`dataclasses.make_dataclass` from the same field specs; the two must agree
on construction, defaults, `repr`, equality, hashing, `__match_args__` and
frozen assignment.  A fresh interpreter's `import sdflow.cli` must load
neither `dataclasses` nor the runtime.
"""

import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest
from conftest import ROOT

from sdflow.syntax import (
    _MISSING, App, BinOp, Comp, Deref, Event, FrozenInstanceError, IntLit,
    Iterator, Num, SeqE, SVar, Var, record, replace,
)

MODULES = ("syntax", "parser", "kinding", "printer", "flowstate", "netcheck",
           "typecheck", "runtime", "conformance")

RECORDS = sorted(
    (cls for name in MODULES
     for _, cls in inspect.getmembers(importlib.import_module(f"sdflow.{name}"),
                                      inspect.isclass)
     if "__record_fields__" in vars(cls)
     and cls.__module__ == f"sdflow.{name}"),
    key=lambda cls: (cls.__module__, cls.__name__))


def _frozen(cls) -> bool:
    return "__setattr__" in vars(cls)


def _twin(cls):
    specs = []
    for f in cls.__record_fields__:
        kw = {"compare": f.compare, "repr": f.repr}
        if f.default is not _MISSING:
            kw["default"] = f.default
        if f.default_factory is not _MISSING:
            kw["default_factory"] = f.default_factory
        specs.append((f.name, "object", dataclasses.field(**kw)))
    namespace = {}
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    return dataclasses.make_dataclass(cls.__name__, specs,
                                      frozen=_frozen(cls),
                                      namespace=namespace)


def _sample(cls, alt_at=None):
    """Field values every `__post_init__` accepts; the field at `alt_at`
    gets a different, also accepted, value."""
    values = []
    for i, f in enumerate(cls.__record_fields__):
        base, alt = ("+", "-") if f.name == "polarity" else (1, 0)
        values.append(alt if i == alt_at else base)
    return values


def _raised(action):
    """(exception class name, AttributeError?, message), or None."""
    try:
        action()
    except Exception as exc:  # noqa: BLE001 - compared below
        return type(exc).__name__, isinstance(exc, AttributeError), str(exc)
    return None


def test_records_were_found():
    names = {cls.__name__ for cls in RECORDS}
    assert {"Num", "IntLit", "Comp", "Env", "Diagnostic",
            "Heap", "Configuration", "RunResult", "TypingResult",
            "ConformanceReport"} <= names
    assert len(RECORDS) >= 72


def test_tokens_are_plain_slotted_objects():
    # the tokenizer builds one per lexeme, so a token is no record
    from sdflow.parser import Token
    assert "__record_fields__" not in vars(Token)
    assert Token.__slots__ == ("kind", "text", "loc")
    tok = Token("op", "(", (1, 2))
    assert (tok.kind, tok.text, tok.loc) == ("op", "(", (1, 2))
    assert not hasattr(tok, "__dict__")


@pytest.mark.parametrize("cls", RECORDS,
                         ids=[f"{c.__module__[7:]}.{c.__name__}"
                              for c in RECORDS])
def test_record_matches_dataclass_twin(cls):
    twin = _twin(cls)
    fields = cls.__record_fields__
    assert cls.__match_args__ == twin.__match_args__
    assert [f.name for f in fields] == \
        [f.name for f in dataclasses.fields(twin)]

    base = _sample(cls)
    rec, tw = cls(*base), twin(*base)
    assert repr(rec) == repr(tw)
    assert (rec == cls(*base)) is (tw == twin(*base)) is True
    assert (rec != cls(*base)) is (tw != twin(*base)) is False
    assert rec.__eq__(tw) is NotImplemented
    assert rec != tw and rec != object()
    for i in range(len(fields)):
        rec_i, tw_i = cls(*_sample(cls, i)), twin(*_sample(cls, i))
        assert repr(rec_i) == repr(tw_i)
        assert (rec == rec_i) is (tw == tw_i)
        assert (rec != rec_i) is (tw != tw_i)

    if _frozen(cls):
        assert hash(rec) == hash(tw)
        assert hash(rec) == hash(tuple(getattr(rec, f.name)
                                       for f in fields if f.compare))
    else:
        assert cls.__hash__ is None and twin.__hash__ is None

    # defaults, and a fresh object per default_factory call
    required = [v for v, f in zip(base, fields)
                if f.default is _MISSING and f.default_factory is _MISSING]
    one, other = cls(*required), cls(*required)
    assert repr(one) == repr(twin(*required))
    for f in fields:
        assert getattr(one, f.name) == getattr(twin(*required), f.name)
        if f.default_factory is not _MISSING:
            assert getattr(one, f.name) is not getattr(other, f.name)

    # assignment and deletion
    for name in ([f.name for f in fields] or ["anything"]):
        assign = _raised(lambda: setattr(rec, name, 2))
        assert assign == _raised(lambda: setattr(tw, name, 2))
        delete = _raised(lambda: delattr(cls(*base), name))
        assert delete == _raised(lambda: delattr(twin(*base), name))
        if _frozen(cls):
            assert assign[:2] == ("FrozenInstanceError", True)
        else:
            assert getattr(rec, name) == 2


def test_int_literal_is_not_a_size_constant():
    assert IntLit(1) != Num(1)
    assert Num(1) != IntLit(1)
    assert IntLit(1) == IntLit(1)


def test_location_is_ignored_by_equality_hash_and_repr():
    a, b = IntLit(1, (1, 2)), IntLit(1, (3, 4))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "IntLit(value=1)"
    assert a.loc == (1, 2)


def test_a_frozen_default_is_stored_only_when_another_object_is_passed():
    assert "loc" not in vars(IntLit(1)) and IntLit(1).loc is None
    assert IntLit(1, (2, 3)).loc == (2, 3)
    assert replace(IntLit(1, (2, 3)), value=2).loc == (2, 3)

    default = Num(7)

    @record(frozen=True)
    class Box:
        size: Num = default

    equal = Num(7)
    assert "size" not in vars(Box()) and Box().size is default
    assert "size" not in vars(Box(default))
    assert vars(Box(equal))["size"] is equal and Box(equal).size is equal
    assert Box(equal) == Box() and equal is not default


def test_generated_methods_have_one_file_name_per_class():
    # profilers key functions by (file name, line, name): one file name per
    # class keeps each class's `__init__` a row of its own
    names = [cls.__init__.__code__.co_filename for cls in RECORDS
             if _frozen(cls)]
    assert len(names) > 57 and len(set(names)) == len(names)
    assert IntLit.__init__.__code__.co_filename == \
        "<record sdflow.syntax.IntLit>"


def test_hash_is_hash_of_compared_fields():
    e = Event("c", True, SVar("t"))
    its = (Iterator("t", Num(1), SVar("s")),)
    assert hash(Comp(e, its)) == hash((e, its, ()))
    assert {Comp(e, its): 1}[Comp(e, its, ())] == 1


def test_a_kept_hash_is_the_hash_of_a_fresh_construction():
    def build():
        return App(Var("f"), (BinOp("+", IntLit(1), Var("x")),
                              SeqE(IntLit(2), Deref(Var("r")))))
    one, other = build(), build()
    assert one is not other and hash(one) == hash(other)
    assert vars(one)["_hash"] == hash(one) == hash(other)  # kept once taken
    assert "_hash" not in vars(build())
    # `replace` builds a new node from the fields alone, so the kept hash of
    # the node it copies does not travel with it
    arg = BinOp("-", IntLit(3), Var("y"))
    changed = replace(one, args=(arg,))
    assert "_hash" not in vars(changed)
    assert hash(changed) == hash(App(Var("f"), (arg,))) != hash(one)
    assert changed == App(Var("f"), (BinOp("-", IntLit(3), Var("y")),))


def test_replace_keeps_unchanged_fields_and_location():
    a = IntLit(1, (1, 2))
    b = replace(a, value=2)
    assert b == IntLit(2) and b.loc == (1, 2) and a.value == 1
    assert replace(Event("c", True), index=Num(3)) == Event("c", True, Num(3))
    with pytest.raises(ValueError):
        replace(Num(1), value=-1)      # __post_init__ runs again
    with pytest.raises(TypeError):
        replace(Num(1), nope=1)


def test_post_init_still_validates():
    with pytest.raises(ValueError):
        Num(-1)


def test_frozen_error_is_an_attribute_error():
    assert issubclass(FrozenInstanceError, AttributeError)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field"):
        Num(1).value = 2


def test_cli_import_loads_only_the_checker():
    script = (
        "import json, sys\n"
        "import sdflow.cli\n"
        "loaded = sorted(m for m in ('dataclasses', 'inspect',"
        " 'sdflow.runtime', 'sdflow.conformance') if m in sys.modules)\n"
        "import sdflow\n"
        "from sdflow import run, check_network, check_preservation\n"
        "print(json.dumps({'loaded': loaded,"
        " 'all': sorted(sdflow.__all__),"
        " 'names': [run.__module__, check_network.__module__,"
        " check_preservation.__module__]}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, cwd=ROOT, env=env, check=True)
    result = json.loads(out.stdout)
    assert result["loaded"] == []
    assert result["names"] == ["sdflow.runtime", "sdflow.typecheck",
                               "sdflow.conformance"]
    assert result["all"] == sorted([
        "parse_program", "parse_program_or_raise", "print_program",
        "print_flow", "print_proc_flow", "eval_size", "normalize_size",
        "size_leq", "kind_of", "fold_guards", "distribute_iterator",
        "distribute_guard", "rate_summary", "flowstates_equivalent",
        "infer_expr", "check_proc", "check_network", "classify_event",
        "inchans", "outchans", "check_determinism",
        "check_progress", "instantiate", "run", "explore",
        "check_preservation", "check_progress_theorem"])


def test_each_exported_name_resolves_to_its_defining_module():
    # a function that moves between modules must move in `_EXPORTS` too
    import sdflow
    for name in sdflow.__all__:
        module = importlib.import_module(
            f"sdflow.{sdflow._MODULE_OF[name]}")
        value = sdflow.__getattr__(name)
        assert value is getattr(module, name)
        assert value.__module__ == module.__name__, name


def test_package_names_resolve_lazily():
    import sdflow
    assert sdflow.run is importlib.import_module("sdflow.runtime").run
    with pytest.raises(AttributeError):
        sdflow.no_such_name
