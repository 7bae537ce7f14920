"""Every function perfbench's traced pass wraps still exists.

`perfbench/layers.py` names the wrapped functions as "module.function"
strings; a name that no longer resolves makes the tracer drop every metric
that depends on it (`Tracer.missing`), so a refactor could silently turn a
per-layer metric into an absent one.  The file is read, not imported: it
imports perfbench's own modules.
"""

import ast
import importlib

from conftest import ROOT

LAYERS = ROOT / "perfbench" / "layers.py"


def wrapped_names() -> list[str]:
    install = next(node for node in ast.walk(ast.parse(LAYERS.read_text()))
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "install")
    call = next(node for node in ast.walk(install)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "install")
    kwargs = {kw.arg: kw.value for kw in call.keywords}
    return ([ast.literal_eval(key) for key in kwargs["spans"].keys]
            + ast.literal_eval(kwargs["counters"]))


def test_wrapped_names_include_the_step_machine_counters():
    names = wrapped_names()
    assert {"runtime.step_expr", "runtime.commit", "runtime.run"} <= set(names)


def test_every_wrapped_name_is_an_sdflow_attribute():
    missing = []
    for name in wrapped_names():
        module, _, attr = name.rpartition(".")
        if not callable(getattr(importlib.import_module(f"sdflow.{module}"),
                                attr, None)):
            missing.append(name)
    assert missing == []


def test_check_preservation_passes_its_observer_to_run_by_keyword(monkeypatch):
    # perfbench times the observer through `kwarg_spans` on `runtime.run`,
    # which sees keyword arguments only
    from conftest import load
    from sdflow import conformance
    from sdflow.parser import parse_program_or_raise
    seen = []
    real_run = conformance.run

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(conformance, "run", spy)
    net = parse_program_or_raise(load("good", "pipeline2.sdf"))
    assert conformance.check_preservation(net, {"n": 2}).ok
    assert len(seen) == 1 and callable(seen[0].get("observer"))
