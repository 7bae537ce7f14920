"""Every function perfbench's traced pass wraps still exists, and the
calls perfbench makes still mean what they meant.

`perfbench/layers.py` names the wrapped functions as "module.function"
strings; a name that no longer resolves makes the tracer drop every metric
that depends on it (`Tracer.missing`), so a refactor could silently turn a
per-layer metric into an absent one.  The file is read, not imported: it
imports perfbench's own modules.  `parser.tokens_per_s` divides
`len(parser.tokenize(source))` by the parse time, and
`workloads.expected_counts` calls `flowstate.proc_rate_summary(tenv, flow)`
on a network `check_network` has already summarized.  `workloads.count_comps`
walks `PPar` and `FSeq` through their binary `left`/`right` view, the one
reason that view exists.
"""

import ast
import importlib
import inspect

from conftest import CORPUS, ROOT, load

from sdflow import flowstate, parser, syntax
from sdflow.parser import parse_program, parse_program_or_raise
from sdflow.syntax import Num
from sdflow.typecheck import check_network

LAYERS = ROOT / "perfbench" / "layers.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


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


def count_comps():
    """`workloads.count_comps`, compiled alone from its source: the module
    imports perfbench's own modules."""
    tree = ast.parse(WORKLOADS.read_text())
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "count_comps")
    namespace: dict = {}
    exec(compile(ast.Module([fn], type_ignores=[]), str(WORKLOADS), "exec"),
         namespace)
    return namespace["count_comps"]


def test_count_comps_counts_what_flow_comps_finds(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import gen
    count = count_comps()
    sources = [f.read_text() for f in sorted(CORPUS.glob("*/*.sdf"))]
    sources.append(gen.pipeline(2000).source)
    flows = 0
    for source in sources:
        net = parse_program(source)
        if isinstance(net, list):
            continue
        for flow in (net.flow, check_network(net).flow):
            if flow is None:
                continue
            expected = sum(len(syntax.flow_comps(
                part.flow if isinstance(part, syntax.PActor) else part.body))
                for part in syntax.proc_flow_components(flow))
            assert count(syntax, flow) == expected
            flows += 1
    assert flows > 60


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
    from sdflow import conformance
    seen = []
    real_run = conformance.run

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(conformance, "run", spy)
    net = parse_program_or_raise(load("good", "pipeline2.sdf"))
    assert conformance.check_preservation(net, {"n": 2}).ok
    assert len(seen) == 1 and callable(seen[0].get("observer"))


def test_token_count_is_lexemes_plus_the_end(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import gen
    for program, count in ((gen.pipeline(600), 47_352),
                           (gen.long_actor(2000), 8_085)):
        lexemes = [m for m in parser._TOKEN_RE.finditer(program.source)
                   if m.lastgroup not in ("ws", "comment")]
        assert len(parser.tokenize(program.source)) == len(lexemes) + 1 == count


def test_proc_rate_summary_takes_tenv_and_flow():
    params = inspect.signature(flowstate.proc_rate_summary).parameters
    assert len(params) == 2
    assert all(p.default is inspect.Parameter.empty for p in params.values())


def test_a_summary_handed_out_cannot_change_later_results():
    source = load("good", "pipeline3.sdf")
    net = parse_program_or_raise(source)
    result = check_network(net)
    assert result.ok
    fresh = flowstate.proc_rate_summary(
        net.tenv, check_network(parse_program_or_raise(source)).flow)
    # the declared flowstate's summaries are kept too, and a second check
    # of `net` compares the actors with them
    for get in (lambda: flowstate.proc_rate_summary(net.tenv, result.flow),
                lambda: flowstate.rate_summary(net.tenv,
                                               result.flow.left.left.flow),
                lambda: flowstate.rate_summary(net.tenv,
                                               net.flow.left.left.flow)):
        summary = get()
        assert summary
        for key in summary:
            summary[key] = Num(999)
        summary[("nowhere", "send")] = Num(1)
        assert get() != summary
    assert flowstate.proc_rate_summary(net.tenv, result.flow) == fresh
    again = check_network(net)
    assert again.ok and again.schedule == result.schedule
