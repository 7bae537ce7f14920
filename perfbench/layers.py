"""Which sdflow functions the traced run wraps, and the per-layer metrics
derived from the spans and counters of one traced pass.

Every metric is a total over one pass of the workload's operations.  A layer
that a workload does not reach reports 0; a metric whose wrapped function no
longer exists is left out (see `Tracer.missing`).
"""

from __future__ import annotations

from spans import Tracer


def _parse_tokens(parser):
    return lambda args, result: len(parser.tokenize(args[0]))


def _schedule_steps(syntax):
    def measure(args, result):
        if isinstance(result, list) and not any(
                isinstance(x, syntax.Diagnostic) for x in result):
            return len(result)
        return 0
    return measure


def install(tracer: Tracer, mods: dict) -> None:
    from workloads import count_comps
    syntax = mods["syntax"]
    tracer.install(
        spans={
            "parser.parse_program": _parse_tokens(mods["parser"]),
            "typecheck.check_network":
                lambda args, r: count_comps(syntax, r.flow),
            "kinding.check_type_env": None,
            "kinding.check_value_env": None,
            "flowstate.proc_rate_summary": None,
            "flowstate.proc_flows_equivalent": None,
            "netcheck.check_determinism": None,
            "netcheck.check_progress": _schedule_steps(syntax),
            "runtime.instantiate": None,
            "runtime.run": None,
            "runtime.explore": lambda args, r: r.states,
            "conformance.check_preservation": None,
            "conformance.check_progress_theorem": None,
        },
        counters=["runtime.step_expr", "runtime.commit",
                  "conformance.comp_occurrence_count",
                  "conformance.heap_flow_counts"],
        kwarg_spans={"runtime.run": {"observer": "conformance.observer"}})


UNITS = {
    "cli.import_ms": "ms", "cli.overhead_ms": "ms",
    "parser.s": "s", "parser.tokens_per_s": "1/s", "kinding.s": "s",
    "typecheck.s": "s", "typecheck.comps": "count",
    "flowstate.rate_s": "s", "flowstate.equiv_s": "s",
    "netcheck.det_s": "s", "netcheck.progress_s": "s",
    "netcheck.schedule_steps": "count",
    "runtime.instantiate_s": "s", "runtime.run_s": "s",
    "runtime.steps": "count", "runtime.polls": "count",
    "runtime.useful_poll_ratio": "ratio", "runtime.explore_s": "s",
    "runtime.states": "count", "runtime.commits": "count",
    "runtime.useful_commit_ratio": "ratio",
    "conformance.preservation_s": "s", "conformance.observer_s": "s",
    "conformance.count_calls": "count", "conformance.count_s": "s",
    "conformance.heap_counts_s": "s", "conformance.progress_s": "s",
    "conformance.conform_over_run": "ratio", "trace.overhead_pct": "%",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _metrics(t: Tracer) -> dict[str, tuple]:
    """name -> (value, keys of the wrapped functions it depends on)."""
    parser_s = t.layer_self_time("parser")
    run_s = t.self_time("runtime.run")          # the machine, observer excluded
    steps = t.calls("runtime.commit", "runtime.run")
    polls = t.calls("runtime.step_expr", "runtime.run")
    states = t.measured["runtime.explore"]
    commits = t.calls("runtime.commit", "runtime.explore")
    preservation_s = t.inclusive("conformance.check_preservation")
    return {
        "parser.s": (parser_s, ["parser.parse_program"]),
        "parser.tokens_per_s": (_ratio(t.measured["parser.parse_program"],
                                       parser_s), ["parser.parse_program"]),
        "kinding.s": (t.layer_self_time("kinding"),
                      ["kinding.check_type_env", "kinding.check_value_env"]),
        "typecheck.s": (t.layer_self_time("typecheck"),
                        ["typecheck.check_network"]),
        "typecheck.comps": (t.measured["typecheck.check_network"],
                            ["typecheck.check_network"]),
        "flowstate.rate_s": (t.inclusive("flowstate.proc_rate_summary"),
                             ["flowstate.proc_rate_summary"]),
        "flowstate.equiv_s": (t.inclusive("flowstate.proc_flows_equivalent"),
                              ["flowstate.proc_flows_equivalent"]),
        "netcheck.det_s": (t.inclusive("netcheck.check_determinism"),
                           ["netcheck.check_determinism"]),
        "netcheck.progress_s": (t.inclusive("netcheck.check_progress"),
                                ["netcheck.check_progress"]),
        "netcheck.schedule_steps": (t.measured["netcheck.check_progress"],
                                    ["netcheck.check_progress"]),
        "runtime.instantiate_s": (t.inclusive("runtime.instantiate"),
                                  ["runtime.instantiate"]),
        "runtime.run_s": (run_s, ["runtime.run"]),
        "runtime.steps": (steps, ["runtime.run", "runtime.commit"]),
        "runtime.polls": (polls, ["runtime.run", "runtime.step_expr"]),
        "runtime.useful_poll_ratio": (_ratio(steps, polls),
                                      ["runtime.run", "runtime.commit",
                                       "runtime.step_expr"]),
        "runtime.explore_s": (t.inclusive("runtime.explore"),
                              ["runtime.explore"]),
        "runtime.states": (states, ["runtime.explore"]),
        "runtime.commits": (commits, ["runtime.explore", "runtime.commit"]),
        "runtime.useful_commit_ratio": (_ratio(states, commits),
                                        ["runtime.explore", "runtime.commit"]),
        "conformance.preservation_s": (preservation_s,
                                       ["conformance.check_preservation"]),
        "conformance.observer_s": (t.inclusive("conformance.observer"),
                                   ["runtime.run"]),
        "conformance.count_calls": (
            t.calls("conformance.comp_occurrence_count"),
            ["conformance.comp_occurrence_count"]),
        "conformance.count_s": (t.count_s["conformance.comp_occurrence_count"],
                                ["conformance.comp_occurrence_count"]),
        "conformance.heap_counts_s": (
            t.count_s["conformance.heap_flow_counts"],
            ["conformance.heap_flow_counts"]),
        "conformance.progress_s": (
            t.inclusive("conformance.check_progress_theorem"),
            ["conformance.check_progress_theorem"]),
        "conformance.conform_over_run": (
            _ratio(preservation_s, run_s),
            ["conformance.check_preservation", "runtime.run"]),
    }


def layer_metrics(t: Tracer) -> dict[str, float]:
    return {name: float(value) for name, (value, deps) in _metrics(t).items()
            if not t.missing.intersection(deps)}
