"""Sessional dataflow kernel: parser, checker, scheduler and interpreter.

Public names are imported on first access, so `sdflow check` never loads
the runtime or the conformance harness."""

import importlib

_EXPORTS = {
    "conformance": ["check_preservation", "check_progress_theorem",
                    "heap_flowstate", "step_flowstate",
                    "step_flowstate_internal"],
    "flowstate": ["distribute_guard", "distribute_iterator",
                  "flowstates_equivalent", "fold_guards", "rate_summary"],
    "kinding": ["eval_size", "kind_of", "normalize_size", "size_leq"],
    "netcheck": ["check_determinism", "check_progress", "classify_event",
                 "inchans", "outchans"],
    "parser": ["parse_program", "parse_program_or_raise"],
    "printer": ["print_program"],
    "runtime": ["Fault", "explore", "instantiate", "run"],
    "syntax": ["print_flow", "print_proc_flow"],
    "typecheck": ["check_network", "check_proc", "infer_expr"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value
