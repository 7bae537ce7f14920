"""Command-line front end.

Exit codes: 0 success, 1 check failure, 2 causal cycle, 3 deadlock,
4 theorem violation, 64 usage error, 141 standard output closed by its
reader (the code a shell gives a process killed by SIGPIPE).  Diagnostics
go to stderr; machine output (JSON) goes to stdout.
"""

from __future__ import annotations

import gc
import os
import sys
from pathlib import Path

from .netcheck import schedule_to_json
from .parser import parse_program
from .syntax import Diagnostic, Network, SizeKind
from .typecheck import check_network

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CYCLE = 2
EXIT_DEADLOCK = 3
EXIT_CONFORMANCE = 4
EXIT_USAGE = 64
EXIT_PIPE = 141


def _usage(message: str):
    print(f"sdflow: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


USAGE = """\
usage: sdflow check|schedule|run|conform INPUT [--size NAME=VALUE]...
                  [--format text|json]
  run, conform: [--scheduler roundRobin|random] [--seed N] [--max-states N]
  run also has --scheduler exhaustive.  An option may come before or after
  INPUT, its value as the next word or after `=`; `--` ends the options.
"""

_COMMON = {"--size": None, "--format": ("text", "json")}
_SIMULATE = {**_COMMON, "--seed": int, "--max-states": int}
# command -> its options, each with its value's type, choices, or None
_OPTIONS = {"check": _COMMON, "schedule": _COMMON,
            "run": {**_SIMULATE, "--scheduler": ("roundRobin", "random",
                                                 "exhaustive")},
            "conform": {**_SIMULATE, "--scheduler": ("roundRobin", "random")}}


def _parse_args(argv: list[str]) -> dict:
    """The command, its input and its options' values, keyed by name
    without dashes (a default for each option not given).  `-h` prints
    `USAGE`; a malformed command line ends in `_usage`."""
    if "-h" in argv or "--help" in argv:
        print(USAGE, end="")
        raise SystemExit(EXIT_OK)
    if not argv:
        _usage("missing command: check, schedule, run or conform")
    command, words, inputs = argv[0], iter(argv[1:]), []
    if command not in _OPTIONS:
        _usage(f"unknown command {command!r}")
    args = {"command": command, "size": [], "format": "text",
            "scheduler": "roundRobin", "seed": 0, "max_states": 300_000}
    for word in words:
        if word == "--":
            inputs += words  # the rest, dashes or not
        elif word[:1] != "-" or word == "-":
            inputs.append(word)
        else:
            name, eq, value = word.partition("=")
            if name not in _OPTIONS[command]:
                _usage(f"{command} has no option {name}")
            kind = _OPTIONS[command][name]
            if not eq:
                value = next(words, None)
                # a negative number is a value, any other dash word is not
                if value is None or (value[:1] == "-"
                                     and not value[1:].isdigit()):
                    _usage(f"{name} expects a value")
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _usage(f"{name} expects an integer, got {value!r}")
            elif kind and value not in kind:
                _usage(f"{name} must be one of {', '.join(kind)}, "
                       f"got {value!r}")
            if name == "--size":
                args["size"].append(value)
            else:
                args[name[2:].replace("-", "_")] = value
    if len(inputs) != 1:
        _usage(f"{command} expects one input file, got {len(inputs)}")
    args["input"] = inputs[0]
    return args


def _parse_sizes(pairs: list[str]) -> dict[str, int]:
    sizes: dict[str, int] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not name or not value:
            _usage(f"--size expects NAME=VALUE, got {pair!r}")
        if name in sizes:
            _usage(f"--size {name} given more than once")
        try:
            n = int(value)
        except ValueError:
            _usage(f"size {name} must be an integer")
        if n < 1:
            _usage(f"size {name} must be positive")
        sizes[name] = n
    return sizes


def _print_json(payload: dict) -> None:
    import json
    print(json.dumps(payload, sort_keys=True))


def _report(diags: list[Diagnostic]) -> None:
    for d in diags:
        print(str(d), file=sys.stderr)


def _load(path: str) -> Network:
    try:
        source = Path(path).read_text()
    except OSError as exc:
        _usage(f"cannot read {path}: {exc}")
    result = parse_program(source)
    if isinstance(result, list):
        _report(result)
        raise SystemExit(EXIT_CHECK)
    return result


def main(argv=None) -> int:
    """Run one command.  A reader that closes stdout early, as in
    `sdflow schedule f.sdf | head -2`, ends it quietly with EXIT_PIPE."""
    try:
        try:
            return _command(argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that succeed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(EXIT_PIPE)


def _command(argv) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    sizes = _parse_sizes(args["size"])
    if args["command"] in ("run", "conform") and args["max_states"] < 1:
        _usage("--max-states must be positive")
    net = _load(args["input"])
    result = check_network(net)
    if not result.ok:
        _report(result.diagnostics)
        network_level = all(d.rule.startswith(("FS Prog", "FS Det"))
                            for d in result.diagnostics)
        if args["command"] == "schedule" and network_level:
            raise SystemExit(EXIT_CYCLE)
        # a well-typed but unschedulable network still runs, so the
        # deadlock itself can be demonstrated
        if not (args["command"] == "run" and network_level):
            raise SystemExit(EXIT_CHECK)
    # `run` and `conform` get the same diagnostic from `instantiate`
    if args["command"] in ("check", "schedule"):
        declared = {name for name, kind in net.tenv.items
                    if isinstance(kind, SizeKind)}
        for name in sizes:
            if name not in declared:
                _report([Diagnostic("Kind Size",
                                    f"unknown size parameter {name}")])
                raise SystemExit(EXIT_CHECK)

    if args["command"] == "check":
        if args["format"] == "json":
            _print_json({"status": "ok"})
        else:
            print("ok")
        return EXIT_OK

    if args["command"] == "schedule":
        steps = schedule_to_json(result.schedule or [])
        if args["format"] == "json":
            _print_json({"schedule": steps})
        else:
            for s in steps:
                print(f"{s['actor']:>8}  {s['action']:<8} {s['event']}"
                      f"  x {s['multiplicity']}")
        return EXIT_OK

    if args["command"] == "run":
        from .runtime import InstantiationError, explore, instantiate, run
        try:
            cfg = instantiate(net, sizes)
        except InstantiationError as exc:
            _report([exc.diag])
            raise SystemExit(EXIT_CHECK)
        if args["scheduler"] == "exhaustive":
            ex = explore(cfg, max_states=args["max_states"])
            payload = {"status": "done" if ex.all_complete else "deadlock",
                       "states": ex.states,
                       "anyComplete": ex.any_complete,
                       "allComplete": ex.all_complete,
                       "outcomes": len(ex.terminals),
                       "truncated": ex.truncated}
            if args["format"] == "json":
                _print_json(payload)
            elif ex.truncated:
                print(f"truncated after {ex.states} states")
            else:
                print(f"{payload['status']}: {ex.states} states, "
                      f"{len(ex.terminals)} outcome(s)")
            if not ex.all_complete:
                raise SystemExit(EXIT_DEADLOCK)
            return EXIT_OK
        out = run(cfg, scheduler=args["scheduler"], seed=args["seed"])
        trace = [s.to_json() for s in out.trace]
        if out.status != "done":
            if args["format"] == "json":
                _print_json({"status": out.status, "trace": trace,
                             "blocked": out.blocked})
            else:
                print(f"{out.status}: {out.blocked}", file=sys.stderr)
            raise SystemExit(EXIT_DEADLOCK)
        if args["format"] == "json":
            _print_json({"status": "done", "trace": trace})
        else:
            print(f"done in {len(trace)} steps")
        return EXIT_OK

    if args["command"] == "conform":
        from .conformance import check_preservation, check_progress_theorem
        from .runtime import InstantiationError
        try:
            pres = check_preservation(net, sizes, scheduler=args["scheduler"],
                                      seed=args["seed"], name=args["input"])
            prog = check_progress_theorem(net, sizes,
                                          max_states=args["max_states"],
                                          name=args["input"])
        except InstantiationError as exc:
            _report([exc.diag])
            raise SystemExit(EXIT_CHECK)
        payload = {"preservation": pres.to_json(),
                   "progress": prog.to_json()}
        if args["format"] == "json":
            _print_json(payload)
        else:
            print(f"preservation: {len(pres.violations)} violations over "
                  f"{pres.steps} steps")
            outcome = "complete" if prog.complete else "stuck states found"
            if prog.truncated:
                print(f"progress: truncated after {prog.states} states")
            else:
                print(f"progress: {prog.states} states, {outcome}")
        if not pres.ok or not prog.ok:
            for v in pres.violations:
                print(f"violation at step {v.step} ({v.clause}): expected "
                      f"{v.expected}, got {v.actual}", file=sys.stderr)
            for stuck in prog.stuck:
                print(f"stuck state: {stuck['actors']}", file=sys.stderr)
            raise SystemExit(EXIT_CONFORMANCE)
        return EXIT_OK

    raise SystemExit(EXIT_USAGE)


def entry() -> int:
    """The `sdflow` program: `main` in a process of its own.  What the
    imports built lives until exit, so it is frozen out of the cyclic
    collector, whose full collections, the one at exit included, would
    otherwise walk it.  `main` leaves the collector alone, as tests call
    it in process."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
