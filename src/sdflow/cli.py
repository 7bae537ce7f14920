"""Command-line front end.

Exit codes: 0 success, 1 check failure, 2 causal cycle, 3 deadlock,
4 theorem violation, 64 usage error, 141 standard output closed by its
reader (the code a shell gives a process killed by SIGPIPE).  Diagnostics
go to stderr; machine output (JSON) goes to stdout.
"""

from __future__ import annotations

import argparse
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sdflow",
                     description="Check, schedule, run and verify dataflow "
                                 "networks with flowstate types.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="path to a .sdf program")
        p.add_argument("--size", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="instantiate a size parameter (repeatable)")
        p.add_argument("--format", choices=["text", "json"], default="text")

    p_check = sub.add_parser("check", help="parse and check a network")
    common(p_check)

    p_sched = sub.add_parser("schedule",
                             help="emit the firing order found by the "
                                  "progress check")
    common(p_sched)

    p_run = sub.add_parser("run", help="execute one firing")
    common(p_run)
    p_run.add_argument("--scheduler",
                       choices=["roundRobin", "random", "exhaustive"],
                       default="roundRobin")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--max-states", type=int, default=300_000,
                       help="state budget for the exhaustive scheduler")

    p_conf = sub.add_parser("conform",
                            help="co-simulate and verify the preservation "
                                 "and progress properties")
    common(p_conf)
    p_conf.add_argument("--scheduler", choices=["roundRobin", "random"],
                        default="roundRobin")
    p_conf.add_argument("--seed", type=int, default=0)
    p_conf.add_argument("--max-states", type=int, default=300_000)
    return parser


def _usage(message: str):
    print(f"sdflow: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


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
    args = _build_parser().parse_args(argv)
    sizes = _parse_sizes(args.size)
    if args.command in ("run", "conform") and args.max_states < 1:
        _usage("--max-states must be positive")
    net = _load(args.input)
    result = check_network(net)
    if not result.ok:
        _report(result.diagnostics)
        network_level = all(d.rule.startswith(("FS Prog", "FS Det"))
                            for d in result.diagnostics)
        if args.command == "schedule" and network_level:
            raise SystemExit(EXIT_CYCLE)
        # a well-typed but unschedulable network still runs, so the
        # deadlock itself can be demonstrated
        if not (args.command == "run" and network_level):
            raise SystemExit(EXIT_CHECK)
    # `run` and `conform` get the same diagnostic from `instantiate`
    if args.command in ("check", "schedule"):
        declared = {name for name, kind in net.tenv.items
                    if isinstance(kind, SizeKind)}
        for name in sizes:
            if name not in declared:
                _report([Diagnostic("Kind Size",
                                    f"unknown size parameter {name}")])
                raise SystemExit(EXIT_CHECK)

    if args.command == "check":
        if args.format == "json":
            _print_json({"status": "ok"})
        else:
            print("ok")
        return EXIT_OK

    if args.command == "schedule":
        steps = schedule_to_json(result.schedule or [])
        if args.format == "json":
            _print_json({"schedule": steps})
        else:
            for s in steps:
                print(f"{s['actor']:>8}  {s['action']:<8} {s['event']}"
                      f"  x {s['multiplicity']}")
        return EXIT_OK

    if args.command == "run":
        from .runtime import InstantiationError, explore, instantiate, run
        try:
            cfg = instantiate(net, sizes)
        except InstantiationError as exc:
            _report([exc.diag])
            raise SystemExit(EXIT_CHECK)
        if args.scheduler == "exhaustive":
            ex = explore(cfg, max_states=args.max_states)
            payload = {"status": "done" if ex.all_complete else "deadlock",
                       "states": ex.states,
                       "anyComplete": ex.any_complete,
                       "allComplete": ex.all_complete,
                       "outcomes": len(ex.terminals),
                       "truncated": ex.truncated}
            if args.format == "json":
                _print_json(payload)
            elif ex.truncated:
                print(f"truncated after {ex.states} states")
            else:
                print(f"{payload['status']}: {ex.states} states, "
                      f"{len(ex.terminals)} outcome(s)")
            if not ex.all_complete:
                raise SystemExit(EXIT_DEADLOCK)
            return EXIT_OK
        out = run(cfg, scheduler=args.scheduler, seed=args.seed)
        trace = [s.to_json() for s in out.trace]
        if out.status != "done":
            if args.format == "json":
                _print_json({"status": out.status, "trace": trace,
                             "blocked": out.blocked})
            else:
                print(f"{out.status}: {out.blocked}", file=sys.stderr)
            raise SystemExit(EXIT_DEADLOCK)
        if args.format == "json":
            _print_json({"status": "done", "trace": trace})
        else:
            print(f"done in {len(trace)} steps")
        return EXIT_OK

    if args.command == "conform":
        from .conformance import check_preservation, check_progress_theorem
        from .runtime import InstantiationError
        try:
            pres = check_preservation(net, sizes, scheduler=args.scheduler,
                                      seed=args.seed, name=args.input)
            prog = check_progress_theorem(net, sizes,
                                          max_states=args.max_states,
                                          name=args.input)
        except InstantiationError as exc:
            _report([exc.diag])
            raise SystemExit(EXIT_CHECK)
        payload = {"preservation": pres.to_json(),
                   "progress": prog.to_json()}
        if args.format == "json":
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
