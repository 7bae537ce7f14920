"""The `run` and `conform` commands, which `sdflow check` never loads.

`run --format json` writes, once the run ends, what `json.dumps(...,
sort_keys=True)` would, one trace entry at a time: `trace_json` rebuilds
each entry's fills from the one fill the run's entry holds.
"""

from __future__ import annotations

import json
import sys

from .cli import (
    EXIT_CHECK, EXIT_CONFORMANCE, EXIT_DEADLOCK, EXIT_OK, _print_json, _report,
)
from .runtime import InstantiationError, explore, instantiate, run

_encode = json.JSONEncoder(sort_keys=True).encode


def trace_json(sizes: dict, entries):
    """The JSON text of each of a run's `entries`, once its fill is applied,
    in place, to `sizes`: at first `Heap.buffer_sizes()` of the
    configuration the run started from."""
    for entry in entries:
        label = entry.label
        shown = {"kind": "internal"}
        if label is not None:
            shown = {"kind": "send" if label.is_send else "recv",
                     "channel": label.chan}
            if label.index is None:
                sizes[label.chan] = entry.fill
            else:
                shown["index"] = label.index
                sizes[label.chan][label.index - 1] = entry.fill
        yield _encode({"step": entry.step, "actor": entry.actor,
                       "label": shown, "bufferSizes": sizes})


def run_command(net, sizes: dict, args: dict) -> int:
    """`sdflow run`: one schedule, or every interleaving (`exhaustive`)."""
    try:
        cfg = instantiate(net, sizes)
    except InstantiationError as exc:
        _report([exc.diag])
        raise SystemExit(EXIT_CHECK)
    as_json = args["format"] == "json"
    if args["scheduler"] == "exhaustive":
        ex = explore(cfg, max_states=args["max_states"])
        status = "diverges" if ex.cycle else \
            "done" if ex.all_complete else "deadlock"
        if as_json:
            _print_json({"status": status, "states": ex.states,
                         "anyComplete": ex.any_complete,
                         "allComplete": ex.all_complete,
                         "outcomes": len(ex.terminals),
                         "truncated": ex.truncated})
        elif ex.truncated:
            print(f"truncated after {ex.states} states")
        else:
            print(f"{status}: {ex.states} states, "
                  f"{len(ex.terminals)} outcome(s)")
        if not ex.all_complete:
            raise SystemExit(EXIT_DEADLOCK)
        return EXIT_OK
    entries: list = []
    out = run(cfg, scheduler=args["scheduler"], seed=args["seed"],
              observer=(lambda entry, _: entries.append(entry))
              if as_json else None)
    if as_json:
        head = {"status": out.status}
        if not out.ok:
            head["blocked"] = out.blocked
        # `trace` sorts after `blocked` and `status`, so it ends the object;
        # `run` stepped a copy, so `cfg` still holds the first fills
        write = sys.stdout.write
        write(_encode(head)[:-1] + ', "trace": [')
        for k, line in enumerate(trace_json(cfg.heap.buffer_sizes(),
                                            entries)):
            write(", " + line if k else line)
        write("]}\n")
    elif out.ok:
        print(f"done in {out.steps} steps")
    else:
        print(f"{out.status}: {out.blocked}", file=sys.stderr)
    if not out.ok:
        raise SystemExit(EXIT_DEADLOCK)
    return EXIT_OK


def conform_command(net, sizes: dict, args: dict) -> int:
    """`sdflow conform`: both theorems, by co-simulation and exploration."""
    from .conformance import check_preservation, check_progress_theorem
    try:
        pres = check_preservation(net, sizes, scheduler=args["scheduler"],
                                  seed=args["seed"], name=args["input"])
        prog = check_progress_theorem(net, sizes,
                                      max_states=args["max_states"],
                                      name=args["input"])
    except InstantiationError as exc:
        _report([exc.diag])
        raise SystemExit(EXIT_CHECK)
    if args["format"] == "json":
        _print_json({"preservation": pres.to_json(),
                     "progress": prog.to_json()})
    else:
        print(f"preservation: {len(pres.violations)} violations over "
              f"{pres.steps} steps")
        outcome = "cycle found" if prog.cycle else \
            "complete" if prog.complete else "stuck states found"
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
